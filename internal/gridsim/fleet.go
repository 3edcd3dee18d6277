package gridsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/transport"
	"repro/internal/worker"
)

// host is one active processor hosting a B&B process.
type host struct {
	id      transport.WorkerID
	session *worker.Session
	rate    float64 // nodes per virtual second
	credit  float64 // fractional node budget

	lastUpdateCount int64   // session updates seen so far
	lastUpdateSecs  float64 // virtual time of the last update

	// Table 2 accounting, kept by Sim around the shared step.
	presentSecs float64
	exploreSecs float64
	pendingComm float64 // stall carried into the next tick
	lastMsgs    int64
}

// domainState groups the slots of one administrative domain.
type domainState struct {
	slots     []int
	phase     float64
	noise     float64 // slowly varying availability offset
	nextNoise float64 // when to redraw it
}

// fleet is the volatile processor pool both simulators run on: the slot
// layout, the availability-driven churn, the host lifecycle (join, graceful
// leave, crash) and the per-tick step that turns a host's CPU time into a
// node budget for its session. What a host runs is the start constructor's
// business: a single-resolution session for Sim, a multi-job one for
// MultiJobSim.
type fleet struct {
	avail                AvailabilityModel
	tickSeconds          float64
	nodesPerGHzPerSecond float64
	updatePeriodSeconds  float64
	rng                  *rand.Rand
	// idPrefix keeps the two simulators' worker ids apart.
	idPrefix string
	// start builds the session of a host joining on slot; cfg carries the
	// id, power, update period and core count the fleet computed for it.
	start func(slot int, cfg worker.Config) *worker.Session

	slots   []float64 // GHz per processor slot
	cores   []int     // cores per processor slot (>= 1)
	domains []domainState
	active  []*host // per slot, nil = idle host
	retired []*host

	nowSecs   float64
	nextID    int64 // worker id sequence
	lostNodes int64 // explored but never reported before a crash

	joins, leaves, crashes int64
}

// newFleet expands a pool into per-slot speeds and cores plus domain
// groups, drawing each domain's availability phase from the seed's rng.
func newFleet(pool []CPUSpec, m AvailabilityModel, seed int64, idPrefix string) *fleet {
	f := &fleet{avail: m, rng: rand.New(rand.NewSource(seed)), idPrefix: idPrefix}
	domIdx := make(map[string]int)
	for _, spec := range pool {
		di, ok := domIdx[spec.Domain]
		if !ok {
			di = len(f.domains)
			domIdx[spec.Domain] = di
			f.domains = append(f.domains, domainState{
				phase: (f.rng.Float64()*2 - 1) * m.PhaseJitterRadians,
			})
		}
		slotCores := spec.Cores
		if slotCores < 1 {
			slotCores = 1
		}
		for i := 0; i < spec.Count; i++ {
			f.domains[di].slots = append(f.domains[di].slots, len(f.slots))
			f.slots = append(f.slots, spec.GHz)
			f.cores = append(f.cores, slotCores)
		}
	}
	f.active = make([]*host, len(f.slots))
	return f
}

// clock is the virtual clock handed to every coordinator.
func (f *fleet) clock() int64 { return int64(f.nowSecs * 1e9) }

// beginTick moves the virtual clock to the tick and lets every domain
// drift toward its availability target, creating and retiring hosts. The
// random component of the target is redrawn only every NoisePeriodSeconds
// — hosts are claimed and released by their owners on the scale of tens of
// minutes, not per scheduler tick — and a small deadband avoids churning
// workers over one-host wobbles.
func (f *fleet) beginTick(tick int) {
	f.nowSecs = float64(tick) * f.tickSeconds
	m := &f.avail
	for di := range f.domains {
		d := &f.domains[di]
		if f.nowSecs >= d.nextNoise {
			d.noise = (f.rng.Float64()*2 - 1) * m.NoiseFraction
			period := m.NoisePeriodSeconds
			if period <= 0 {
				period = 1800
			}
			d.nextNoise = f.nowSecs + period
		}
		frac := m.Fraction(d.phase, f.nowSecs) + d.noise
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		target := int(frac * float64(len(d.slots)))
		active := 0
		for _, slot := range d.slots {
			if f.active[slot] != nil {
				active++
			}
		}
		deadband := len(d.slots) / 100
		if diff := active - target; diff >= -deadband && diff <= deadband {
			continue
		}
		maxDelta := len(d.slots)
		if m.RampSeconds > 0 {
			maxDelta = int(math.Ceil(float64(len(d.slots)) * f.tickSeconds / m.RampSeconds))
			if maxDelta < 1 {
				maxDelta = 1
			}
		}
		switch {
		case active < target:
			need := min(target-active, maxDelta)
			for _, slot := range d.slots {
				if need == 0 {
					break
				}
				if f.active[slot] == nil {
					f.join(slot)
					need--
				}
			}
		case active > target:
			drop := min(active-target, maxDelta)
			for _, slot := range d.slots {
				if drop == 0 {
					break
				}
				if f.active[slot] != nil {
					f.leave(slot)
					drop--
				}
			}
		}
	}
}

// join starts a fresh B&B process on the slot. Its exploration rate and
// its reported power both scale with the slot's core count.
func (f *fleet) join(slot int) {
	f.nextID++
	id := transport.WorkerID(fmt.Sprintf("%s-%d-s%d", f.idPrefix, f.nextID, slot))
	cores := f.cores[slot]
	rate := f.slots[slot] * float64(cores) * f.nodesPerGHzPerSecond * (1 - f.avail.HostLoadFraction)
	power := int64(rate * 1000) // fixed-point so slow hosts stay > 0
	if power < 1 {
		power = 1
	}
	updateNodes := int64(rate * f.updatePeriodSeconds)
	if updateNodes < 1 {
		updateNodes = 1
	}
	sess := f.start(slot, worker.Config{ID: id, Power: power, UpdatePeriodNodes: updateNodes, Cores: cores})
	f.active[slot] = &host{id: id, session: sess, rate: rate, lastUpdateSecs: f.nowSecs}
	f.joins++
}

// leave retires the slot's host: gracefully (a final checkpoint — the
// cycle-stealing owner reclaimed the machine and the process saved its
// state) or by crash (no checkpoint; the lease mechanism will orphan its
// intervals).
func (f *fleet) leave(slot int) {
	w := f.active[slot]
	if f.rng.Float64() < f.avail.CrashShare {
		// The work since the last checkpoint dies with the host and
		// will be re-explored by whoever inherits the interval: it is
		// redundant by construction (the paper's "redundant nodes").
		f.lostNodes += w.session.Stats().Explored - w.session.Reported().Explored
		f.crashes++
	} else if err := w.session.Checkpoint(); err == nil {
		f.leaves++
	} else {
		// Best-effort final checkpoint; a failing coordinator here just
		// looks like a crash.
		f.crashes++
	}
	f.active[slot] = nil
	f.retired = append(f.retired, w)
}

// step spends explTime virtual seconds of the host's CPU: the time is
// banked as fractional node credit and every whole node goes to the
// session as its budget. A host without credit for a whole node still
// acquires work when idle (a request costs no exploration budget). A
// session that ran out of work partway through its budget forfeits the
// leftover credit. done relays the coordinator declaring the resolution
// over.
func (f *fleet) step(w *host, explTime float64) (n, budget int64, done bool, err error) {
	w.credit += w.rate * explTime
	budget = int64(w.credit)
	if budget <= 0 && w.session.HasWork() {
		return 0, budget, false, nil
	}
	n, done, err = w.session.Advance(budget)
	if err != nil {
		return n, budget, done, fmt.Errorf("gridsim: worker %s: %w", w.id, err)
	}
	w.credit -= float64(n)
	if n < budget && !w.session.HasWork() {
		w.credit = 0
	}
	return n, budget, done, nil
}

// maybeCheckpoint triggers the host's periodic time-based interval
// update: even a host too slow to finish a node within a period must
// re-register its fold — it keeps the lease alive and bounds the work lost
// to a crash (§4.1).
func (f *fleet) maybeCheckpoint(w *host) error {
	if u := w.session.Messages.Updates; u > w.lastUpdateCount {
		// The session updated on its own (node-count cadence).
		w.lastUpdateCount = u
		w.lastUpdateSecs = f.nowSecs
		return nil
	}
	if f.nowSecs-w.lastUpdateSecs < f.updatePeriodSeconds {
		return nil
	}
	if err := w.session.Checkpoint(); err != nil {
		return fmt.Errorf("gridsim: worker %s checkpoint: %w", w.id, err)
	}
	w.lastUpdateCount = w.session.Messages.Updates
	w.lastUpdateSecs = f.nowSecs
	return nil
}
