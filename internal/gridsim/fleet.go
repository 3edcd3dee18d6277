package gridsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/transport"
	"repro/internal/worker"
)

// host is one processor hosting a B&B process, from the tick its join is
// planned to the tick it leaves.
type host struct {
	id      transport.WorkerID
	slot    int
	session *worker.Session // nil until the join is applied
	pace

	// leaveTick is the tick its planned leave is applied at; math.MaxInt
	// while no leave is planned.
	leaveTick int
	// quietUntil is the first tick worth planning a span at again;
	// never, for a multicore host, which keeps per-tick stepping.
	quietUntil int

	// Table 2 accounting, kept by Sim around the step.
	presentSecs float64
	exploreSecs float64
	lastMsgs    int64
}

// pace is what turns a host's ticks into node budgets and time-based
// checkpoints. It changes only with the ticks and the host's own
// exchanges, so span steps a copy of it through coming ticks with the same
// float operations the tick loop uses.
type pace struct {
	rate   float64 // nodes per virtual second
	credit float64 // fractional node budget
	stall  float64 // WAN round trips still owed, carried into next ticks

	lastUpdateCount int64   // session updates seen so far
	lastUpdateSecs  float64 // virtual time of the last update
}

// tick spends one tick of dt virtual seconds: a pending stall eats into
// it first and the rest is banked as node credit. It returns the
// exploration time and the whole-node budget; ok is false when the stall
// takes the whole tick.
func (p *pace) tick(dt float64) (explTime float64, budget int64, ok bool) {
	explTime = dt
	if p.stall > 0 {
		if p.stall >= explTime {
			p.stall -= explTime
			return 0, 0, false
		}
		explTime -= p.stall
		p.stall = 0
	}
	p.credit += p.rate * explTime
	return explTime, int64(p.credit), true
}

// due reports whether the time-based checkpoint falls due at now, given
// the session's update count: a count that moved since the last look
// restarts the period instead (the session updated on its own cadence).
func (p *pace) due(updates int64, now, period float64) bool {
	if updates > p.lastUpdateCount {
		p.lastUpdateCount = updates
		p.lastUpdateSecs = now
		return false
	}
	return now-p.lastUpdateSecs >= period
}

// domainState groups the slots of one administrative domain.
type domainState struct {
	slots     []int
	phase     float64
	noise     float64 // slowly varying availability offset
	nextNoise float64 // when to redraw it
}

// churn is one planned fleet event: w joins, or leaves by crash or
// gracefully.
type churn struct {
	w     *host
	leave bool
	crash bool
}

// handout is a tick of a span that hands out whole nodes, and the span's
// node count up to it.
type handout struct {
	tick int
	upTo int64
}

// lookahead is how many ticks ahead the fleet plans its churn, and so the
// most ticks one span covers.
const lookahead = 256

// fleet is the volatile processor pool the simulator runs on: the slot
// layout, the availability-driven churn, the host lifecycle (join, graceful
// leave, crash) and the per-tick step that turns a host's CPU time into a
// node budget for its session. What a host runs is the start constructor's
// business: a single-resolution session for one job, a multi-job one for
// several.
//
// Churn is a function of the pool, the availability model and the seed,
// never of the resolution, so the fleet plans it lookahead ticks ahead;
// a host then knows its next leave, and explores its quiet ticks up to it
// in one engine call (span).
type fleet struct {
	avail                AvailabilityModel
	tickSeconds          float64
	nodesPerGHzPerSecond float64
	updatePeriodSeconds  float64
	rng                  *rand.Rand
	// start builds the session of a host joining on slot; cfg carries the
	// id, power, update period and core count the fleet computed for it.
	start func(slot int, cfg worker.Config) *worker.Session

	slots   []float64 // GHz per processor slot
	cores   []int     // cores per processor slot (>= 1)
	domains []domainState
	active  []*host // per slot, nil = idle host
	// Table 2's per-host sums over the hosts that left, added at leave in
	// leave order: a departed host's B&B process is released, not kept
	// for the report.
	departedPresentSecs, departedExploreSecs float64
	departedExplored                         int64

	// The churn plan: plan[t%lookahead] holds tick t's events, for the
	// ticks before planned; occupant is every slot's host once they are
	// applied.
	plan     [][]churn
	planned  int
	occupant []*host
	handouts []handout // span's scratch

	nowSecs   float64
	nextID    int64 // worker id sequence
	lostNodes int64 // explored but never reported before a crash

	joins, leaves, crashes int64
}

// newFleet expands a pool into per-slot speeds and cores plus domain
// groups, drawing each domain's availability phase from the seed's rng.
func newFleet(pool []CPUSpec, m AvailabilityModel, seed int64) *fleet {
	f := &fleet{avail: m, rng: rand.New(rand.NewSource(seed))}
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
	f.occupant = make([]*host, len(f.slots))
	f.plan = make([][]churn, lookahead)
	return f
}

// clock is the virtual clock handed to every coordinator.
func (f *fleet) clock() int64 { return int64(f.nowSecs * 1e9) }

// beginTick moves the virtual clock to the tick, extends the churn plan to
// lookahead ticks ahead and applies the tick's planned joins and leaves.
func (f *fleet) beginTick(tick int) error {
	for ; f.planned < tick+lookahead; f.planned++ {
		f.planTick(f.planned)
	}
	f.nowSecs = float64(tick) * f.tickSeconds
	evs := f.plan[tick%lookahead]
	for _, ev := range evs {
		if !ev.leave {
			f.join(ev.w)
		} else if err := f.leave(ev.w, ev.crash); err != nil {
			return err
		}
	}
	clear(evs) // departed hosts must not stay reachable from the plan
	f.plan[tick%lookahead] = evs[:0]
	return nil
}

// planTick lets every domain drift toward its availability target at the
// tick, planning hosts to join and leave. The random component of the
// target is redrawn only every NoisePeriodSeconds — hosts are claimed and
// released by their owners on the scale of tens of minutes, not per
// scheduler tick — and a small deadband avoids churning workers over
// one-host wobbles. A leaving host's crash is drawn here, in leave order.
func (f *fleet) planTick(tick int) {
	nowSecs := float64(tick) * f.tickSeconds
	m := &f.avail
	evs := f.plan[tick%lookahead]
	for di := range f.domains {
		d := &f.domains[di]
		if nowSecs >= d.nextNoise {
			d.noise = (f.rng.Float64()*2 - 1) * m.NoiseFraction
			period := m.NoisePeriodSeconds
			if period <= 0 {
				period = 1800
			}
			d.nextNoise = nowSecs + period
		}
		frac := m.Fraction(d.phase, nowSecs) + d.noise
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		target := int(frac * float64(len(d.slots)))
		active := 0
		for _, slot := range d.slots {
			if f.occupant[slot] != nil {
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
				if f.occupant[slot] == nil {
					f.nextID++
					w := &host{id: transport.WorkerID(fmt.Sprintf("sim-%d-s%d", f.nextID, slot)), slot: slot, leaveTick: math.MaxInt}
					f.occupant[slot] = w
					evs = append(evs, churn{w: w})
					need--
				}
			}
		case active > target:
			drop := min(active-target, maxDelta)
			for _, slot := range d.slots {
				if drop == 0 {
					break
				}
				if w := f.occupant[slot]; w != nil {
					w.leaveTick = tick
					f.occupant[slot] = nil
					evs = append(evs, churn{w: w, leave: true, crash: f.rng.Float64() < m.CrashShare})
					drop--
				}
			}
		}
	}
	f.plan[tick%lookahead] = evs
}

// join starts a fresh B&B process on the host's slot. Its exploration
// rate and its reported power both scale with the slot's core count.
func (f *fleet) join(w *host) {
	slot := w.slot
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
	w.session = f.start(slot, worker.Config{ID: w.id, Power: power, UpdatePeriodNodes: updateNodes, Cores: cores})
	w.rate, w.lastUpdateSecs = rate, f.nowSecs
	if cores > 1 {
		w.quietUntil = math.MaxInt
	}
	f.active[slot] = w
	f.joins++
}

// leave retires the host: gracefully (a final checkpoint — the
// cycle-stealing owner reclaimed the machine and the process saved its
// state) or by crash (no checkpoint; the lease mechanism will orphan its
// intervals). A host still holding nodes it explored ahead ran past its
// leave: a planning fault, and an error.
func (f *fleet) leave(w *host, crash bool) error {
	if n := w.session.Prefetch(0); n > 0 {
		return fmt.Errorf("gridsim: worker %s leaves with %d prefetched nodes unspent", w.id, n)
	}
	// The work since the last checkpoint dies with a crashed host and
	// will be re-explored by whoever inherits the interval: it is
	// redundant by construction (the paper's "redundant nodes"). A
	// failing final checkpoint makes a graceful leave a crash.
	if crash || w.session.Checkpoint() != nil {
		f.lostNodes += w.session.Stats().Explored - w.session.Reported().Explored
		f.crashes++
	} else {
		f.leaves++
	}
	f.active[w.slot] = nil
	f.departedPresentSecs += w.presentSecs
	f.departedExploreSecs += w.exploreSecs
	f.departedExplored += w.session.Stats().Explored
	return nil
}

// span is how many nodes host w may explore ahead at tick, and the first
// tick it does not cover. A span is the coming ticks in which nothing can
// observe the host: it ends before the host's planned leave (or the end
// of the plan) and at its next time-based checkpoint, that tick included.
// Its nodes are the budgets those ticks hand out, stepped on a copy of the
// host's pace exactly as the tick loop will step them; f.handouts lists
// the ticks that hand nodes out.
func (f *fleet) span(w *host, tick int) (nodes int64, end int) {
	p := w.pace
	updates := w.session.Messages.Updates
	end = min(w.leaveTick, f.planned)
	f.handouts = f.handouts[:0]
	for t := tick; t < end; t++ {
		_, budget, ok := p.tick(f.tickSeconds)
		if !ok {
			continue
		}
		if budget > 0 {
			nodes += budget
			p.credit -= float64(budget)
			f.handouts = append(f.handouts, handout{tick: t, upTo: nodes})
		}
		if p.due(updates, float64(t)*f.tickSeconds, f.updatePeriodSeconds) {
			return nodes, t + 1
		}
	}
	return nodes, end
}

// explore lets a host with work run its span in one engine call. A new
// plan could find nothing different before the host's next exchange can
// happen: once the nodes explored ahead are handed out, once the span's
// first whole node is when none could be explored ahead (the engine
// already stands at its interval's end), or at the span's end when it
// holds no whole node (a slow host). The host plans again only then.
func (f *fleet) explore(w *host, tick int) {
	if tick < w.quietUntil || !w.session.HasWork() || w.session.Prefetch(0) > 0 {
		return
	}
	nodes, end := f.span(w, tick)
	w.quietUntil = end
	if nodes == 0 {
		return
	}
	ahead := max(w.session.Prefetch(nodes), 1)
	for _, h := range f.handouts {
		if h.upTo >= ahead {
			w.quietUntil = h.tick + 1
			break
		}
	}
}

// step hands the tick's whole-node budget to the session. A host without
// credit for a whole node still acquires work when idle (a request costs
// no exploration budget). A session that ran out of work partway through
// its budget forfeits the leftover credit. done relays the coordinator
// declaring the resolution over.
func (f *fleet) step(w *host, budget int64) (n int64, done bool, err error) {
	if budget <= 0 && w.session.HasWork() {
		return 0, false, nil
	}
	n, done, err = w.session.Advance(budget)
	if err != nil {
		return n, done, fmt.Errorf("gridsim: worker %s: %w", w.id, err)
	}
	w.credit -= float64(n)
	if n < budget && !w.session.HasWork() {
		w.credit = 0
	}
	return n, done, nil
}

// maybeCheckpoint triggers the host's periodic time-based interval
// update: even a host too slow to finish a node within a period must
// re-register its fold — it keeps the lease alive and bounds the work lost
// to a crash (§4.1).
func (f *fleet) maybeCheckpoint(w *host) error {
	if !w.due(w.session.Messages.Updates, f.nowSecs, f.updatePeriodSeconds) {
		return nil
	}
	if err := w.session.Checkpoint(); err != nil {
		return fmt.Errorf("gridsim: worker %s checkpoint: %w", w.id, err)
	}
	w.lastUpdateCount = w.session.Messages.Updates
	w.lastUpdateSecs = f.nowSecs
	return nil
}
