package jobs

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/worker"
)

// TestCrossJobIsolationOracle is the isolation contract, checked against
// the sequential oracle: 30 random (instances, fleet, seed) triples, each
// running several jobs concurrently through one table with a fleet of
// goroutine workers. Per job, the grid must land on exactly the optimum
// bb.Solve finds when the instance is solved alone — costs are
// timing-independent even though goroutine interleaving is not. A second,
// primed run (every player seeded with the known optimum) makes the
// pruning decisions timing-independent too, so each job's farmer-accounted
// ExploredNodes is pinned against the sequential primed count by the
// partition-invariant accounting, now summed per tenant. The bound is
// two-sided: a single node short means lost (or cross-job leaked) work —
// conservation is exact, so the lower bound is equality — while the upper
// bound allows only the §4.2 steal-in-flight rework window (a holder may
// explore past a split point until its next update restricts it; at most
// one update period per cut, and the farmer advances the co-owner past
// any prefix the holder's update proves explored) — the cuts are counted,
// per job, as the assignments after the first. Late folds — a worker's
// last un-folded period, arriving after the job completed under it — are
// credited to the job's counters but are not steal rework: the fleet tallies
// them exactly and the bounds apply to what is left, with the late share
// held to its own bound of one update period per worker.
// updatePeriod is the worker update cadence in the oracle fleets; it also
// bounds the per-steal rework window the primed run's upper bound allows.
const updatePeriod = 512

func TestCrossJobIsolationOracle(t *testing.T) {
	pool := []Spec{
		{Domain: "knapsack", N: 20, Seed: 1},
		{Domain: "knapsack", N: 22, Seed: 9},
		{Domain: "tsp", N: 8, Seed: 3},
		{Domain: "tsp", N: 8, Seed: 7},
		{Domain: "qap", N: 6, Seed: 4},
		{Domain: "qap", N: 7, Seed: 1},
		{Domain: "flowshop", Jobs: 10, Machines: 5, Seed: 2},
	}

	// Oracle and primed-reference caches, keyed by position in the pool —
	// triples resample the pool, no point re-solving.
	oracle := make([]bb.Solution, len(pool))
	primedRef := make([]int64, len(pool))
	for i, spec := range pool {
		factory, err := spec.Factory()
		if err != nil {
			t.Fatal(err)
		}
		oracle[i], _ = bb.Solve(factory(), bb.Infinity)
		if !oracle[i].Valid() {
			t.Fatalf("pool[%d] (%s): oracle found no solution", i, spec.Domain)
		}
		p := factory()
		nb := core.NewNumbering(p.Shape())
		ex := core.NewExplorer(p, nb, nb.RootRange(), oracle[i].Cost)
		for {
			if _, done := ex.Step(1 << 20); done {
				break
			}
		}
		primedRef[i] = ex.Stats().Explored
	}

	for triple := 0; triple < 30; triple++ {
		triple := triple
		t.Run(fmt.Sprintf("triple-%02d", triple), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + int64(triple)))
			numJobs := 2 + rng.Intn(3)
			fleet := 2 + rng.Intn(4)
			picks := make([]int, numJobs)
			specs := make(map[string]Spec, numJobs)
			for j := range picks {
				picks[j] = rng.Intn(len(pool))
				specs[fmt.Sprintf("j%d", j)] = pool[picks[j]]
			}

			// Run 1, from Infinity: optima and path validity.
			got, _, _ := runFleet(t, specs, fleet, false)
			for j, pick := range picks {
				id := fmt.Sprintf("j%d", j)
				p := got[id]
				if p.State != "done" {
					t.Fatalf("%s: state %s, want done", id, p.State)
				}
				if p.BestCost != oracle[pick].Cost {
					t.Errorf("%s: grid optimum %d, sequential oracle %d", id, p.BestCost, oracle[pick].Cost)
				}
				factory, _ := specs[id].Factory()
				if cost, err := evalLeafPath(factory(), p.BestPath); err != nil {
					t.Errorf("%s: incumbent path invalid: %v", id, err)
				} else if cost != p.BestCost {
					t.Errorf("%s: incumbent path evaluates to %d, claimed %d", id, cost, p.BestCost)
				}
			}

			// Run 2, primed with the optimum: exact node accounting.
			primed := make(map[string]Spec, numJobs)
			for j, pick := range picks {
				spec := pool[pick]
				spec.InitialUpper = oracle[pick].Cost
				primed[fmt.Sprintf("j%d", j)] = spec
			}
			got, late, assigned := runFleet(t, primed, fleet, true)
			slack := int64(fleet) * updatePeriod
			for j, pick := range picks {
				id := fmt.Sprintf("j%d", j)
				p := got[id]
				if p.State != "done" {
					t.Fatalf("%s (primed): state %s, want done", id, p.State)
				}
				if late[id] > slack {
					t.Errorf("%s (primed): %d nodes arrived in late folds, more than one update period per worker (%d)",
						id, late[id], slack)
				}
				explored := p.Counters.ExploredNodes - late[id]
				if explored < primedRef[pick] {
					t.Errorf("%s (primed): grid explored %d nodes before the job finished, sequential reference %d — work was lost",
						id, explored, primedRef[pick])
				}
				if cuts := assigned[id] - 1; explored > primedRef[pick]+cuts*updatePeriod {
					t.Errorf("%s (primed): grid explored %d nodes before the job finished, sequential reference %d — rework beyond one update period for each of its %d cuts",
						id, explored, primedRef[pick], cuts)
				}
			}
		})
	}
}

// lateFolds tallies, per job, the explored nodes that reach the table in
// folds sent after the job stopped, and its assignments: every one after
// the first cuts an interval some worker holds (§4.2). Every call goes
// through one mutex so the state read and the fold it classifies cannot be
// split by another worker finishing the job in between (the table
// serialises calls under its own lock anyway; exploration runs outside
// both).
type lateFolds struct {
	tb   *Table
	mu   sync.Mutex
	late map[string]int64
	// assigned counts a job's WorkAssigned replies.
	assigned map[string]int64
}

func (l *lateFolds) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep, err := l.tb.RequestWork(req)
	if err == nil && rep.Status == transport.WorkAssigned {
		l.assigned[rep.Job]++
	}
	return rep, err
}

func (l *lateFolds) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, err := l.tb.Progress(req.Job); err == nil && p.State == "done" {
		l.late[req.Job] += req.ExploredDelta
	}
	return l.tb.UpdateInterval(req)
}

func (l *lateFolds) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tb.ReportSolution(req)
}

// runFleet drives the jobs through one table with `fleet` concurrent
// goroutine workers and returns the final per-job progress, plus the
// explored nodes each job was credited from late folds and the assignments
// it made. The unprimed run, which pins optima only, shards every
// other worker (Cores 2): a multicore fold keeps explored holes, so the
// primed run's exact accounting is for single explorers.
func runFleet(t *testing.T, specs map[string]Spec, fleet int, primed bool) (progress map[string]Progress, late, assigned map[string]int64) {
	t.Helper()
	// The lease TTL is pushed out so no interval ever expires mid-test:
	// re-issued leases would double-explore and break the primed run's
	// exact accounting (and they model faults this oracle excludes).
	tb := NewTable(Config{MaxActive: len(specs), LeaseTTL: time.Hour})
	for id, spec := range specs {
		if err := tb.Submit(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	factories := SpecFactories(specs)
	coord := &lateFolds{tb: tb, late: make(map[string]int64), assigned: make(map[string]int64)}
	var wg sync.WaitGroup
	for w := 0; w < fleet; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := worker.Config{
				ID:                transport.WorkerID(fmt.Sprintf("w%d", w)),
				Power:             int64(1 + w),
				UpdatePeriodNodes: updatePeriod,
			}
			if !primed {
				cfg.Cores = 1 + w%2
			}
			sess := worker.NewMultiJobSession(cfg, coord, factories)
			for i := 0; ; i++ {
				_, fin, err := sess.Advance(1024)
				if err != nil {
					t.Errorf("worker w%d: %v", w, err)
					return
				}
				if fin {
					return
				}
				if i > 200_000 {
					t.Errorf("worker w%d never finished", w)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !tb.Done() {
		t.Fatalf("fleet drained but table not done (primed=%v)", primed)
	}
	out := make(map[string]Progress, len(specs))
	for _, p := range tb.List() {
		out[p.ID] = p
	}
	return out, coord.late, coord.assigned
}

// evalLeafPath walks the problem down the rank path and prices the leaf
// (the harness's incumbent-validity check, restated for this package).
func evalLeafPath(p bb.Problem, path []int) (int64, error) {
	depth := p.Shape().Depth()
	if len(path) != depth {
		return 0, fmt.Errorf("path length %d != tree depth %d", len(path), depth)
	}
	p.Reset()
	for d, r := range path {
		if r < 0 || r >= p.Shape().Branching(d) {
			return 0, fmt.Errorf("rank %d out of range at depth %d", r, d)
		}
		p.Descend(r)
	}
	return p.Cost(), nil
}
