package gridsim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/transport"
	"repro/internal/worker"
)

// TestDepartedHostsAreReleased: a host that left the fleet — gracefully or
// by crash — frees its B&B process, so a simulation holds memory for the
// hosts present, not for every host that ever joined. Every session the
// fleet starts is watched through a weak pointer; after a full collection
// with the simulation still alive, no more may be reachable than there
// are hosts present.
func TestDepartedHostsAreReleased(t *testing.T) {
	// Each case builds a simulation and returns its fleet and its Run.
	single := func(subtrees int) func() (*fleet, func() error, error) {
		return func() (*fleet, func() error, error) {
			cfg, factory, _ := fastConfig(9)
			cfg.Subtrees = subtrees
			sim := New(cfg, factory)
			return sim.fleet, func() error { _, err := sim.Run(); return err }, nil
		}
	}
	cases := []struct {
		name  string
		build func() (*fleet, func() error, error)
	}{
		{"flat", single(0)},
		{"tree4", single(4)},
		{"multi-tenant", func() (*fleet, func() error, error) {
			sim := New(MultiTenantScenario(99), nil)
			return sim.fleet, func() error { _, err := sim.Run(); return err }, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, run, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var started []weak.Pointer[worker.Session]
			start := f.start
			f.start = func(slot int, cfg worker.Config) *worker.Session {
				s := start(slot, cfg)
				started = append(started, weak.Make(s))
				return s
			}
			if err := run(); err != nil {
				t.Fatal(err)
			}
			// The fleet's start constructor holds the simulation, so the
			// simulation stays alive through the collection.
			runtime.GC()
			reachable := 0
			for _, p := range started {
				if p.Value() != nil {
					reachable++
				}
			}
			present := 0
			for _, w := range f.active {
				if w != nil {
					present++
				}
			}
			runtime.KeepAlive(f)
			if f.joins <= int64(present) {
				t.Fatalf("%d joins for %d hosts present: no departed host to check", f.joins, present)
			}
			if reachable > present {
				t.Errorf("%d of %d sessions still reachable with %d hosts present: departed hosts are retained",
					reachable, len(started), present)
			}
		})
	}
}

// renderChurn prints the fleet's churn plan for the first ticks of cfg:
// per tick with events, the hosts that join (+), leave gracefully (-) and
// crash (!), by worker id, in the order they are applied.
func renderChurn(cfg Config, ticks int) string {
	cfg.fillDefaults()
	f := newFleet(cfg.Pool, cfg.Availability, cfg.Seed)
	f.tickSeconds = cfg.TickSeconds
	var b strings.Builder
	for t := 0; t < ticks; t++ {
		f.planTick(t)
		evs := f.plan[t%lookahead]
		if len(evs) > 0 {
			fmt.Fprintf(&b, "%d", t)
			for _, ev := range evs {
				mark := "+"
				switch {
				case ev.crash:
					mark = "!"
				case ev.leave:
					mark = "-"
				}
				fmt.Fprintf(&b, " %s%s", mark, ev.w.id)
			}
			b.WriteByte('\n')
		}
		f.plan[t%lookahead] = evs[:0]
	}
	return b.String()
}

// TestChurnPlanGolden pins the planned churn — every tick's joins, leaves
// and crashes with their slots and worker ids — for the fast scenario and
// the massive grid. Churn is a function of pool, availability and seed, so
// planning it ahead must repeat, draw for draw, what the fleet drew tick by
// tick before it planned (testdata/churn.golden was written by that code).
// The massive grid is pinned in full for its first 300 ticks (the ramp to
// ~1600 hosts) and by digest and totals over 3600.
func TestChurnPlanGolden(t *testing.T) {
	fast, _, _ := fastConfig(9)
	massive := renderChurn(MassiveScenario(1, 130_000, 2.0), 3600)
	var head strings.Builder
	for _, line := range strings.SplitAfter(massive, "\n") {
		var tick int
		if _, err := fmt.Sscanf(line, "%d", &tick); err == nil && tick < 300 {
			head.WriteString(line)
		}
	}
	got := fmt.Sprintf("fast-9 ticks 0-599\n%smassive-1 ticks 0-299\n%smassive-1 ticks 0-3599 joins %d leaves %d crashes %d sha256 %x\n",
		renderChurn(fast, 600), head.String(),
		strings.Count(massive, " +"), strings.Count(massive, " -"), strings.Count(massive, " !"),
		sha256.Sum256([]byte(massive)))
	path := filepath.Join("testdata", "churn.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("planned churn drifted from %s:\n--- golden\n%s--- plan\n%s", path, want, got)
	}
}

// TestLeaveWithUnspentPrefetchFails: a host that reaches its leave still
// holding nodes it explored ahead ran past what its span allowed. The
// leave must fail the run loudly rather than drop or fold those nodes.
func TestLeaveWithUnspentPrefetchFails(t *testing.T) {
	cfg, factory, _ := fastConfig(9)
	sim := New(cfg, factory)
	rogue := transport.WorkerID("")
	sim.onTick = func(tick int) {
		for _, w := range sim.fleet.active {
			if rogue == "" && w != nil && w.leaveTick == tick+1 && w.session.Prefetch(1000) > 0 {
				rogue = w.id
			}
		}
	}
	_, err := sim.Run()
	if rogue == "" {
		t.Fatal("no leaving host with work to prefetch for")
	}
	if err == nil || !strings.Contains(err.Error(), string(rogue)) || !strings.Contains(err.Error(), "prefetched") {
		t.Fatalf("run with %s leaving on unspent nodes: err = %v", rogue, err)
	}
}

// failingCheckpoints fails the updates of the hosts it is told are
// leaving, so their final checkpoint fails.
type failingCheckpoints struct {
	transport.Coordinator
	leaving map[transport.WorkerID]bool
}

func (c failingCheckpoints) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	if c.leaving[req.Worker] {
		return transport.UpdateReply{}, errors.New("coordinator unreachable")
	}
	return c.Coordinator.UpdateInterval(req)
}

// TestFailedFinalCheckpointLosesNodes: a graceful leave whose final
// checkpoint fails is a crash, and like a crash it loses the nodes its
// host explored and never reported — they count as redundant.
func TestFailedFinalCheckpointLosesNodes(t *testing.T) {
	cfg, factory, _ := fastConfig(9)
	cfg.Availability.CrashShare = 0 // every leave tries its checkpoint
	sim := New(cfg, factory)
	f := sim.fleet
	coord := failingCheckpoints{leaving: map[transport.WorkerID]bool{}}
	f.start = func(slot int, wc worker.Config) *worker.Session {
		return worker.NewShardedSession(wc, failingCheckpoints{sim.tree.Endpoint(slot), coord.leaving}, factory)
	}
	var want, lostBefore, lossy int64
	sim.onTick = func(tick int) {
		if got := f.lostNodes - lostBefore; got != want {
			t.Fatalf("tick %d: %d nodes lost by failed final checkpoints, want %d", tick, got, want)
		}
		lostBefore, want = f.lostNodes, 0
		for _, w := range f.active {
			if w != nil && w.leaveTick == tick+1 && w.session.HasWork() {
				coord.leaving[w.id] = true
				unreported := w.session.Stats().Explored - w.session.Reported().Explored
				want += unreported
				if unreported > 0 {
					lossy++
				}
			}
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lossy == 0 {
		t.Fatal("no failed final checkpoint had unreported nodes to lose")
	}
	if res.Crashes < lossy {
		t.Fatalf("%d crashes, want at least the %d failed final checkpoints", res.Crashes, lossy)
	}
	t.Logf("%d failed final checkpoints lost nodes; %d crashes, %d leaves", lossy, res.Crashes, res.Leaves)
}
