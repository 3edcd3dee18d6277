package gridsim

import (
	"runtime"
	"testing"
	"weak"

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
