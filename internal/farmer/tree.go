// The in-process coordinator (DESIGN.md §9): a root farmer plus zero or
// more sub-farmers, each serving its own fleet over the unchanged
// protocol. A flat farmer is the tree with no sub-farmers. NewTree is the
// only code that builds one in-process — for gridbb.Solve, the grid
// simulator, the chaos harness and the benchmarks — and so the only code
// that decides what Subtrees means and how the endgame thresholds are
// derived. Multi-process deployments wire the same pieces over TCP with
// cmd/farmer (root) and cmd/subfarmer (mid tier) instead.
package farmer

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/interval"
	"repro/internal/transport"
)

// TreeConfig parameterizes an in-process coordinator.
type TreeConfig struct {
	// Subtrees is the number of sub-farmers. Below 2 the tree is flat:
	// no sub-farmers, and the fleet pulls on the root directly.
	Subtrees int
	// SubUpdateEvery and SubUpdatePeriod set the sub→root fold cadences
	// (see SubConfig).
	SubUpdateEvery  int64
	SubUpdatePeriod time.Duration
	// FleetTTL is the sub-farmers' fleet power TTL.
	FleetTTL time.Duration
	// Endgame arms the crumb-endgame trio (DESIGN.md §12) on a tree with
	// sub-farmers: the root piggybacks steal hints on fold replies and
	// duplicates crumbs once its tracked total is under 64·thr, each
	// sub-farmer refills under a low-water mark of 1024·thr, and the
	// inner farmers split down to thr/(8·Subtrees), floor 1 — all from
	// the duplication threshold thr that RootOptions set. No effect on a
	// flat tree.
	Endgame bool
	// Clock is shared by the root and every sub-farmer. Default wall
	// clock.
	Clock func() int64
	// RootOptions configure the root farmer; InnerOptions every
	// sub-farmer's embedded farmer. The clock and the endgame options
	// are appended after them.
	RootOptions, InnerOptions []Option
	// StoreFor, when set, supplies each sub-farmer's checkpoint store.
	StoreFor func(i int) *checkpoint.Store
	// Upstream, when set, wraps the root as seen by the sub-farmers —
	// the hook the chaos harness uses to interpose fault injection and
	// conformance tracking on the coordinator-to-coordinator legs.
	// Default: the sub-farmers call the root directly.
	Upstream func(root *Farmer) transport.Coordinator
}

// Tree is a root farmer plus its sub-farmers, none on a flat tree.
type Tree struct {
	Root *Farmer
	Subs []*SubFarmer
	// RootOptions are the options the root was built with, the clock and
	// the endgame options included: a root restart passes them to
	// Restore.
	RootOptions []Option
	subCfgs     []SubConfig
}

// NewTree builds the coordinator over the root interval. Sub-farmers start
// with empty tables; the first fleet request on each pulls its first
// sub-range from the root, and from then on the root only arbitrates
// inter-subtree rebalancing — its per-request cost depends on the subtree
// count, never on the fleet size.
func NewTree(root interval.Interval, cfg TreeConfig) *Tree {
	t := &Tree{RootOptions: slices.Clone(cfg.RootOptions)}
	if cfg.Clock != nil {
		t.RootOptions = append(t.RootOptions, WithClock(cfg.Clock))
	}
	t.Root = New(root, t.RootOptions...)
	if cfg.Subtrees < 2 {
		return t
	}
	var lowWater *big.Int
	inner := slices.Clip(cfg.InnerOptions)
	if cfg.Endgame {
		endgame, lw, innerThr := endgameThresholds(t.Root.threshold, cfg.Subtrees)
		for _, opt := range []Option{withStealHints(), withEndgameThreshold(endgame)} {
			opt(t.Root)
			t.RootOptions = append(t.RootOptions, opt)
		}
		lowWater = lw
		inner = append(inner, WithThreshold(innerThr))
	}
	var up transport.Coordinator = t.Root
	if cfg.Upstream != nil {
		up = cfg.Upstream(t.Root)
	}
	for i := 0; i < cfg.Subtrees; i++ {
		sc := SubConfig{
			ID:           transport.WorkerID(fmt.Sprintf("sub-%d", i)),
			UpdateEvery:  cfg.SubUpdateEvery,
			UpdatePeriod: cfg.SubUpdatePeriod,
			FleetTTL:     cfg.FleetTTL,
			LowWater:     lowWater,
			Clock:        cfg.Clock,
			InnerOptions: inner,
		}
		if cfg.StoreFor != nil {
			sc.Store = cfg.StoreFor(i)
		}
		t.subCfgs = append(t.subCfgs, sc)
		t.Subs = append(t.Subs, newSubFarmer(sc, up))
	}
	return t
}

// SubConfig returns the configuration sub-farmer i was built with: a
// sub-farmer restart passes it to RestoreSubFarmer.
func (t *Tree) SubConfig(i int) SubConfig { return t.subCfgs[i] }

// Endpoint returns slot i's coordinator: its sub-farmer, round-robin, or
// the root of a flat tree.
func (t *Tree) Endpoint(i int) transport.Coordinator {
	if len(t.Subs) == 0 {
		return t.Root
	}
	return t.Subs[i%len(t.Subs)]
}

// Pulse drives every sub-farmer's time-based upstream cadence once; on a
// flat tree it does nothing.
func (t *Tree) Pulse() {
	for _, s := range t.Subs {
		s.Pulse()
	}
}
