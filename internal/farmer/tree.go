// The in-process farmer tree (DESIGN.md §9): zero or more sub-farmers,
// each serving its own fleet over the unchanged protocol, all folding into
// one upstream root. A flat farmer is the tree with no sub-farmers. The
// tree builds no root: in-process the root is a job of a jobs.Table, and
// the tree derives that job's farmer options (the endgame trio included)
// and folds its sub-farmers into the job's endpoint. NewTree is the only
// code that decides what Subtrees means and how the endgame thresholds
// are derived — for gridbb.Solve, the grid simulator, the chaos harness
// and the benchmarks. Multi-process deployments wire the same pieces over
// TCP with cmd/farmer (root) and cmd/subfarmer (mid tier) instead.
package farmer

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/transport"
)

// TreeConfig parameterizes an in-process farmer tree.
type TreeConfig struct {
	// Subtrees is the number of sub-farmers. Below 2 the tree is flat:
	// no sub-farmers, and the fleet pulls on the upstream root directly.
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
	// Clock is every sub-farmer's clock. Default wall clock. The root's
	// clock is its job table's (jobs.Config.Clock).
	Clock func() int64
	// RootOptions configure the root farmer; InnerOptions every
	// sub-farmer's embedded farmer. The endgame options are appended
	// after them.
	RootOptions, InnerOptions []Option
	// StoreFor, when set, supplies each sub-farmer's checkpoint store.
	StoreFor func(i int) *checkpoint.Store
	// Upstream is the root as its clients see it — in-process, the
	// root job's jobs.Table endpoint, possibly wrapped (the chaos harness
	// interposes fault injection and conformance tracking here). The
	// sub-farmers fold into it; on a flat tree it is every slot's
	// endpoint.
	Upstream transport.Coordinator
}

// Tree is the sub-farmer tier of a farmer tree, empty when flat, plus the
// options its root is to be built with.
type Tree struct {
	Subs []*SubFarmer
	// RootOptions are the options the root farmer must be built (and
	// restored) with: TreeConfig.RootOptions, then the endgame options.
	RootOptions []Option
	up          transport.Coordinator
	subCfgs     []SubConfig
}

// NewTree derives the root's options and builds the sub-farmers over
// cfg.Upstream. Sub-farmers start with empty tables; the first fleet
// request on each pulls its first sub-range from the root, and from then
// on the root only arbitrates inter-subtree rebalancing — its per-request
// cost depends on the subtree count, never on the fleet size.
func NewTree(cfg TreeConfig) *Tree {
	t := &Tree{RootOptions: slices.Clone(cfg.RootOptions), up: cfg.Upstream}
	if cfg.Subtrees < 2 {
		return t
	}
	var lowWater *big.Int
	inner := slices.Clip(cfg.InnerOptions)
	if cfg.Endgame {
		endgame, lw, innerThr := endgameThresholds(optionThreshold(t.RootOptions), cfg.Subtrees)
		t.RootOptions = append(t.RootOptions, withStealHints(), withEndgameThreshold(endgame))
		lowWater = lw
		inner = append(inner, WithThreshold(innerThr))
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
		t.Subs = append(t.Subs, newSubFarmer(sc, cfg.Upstream))
	}
	return t
}

// optionThreshold is the duplication threshold opts set, read off a bare
// farmer: no option needs the rest of a farmer built.
func optionThreshold(opts []Option) *big.Int {
	f := Farmer{threshold: big.NewInt(defaultThreshold)}
	for _, opt := range opts {
		opt(&f)
	}
	return f.threshold
}

// SubConfig returns the configuration sub-farmer i was built with: a
// sub-farmer restart passes it to RestoreSubFarmer.
func (t *Tree) SubConfig(i int) SubConfig { return t.subCfgs[i] }

// Endpoint returns slot i's coordinator: its sub-farmer, round-robin, or
// the upstream root of a flat tree.
func (t *Tree) Endpoint(i int) transport.Coordinator {
	if len(t.Subs) == 0 {
		return t.up
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
