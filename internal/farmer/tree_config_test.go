package farmer

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/interval"
)

// TestTreeFlatHasNoSubs: Subtrees below 2 is the flat farmer — no
// sub-farmers, every slot's endpoint is the upstream root, Pulse does
// nothing, and Endgame arms nothing in the root's options.
func TestTreeFlatHasNoSubs(t *testing.T) {
	for _, n := range []int{0, 1} {
		up := New(interval.FromInt64(0, 1000))
		tree := NewTree(TreeConfig{
			Subtrees:    n,
			Endgame:     true,
			RootOptions: []Option{WithThreshold(interval.NumInt64(100))},
			Upstream:    up,
		})
		if len(tree.Subs) != 0 {
			t.Fatalf("Subtrees=%d built %d sub-farmers", n, len(tree.Subs))
		}
		for i := 0; i < 4; i++ {
			if tree.Endpoint(i) != up {
				t.Errorf("Subtrees=%d: Endpoint(%d) is not the upstream root", n, i)
			}
		}
		tree.Pulse()
		root := New(interval.FromInt64(0, 1000), tree.RootOptions...)
		if root.hints || root.endgame != nil {
			t.Errorf("Subtrees=%d: flat root armed the endgame (hints=%v endgame=%v)", n, root.hints, root.endgame)
		}
	}
}

// TestTreeEndgameDerivation: under Endgame the tree derives the whole trio
// from the root options' own duplication threshold thr — root hints on
// and endgame at 64·thr, each sub's low water at 1024·thr, and an inner
// threshold of thr/(8·subtrees), floored at 1 — and hands slots to subs
// round-robin.
func TestTreeEndgameDerivation(t *testing.T) {
	for _, tc := range []struct {
		thr, subtrees, inner int64
	}{
		{thr: 1000, subtrees: 3, inner: 41},
		{thr: 5, subtrees: 2, inner: 2},
	} {
		tree := NewTree(TreeConfig{
			Subtrees:    int(tc.subtrees),
			Endgame:     true,
			RootOptions: []Option{WithThreshold(interval.NumInt64(tc.thr))},
		})
		if int64(len(tree.Subs)) != tc.subtrees {
			t.Fatalf("thr=%d: %d subs, want %d", tc.thr, len(tree.Subs), tc.subtrees)
		}
		root := New(interval.FromInt64(0, 1_000_000), tree.RootOptions...)
		if !root.hints {
			t.Errorf("thr=%d: root steal hints off", tc.thr)
		}
		if want := interval.NumInt64(64 * tc.thr); root.endgame == nil || root.endgame.Cmp(want) != 0 {
			t.Errorf("thr=%d: root endgame %v, want %s", tc.thr, root.endgame, want)
		}
		for i, sub := range tree.Subs {
			if tree.Endpoint(i) != sub || tree.Endpoint(i+len(tree.Subs)) != sub {
				t.Errorf("thr=%d: slots %d and %d do not share sub-%d", tc.thr, i, i+len(tree.Subs), i)
			}
			if want := interval.NumInt64(1024 * tc.thr); sub.cfg.LowWater.Cmp(want) != 0 {
				t.Errorf("thr=%d: sub-%d low water %v, want %s", tc.thr, i, sub.cfg.LowWater, want)
			}
			if got := sub.inner.threshold.Int64(); got != tc.inner {
				t.Errorf("thr=%d: sub-%d inner threshold %d, want %d", tc.thr, i, got, tc.inner)
			}
		}
	}
}

// TestTreeRestartKeepsEndgame: a root restored with tree.RootOptions, and a
// sub-farmer restored with tree.SubConfig, come back with the endgame
// configuration the tree derived for them. No message flows, so the tree
// needs no upstream.
func TestTreeRestartKeepsEndgame(t *testing.T) {
	root := interval.FromInt64(0, 1_000_000)
	rootStore, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	subStore, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fixedClock{}
	tree := NewTree(TreeConfig{
		Subtrees:    2,
		Endgame:     true,
		Clock:       clk.fn(),
		RootOptions: []Option{WithThreshold(interval.NumInt64(1000)), WithCheckpointStore(rootStore)},
		StoreFor: func(i int) *checkpoint.Store {
			if i == 0 {
				return subStore
			}
			return nil
		},
	})
	if err := New(root, tree.RootOptions...).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tree.Subs[0].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f, err := Restore(root, rootStore, tree.RootOptions...)
	if err != nil {
		t.Fatal(err)
	}
	if !f.hints || f.endgame == nil || f.endgame.Cmp(interval.NumInt64(64_000)) != 0 {
		t.Errorf("restored root: hints=%v endgame=%v, want hints on and endgame 64000", f.hints, f.endgame)
	}
	sub, err := RestoreSubFarmer(tree.SubConfig(0), f)
	if err != nil {
		t.Fatal(err)
	}
	if sub.cfg.LowWater.Cmp(interval.NumInt64(1_024_000)) != 0 {
		t.Errorf("restored sub low water %v, want 1024000", sub.cfg.LowWater)
	}
	if got := sub.inner.threshold.Int64(); got != 1000/16 {
		t.Errorf("restored sub inner threshold %d, want %d", got, 1000/16)
	}
}
