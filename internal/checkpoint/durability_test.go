package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interval"
)

// twoGenerations saves two distinguishable snapshots so the store holds a
// current (NextID 2) and a previous (NextID 1) generation of every file.
func twoGenerations(t *testing.T, store *Store) (genA, genB Snapshot) {
	t.Helper()
	genA = Snapshot{
		NextID:   1,
		BestCost: 100,
		BestPath: []int{1, 2},
		Intervals: []IntervalRecord{
			{ID: 11, Interval: interval.FromInt64(0, 1000)},
		},
	}
	genB = Snapshot{
		NextID:   2,
		BestCost: 50,
		BestPath: []int{2, 1},
		Intervals: []IntervalRecord{
			{ID: 21, Interval: interval.FromInt64(0, 400)},
			{ID: 22, Interval: interval.FromInt64(600, 1000)},
		},
	}
	if err := store.Save(genA); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(genB); err != nil {
		t.Fatal(err)
	}
	return genA, genB
}

// matchesGeneration reports whether the loaded intervals are exactly one
// generation's records — the "never a wrong search space" check: any mix,
// loss, or invention of records fails.
func matchesGeneration(got []IntervalRecord, want Snapshot) bool {
	if len(got) != len(want.Intervals) {
		return false
	}
	for i := range got {
		if got[i].ID != want.Intervals[i].ID || !got[i].Interval.Equal(want.Intervals[i].Interval) {
			return false
		}
	}
	return true
}

// TestLoadFallsBackToPreviousGeneration: a corrupt current file quarantines
// and the previous generation restores, counted; the undamaged file still
// serves its current generation.
func TestLoadFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	genA, genB := twoGenerations(t, store)
	if err := os.WriteFile(filepath.Join(dir, intervalsFile), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if got.NextID != genA.NextID || !matchesGeneration(got.Intervals, genA) {
		t.Fatalf("intervals not the previous generation: %+v", got)
	}
	if got.BestCost != genB.BestCost {
		t.Fatalf("solution should still be current: cost %d", got.BestCost)
	}
	st := store.Stats()
	if st.CorruptSnapshots != 1 || st.FallbackLoads != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt / 1 fallback", st)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, intervalsFile+".0")); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	// A second restart finds no current intervals file (quarantined) and
	// serves the previous generation again, without recounting corruption.
	got, err = store.Load()
	if err != nil {
		t.Fatalf("second load: %v", err)
	}
	if got.NextID != genA.NextID {
		t.Fatalf("second load NextID = %d", got.NextID)
	}
	st = store.Stats()
	if st.CorruptSnapshots != 1 || st.FallbackLoads != 2 {
		t.Fatalf("stats after second load = %+v", st)
	}
}

// TestTornWriteMatrix is the satellite corruption matrix: every snapshot
// file truncated at and flipped at every byte offset. With a previous
// generation present, Load must succeed and each file's content must be
// exactly one of the two generations; with no previous generation, a
// detected corruption must surface as a counted ErrCorrupt. In no case may
// a wrong search space load.
func TestTornWriteMatrix(t *testing.T) {
	for _, withPrev := range []bool{true, false} {
		t.Run(fmt.Sprintf("withPrev=%v", withPrev), func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			var genA, genB Snapshot
			if withPrev {
				genA, genB = twoGenerations(t, store)
			} else {
				genB = Snapshot{
					NextID:   2,
					BestCost: 50,
					Intervals: []IntervalRecord{
						{ID: 21, Interval: interval.FromInt64(0, 400)},
						{ID: 22, Interval: interval.FromInt64(600, 1000)},
					},
				}
				if err := store.Save(genB); err != nil {
					t.Fatal(err)
				}
			}
			// Remember every file so each case starts from pristine bytes.
			pristine := map[string][]byte{}
			for _, name := range []string{intervalsFile, solutionFile, intervalsFile + prevSuffix, solutionFile + prevSuffix} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					if withPrev {
						t.Fatal(err)
					}
					continue
				}
				pristine[name] = data
			}
			restore := func() {
				for name, data := range pristine {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, target := range []string{intervalsFile, solutionFile} {
				data := pristine[target]
				for k := 0; k < len(data); k++ {
					for _, mode := range []string{"truncate", "flip"} {
						restore()
						mutated := append([]byte{}, data[:k]...)
						if mode == "flip" {
							mutated = append([]byte{}, data...)
							mutated[k] ^= 0x40
						}
						if err := os.WriteFile(filepath.Join(dir, target), mutated, 0o644); err != nil {
							t.Fatal(err)
						}
						got, err := store.Load()
						if err != nil {
							if withPrev {
								t.Fatalf("%s %s@%d: load failed despite previous generation: %v", target, mode, k, err)
							}
							if !errors.Is(err, ErrCorrupt) {
								t.Fatalf("%s %s@%d: err = %v, want ErrCorrupt", target, mode, k, err)
							}
							continue
						}
						// Whatever loaded must be exactly one generation of
						// each file — never a blend or an invention.
						okIntervals := matchesGeneration(got.Intervals, genB) ||
							(withPrev && matchesGeneration(got.Intervals, genA))
						okSolution := got.BestCost == genB.BestCost ||
							(withPrev && got.BestCost == genA.BestCost)
						if !okIntervals || !okSolution {
							t.Fatalf("%s %s@%d: wrong search space loaded: %+v", target, mode, k, got)
						}
					}
				}
			}
			st := store.Stats()
			if st.CorruptSnapshots == 0 {
				t.Fatal("matrix never counted a corruption")
			}
			if withPrev && st.FallbackLoads == 0 {
				t.Fatal("matrix never fell back")
			}
		})
	}
}

// TestNewStoreSweepsTmp: stale *.tmp leftovers from a crash between write
// and rename are removed when the store opens.
func TestNewStoreSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, intervalsFile+".tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, solutionFile+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.SweptTmpFiles != 2 {
		t.Fatalf("swept %d tmp files, want 2", st.SweptTmpFiles)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale %s survived store open", e.Name())
		}
	}
}

// TestFallbackSalvagesEpoch: restoring an older generation must not reuse
// the crashed incarnation's epoch — ids it issued could still be in flight.
// The salvage scan lifts the restored epoch above every epoch visible on
// disk, including the quarantined file's.
func TestFallbackSalvagesEpoch(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{Epoch: 3, NextID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{Epoch: 7, NextID: 9}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the epoch-7 current file, leaving its epoch line readable —
	// exactly what a torn tail looks like.
	path := filepath.Join(dir, intervalsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID != 1 {
		t.Fatalf("did not fall back: %+v", got)
	}
	if got.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7 (salvaged from the quarantined generation)", got.Epoch)
	}
}

// TestSaveFailsCleanOnSyncEIO: an injected fsync failure fails the Save
// but leaves the previous snapshot fully loadable — the fault hits before
// any rename touches the current generation.
func TestSaveFailsCleanOnSyncEIO(t *testing.T) {
	ffs := NewFaultFS(nil)
	store, err := NewStoreFS(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{NextID: 1, BestCost: 9}); err != nil {
		t.Fatal(err)
	}
	ffs.SetDecide(func(op Op, path string) Fault {
		if op == OpSync {
			return EIO()
		}
		return Fault{}
	})
	if err := store.Save(Snapshot{NextID: 2}); !errors.Is(err, ErrInjected) {
		t.Fatalf("save under sync EIO: err = %v, want ErrInjected", err)
	}
	ffs.SetDecide(nil)
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID != 1 || got.BestCost != 9 {
		t.Fatalf("previous snapshot damaged by failed save: %+v", got)
	}
	if ffs.Faults() == 0 {
		t.Fatal("injector reports no faults")
	}
}

// TestTornWriteFallsBack: a lying disk truncates the intervals write but
// reports success; the footer check catches it at load and the previous
// generation restores.
func TestTornWriteFallsBack(t *testing.T) {
	ffs := NewFaultFS(nil)
	store, err := NewStoreFS(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{NextID: 1, BestCost: 9}); err != nil {
		t.Fatal(err)
	}
	ffs.SetDecide(func(op Op, path string) Fault {
		if op == OpWriteFile && strings.Contains(path, intervalsFile) {
			return TornWrite(20)
		}
		return Fault{}
	})
	if err := store.Save(Snapshot{NextID: 2}); err != nil {
		t.Fatalf("lying disk must report success: %v", err)
	}
	ffs.SetDecide(nil)
	got, err := store.Load()
	if err != nil {
		t.Fatalf("load after torn write: %v", err)
	}
	if got.NextID != 1 {
		t.Fatalf("torn current accepted or wrong generation: %+v", got)
	}
	st := store.Stats()
	if st.CorruptSnapshots != 1 || st.FallbackLoads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRotateEIOKeepsCurrent: an injected rename failure during rotation
// fails the Save and leaves the current generation untouched.
func TestRotateEIOKeepsCurrent(t *testing.T) {
	ffs := NewFaultFS(nil)
	store, err := NewStoreFS(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{NextID: 1}); err != nil {
		t.Fatal(err)
	}
	ffs.SetDecide(func(op Op, path string) Fault {
		if op == OpRename && strings.HasSuffix(path, intervalsFile) {
			return EIO()
		}
		return Fault{}
	})
	if err := store.Save(Snapshot{NextID: 2}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	ffs.SetDecide(nil)
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID != 1 {
		t.Fatalf("current generation lost: %+v", got)
	}
}

// TestV1HeaderIsCorrupt: the footerless v1 format is not a second loader
// but a corrupt file like any other. With a good previous generation the
// v1-headed current is quarantined and the load falls back; with none the
// load fails as ErrCorrupt. Either way the v1 content is never restored.
func TestV1HeaderIsCorrupt(t *testing.T) {
	v1 := map[string]string{
		intervalsFile: "gridbb-checkpoint-v1 intervals\nepoch 2\nnextid 5\ninterval 7 3 14\n",
		solutionFile:  "gridbb-checkpoint-v1 solution\ncost 77\npath 1 0 2\n",
	}
	overwrite := func(dir string) {
		t.Helper()
		for name, content := range v1 {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	overwrite(dir)
	if _, err := store.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 files with no other generation: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, intervalsFile+".0")); err != nil {
		t.Fatalf("v1 intervals file not quarantined: %v", err)
	}

	dir = t.TempDir()
	if store, err = NewStore(dir); err != nil {
		t.Fatal(err)
	}
	for _, next := range []int64{1, 2} { // two saves: prev holds NextID 1
		if err := store.Save(Snapshot{NextID: next, BestCost: 9}); err != nil {
			t.Fatal(err)
		}
	}
	overwrite(dir)
	got, err := store.Load()
	if err != nil {
		t.Fatalf("v1 current over a good previous generation: %v", err)
	}
	if got.NextID != 1 || got.BestCost != 9 {
		t.Fatalf("load restored %+v, want the previous generation (NextID 1, cost 9)", got)
	}
	if st := store.Stats(); st.FallbackLoads != 1 || st.CorruptSnapshots != 2 {
		t.Fatalf("stats %+v, want 1 fallback load over 2 quarantined files", st)
	}
}

// TestCorruptBindingDegradesToUnbound: a corrupt binding with no previous
// generation quarantines and reads as "not bound" — the parent's lease
// mechanism is the recovery path, not an error.
func TestCorruptBindingDegradesToUnbound(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveBindings([]Binding{Binding{Bound: true, ID: 5, Interval: interval.FromInt64(0, 10)}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bindingFile), []byte("zap\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := store.LoadBindings()
	if err != nil || ok {
		t.Fatalf("corrupt binding: ok=%v err=%v, want unbound and nil", ok, err)
	}
	if store.Stats().CorruptSnapshots == 0 {
		t.Fatal("corrupt binding not counted")
	}
	// With a previous generation present, the stale binding restores
	// instead — staleness is safe, the parent rejects retired ids.
	if err := store.SaveBindings([]Binding{Binding{Bound: true, ID: 6, Interval: interval.FromInt64(0, 10)}}); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveBindings([]Binding{Binding{Bound: true, ID: 7, Interval: interval.FromInt64(0, 10)}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bindingFile), []byte("zap\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bs, ok, err := store.LoadBindings()
	if err != nil || !ok || len(bs) != 1 || bs[0].ID != 6 {
		t.Fatalf("binding fallback: %+v ok=%v err=%v, want previous generation id 6", bs, ok, err)
	}
}

// TestNamespaceSharesStats: corruption inside a namespaced sub-store is
// visible in the root store's aggregate counters.
func TestNamespaceSharesStats(t *testing.T) {
	dir := t.TempDir()
	root, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := root.Namespace("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Save(Snapshot{NextID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub.Dir(), intervalsFile), []byte("bad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Load(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if root.Stats().CorruptSnapshots != 1 {
		t.Fatalf("root stats = %+v, want the sub-store's corruption aggregated", root.Stats())
	}
}

// TestQuarantineIsNotANamespace: the quarantine directory never shows up
// as a resumable job, and the name is rejected for new jobs.
func TestQuarantineIsNotANamespace(t *testing.T) {
	if ValidNamespace(quarantineDir) {
		t.Fatal("quarantine accepted as a namespace name")
	}
	dir := t.TempDir()
	root, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := root.Namespace("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Save(Snapshot{NextID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub.Dir(), intervalsFile), []byte("bad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Load(); err == nil {
		t.Fatal("corrupt load accepted")
	}
	names, err := root.Namespaces()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == quarantineDir {
			t.Fatalf("quarantine listed as a namespace: %v", names)
		}
	}
}
