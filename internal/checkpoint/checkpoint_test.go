package checkpoint

import (
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/interval"
)

func bigIv(a, b string) interval.Interval {
	x, _ := new(big.Int).SetString(a, 10)
	y, _ := new(big.Int).SetString(b, 10)
	return interval.New(x, y)
}

// TestSaveLoadRoundTrip: a snapshot with huge intervals and a solution
// survives the two files exactly.
func TestSaveLoadRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{
		NextID:   42,
		BestCost: 3679,
		BestPath: []int{13, 36, 2, 0},
		Intervals: []IntervalRecord{
			{ID: 3, Interval: bigIv("0", "30414093201713378043612608166064768844377641568960512000000000000")},
			{ID: 7, Interval: bigIv("123456789012345678901234567890", "999999999999999999999999999999")},
		},
	}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	if !store.Exists() {
		t.Fatal("snapshot not found after save")
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.NextID != snap.NextID || got.BestCost != snap.BestCost {
		t.Fatalf("scalar fields differ: %+v", got)
	}
	if len(got.BestPath) != 4 || got.BestPath[0] != 13 {
		t.Fatalf("best path = %v", got.BestPath)
	}
	if len(got.Intervals) != 2 {
		t.Fatalf("intervals = %d", len(got.Intervals))
	}
	for i := range snap.Intervals {
		if got.Intervals[i].ID != snap.Intervals[i].ID ||
			!got.Intervals[i].Interval.Equal(snap.Intervals[i].Interval) {
			t.Fatalf("interval %d differs: %v vs %v", i, got.Intervals[i], snap.Intervals[i])
		}
	}
}

// TestSaveOverwritesAtomically: a second save fully replaces the first; no
// temp files linger.
func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{NextID: 1, BestCost: 100,
		Intervals: []IntervalRecord{{ID: 1, Interval: interval.FromInt64(0, 10)}}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{NextID: 2, BestCost: 50}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.BestCost != 50 || len(got.Intervals) != 0 {
		t.Fatalf("second snapshot not authoritative: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// The paper's two files, each with its rotated previous generation.
	if len(entries) != 4 {
		t.Fatalf("expected two files and two previous generations, found %d: %v", len(entries), entries)
	}
	prev, err := os.ReadFile(filepath.Join(dir, "intervals.ckpt.prev"))
	if err != nil {
		t.Fatalf("previous generation missing: %v", err)
	}
	if !strings.Contains(string(prev), "nextid 1") {
		t.Fatalf("previous generation is not the first save:\n%s", prev)
	}
}

// TestEmptySolution: a snapshot without a best path loads with a nil path.
func TestEmptySolution(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{NextID: 5, BestCost: 1 << 62}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.BestPath != nil {
		t.Fatalf("path = %v, want nil", got.BestPath)
	}
}

// TestLoadRejectsCorruption: headerless files, and well-framed files whose
// records are garbled, with no previous generation to fall back to fail
// loudly — and as ErrCorrupt, with the bad file quarantined and counted —
// never silently restoring a wrong state.
func TestLoadRejectsCorruption(t *testing.T) {
	cases := map[string]func(dir string, store *Store) error{
		"intervals.ckpt": func(dir string, _ *Store) error {
			return os.WriteFile(filepath.Join(dir, "intervals.ckpt"), []byte("not a checkpoint\n"), 0o644)
		},
		"solution.ckpt": func(dir string, store *Store) error {
			// Framed by the real writer, so only the record is wrong; the
			// rotation it performs is undone to leave no fallback.
			if err := store.writeSnapshotFile("solution.ckpt", "solution", "cost notanumber\n", 1); err != nil {
				return err
			}
			return os.Remove(filepath.Join(dir, "solution.ckpt"+prevSuffix))
		},
	}
	for file, corrupt := range cases {
		// A fresh store per case: a single save has no *.prev generation,
		// so corruption of the current file must surface as an error.
		dir := t.TempDir()
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(Snapshot{NextID: 1}); err != nil {
			t.Fatal(err)
		}
		if err := corrupt(dir, store); err != nil {
			t.Fatal(err)
		}
		_, err = store.Load()
		if err == nil {
			t.Fatalf("corrupted %s accepted", file)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupted %s: err = %v, want ErrCorrupt", file, err)
		}
		if got := store.Stats().CorruptSnapshots; got == 0 {
			t.Fatalf("corrupted %s not counted", file)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", file+".0")); err != nil {
			t.Fatalf("corrupted %s not quarantined: %v", file, err)
		}
	}
}

// TestLoadRejectsBadRecords: unknown record types error.
func TestLoadRejectsBadRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if err := store.writeSnapshotFile(intervalsFile, "intervals", "mystery 1 2 3\n", 1); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, intervalsFile+prevSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(); err == nil {
		t.Fatal("unknown record accepted")
	}
}

// TestExistsRequiresBothFiles: the paper's scheme is two files; one alone
// is not a checkpoint.
func TestExistsRequiresBothFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Exists() {
		t.Fatal("empty store claims a checkpoint")
	}
	if err := store.Save(Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "solution.ckpt")); err != nil {
		t.Fatal(err)
	}
	if store.Exists() {
		t.Fatal("half a checkpoint reported as present")
	}
}

// TestTotalLenRoundTrip: the incremental INTERVALS total the farmer stamps
// on a snapshot survives the file format and passes the load-time
// cross-check.
func TestTotalLenRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	iv1 := bigIv("10", "30414093201713378043612608166064768844377641568960512000000000000")
	iv2 := bigIv("5", "905")
	total := new(big.Int).Add(iv1.Len(), iv2.Len())
	snap := Snapshot{
		BestCost: 100,
		Intervals: []IntervalRecord{
			{ID: 1, Interval: iv1},
			{ID: 2, Interval: iv2},
		},
		TotalLen: total,
	}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen == nil || got.TotalLen.Cmp(total) != 0 {
		t.Fatalf("TotalLen = %v, want %s", got.TotalLen, total)
	}
}

// TestTotalLenMismatchRejected: a snapshot whose recorded total disagrees
// with its interval records is corrupt and must not restore.
func TestTotalLenMismatchRejected(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{
		Intervals: []IntervalRecord{{ID: 1, Interval: bigIv("0", "100")}},
		TotalLen:  big.NewInt(99),
	}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(); err == nil || !strings.Contains(err.Error(), "total") {
		t.Fatalf("load of inconsistent snapshot: err = %v, want total mismatch", err)
	}
}

// TestTotalLenAbsentSkipsCheck: the total line is optional — a snapshot
// saved without one loads with the field nil.
func TestTotalLenAbsentSkipsCheck(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Intervals: []IntervalRecord{{ID: 1, Interval: bigIv("0", "100")}}}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen != nil {
		t.Fatalf("TotalLen = %v, want nil", got.TotalLen)
	}
}
