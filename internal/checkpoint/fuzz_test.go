package checkpoint

import (
	"bytes"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/interval"
)

// FuzzCheckpointLoad fuzzes the snapshot text parser: framing (header,
// CRC/record-count footer), record grammar, and the TotalLen cross-check.
// The parser must never panic, must refuse anything not headed as the
// current format — a v1-headed file is corrupt, which at the store level
// means quarantine and fallback (TestV1HeaderIsCorrupt) — and any
// intervals parse that succeeds with a recorded total must actually
// satisfy the cross-check: that invariant is what stands between a corrupt
// file and a wrong search space.
func FuzzCheckpointLoad(f *testing.F) {
	// Seed with real files from the current writer, one per kind, plus a
	// v1-headed pair and a few near-miss corruptions.
	dir := f.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	iv := interval.FromInt64(3, 7777)
	snap := Snapshot{
		Epoch:     2,
		NextID:    9,
		BestCost:  123,
		BestPath:  []int{2, 0, 1},
		Intervals: []IntervalRecord{{ID: 5, Interval: iv}},
		TotalLen:  iv.Len(),
	}
	if err := store.Save(snap); err != nil {
		f.Fatal(err)
	}
	if err := store.SaveBinding(Binding{Bound: true, ID: 4, Interval: iv}); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{intervalsFile, solutionFile, bindingFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("gridbb-checkpoint-v1 intervals\nepoch 1\nnextid 2\ninterval 1 0 10\n"))
	f.Add([]byte("gridbb-checkpoint-v1 solution\ncost 42\npath 1 0\n"))
	f.Add([]byte("gridbb-checkpoint-v2 intervals\nepoch 1\nfooter 1 00000000\n"))
	f.Add([]byte("gridbb-checkpoint-v2 solution\ncost 1\nfooter"))
	f.Add([]byte("footer 0 deadbeef\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []string{"intervals", "solution", "upstream"} {
			lines, err := parseBody("fuzz.ckpt", kind, data)
			if err != nil {
				continue
			}
			if !bytes.HasPrefix(data, []byte(formatVersion+" "+kind+"\n")) {
				t.Fatalf("parse accepted a file not headed %q", formatVersion+" "+kind)
			}
			switch kind {
			case "intervals":
				p, err := parseIntervalLines(lines)
				if err != nil {
					continue
				}
				if p.total != nil {
					sum := new(big.Int)
					for _, rec := range p.records {
						sum.Add(sum, rec.Interval.Len())
					}
					if sum.Cmp(p.total) != 0 {
						t.Fatalf("parse accepted a snapshot whose records sum to %s against recorded total %s", sum, p.total)
					}
				}
			case "solution":
				_, _ = parseSolutionLines(lines)
			case "upstream":
				_, _ = parseBindingLines(lines)
			}
		}
	})
}
