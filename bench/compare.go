package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// how the acceptance rule for this benchmark measures spread. With fewer
// than two values all three are the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		m := median(s)
		return m, m, m
	}
	cut := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := i*(len(s)+1) - 4*j // taken after the clamp, so the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median, or 0 when
// there are too few repeats to have one.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func loadResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runCompare prints one row per workload and end-to-end metric — both
// medians, the change with its base, the bound, the verdict — then the
// per-layer counts that must repeat exactly. It returns the exit code: 1 if
// any row is a regression or an exact count changed.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadResult(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadResult(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	oneCPU := a.Host.NumCPU < 2 || b.Host.NumCPU < 2
	bad := 0
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %22s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by (of a)", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case len(va) == 0 || len(vb) == 0 || ma == 0:
				verdict = "unresolved (no value)"
			case oneCPU && notOnOneCPU[d.name]:
				verdict = "unresolved (nproc < 2)"
			case math.Max(spread(va), spread(vb)) > d.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*math.Max(spread(va), spread(vb)))
			case worse > d.bound:
				verdict = "regression"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %+13.2f%% of %-6.4g %6.0f%%  %s%s\n",
				wl.name, d.name, ma, mb, 100*worse, ma, 100*d.bound, verdict, quartileNote(va, vb))
		}
		if len(ra.Seeds) == 0 || len(rb.Seeds) == 0 || ra.Seeds[0] != rb.Seeds[0] {
			continue // counts are only exact at equal seed
		}
		for _, d := range perLayer {
			va, vb := ra.PerLayer[d.name], rb.PerLayer[d.name]
			if !d.exact || len(va) == 0 || len(vb) == 0 || va[0] == vb[0] {
				continue
			}
			fmt.Fprintf(w, "%-18s %-28s %14.6g %14.6g  exact count changed\n", wl.name, d.name, va[0], vb[0])
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s) or changed count(s)\n", bad)
		return 1
	}
	return 0
}

// quartileNote shows both sides' quartiles where repeats exist.
func quartileNote(va, vb []float64) string {
	if len(va) < 4 || len(vb) < 4 {
		return ""
	}
	a1, _, a3 := quartiles(va)
	b1, _, b3 := quartiles(vb)
	return fmt.Sprintf("  a[%.5g..%.5g] b[%.5g..%.5g]", a1, a3, b1, b3)
}
