package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSmoke runs one workload at the smoke scale in this process.
func runSmoke(t *testing.T, w workload, trace bool, dir string) result {
	t.Helper()
	var log bytes.Buffer
	e := &env{seed: defaultSeed, seconds: 0.2, trace: trace, sc: smokeScale, outDir: dir, log: &log}
	res := runWorkload(w, e)
	if !res.Correct {
		t.Fatalf("%s (trace %v) reported %d failed of %d:\n%s", w.name, trace, res.Failed, res.Attempted, log.String())
	}
	return res
}

// TestSmokeEveryWorkload runs every workload and its traced pass on tiny
// instances and holds the output to the shape BENCHMARK.json promises.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Parallel()
	if n := len(workloads); n < 2 || n > 8 {
		t.Fatalf("%d workloads, the contract allows 2 to 8", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is ill-formed or used twice", d.name)
		}
		seen[d.name] = true
	}
	dir := t.TempDir()
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || strings.Contains(w.why, "\n") || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		untraced := runSmoke(t, w, false, dir)
		for _, d := range endToEnd {
			m, ok := untraced.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v): want a positive finite %s", w.name, d.name, m, ok, d.unit)
			}
		}
		if len(untraced.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d untraced metrics, want exactly the %d end-to-end ones", w.name, len(untraced.Metrics), len(endToEnd))
		}
		traced := runSmoke(t, w, true, dir)
		for _, d := range perLayer {
			m, ok := traced.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v): want a finite %s", w.name, d.name, m, ok, d.unit)
			}
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d traced metrics, want exactly the %d per-layer ones", w.name, len(traced.Metrics), len(perLayer))
		}
		// The unit probes do not depend on the workload: every traced run
		// carries them.
		for _, name := range []string{"flowshop.bound_ns", "core.step_ns_per_node", "interval.intersect_ns",
			"transport.stub_rtt_us", "farmer.request_ns", "jobs.request_ns", "checkpoint.save_ns", "checkpoint.file_bytes"} {
			if traced.Metrics[name].Value <= 0 {
				t.Errorf("%s: probe %s = %v, want > 0", w.name, name, traced.Metrics[name].Value)
			}
		}
		if strings.HasPrefix(w.name, "sim-") {
			continue // closed to decorators: no trace file
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+w.name+".json"))
	}
}

// checkTraceFile holds a written trace to the span algebra: self times are
// never negative, they add up to the root spans, and no actor is busy for
// longer than the trace lasted.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Columns []string
		Spans   [][]any
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	col := make(map[string]int)
	for i, c := range tf.Columns {
		col[c] = i
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	num := func(row []any, name string) float64 { return row[col[name]].(float64) }
	lo, hi := math.Inf(1), math.Inf(-1)
	var selfSum, rootSum float64
	actors := make(map[string]bool)
	for _, row := range tf.Spans {
		self := num(row, "self_ns")
		if self < 0 {
			t.Fatalf("%s: span %v has negative self time", path, row)
		}
		selfSum += self
		lo, hi = math.Min(lo, num(row, "start_ns")), math.Max(hi, num(row, "end_ns"))
		if num(row, "parent") < 0 {
			rootSum += num(row, "end_ns") - num(row, "start_ns")
			actors[row[col["actor"]].(string)] = true
		}
	}
	if selfSum != rootSum {
		t.Errorf("%s: self times sum to %v ns, root spans to %v ns", path, selfSum, rootSum)
	}
	if limit := (hi - lo) * float64(len(actors)); selfSum > limit {
		t.Errorf("%s: self times sum to %v ns, more than wall x actors = %v ns", path, selfSum, limit)
	}
}

// TestSeedDiscipline: the seed decides the storm script and the simulated
// scenario and nothing else does.
func TestSeedDiscipline(t *testing.T) {
	t.Parallel()
	a, b := stormScript(defaultSeed, 0, 50), stormScript(defaultSeed, 0, 50)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different storm scripts")
	}
	if bytes.Equal(a, stormScript(heldOutSeed, 0, 50)) || bytes.Equal(a, stormScript(defaultSeed, 1, 50)) {
		t.Error("another seed, or another client, replayed the same storm script")
	}
	if want := 50 * (foldsPerRing + 1) * scriptRecord; len(a) != want {
		t.Errorf("script is %d bytes, want %d", len(a), want)
	}
	for _, subtrees := range []int{0, 8} {
		rig := newSimRig(smokeScale, subtrees)
		counts := func(seed int64) simCounts {
			rep := newReport()
			_, c, err := rig.run(rig.build(seed), rep)
			if err != nil || rep.failed > 0 {
				t.Fatalf("subtrees %d seed %d: %v %v", subtrees, seed, err, rep.failures)
			}
			return c
		}
		first := counts(defaultSeed)
		if again := counts(defaultSeed); again != first {
			t.Errorf("subtrees %d: seed %d gave %+v then %+v", subtrees, defaultSeed, first, again)
		}
		if other := counts(heldOutSeed); other == first {
			t.Errorf("subtrees %d: seeds %d and %d gave the same counts %+v", subtrees, defaultSeed, heldOutSeed, first)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables this program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
	last := endToEnd[len(endToEnd)-1]
	for _, d := range endToEnd {
		if d.bound > last.bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
	if last.name != "setup_s" || last.unit != "s" || last.better != "lower" {
		t.Errorf("setup_s must be reported in s, lower better: %+v", last)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestCompareVerdicts: identical sets are ok, a worsened median past its
// bound is a regression, a spread wider than the bound is unresolved, and a
// changed exact count is reported.
func TestCompareVerdicts(t *testing.T) {
	base := func() resultFile {
		rf := resultFile{Host: host{NumCPU: 2}, Workloads: make(map[string]*workloadResult)}
		for _, w := range workloads {
			wr := &workloadResult{Seeds: []int64{1}, EndToEnd: make(map[string][]float64), PerLayer: make(map[string][]float64)}
			for _, d := range endToEnd {
				wr.EndToEnd[d.name] = []float64{100, 101, 99, 100, 100.5}
			}
			wr.PerLayer["vticks"] = []float64{4230}
			rf.Workloads[w.name] = wr
		}
		return rf
	}
	write := func(rf resultFile) string {
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write(base())
	if code := runCompare(io.Discard, a, write(base())); code != 0 {
		t.Errorf("A/A compare exited %d", code)
	}
	worse := base()
	worse.Workloads["farmer-storm"].EndToEnd["wall_s"] = []float64{120, 121, 119, 120, 120}
	var out bytes.Buffer
	if code := runCompare(&out, a, write(worse)); code != 1 || strings.Count(out.String(), "regression") != 2 {
		t.Errorf("a 20 %% slower wall_s: exit %d\n%s", code, out.String())
	}
	noisy := base()
	noisy.Workloads["farmer-storm"].EndToEnd["wall_s"] = []float64{60, 150, 90, 130, 100}
	out.Reset()
	if code := runCompare(&out, a, write(noisy)); code != 0 || !strings.Contains(out.String(), "unresolved (spread") {
		t.Errorf("a spread wider than the bound: exit %d\n%s", code, out.String())
	}
	drift := base()
	drift.Workloads["sim-flat-2k"].PerLayer["vticks"] = []float64{4231}
	out.Reset()
	if code := runCompare(&out, a, write(drift)); code != 1 || !strings.Contains(out.String(), "exact count changed") {
		t.Errorf("a changed exact count: exit %d\n%s", code, out.String())
	}
}
