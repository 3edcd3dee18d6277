package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultFile is what a whole run leaves in <out>/result.json and what
// -compare reads: per workload and metric, one value per repeat.
type resultFile struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Seeds     []int64              `json:"seeds"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
}

// runAll runs every workload in a fresh child process each — so peak RSS
// and collector state do not leak from one workload into the next — first
// untraced `runs` times, then once traced, and writes result.json. It
// returns the process exit code: non-zero on any correctness failure.
func runAll(seed int64, secs float64, runs int, smoke bool, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("locate own binary: %v", err)
	}
	h := hostInfo()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s, %s\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	fmt.Printf("load: %d closed-loop workers / client connections, seed %d, %.3g s per run\n\n", loadWorkers, seed, secs)
	rf := resultFile{Host: h, Seed: seed, Seconds: secs, Smoke: smoke, Workloads: make(map[string]*workloadResult)}
	failed := false
	// child runs one workload once and folds its result line into wr.
	child := func(w workload, wr *workloadResult, s int64, trace int) {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-out", outDir}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Printf("%s (trace %d): no result line: %v, %v\n%s\n", w.name, trace, err, jerr, out)
			failed = true
			return
		}
		if !res.Correct {
			failed = true
			for _, l := range lines {
				if strings.HasPrefix(l, "FAIL ") {
					fmt.Printf("%s (trace %d): %s\n", w.name, trace, l)
				}
			}
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		into := wr.EndToEnd
		if trace != 0 {
			into = wr.PerLayer
		}
		for name, m := range res.Metrics {
			into[name] = append(into[name], m.Value)
		}
	}
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: make(map[string][]float64), PerLayer: make(map[string][]float64)}
		rf.Workloads[w.name] = wr
		for r := 0; r < runs; r++ {
			wr.Seeds = append(wr.Seeds, seed+int64(r))
			child(w, wr, seed+int64(r), 0)
		}
		child(w, wr, seed, 1)
		printWorkload(w, wr, h)
	}
	printCoordinationCost(rf)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		fatalf("encode result: %v", err)
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\nresult written to %s\n", path)
	if failed {
		fmt.Println("FAILED: at least one workload reported a wrong or failed outcome")
		return 1
	}
	return 0
}

// printWorkload prints one workload's metrics by name with their units.
func printWorkload(w workload, wr *workloadResult, h host) {
	fmt.Printf("== %s  (%d outcomes checked, %d failed)\n", w.name, wr.Attempted, wr.Failed)
	row := func(d metricDef, vals []float64) {
		switch {
		case h.NumCPU < 2 && notOnOneCPU[d.name]:
			fmt.Printf("  %-32s %16s\n", d.name, "not measured (nproc < 2)")
		case len(vals) >= 4:
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("  %-32s %16.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", d.name, q2, d.unit, q1, q3, len(vals))
		default:
			fmt.Printf("  %-32s %16.6g %s\n", d.name, median(vals), d.unit)
		}
	}
	for _, d := range endToEnd {
		row(d, wr.EndToEnd[d.name])
	}
	for _, d := range perLayer {
		if vals := wr.PerLayer[d.name]; len(vals) > 0 && vals[0] != 0 {
			row(d, vals)
		}
	}
}

// printCoordinationCost holds the traced pass against the end-to-end gap it
// should explain: proof-tcp-chatty runs the same tree as proof-inproc, so
// the wall-clock between them is what coordination costs. The trace splits
// it three ways: workers waiting on calls, the tail one worker idles through
// at the end, and the engines' own self time growing because codec and
// served farmer take CPU from the cores the engines run on.
func printCoordinationCost(rf resultFile) {
	in, tcp := rf.Workloads["proof-inproc"], rf.Workloads["proof-tcp-chatty"]
	if in == nil || tcp == nil || len(in.EndToEnd["wall_s"]) == 0 || len(tcp.EndToEnd["wall_s"]) == 0 {
		return
	}
	growth := func(name string) float64 { return median(tcp.PerLayer[name]) - median(in.PerLayer[name]) }
	gap := median(tcp.EndToEnd["wall_s"]) - median(in.EndToEnd["wall_s"])
	wait, tail, self := growth("worker.rpc_wait_s"), growth("worker.idle_tail_s"), growth("worker.engine_self_s")
	fmt.Printf("\ncoordination cost: wall_s(proof-tcp-chatty) - wall_s(proof-inproc) = %.3f s\n", gap)
	fmt.Printf("  traced: rpc wait %+.3f s (%.0f %%), idle tail %+.3f s (%.0f %%), engine self time %+.3f s (%.0f %%)\n",
		wait, 100*wait/gap, tail, 100*tail/gap, self, 100*self/gap)
}
