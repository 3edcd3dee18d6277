// Command benchgate is the repo's in-tree perf gate: a benchstat-style
// comparator that reads `go test -bench` output on stdin and compares the
// best observation of each benchmark metric against the committed record
// (the "gate" section of BENCH_baseline.json). It exits non-zero when
// any gated metric regresses by more than the allowed percentage, so CI
// can fail a PR that quietly slows the protocol-hot paths.
//
// Usage:
//
//	go test -run '^$' -bench ... -count 3 . | benchgate -baseline BENCH_baseline.json
//
// Best-of semantics: with -count N the gate keeps the minimum of each
// metric across repetitions, like benchstat's best-case column — the
// minimum is the least noisy estimator of the true cost on a shared host.
// Deterministic metrics (wire-B/fold, allocs/op) gate tightly across
// hosts; ns/op baselines are host-relative, which is why the allowance is
// a percentage and recorded next to the host string in the record file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// gateFile is the subset of the baseline record the gate reads.
type gateFile struct {
	Gate struct {
		// MaxRegressionPct is the allowed worsening, in percent, for
		// every gated metric (overridable per run with -max-regress).
		MaxRegressionPct float64 `json:"max_regression_pct"`
		// NsOpAllowancePct, when positive, widens the allowance for the
		// ns/op metric only. Wall-clock cost on a shared host swings far
		// beyond the deterministic metrics' noise floor (a concurrent
		// build doubles loopback RPC latency), so the ns/op gate is
		// tuned to catch structural slowdowns — an accidental O(W) scan,
		// a lost fast path — not scheduler weather.
		NsOpAllowancePct float64 `json:"ns_op_allowance_pct"`
		// Benchmarks maps a fully qualified benchmark name (including
		// sub-benchmark path, excluding the -GOMAXPROCS suffix) to its
		// recorded metrics, keyed by the unit string exactly as `go
		// test -bench` prints it ("ns/op", "allocs/op", "wire-B/fold").
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"gate"`
}

// parseBench reads `go test -bench` text and returns, per benchmark name,
// the minimum observed value of every metric across repetitions.
func parseBench(r *bufio.Scanner) (map[string]map[string]float64, error) {
	best := make(map[string]map[string]float64)
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix go test appends to the name.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count: not a result line
		}
		m := best[name]
		if m == nil {
			m = make(map[string]float64)
			best[name] = m
		}
		// The remainder alternates value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in %q", fields[i], line)
			}
			unit := fields[i+1]
			if cur, ok := m[unit]; !ok || v < cur {
				m[unit] = v
			}
		}
	}
	return best, r.Err()
}

func main() {
	baseline := flag.String("baseline", "", "record holding the gate section (BENCH_baseline.json)")
	maxRegress := flag.Float64("max-regress", 0, "allowed regression in percent (0: use the record's value)")
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	var gf gateFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	if len(gf.Gate.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s has no gate.benchmarks section\n", *baseline)
		os.Exit(2)
	}
	allow := gf.Gate.MaxRegressionPct
	if *maxRegress > 0 {
		allow = *maxRegress
	}
	if allow <= 0 {
		allow = 10
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	got, err := parseBench(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(gf.Gate.Benchmarks))
	for name := range gf.Gate.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		cur, ok := got[name]
		if !ok {
			fmt.Printf("FAIL %s: benchmark missing from input\n", name)
			failed = true
			continue
		}
		units := make([]string, 0, len(gf.Gate.Benchmarks[name]))
		for unit := range gf.Gate.Benchmarks[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			base := gf.Gate.Benchmarks[name][unit]
			v, ok := cur[unit]
			if !ok {
				fmt.Printf("FAIL %s: metric %s missing from input\n", name, unit)
				failed = true
				continue
			}
			// A zero baseline (0 allocs/op on the engine's hot loop) has no
			// percentage to allow: any positive observation is a regression.
			delta := 0.0
			if base > 0 {
				delta = (v - base) / base * 100
			} else if v > 0 {
				delta = math.Inf(1)
			}
			allowed := allow
			if unit == "ns/op" && gf.Gate.NsOpAllowancePct > 0 {
				allowed = gf.Gate.NsOpAllowancePct
			}
			verdict := "ok  "
			if delta > allowed {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("%s %s %s: %.4g vs record %.4g (%+.1f%%, allowed +%.0f%%)\n",
				verdict, name, unit, v, base, delta, allowed)
		}
	}
	if failed {
		os.Exit(1)
	}
}
