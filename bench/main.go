// Command bench is the repository's one performance ledger: seven named
// workloads, five gated end-to-end metrics and a traced per-layer table
// from bound to checkpoint. See README.md in this directory for what each
// workload exercises and how the metrics interact.
//
//	go run ./bench                        every workload, untraced then traced, each in a fresh child
//	go run ./bench -workload farmer-storm one workload in this process (the BENCHMARK.json contract)
//	go run ./bench -compare a.json b.json A/A or parent/change verdicts
//
// Everything is measured from outside the program under test: by timing
// calls into public functions and by wrapping transport.Coordinator and
// checkpoint.FS with the decorators in trace.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric. BENCHMARK.json repeats the two tables below;
// TestBenchmarkJSONMatchesTables keeps them in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	bound float64
	// exact marks a per-layer count that must repeat bit for bit at equal
	// seed; -compare reports any difference.
	exact bool
}

// endToEnd are the gated metrics. Every workload reports every one of them
// (the BENCHMARK.json contract prints the same keys for every workload), so
// each is defined on all seven; the eleven workload-specific end-to-end
// numbers of the issue live at the head of perLayer instead.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.15},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is the ungated table the -trace pass fills. A workload that does
// not pass through a layer reports 0 for that layer's span metrics; the
// unit probes run at a fixed scale in every traced run.
var perLayer = []metricDef{
	// The issue's workload-specific end-to-end metrics, reported under
	// their own names but not gated (README.md, "Demoted metrics").
	{name: "parallel_efficiency", unit: "ratio", better: "higher"},
	{name: "farmer_busy_pct", unit: "%", better: "lower"},
	{name: "redundancy_pct", unit: "%", better: "lower"},
	{name: "fold_p50_us", unit: "us", better: "lower"},
	{name: "fold_p99_us", unit: "us", better: "lower"},
	{name: "fold_samples", unit: "count", better: "higher"},
	{name: "request_p50_us", unit: "us", better: "lower"},
	{name: "request_samples", unit: "count", better: "higher"},
	{name: "wire_bytes_per_op", unit: "B", better: "lower"},
	{name: "snapshot_p50_ms", unit: "ms", better: "lower"},
	{name: "snapshot_samples", unit: "count", better: "higher"},
	{name: "restore_ms", unit: "ms", better: "lower"},
	{name: "vticks", unit: "count", better: "lower", exact: true},
	{name: "failure_rate", unit: "ratio", better: "lower"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},

	{name: "flowshop.bound_ns", unit: "ns", better: "lower"},

	{name: "bb.seq_nodes_per_s", unit: "1/s", better: "higher"},
	{name: "bb.seq_nodes", unit: "count", better: "lower", exact: true},

	{name: "core.step_ns_per_node", unit: "ns", better: "lower"},
	{name: "core.step_overhead_pct", unit: "%", better: "lower"},
	{name: "core.remaining_ns", unit: "ns", better: "lower"},
	{name: "core.restrict_ns", unit: "ns", better: "lower"},
	{name: "core.fold_ns", unit: "ns", better: "lower"},
	{name: "core.unfold_ns", unit: "ns", better: "lower"},

	{name: "interval.append_delta_ns", unit: "ns", better: "lower"},
	{name: "interval.decode_delta_ns", unit: "ns", better: "lower"},
	{name: "interval.split_proportional_ns", unit: "ns", better: "lower"},
	{name: "interval.intersect_ns", unit: "ns", better: "lower"},
	{name: "interval.allocs_per_split", unit: "count", better: "lower"},

	{name: "worker.engine_self_s", unit: "s", better: "lower"},
	{name: "worker.rpc_wait_s", unit: "s", better: "lower"},
	{name: "worker.rpc_wait_share", unit: "ratio", better: "lower"},
	{name: "worker.idle_tail_s", unit: "s", better: "lower"},
	{name: "worker.folds", unit: "count", better: "lower"},
	{name: "worker.requests", unit: "count", better: "lower"},

	{name: "transport.self_p50_us", unit: "us", better: "lower"},
	{name: "transport.self_p99_us", unit: "us", better: "lower"},
	{name: "transport.stub_rtt_us", unit: "us", better: "lower"},
	{name: "transport.allocs_per_call", unit: "count", better: "lower"},
	{name: "transport.bytes_per_fold", unit: "B", better: "lower", exact: true},
	{name: "transport.bytes_per_request", unit: "B", better: "lower", exact: true},

	{name: "farmer.update_ns", unit: "ns", better: "lower"},
	{name: "farmer.request_ns", unit: "ns", better: "lower"},
	{name: "farmer.allocs_per_update", unit: "count", better: "lower"},
	{name: "farmer.allocs_per_request", unit: "count", better: "lower"},
	{name: "farmer.serve_p50_us", unit: "us", better: "lower"},
	{name: "farmer.serve_p99_us", unit: "us", better: "lower"},
	{name: "farmer.work_allocations", unit: "count", better: "lower"},
	{name: "farmer.duplications", unit: "count", better: "lower"},
	{name: "farmer.msgs", unit: "count", better: "lower"},
	{name: "farmer.sub_root_msgs", unit: "count", better: "lower"},

	{name: "jobs.request_ns", unit: "ns", better: "lower"},
	{name: "jobs.pick_overhead_ns", unit: "ns", better: "lower"},
	{name: "jobs.fair_share_assignments", unit: "count", better: "lower"},
	{name: "jobs.weight3_share", unit: "ratio", better: "higher"},

	{name: "checkpoint.save_ns", unit: "ns", better: "lower"},
	{name: "checkpoint.serialise_ns", unit: "ns", better: "lower"},
	{name: "checkpoint.fsync_ns", unit: "ns", better: "lower"},
	{name: "checkpoint.fsync_share_pct", unit: "%", better: "lower"},
	{name: "checkpoint.load_ns", unit: "ns", better: "lower"},
	{name: "checkpoint.file_bytes", unit: "B", better: "lower", exact: true},
	{name: "checkpoint.allocs_per_save", unit: "count", better: "lower"},

	{name: "gridsim.wall_s", unit: "s", better: "lower"},
	{name: "gridsim.us_per_tick", unit: "us", better: "lower"},
	{name: "gridsim.ns_per_msg", unit: "ns", better: "lower"},
}

// notOnOneCPU are the wall-clock scaling metrics a host with fewer than two
// processors cannot measure: two workers time-slice one core, so the number
// would read as a result while being an artefact of the box.
var notOnOneCPU = map[string]bool{"ops_per_s": true, "parallel_efficiency": true}

// metric is one reported value in the contract's JSON shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process and print the contract's result line")
		seed    = flag.Int64("seed", defaultSeed, "drives storm scripts and simulator seeds")
		seconds = flag.Float64("seconds", 15, "measurement window per workload")
		trace   = flag.Int("trace", 0, "1: span decorators and unit probes on, per-layer metrics out")
		smoke   = flag.Bool("smoke", false, "tiny instances: every code path in well under a second each")
		runs    = flag.Int("runs", 1, "all-workloads mode: repeats per workload, seeds seed..seed+runs-1")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for trace files, checkpoints and result.json")
		compare = flag.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
		// What setup_s spawns and times: see env.rehearse.
		setupOnly = flag.Bool("setup-only", false, "with -workload: build the workload's set-up once and exit")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q (have %v)", *name, workloadNames())
		}
		sc := fullScale
		if *smoke {
			sc = smokeScale
		}
		self, err := os.Executable()
		if err != nil {
			fatalf("locate own binary: %v", err)
		}
		e := &env{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, sc: sc,
			outDir: *out, log: os.Stdout, self: self, setupOnly: *setupOnly}
		if e.setupOnly {
			e.rep = newReport()
			if err := w.run(e); !errors.Is(err, errSetupDone) {
				fatalf("%s: set-up: %v", w.name, err)
			}
			return
		}
		res := runWorkload(w, e)
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("encode result: %v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*seed, *seconds, *runs, *smoke, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs w under e and shapes the outcome as the contract wants
// it: every end-to-end metric untraced, every per-layer metric traced.
func runWorkload(w workload, e *env) result {
	e.rep = newReport()
	if err := w.run(e); err != nil {
		e.rep.fail("%s: %v", w.name, err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
		e.rep.set("failure_rate", float64(e.rep.failed)/float64(max(e.rep.attempted, 1)))
	}
	res := result{
		Correct:   e.rep.failed == 0 && e.rep.attempted > 0,
		Attempted: max(e.rep.attempted, 1),
		Failed:    e.rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	oneCPU := hostInfo().NumCPU < 2
	for _, d := range defs {
		v := e.rep.values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if oneCPU && notOnOneCPU[d.name] {
			fmt.Fprintf(e.log, "%-32s not measured (nproc < 2)\n", d.name)
			continue
		}
		fmt.Fprintf(e.log, "%-32s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, msg := range e.rep.failures {
		fmt.Fprintf(e.log, "FAIL %s\n", msg)
	}
	return res
}

// report collects one run's values and its correctness tally.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check counts one attempted outcome and records it as failed when !ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failed outcome; only the first few messages are kept.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
