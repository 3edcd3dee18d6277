package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs need not
// be sorted and is left untouched. Zero for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// median is the mean of the two middle values for even counts, so two
// repeats report their midpoint rather than the luckier one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the resident-set high-water mark of this process (what
// /proc/self/status calls VmHWM), in MB. Linux reports ru_maxrss in KB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// host is what a result must carry for its numbers to be comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// unit is one measured repetition of a workload's unit of work: a proof, a
// batch drain, a script replay, a simulated resolution.
type unit struct {
	wall time.Duration
	cpu  time.Duration
	// ops is the work done in the workload's own currency (explored
	// nodes, protocol calls, simulated processor-seconds).
	ops float64
}

// timed runs f as one unit: a collection first so every repetition starts
// from the same heap, then wall and CPU clocks around the call.
func timed(f func() (ops float64, err error)) (unit, error) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	ops, err := f()
	return unit{wall: time.Since(t0), cpu: cpuTime() - c0, ops: ops}, err
}

// walls lists the units' wall-clock in seconds.
func walls(us []unit) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wall.Seconds()
	}
	return out
}

// repeatFor runs units back to back until the window is spent. It always
// runs one, and starts another only while a unit of the median duration
// seen so far would still end inside the window, so a run never overshoots
// by a whole unit. maxUnits > 0 caps the count.
func repeatFor(window time.Duration, maxUnits int, f func(i int) (unit, error)) ([]unit, error) {
	var us []unit
	start := time.Now()
	for i := 0; maxUnits <= 0 || i < maxUnits; i++ {
		u, err := f(i)
		if err != nil {
			return us, err
		}
		us = append(us, u)
		next := time.Duration(median(walls(us)) * float64(time.Second))
		if time.Since(start)+next > window {
			break
		}
	}
	return us, nil
}

// errSetupDone is what a -setup-only child's workload returns once its
// set-up has been built: not a failure, just the end of what it was for.
var errSetupDone = errors.New("set-up built")

// rehearse measures setup_s: sc.setups cold starts, each a child process of
// this same binary that builds everything a unit needs — build — once and
// exits, timed from spawn to exit. Built in-process and in a loop the same
// set-up takes tens of microseconds and wanders by a third with the state
// of the heap from one process to the next; from a cold start it is what an
// operator waits for, and it holds still. The child's side of this is the
// setupOnly branch. Without a binary to spawn (go test) the set-up is
// timed in-process.
func (e *env) rehearse(build func() (teardown func(), err error)) error {
	once := func() error {
		teardown, err := build()
		if err == nil {
			teardown()
		}
		return err
	}
	if e.setupOnly {
		if err := once(); err != nil {
			return err
		}
		return errSetupDone
	}
	if e.trace {
		return nil // a traced pass reports no setup_s
	}
	for i := 0; i < e.sc.setups; i++ {
		t0 := time.Now()
		var err error
		if e.self == "" {
			err = once()
		} else {
			args := []string{"-setup-only", "-workload", e.workload, "-seed", fmt.Sprint(e.seed), "-out", e.outDir}
			if e.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(e.self, args...)
			cmd.Stderr = os.Stderr
			err = cmd.Run()
		}
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		e.setups = append(e.setups, time.Since(t0).Seconds())
	}
	return nil
}

// setEndToEnd reduces the run's units and set-up samples to the gated
// metrics: medians, so one slow repetition does not move the report.
func (e *env) setEndToEnd(us []unit) {
	wall := walls(us)
	var rate, cpu []float64
	for _, u := range us {
		rate = append(rate, u.ops/u.wall.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
	}
	fmt.Fprintf(e.log, "%d units, wall_s each: %.4g\n%d set-ups\n", len(us), wall, len(e.setups))
	e.rep.set("wall_s", median(wall))
	e.rep.set("ops_per_s", median(rate))
	e.rep.set("cpu_s", median(cpu))
	e.rep.set("setup_s", median(e.setups))
	e.rep.set("peak_rss_mb", peakRSSMB())
}

// probe times n calls of f and returns ns and heap allocations per call.
// A warm-up call runs first so lazily built state is not billed.
func probe(n int, f func()) (ns, allocs float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
