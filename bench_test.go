// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus the ablation studies of the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table mapping (see DESIGN.md §3):
//
//	Fig 1  BenchmarkFig1WeightVector        weight vector construction
//	Fig 2  BenchmarkFig2NumberOfNode        eq. 6 at Ta056 depth
//	Fig 3  BenchmarkFig3RangeOfNode         eq. 7 at Ta056 depth
//	Fig 4  BenchmarkFig4Fold / Unfold       the two operators at Ta056 scale
//	Fig 5  BenchmarkFig5ProtocolRound       request+update+report round
//	Fig 6  BenchmarkTable1PoolBuild         pool construction/validation
//	Fig 7  BenchmarkFig7AvailabilityTrace   trace generation
//	Tab 1  BenchmarkTable1EngineThroughput  engine speed defining "power"
//	—      BenchmarkExplorerInteriorStep    interior-mode hot loop, 0 allocs
//	—      BenchmarkBoundChild              one child bound, per bound family
//	Tab 2  BenchmarkTable2Resolution        full simulated grid resolution
//	Tab 3  BenchmarkTable3Domains           flowshop vs TSP vs knapsack
//
// The benchmarks report domain metrics (bytes per work unit, redundancy,
// allocations) through b.ReportMetric, so `go test -bench` output doubles
// as the quantitative record in EXPERIMENTS.md.
package repro

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/gridbb"
	"repro/internal/bb"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/gridsim"
	"repro/internal/interval"
	"repro/internal/jobs"
	"repro/internal/knapsack"
	"repro/internal/qap"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/tsp"
	"repro/internal/worker"
)

// ta056Numbering is the numbering of the real headline tree: 50 jobs,
// numbers around 2^214.
func ta056Numbering() *core.Numbering {
	return core.NewNumbering(tree.Permutation{N: 50})
}

// randomLeafPath draws a random leaf rank path of the shape.
func randomLeafPath(rng *rand.Rand, s tree.Shape) []int {
	ranks := make([]int, s.Depth())
	for d := range ranks {
		ranks[d] = rng.Intn(s.Branching(d))
	}
	return ranks
}

// BenchmarkFig1WeightVector measures the startup cost of the per-depth
// weight vector (Figure 1) at the paper's scale: factorials up to 50!.
func BenchmarkFig1WeightVector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if w := tree.Weights(tree.Permutation{N: 50}); len(w) != 51 {
			b.Fatal("bad weight vector")
		}
	}
}

// BenchmarkFig2NumberOfNode measures eq. (6): the number of a leaf of the
// Ta056 tree.
func BenchmarkFig2NumberOfNode(b *testing.B) {
	nb := ta056Numbering()
	rng := rand.New(rand.NewSource(1))
	paths := make([][]int, 64)
	for i := range paths {
		paths[i] = randomLeafPath(rng, nb.Shape())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nb.Number(paths[i%len(paths)]).Sign() < 0 {
			b.Fatal("negative number")
		}
	}
}

// BenchmarkFig3RangeOfNode measures eq. (7) on mid-depth nodes.
func BenchmarkFig3RangeOfNode(b *testing.B) {
	nb := ta056Numbering()
	rng := rand.New(rand.NewSource(2))
	paths := make([][]int, 64)
	for i := range paths {
		paths[i] = randomLeafPath(rng, nb.Shape())[:25]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := nb.Range(paths[i%len(paths)])
		if iv.IsEmpty() {
			b.Fatal("empty range")
		}
	}
}

// BenchmarkFig4Fold folds a realistic Ta056-scale active list (one entry
// per depth, as a DFS frontier has).
func BenchmarkFig4Fold(b *testing.B) {
	nb := ta056Numbering()
	rng := rand.New(rand.NewSource(3))
	a := new(big.Int).Rand(rng, nb.LeafCount().Big())
	bEnd := new(big.Int).Add(a, big.NewInt(1))
	bEnd.Add(bEnd, new(big.Int).Rand(rng, new(big.Int).Sub(nb.LeafCount().Big(), bEnd)))
	active := core.Unfold(nb, interval.New(a, bEnd))
	if len(active) == 0 {
		b.Fatal("empty active list")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fold(nb, active); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Unfold unfolds random Ta056-scale intervals; the paper's
// §3.5 bound promises O(P·K) work regardless of interval size.
func BenchmarkFig4Unfold(b *testing.B) {
	nb := ta056Numbering()
	rng := rand.New(rand.NewSource(4))
	type iv struct{ iv interval.Interval }
	cases := make([]iv, 32)
	for i := range cases {
		a := new(big.Int).Rand(rng, nb.LeafCount().Big())
		e := new(big.Int).Add(a, big.NewInt(1))
		e.Add(e, new(big.Int).Rand(rng, new(big.Int).Sub(nb.LeafCount().Big(), e)))
		cases[i] = iv{interval.New(a, e)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nodes := core.Unfold(nb, cases[i%len(cases)].iv); len(nodes) == 0 {
			b.Fatal("empty unfold")
		}
	}
}

// BenchmarkFig5ProtocolRound measures one full worker-coordinator exchange
// cycle (request + interval update + solution report) against an in-process
// farmer at Ta056 scale — the cost the Figure 5 architecture pays per
// checkpoint period.
func BenchmarkFig5ProtocolRound(b *testing.B) {
	nb := ta056Numbering()
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := farmer.New(nb.RootRange())
		b.StartTimer()
		reply, err := f.RequestWork(transport.WorkRequest{Worker: "bench", Power: 1})
		if err != nil {
			b.Fatal(err)
		}
		mid := new(big.Int).Rand(rng, nb.LeafCount().Big())
		if _, err := f.UpdateInterval(transport.UpdateRequest{
			Worker: "bench", IntervalID: reply.IntervalID,
			Remaining: interval.New(mid, nb.LeafCount().Big()), Power: 1, ExploredDelta: 1000,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReportSolution(transport.SolutionReport{Worker: "bench", Cost: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarmerRequestThroughput measures the farmer's per-request cost
// as a function of the number of tracked intervals — the grid-size axis of
// the paper's scalability claim (the farmer's 1.7 % exploitation rate only
// holds if serving a request stays cheap as the fleet grows). The setup
// populates INTERVALS with `workers` entries of heterogeneous holder
// powers, then the timed loop alternates one RequestWork (splitting a
// tracked interval) with one UpdateInterval retiring the freshly donated
// interval, so the tracked count stays pinned at `workers` throughout. The
// Ta056-scale root (numbers ~2^214) keeps every interval far above the
// duplication threshold for any b.N. Sub-linear ns/op growth from 100 to
// 2000 is the acceptance gate of the indexed selection (BENCH_pr4.json).
func BenchmarkFarmerRequestThroughput(b *testing.B) {
	nb := ta056Numbering()
	for _, workers := range []int{100, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			// Powers cycle through a handful of host classes like a real
			// heterogeneous pool (Table 1 has ~8 speed grades).
			powers := []int64{800, 1300, 1700, 2000, 2200, 2400, 2800, 3200}
			// populate seeds INTERVALS with `workers` owned entries.
			populate := func() *farmer.Farmer {
				f := farmer.New(nb.RootRange(), farmer.WithClock(func() int64 { return 0 }))
				for i := 0; i < workers; i++ {
					_, err := f.RequestWork(transport.WorkRequest{
						Worker: transport.WorkerID(fmt.Sprintf("seed-%d", i)),
						Power:  powers[i%len(powers)],
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				return f
			}
			f := populate()
			// Every request permanently consumes the donated length (a
			// retire cannot grow INTERVALS back — intersection only ever
			// narrows), which halves the total every ~1.4·workers pairs.
			// Rebuilding outside the timer long before the ~2^200 headroom
			// runs out keeps the tracked count AND the length scale pinned.
			rebuildEvery := 100 * workers
			sinceRebuild := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sinceRebuild == rebuildEvery {
					b.StopTimer()
					f = populate()
					sinceRebuild = 0
					b.StartTimer()
				}
				sinceRebuild++
				w := transport.WorkerID(fmt.Sprintf("req-%d", i%workers))
				reply, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: powers[i%len(powers)]})
				if err != nil {
					b.Fatal(err)
				}
				if reply.Status != transport.WorkAssigned {
					b.Fatal("ran out of work")
				}
				// Retire the donated interval so the tracked count stays
				// at `workers`: the finished fold [B,B) — what a real
				// worker reports after exhausting its interval — empties
				// the coordinator's copy and deletes the entry.
				end := reply.Interval.B()
				if _, err := f.UpdateInterval(transport.UpdateRequest{
					Worker: w, IntervalID: reply.IntervalID, Remaining: interval.New(end, end),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJobTableRequestThroughput measures the multi-tenant tax on the
// serving path: one untagged RequestWork against a job table — the
// fair-share scan over active jobs plus the chosen farmer's indexed
// selection — followed by the tagged retire of the donated interval. The
// total tracked-interval count is pinned at 2000 whatever the job count,
// so the jobs=1 case is the single-farmer BenchmarkFarmerRequestThroughput
// workload routed through the table, and jobs=8/jobs=64 split the same
// fleet across tenants. Acceptance gate (BENCH_pr9.json): the fair-share
// pick at 64 jobs stays within ~2x the single-job indexed cost — the scan
// is O(active jobs) of integer compares, dwarfed by the big.Int split.
//
// Every job is a 50x20 flowshop instance: a Ta056-scale root (~2^214)
// keeps every donation far above the duplication threshold, and periodic
// untimed rebuilds pin the length scale exactly like the farmer record.
func BenchmarkJobTableRequestThroughput(b *testing.B) {
	const tracked = 2000
	powers := []int64{800, 1300, 1700, 2000, 2200, 2400, 2800, 3200}
	for _, njobs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("jobs=%d", njobs), func(b *testing.B) {
			populate := func() *jobs.Table {
				tb := jobs.NewTable(jobs.Config{
					MaxActive: njobs,
					Clock:     func() int64 { return 0 },
					LeaseTTL:  time.Hour,
				})
				for j := 0; j < njobs; j++ {
					err := tb.Submit(fmt.Sprintf("job-%02d", j), jobs.Spec{
						Domain: "flowshop", Jobs: 50, Machines: 20, Seed: int64(j + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				// Untagged seeds: fair share spreads ~tracked/njobs
				// in-flight intervals across the tenants.
				for i := 0; i < tracked; i++ {
					r, err := tb.RequestWork(transport.WorkRequest{
						Worker: transport.WorkerID(fmt.Sprintf("seed-%d", i)),
						Power:  powers[i%len(powers)],
					})
					if err != nil {
						b.Fatal(err)
					}
					if r.Status != transport.WorkAssigned {
						b.Fatal("seed request starved")
					}
				}
				return tb
			}
			tb := populate()
			rebuildEvery := 100 * tracked
			sinceRebuild := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sinceRebuild == rebuildEvery {
					b.StopTimer()
					tb = populate()
					sinceRebuild = 0
					b.StartTimer()
				}
				sinceRebuild++
				w := transport.WorkerID(fmt.Sprintf("req-%d", i%tracked))
				reply, err := tb.RequestWork(transport.WorkRequest{Worker: w, Power: powers[i%len(powers)]})
				if err != nil {
					b.Fatal(err)
				}
				if reply.Status != transport.WorkAssigned {
					b.Fatal("ran out of work")
				}
				// Retire the donation under its job's tag so every
				// tenant's tracked count stays pinned.
				end := reply.Interval.B()
				if _, err := tb.UpdateInterval(transport.UpdateRequest{
					Worker: w, Job: reply.Job, IntervalID: reply.IntervalID,
					Remaining: interval.New(end, end),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFarmerTreeThroughput is the coordination-throughput record of
// the hierarchical farmer (DESIGN.md §9): flat single farmer vs a 2-level
// tree of 8 sub-farmers, at equal tracked-fleet size (2k/5k/10k), hammered
// by GOMAXPROCS concurrent clients. Each op is one request+retire pair —
// the farmer-side cost of one worker life cycle — and ns/op is therefore
// the reciprocal of the aggregate coordination throughput. The flat farmer
// is one monitor: all clients serialize on one mutex whatever the fleet
// size. The tree is 8 independent monitors whose root sees only the
// piggybacked folds (one per 64 fleet messages), so aggregate throughput
// scales with min(clients, subtrees) on multicore hardware; on a
// single-core box the tree's edge reduces to its smaller per-sub tables
// (read the scaling on CI, like BenchmarkMulticoreWorker's wall-clock
// numbers). The `root/subtrees=S` cases pin the other half of the claim:
// the root's own per-request cost stays flat as the subtree count grows.
//
// Requester power is 1 against ~2800-class holders, so each pair consumes
// a ~1/2800 sliver of one interval: the tracked count and the length scale
// stay pinned for any b.N without mid-run rebuilds (the Ta056-scale root
// has ~2^200 of headroom).
func BenchmarkFarmerTreeThroughput(b *testing.B) {
	nb := ta056Numbering()
	powers := []int64{800, 1300, 1700, 2000, 2200, 2400, 2800, 3200}
	const subtrees = 8

	// hammer drives b.N request+retire pairs through coordFor, spread
	// over GOMAXPROCS goroutines by an atomic op counter.
	hammer := func(b *testing.B, coordFor func(g int) transport.Coordinator) {
		clients := runtime.GOMAXPROCS(0)
		b.ReportAllocs()
		b.ResetTimer()
		var ops atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				coord := coordFor(g)
				w := transport.WorkerID(fmt.Sprintf("c%d", g))
				for ops.Add(1) <= int64(b.N) {
					reply, err := coord.RequestWork(transport.WorkRequest{Worker: w, Power: 1})
					if err != nil {
						errc <- err
						return
					}
					if reply.Status != transport.WorkAssigned {
						errc <- fmt.Errorf("status %v: ran out of work", reply.Status)
						return
					}
					end := reply.Interval.B()
					if _, err := coord.UpdateInterval(transport.UpdateRequest{
						Worker: w, IntervalID: reply.IntervalID,
						Remaining: interval.New(end, end), Power: 1,
					}); err != nil {
						errc <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
	}

	seed := func(coord transport.Coordinator, n, off int) error {
		for i := 0; i < n; i++ {
			_, err := coord.RequestWork(transport.WorkRequest{
				Worker: transport.WorkerID(fmt.Sprintf("seed-%d", off+i)),
				Power:  powers[(off+i)%len(powers)],
			})
			if err != nil {
				return err
			}
		}
		return nil
	}

	for _, workers := range []int{2000, 5000, 10000} {
		for _, topo := range []struct {
			name string
			subs int
		}{{"flat", 0}, {"tree", subtrees}} {
			b.Run(fmt.Sprintf("%s/workers=%d", topo.name, workers), func(b *testing.B) {
				// The root is the one job of a job table, as in
				// gridbb.Solve; Ta056's shape is 50 jobs on 20 machines.
				clock := func() int64 { return 0 }
				table := jobs.NewTable(jobs.Config{Clock: clock})
				tr := farmer.NewTree(farmer.TreeConfig{
					Subtrees:       topo.subs,
					SubUpdateEvery: 64,
					Clock:          clock,
					Upstream:       table.Endpoint("ta056"),
				})
				if err := table.Submit("ta056", jobs.Spec{Domain: "flowshop", Jobs: 50, Machines: 20}, tr.RootOptions...); err != nil {
					b.Fatal(err)
				}
				// The flat root tracks the whole fleet. Each sub-farmer
				// pulls its sub-range from the root on its fleet's first
				// request and then serves its 1/8 of the tracked fleet.
				n := max(len(tr.Subs), 1)
				for s := 0; s < n; s++ {
					if err := seed(tr.Endpoint(s), workers/n, s*(workers/n)); err != nil {
						b.Fatal(err)
					}
				}
				hammer(b, tr.Endpoint)
			})
		}
	}

	// Root flatness: the root's request cost as a function of how many
	// sub-farmer copies it arbitrates between. Single client — this is a
	// latency claim, not a throughput one.
	for _, s := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("root/subtrees=%d", s), func(b *testing.B) {
			f := farmer.New(nb.RootRange(), farmer.WithClock(func() int64 { return 0 }))
			if err := seed(f, s, 0); err != nil {
				b.Fatal(err)
			}
			w := transport.WorkerID("refiller")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, err := f.RequestWork(transport.WorkRequest{Worker: w, Power: 1})
				if err != nil {
					b.Fatal(err)
				}
				end := reply.Interval.B()
				if _, err := f.UpdateInterval(transport.UpdateRequest{
					Worker: w, IntervalID: reply.IntervalID,
					Remaining: interval.New(end, end), Power: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHardenedCallOverhead prices the hostile-WAN hardening
// (DESIGN.md §10) on the wire path it taxes: one UpdateInterval round over
// loopback TCP. The raw leg is the unhardened seed configuration (no
// deadlines, no size windows, no connection cap); the hardened leg enables
// the always-on defenses — server read deadlines, the per-message byte
// window on both ends, the connection cap, and a client per-call deadline
// (which switches the client from Call to Go + timer). TLS is deliberately
// excluded: it is an opt-in identity mode with its own well-known cost,
// not part of the default hardening tax. Acceptance gate (BENCH_pr6.json):
// hardened ns/op within 5% of raw.
func BenchmarkHardenedCallOverhead(b *testing.B) {
	nb := ta056Numbering()
	run := func(b *testing.B, so transport.ServerOptions, do transport.DialOptions) {
		f := farmer.New(nb.RootRange(), farmer.WithClock(func() int64 { return 0 }))
		srv, err := transport.ServeWith(f, "127.0.0.1:0", so)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		cli, err := transport.DialWith(srv.Addr(), do)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		reply, err := cli.RequestWork(transport.WorkRequest{Worker: "bench", Power: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Checkpoint the unchanged assignment each round: the steady-state
		// worker heartbeat, dominated by wire cost rather than table churn.
		req := transport.UpdateRequest{
			Worker: "bench", IntervalID: reply.IntervalID,
			Remaining: reply.Interval, Power: 1, ExploredDelta: 1,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.UpdateInterval(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("raw", func(b *testing.B) {
		run(b, transport.ServerOptions{MaxMessageBytes: -1}, transport.DialOptions{MaxMessageBytes: -1})
	})
	b.Run("hardened", func(b *testing.B) {
		run(b,
			transport.ServerOptions{ReadTimeout: 30 * time.Second, MaxConns: 64},
			transport.DialOptions{Policy: transport.Policy{Timeout: 30 * time.Second}})
	})
}

// countingConn tallies every byte a proxied connection moves, so a wire
// benchmark can price a protocol in bytes instead of inferring from gob
// buffer sizes.
type countingConn struct {
	net.Conn
	read, written *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// countingProxy is a byte-counting TCP relay in front of target: every
// proxied connection's traffic lands in the shared counters.
type countingProxy struct {
	ln       net.Listener
	sent     atomic.Int64 // client → server
	received atomic.Int64 // server → client
}

func newCountingProxy(b *testing.B, target string) *countingProxy {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	p := &countingProxy{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				s, err := net.Dial("tcp", target)
				if err != nil {
					c.Close()
					return
				}
				cc := countingConn{Conn: c, read: &p.sent, written: &p.received}
				go func() { io.Copy(s, cc); s.Close(); c.Close() }()
				io.Copy(cc, s)
				s.Close()
				c.Close()
			}(c)
		}
	}()
	return p
}

func (p *countingProxy) Addr() string { return p.ln.Addr().String() }
func (p *countingProxy) Total() int64 { return p.sent.Load() + p.received.Load() }

// BenchmarkWireBytesPerFold prices one steady-state fold round — the
// message the grid sends more than every other combined — in wire bytes,
// through a counting TCP proxy (DESIGN.md §11). The fold interval sits
// interior to the 50-job root range: the frame pays delta-varints against
// the negotiated reference and the unchanged reply interval is elided
// entirely. (The reflective gob stream this codec replaced paid two
// ~65-digit decimal texts plus the method string both ways: 365 B/fold
// against 61, recorded as history in BENCH_baseline.json.) ns/op doubles
// as the loopback calls/sec ceiling.
func BenchmarkWireBytesPerFold(b *testing.B) {
	nb := ta056Numbering()
	root := nb.RootRange()
	// One leg, named as in the BENCH_pr7–pr10 records it continues.
	b.Run("compact", func(b *testing.B) {
		f := farmer.New(root, farmer.WithClock(func() int64 { return 0 }))
		srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{WireRef: root})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		proxy := newCountingProxy(b, srv.Addr())
		cli, err := transport.DialWith(proxy.Addr(), transport.DialOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		reply, err := cli.RequestWork(transport.WorkRequest{Worker: "bench", Power: 1})
		if err != nil {
			b.Fatal(err)
		}
		// The steady-state heartbeat: an interior fold the farmer's
		// intersection returns unchanged, round after round.
		a := reply.Interval.A()
		end := reply.Interval.B()
		a.Add(a, end).Rsh(a, 1)
		req := transport.UpdateRequest{
			Worker: "bench", IntervalID: reply.IntervalID,
			Remaining: interval.New(a, end), Power: 1, ExploredDelta: 1,
		}
		if _, err := cli.UpdateInterval(req); err != nil {
			b.Fatal(err) // settle the table before counting
		}
		b.ReportAllocs()
		b.ResetTimer()
		before := proxy.Total()
		for i := 0; i < b.N; i++ {
			if _, err := cli.UpdateInterval(req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(proxy.Total()-before)/float64(b.N), "wire-B/fold")
	})
}

// BenchmarkCheckpointSave measures one durable §4.1 farmer snapshot at
// fleet scale: 2000 interval records over the ta056 numbering (numbers
// around 2^214) plus an incumbent path, CRC-footered and written
// tmp-first with fsync before the generation rotation (DESIGN.md §14).
// ns/op is fsync-dominated — pure host weather — so the perf gate reads
// it with the wide ns/op allowance and holds allocs/op and file-B, the
// deterministic metrics, tightly.
func BenchmarkCheckpointSave(b *testing.B) {
	const records = 2000
	nb := ta056Numbering()
	root := nb.RootRange()
	width := new(big.Int).Div(root.Len(), big.NewInt(records))
	snap := checkpoint.Snapshot{
		Epoch:    3,
		NextID:   records,
		BestCost: 4242,
		BestPath: randomLeafPath(rand.New(rand.NewSource(1)), tree.Permutation{N: 50}),
		TotalLen: new(big.Int),
	}
	lo := root.A()
	for i := 0; i < records; i++ {
		hi := new(big.Int).Add(lo, width)
		iv := interval.New(lo, hi)
		snap.Intervals = append(snap.Intervals, checkpoint.IntervalRecord{ID: int64(i), Interval: iv})
		snap.TotalLen.Add(snap.TotalLen, iv.Len())
		lo = hi
	}
	dir := b.TempDir()
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Save(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(filepath.Join(dir, "intervals.ckpt")); err == nil {
		b.ReportMetric(float64(fi.Size()), "file-B")
	}
}

// BenchmarkTable1PoolBuild builds and validates the paper's pool (Figure 6
// / Table 1).
func BenchmarkTable1PoolBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pool := gridsim.Table1Pool()
		if gridsim.PoolSize(pool) != gridsim.Table1Total {
			b.Fatal("pool size mismatch")
		}
	}
}

// BenchmarkTable1EngineThroughput measures raw exploration speed
// (nodes/sec) of the interval engine on a 50-job prefix workload — the
// "power" column of Table 1 in engine terms. Reported as ns/node.
func BenchmarkTable1EngineThroughput(b *testing.B) {
	ins, err := flowshop.Ta056().Reduced(14, 8)
	if err != nil {
		b.Fatal(err)
	}
	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	nb := core.NewNumbering(p.Shape())
	e := core.NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
	b.ResetTimer()
	var total int64
	for total < int64(b.N) {
		n, done := e.Step(int64(b.N) - total)
		total += n
		if done {
			e.Reassign(nb.RootRange()) // loop the workload
		}
	}
}

// BenchmarkBoundChild prices the engines' one bounding call per bound family:
// the siblings of one node of ta056 14x8, four levels down, bounded in turn
// with no cutoff to stop at, so every stage the family has runs to its end
// (sweep, lost minima, Johnson pairs). The batch is built once and stays
// valid: this is the per-child cost, the dearest a child can be. The qap row
// is the same at a depth-3 node of the 11-facility instance the end-to-end
// benchmark proves: eight children priced off the parent's fixed–free table,
// every minimum taken, the rearrangement walk run to its last flow.
func BenchmarkBoundChild(b *testing.B) {
	ins, err := flowshop.Ta056().Reduced(14, 8)
	if err != nil {
		b.Fatal(err)
	}
	flowshopProblem := func(kind flowshop.BoundKind) func() bb.Problem {
		return func() bb.Problem { return flowshop.NewProblem(ins, kind, flowshop.PairsAll) }
	}
	for _, k := range []struct {
		name    string
		problem func() bb.Problem
		depth   int // of the node whose children are bounded
	}{
		{"one-machine", flowshopProblem(flowshop.BoundOneMachine), 4},
		{"two-machine", flowshopProblem(flowshop.BoundTwoMachine), 4},
		{"combined", flowshopProblem(flowshop.BoundCombined), 4},
		{"qap", func() bb.Problem { return qap.NewProblem(qap.Random(11, 20, 1)) }, 3},
	} {
		b.Run(k.name, func(b *testing.B) {
			p, depth := k.problem(), k.depth
			for d := 0; d < depth; d++ {
				p.Descend(0)
			}
			width, r := p.Shape().Branching(depth), 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += p.BoundChild(r, bb.Infinity)
				if r++; r == width {
					r = 0
				}
			}
		})
	}
}

var benchSink int64

// BenchmarkExplorerInteriorStep isolates the engine's interior-mode hot
// loop: the interval lies strictly inside the root range, so after the
// boundary descent the walk runs the boundary-free int-cursor DFS. The
// incumbent is pre-adopted so the improvement path never fires; the loop
// must report 0 allocs/op (the acceptance bar of the hot-path overhaul —
// see DESIGN.md §1).
func BenchmarkExplorerInteriorStep(b *testing.B) {
	ins, err := flowshop.Ta056().Reduced(14, 8)
	if err != nil {
		b.Fatal(err)
	}
	p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	nb := core.NewNumbering(p.Shape())
	total := nb.LeafCount().Big()
	a := new(big.Int).Quo(total, big.NewInt(4))
	end := new(big.Int).Sub(total, a)
	inner := interval.New(a, end)
	seed, _ := bb.Solve(flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll), bb.Infinity)

	e := core.NewExplorer(p, nb, inner, bb.Infinity)
	e.AdoptBest(seed.Cost) // equal costs never improve: no Path allocations
	b.ReportAllocs()
	b.ResetTimer()
	var total64 int64
	for total64 < int64(b.N) {
		n, done := e.Step(int64(b.N) - total64)
		total64 += n
		if done {
			b.StopTimer()
			e.Reassign(inner)
			e.AdoptBest(seed.Cost)
			b.StartTimer()
		}
	}
}

// BenchmarkTable2Resolution runs a complete simulated grid resolution —
// pool, availability churn, crashes, protocol — and reports the Table 2
// shape metrics alongside time.
func BenchmarkTable2Resolution(b *testing.B) {
	ins := flowshop.Taillard(12, 10, 5) // ~130k nodes: several virtual minutes
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	var last gridsim.Result
	for i := 0; i < b.N; i++ {
		cfg := benchSimConfig(int64(i + 1))
		res, err := gridsim.New(cfg, factory).Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatal("simulation did not finish")
		}
		last = res
	}
	b.ReportMetric(last.Table2.WorkerExploitation*100, "worker-%")
	b.ReportMetric(last.Table2.FarmerExploitation*100, "farmer-%")
	b.ReportMetric(float64(last.Table2.WorkAllocations), "allocations")
	b.ReportMetric(last.Table2.RedundantRate*100, "redundant-%")
}

// BenchmarkTreeEndgame is the PR-8 acceptance record: one full simulated
// resolution under the 2-level tree versus the flat control at equal load,
// pool, seed and calibration, reporting both virtual resolution times and
// their ratio. The tree historically paid a ~2.2× virtual-time tail once
// only crumbs remained; the crumb-endgame work (DESIGN.md §12) — steal
// hints, low-water refill, root crumb duplication, gap-carving and
// content-honest folds, plus owner-counted re-descent — pins the ratio
// ≤ 1.4 (TestMassiveTreeGridScenario asserts it at 10k workers; this
// benchmark records it at the same 10k-worker scale; expect ~40s per
// iteration).
func BenchmarkTreeEndgame(b *testing.B) {
	ins := flowshop.Taillard(13, 10, 3) // ~285k sequential nodes
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	seq, _ := bb.Solve(factory(), bb.Infinity)
	run := func(seed int64, subtrees int) gridsim.Result {
		cfg := gridsim.MassiveTreeScenario(seed, 285_000, 1.5, 10_000, subtrees)
		cfg.InitialUpper = seq.Cost + 1
		cfg.MaxTicks = 30_000
		res, err := gridsim.New(cfg, factory).Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Finished {
			b.Fatalf("subtrees=%d: did not finish in %d ticks", subtrees, res.Ticks)
		}
		if res.Best.Cost != seq.Cost {
			b.Fatalf("subtrees=%d: proved %d, want %d", subtrees, res.Best.Cost, seq.Cost)
		}
		return res
	}
	var tree, flat gridsim.Result
	for i := 0; i < b.N; i++ {
		tree = run(int64(i+1), 8)
		flat = run(int64(i+1), 0)
	}
	b.ReportMetric(float64(tree.Ticks), "tree-vticks")
	b.ReportMetric(float64(flat.Ticks), "flat-vticks")
	b.ReportMetric(float64(tree.Ticks)/float64(flat.Ticks), "tree/flat")
}

func benchSimConfig(seed int64) gridsim.Config {
	return gridsim.Config{
		Pool: gridsim.SmallPool(24),
		Availability: gridsim.AvailabilityModel{
			BaseFraction: 0.35, Amplitude: 0.45, NoiseFraction: 0.08,
			NoisePeriodSeconds: 15, DaySeconds: 400, CrashShare: 0.25,
			RampSeconds: 20, PhaseJitterRadians: 0.3, HostLoadFraction: 0.02,
		},
		Seed:        seed,
		TickSeconds: 1,
		// Slow enough that the resolution spans several hundred virtual
		// seconds: the Table 2 rates only stabilize once the run is long
		// relative to the churn and checkpoint cadences.
		NodesPerGHzPerSecond: 6,
		UpdatePeriodSeconds:  5,
		LeaseTTLSeconds:      25,
		WorkerRTTSeconds:     0.05,
		MaxTicks:             50_000,
	}
}

// BenchmarkTable3Domains solves one instance per problem domain of the
// Table 3 narrative with the identical runtime, demonstrating problem
// independence. Reported per resolution.
func BenchmarkTable3Domains(b *testing.B) {
	fsIns := flowshop.Taillard(10, 5, 7)
	tspIns := tsp.RandomEuclidean(10, 500, 7)
	qapIns := qap.Random(8, 20, 7)
	knIns := knapsack.Random(22, 7)
	domains := []struct {
		name    string
		factory func() bb.Problem
	}{
		{"flowshop", func() bb.Problem { return flowshop.NewProblem(fsIns, flowshop.BoundOneMachine, flowshop.PairsAll) }},
		{"tsp", func() bb.Problem { return tsp.NewProblem(tspIns) }},
		{"qap", func() bb.Problem { return qap.NewProblem(qapIns) }},
		{"knapsack", func() bb.Problem { return knapsack.NewProblem(knIns) }},
	}
	for _, d := range domains {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := d.factory()
				nb := core.NewNumbering(p.Shape())
				e := core.NewExplorer(p, nb, nb.RootRange(), bb.Infinity)
				sol, _ := e.Run(1 << 14)
				if !sol.Valid() {
					b.Fatal("no solution")
				}
			}
		})
	}
}

// BenchmarkFig7AvailabilityTrace measures trace generation: a full
// simulated run dominated by availability churn (tiny workload), i.e. the
// cost of producing Figure 7 itself.
func BenchmarkFig7AvailabilityTrace(b *testing.B) {
	ins := flowshop.Taillard(9, 4, 3)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	for i := 0; i < b.N; i++ {
		cfg := benchSimConfig(int64(i + 1))
		cfg.NodesPerGHzPerSecond = 2 // slow exploration: churn dominates
		res, err := gridsim.New(cfg, factory).Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace) == 0 {
			b.Fatal("no trace")
		}
	}
}

// BenchmarkAblationWorkUnitEncoding quantifies the paper's core claim: a
// work unit coded as an interval is constant-size, while the explicit
// active-node list it replaces grows with the frontier. Bytes per work
// unit are reported for both codings at Ta056 scale.
func BenchmarkAblationWorkUnitEncoding(b *testing.B) {
	nb := ta056Numbering()
	rng := rand.New(rand.NewSource(9))
	a := new(big.Int).Rand(rng, nb.LeafCount().Big())
	e := new(big.Int).Add(a, big.NewInt(1))
	e.Add(e, new(big.Int).Rand(rng, new(big.Int).Sub(nb.LeafCount().Big(), e)))
	iv := interval.New(a, e)
	active := core.Unfold(nb, iv)

	b.Run("interval", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			text, err := iv.MarshalText()
			if err != nil {
				b.Fatal(err)
			}
			size = len(text)
		}
		b.ReportMetric(float64(size), "bytes/unit")
	})
	b.Run("nodelist", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(active); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
		}
		b.ReportMetric(float64(size), "bytes/unit")
		b.ReportMetric(float64(len(active)), "nodes/unit")
	})
}

// BenchmarkAblationThreshold sweeps the duplication threshold of the
// partitioning operator: higher thresholds trade extra redundant work for
// fewer crumbs of work at the endgame.
func BenchmarkAblationThreshold(b *testing.B) {
	ins := flowshop.Taillard(11, 6, 5)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	for _, frac := range []float64{1e-9, 1e-6, 1e-3, 1e-1} {
		b.Run(fmt.Sprintf("frac=%g", frac), func(b *testing.B) {
			var res gridsim.Result
			for i := 0; i < b.N; i++ {
				cfg := benchSimConfig(int64(i + 1))
				cfg.ThresholdFraction = frac
				var err error
				res, err = gridsim.New(cfg, factory).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Table2.RedundantRate*100, "redundant-%")
			b.ReportMetric(float64(res.Counters.Duplications), "duplications")
			b.ReportMetric(float64(res.Ticks), "ticks")
		})
	}
}

// BenchmarkAblationPartitioning compares the paper's power-proportional
// partitioning against naive midpoint splitting on a heterogeneous pool.
func BenchmarkAblationPartitioning(b *testing.B) {
	ins := flowshop.Taillard(11, 6, 5)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	for _, equal := range []bool{false, true} {
		name := "proportional"
		if equal {
			name = "midpoint"
		}
		b.Run(name, func(b *testing.B) {
			var res gridsim.Result
			for i := 0; i < b.N; i++ {
				cfg := benchSimConfig(int64(i + 1))
				cfg.EqualSplit = equal
				var err error
				res, err = gridsim.New(cfg, factory).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Ticks), "ticks")
			b.ReportMetric(float64(res.Table2.WorkAllocations), "allocations")
		})
	}
}

// BenchmarkAblationCheckpointPeriod sweeps the worker checkpoint cadence:
// frequent checkpoints bound crash losses but load the farmer.
func BenchmarkAblationCheckpointPeriod(b *testing.B) {
	ins := flowshop.Taillard(11, 6, 5)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	for _, period := range []float64{1, 5, 30, 120} {
		b.Run(fmt.Sprintf("period=%gs", period), func(b *testing.B) {
			var res gridsim.Result
			for i := 0; i < b.N; i++ {
				cfg := benchSimConfig(int64(i + 1))
				cfg.UpdatePeriodSeconds = period
				var err error
				res, err = gridsim.New(cfg, factory).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Counters.WorkerCheckpoints), "checkpoints")
			b.ReportMetric(res.Table2.FarmerExploitation*100, "farmer-%")
			b.ReportMetric(res.Table2.RedundantRate*100, "redundant-%")
		})
	}
}

// BenchmarkAblationBounds compares the lower-bound families on the same
// instance: stronger bounds explore fewer nodes at a higher per-node cost.
func BenchmarkAblationBounds(b *testing.B) {
	ins := flowshop.Taillard(11, 6, 3)
	kinds := []struct {
		name string
		kind flowshop.BoundKind
		ps   flowshop.PairStrategy
	}{
		{"one-machine", flowshop.BoundOneMachine, flowshop.PairsAll},
		{"johnson-adjacent", flowshop.BoundTwoMachine, flowshop.PairsAdjacent},
		{"johnson-all", flowshop.BoundTwoMachine, flowshop.PairsAll},
		{"combined", flowshop.BoundCombined, flowshop.PairsAll},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			var explored int64
			for i := 0; i < b.N; i++ {
				sol, stats := bb.Solve(flowshop.NewProblem(ins, k.kind, k.ps), bb.Infinity)
				if !sol.Valid() {
					b.Fatal("no solution")
				}
				explored = stats.Explored
			}
			b.ReportMetric(float64(explored), "nodes")
		})
	}
}

// BenchmarkHeadlineParallelSpeedup measures the in-process farmer–worker
// stack (and the p2p variant) against the sequential baseline on the same
// primed workload. Read it according to the host: on a multi-core machine
// the workers=N variants show wall-clock speedup; on a single-core machine
// (GOMAXPROCS=1, as on this repository's reference box) no speedup is
// physically possible and the variants quantify pure coordination overhead
// instead — while the farmer counters show incumbent sharing cutting the
// total explored nodes roughly in half versus the sequential primed run.
func BenchmarkHeadlineParallelSpeedup(b *testing.B) {
	ins := flowshop.Taillard(14, 8, 5) // ~430k nodes: large enough to amortize coordination
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	seq, _ := bb.Solve(factory(), bb.Infinity)
	// Prime every variant with the optimum + 1 (the paper's run-2
	// protocol): all runs then prove the same optimum over essentially
	// the same node set, so the comparison measures the runtimes, not
	// search-order luck.
	prime := seq.Cost + 1
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sol, _ := bb.Solve(factory(), prime)
			if sol.Cost != seq.Cost {
				b.Fatal("wrong optimum")
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := solveParallel(b, factory, workers, prime)
				if res != seq.Cost {
					b.Fatal("wrong optimum")
				}
			}
		})
	}
	b.Run("p2p-peers=4", func(b *testing.B) {
		var nodes int64
		for i := 0; i < b.N; i++ {
			res, err := gridbb.SolveP2P(factory, gridbb.P2POptions{Peers: 4, InitialUpper: prime})
			if err != nil {
				b.Fatal(err)
			}
			if res.Best.Cost != seq.Cost {
				b.Fatal("wrong optimum")
			}
			nodes += res.Stats.Explored
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/resolution")
	})
}

// BenchmarkMulticoreWorker measures the intra-worker multicore engine: one
// farmer plus ONE RunParallel worker whose interval is tiled over a sweep
// of core counts, on the flowshop domain primed with the optimum + 1 (so
// every variant proves the same optimum over essentially the same node
// set). The headline metric is nodes/sec of the whole resolution; cores=1
// falls back to the classic single-explorer Run and is the baseline the
// ≥3×-at-4-cores acceptance gate compares against. Like
// BenchmarkHeadlineParallelSpeedup, read it according to the host: shard
// goroutines can only scale wall-clock throughput when GOMAXPROCS cores
// physically exist (this repository's reference box has one; CI has more).
func BenchmarkMulticoreWorker(b *testing.B) {
	ins := flowshop.Taillard(14, 8, 5) // ~430k sequential nodes
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	seq, _ := bb.Solve(factory(), bb.Infinity)
	prime := seq.Cost + 1
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				nb := core.NewNumbering(factory().Shape())
				f := farmer.New(nb.RootRange(), farmer.WithInitialBest(prime, nil))
				res, err := worker.RunParallel(context.Background(), worker.Config{
					ID:                "bench-mc",
					Power:             1,
					Cores:             cores,
					UpdatePeriodNodes: 1 << 14,
				}, f, factory)
				if err != nil {
					b.Fatal(err)
				}
				if f.Best().Cost != seq.Cost {
					b.Fatalf("cores=%d: incumbent %d != sequential %d", cores, f.Best().Cost, seq.Cost)
				}
				nodes += res.Stats.Explored
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/resolution")
		})
	}
}

func solveParallel(b *testing.B, factory func() bb.Problem, workers int, prime int64) int64 {
	nb := core.NewNumbering(factory().Shape())
	f := farmer.New(nb.RootRange(), farmer.WithInitialBest(prime, nil))
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cfg := worker.Config{
				ID:                transport.WorkerID(fmt.Sprintf("b%d", w)),
				Power:             1,
				UpdatePeriodNodes: 2000,
			}
			s := worker.NewSession(cfg, f, factory())
			for {
				_, finished, err := s.Advance(1 << 20)
				if err != nil || finished {
					done <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	return f.Best().Cost
}
