package farmer_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/transport"
	"repro/internal/worker"
)

// legRecorder is the parent as a sub-farmer's cadence reaches it: every
// leg, request and verdict, in arrival order. It is deliberately not a
// BatchCoordinator, so an in-process sub-farmer and the RPC server both
// decompose a batch into the legs it logs.
type legRecorder struct {
	coord transport.Coordinator
	mu    sync.Mutex // legs arrive sequentially; this is for the race detector
	trace []string
}

func (l *legRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	l.trace = append(l.trace, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *legRecorder) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	reply, err := l.coord.RequestWork(req)
	l.logf("request %+v -> %+v %v", req, reply, err)
	return reply, err
}

func (l *legRecorder) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	reply, err := l.coord.UpdateInterval(req)
	hint := transport.StealHint{}
	if reply.Hint != nil {
		hint = *reply.Hint
	}
	l.logf("fold %+v -> %+v hint=%+v %v", req, reply, hint, err)
	return reply, err
}

func (l *legRecorder) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	ack, err := l.coord.ReportSolution(req)
	l.logf("report %+v -> %+v %v", req, ack, err)
	return ack, err
}

// subtreeRun is everything one seeded run of the subtree produces.
type subtreeRun struct {
	cost     int64
	explored int64
	counters farmer.SubCounters
	trace    []string
}

// runSubtree resolves one instance with a sub-farmer whose parent is the
// root farmer either in-process or over real TCP. The fleet is driven on
// one goroutine under a virtual clock, so the run is a pure function of
// its inputs — and, the cadence being one, of nothing else: the carrier
// must not show.
func runSubtree(t *testing.T, overTCP bool) subtreeRun {
	t.Helper()
	ins := flowshop.Taillard(10, 6, 13)
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	nb := core.NewNumbering(factory().Shape())
	root := farmer.New(nb.RootRange())
	parent := &legRecorder{coord: root}

	var up transport.Coordinator = parent
	if overTCP {
		srv, err := transport.ServeWith(parent, "127.0.0.1:0", transport.ServerOptions{WireRef: nb.RootRange()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		redial := transport.NewRedialWith(srv.Addr(), transport.DialOptions{
			Policy: transport.Policy{Timeout: 30 * time.Second},
		})
		t.Cleanup(func() { redial.Close() })
		up = redial
	}

	var now int64
	sub := farmer.NewSubFarmerForTest(farmer.SubConfig{
		ID:           "sub",
		UpdateEvery:  4,
		UpdatePeriod: time.Hour, // the message cadence drives all folds
		FleetTTL:     time.Hour,
		Clock:        func() int64 { return now },
	}, up)

	sessions := []*worker.Session{
		worker.NewSession(worker.Config{ID: "w0", Power: 3, UpdatePeriodNodes: 64}, sub, factory()),
		worker.NewSession(worker.Config{ID: "w1", Power: 5, UpdatePeriodNodes: 96}, sub, factory()),
	}
	const maxSteps = 200_000
	for step := 0; step < maxSteps && !sub.Finished(); step++ {
		now += int64(time.Second)
		if _, _, err := sessions[step%len(sessions)].Advance(128); err != nil {
			t.Fatal(err)
		}
	}
	if !sub.Finished() {
		t.Fatalf("subtree did not finish within %d steps", maxSteps)
	}
	return subtreeRun{
		cost:     root.Best().Cost,
		explored: root.Counters().ExploredNodes,
		counters: sub.Counters(),
		trace:    parent.trace,
	}
}

// TestOneCadenceTwoCarriers: the sub-farmer's upstream cadence is one
// function of its state, whatever carries it. The same seeded fleet under
// an in-process parent and under a parent across real TCP must reach the
// root with the same legs in the same order carrying the same numbers,
// and leave the same counters behind — so what the chaos harness and the
// simulator prove in-process is what cmd/subfarmer runs. Each run also
// proves the sequential optimum with nothing lost, in fewer exchanges
// than the legs they carried.
func TestOneCadenceTwoCarriers(t *testing.T) {
	want, _ := bb.Solve(flowshop.NewProblem(flowshop.Taillard(10, 6, 13), flowshop.BoundOneMachine, flowshop.PairsAll), bb.Infinity)
	inproc, tcp := runSubtree(t, false), runSubtree(t, true)
	for name, res := range map[string]subtreeRun{"in-process": inproc, "tcp": tcp} {
		if res.cost != want.Cost {
			t.Fatalf("%s: subtree proved %d, sequential optimum is %d", name, res.cost, want.Cost)
		}
		c := res.counters
		if c.UpstreamBatches == 0 {
			t.Fatalf("%s: no upstream exchanges (%+v)", name, c)
		}
		if legs := c.UpstreamUpdates + c.UpstreamRequests + c.UpstreamReports; c.UpstreamBatches >= legs {
			t.Fatalf("%s: batching saved nothing: %d exchanges for %d legs (%+v)", name, c.UpstreamBatches, legs, c)
		}
		if c.UpstreamLost != 0 {
			t.Fatalf("%s: lost %d upstream exchanges (%+v)", name, c.UpstreamLost, c)
		}
	}
	if inproc.counters != tcp.counters || inproc.explored != tcp.explored {
		t.Fatalf("the carrier shows in the counters:\nin-process: %+v explored %d\n       tcp: %+v explored %d",
			inproc.counters, inproc.explored, tcp.counters, tcp.explored)
	}
	if !slices.Equal(inproc.trace, tcp.trace) {
		for i := range min(len(inproc.trace), len(tcp.trace)) {
			if inproc.trace[i] != tcp.trace[i] {
				t.Fatalf("the carrier shows at leg %d:\nin-process: %s\n       tcp: %s", i, inproc.trace[i], tcp.trace[i])
			}
		}
		t.Fatalf("the carrier shows: %d legs in-process, %d over tcp", len(inproc.trace), len(tcp.trace))
	}
}
