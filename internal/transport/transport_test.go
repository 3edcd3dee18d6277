package transport_test

import (
	"context"
	"repro/internal/transport"
	"sync"
	"testing"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/worker"
)

// TestRPCRoundTrip: every protocol message survives a real TCP hop intact,
// including big.Int intervals that exceed uint64 (50-job scale).
func TestRPCRoundTrip(t *testing.T) {
	nb := core.NewNumbering(flowshop.NewProblem(flowshop.Ta056(), flowshop.BoundOneMachine, flowshop.PairsAll).Shape())
	root := nb.RootRange() // [0, 50!) — definitely not a machine word
	f := farmer.New(root)
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reply, err := client.RequestWork(transport.WorkRequest{Worker: "remote", Power: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != transport.WorkAssigned {
		t.Fatalf("status = %v", reply.Status)
	}
	if !reply.Interval.Equal(root) {
		t.Fatalf("assigned %v over TCP, want %v", reply.Interval, root)
	}

	// Report a solution and read it back through an update.
	ack, err := client.ReportSolution(transport.SolutionReport{Worker: "remote", Cost: 4000, Path: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || ack.BestCost != 4000 {
		t.Fatalf("ack = %+v", ack)
	}
	half := root.Clone()
	a := half.A()
	b := half.B()
	a.Add(a, b).Rsh(a, 1) // midpoint
	up, err := client.UpdateInterval(transport.UpdateRequest{
		Worker: "remote", IntervalID: reply.IntervalID,
		Remaining: interval.New(a, b), Power: 7, ExploredDelta: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Known {
		t.Fatal("interval unknown after TCP update")
	}
	if up.Interval.A().Cmp(a) != 0 {
		t.Fatalf("intersected beginning %s, want %s", up.Interval.A(), a)
	}
	if up.BestCost != 4000 {
		t.Fatalf("best over TCP = %d", up.BestCost)
	}
}

// TestRPCEndToEndResolution: remote workers over real TCP sockets solve an
// instance to the sequential optimum — the cmd/farmer + cmd/worker
// deployment in miniature.
func TestRPCEndToEndResolution(t *testing.T) {
	ins := flowshop.Taillard(10, 6, 77)
	oracleP := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	want, _ := bb.Solve(oracleP, bb.Infinity)

	nb := core.NewNumbering(oracleP.Shape())
	f := farmer.New(nb.RootRange())
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			defer client.Close()
			p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
			cfg := worker.Config{ID: transport.WorkerID(string(rune('x' + i))), Power: 1, UpdatePeriodNodes: 500}
			_, errs[i] = worker.Run(context.Background(), cfg, client, p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("remote worker %d: %v", i, err)
		}
	}
	if got := f.Best(); got.Cost != want.Cost {
		t.Fatalf("TCP resolution best %d, want %d", got.Cost, want.Cost)
	}
}

// TestWorkStatusString covers the log rendering.
func TestWorkStatusString(t *testing.T) {
	cases := map[transport.WorkStatus]string{
		transport.WorkAssigned:   "assigned",
		transport.WorkWait:       "wait",
		transport.WorkFinished:   "finished",
		transport.WorkStatus(42): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
