package transport_test

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/farmer"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/transport"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireRoundTrip: the wire codec carries every protocol message over a
// real TCP hop bound-exact at 50-job big.Int scale — including the
// steady-state reply elision (the folded interval comes back exact even
// though it never crossed the wire) and the non-elided Known=false path.
func TestWireRoundTrip(t *testing.T) {
	nb := core.NewNumbering(flowshop.NewProblem(flowshop.Ta056(), flowshop.BoundOneMachine, flowshop.PairsAll).Shape())
	root := nb.RootRange()
	f := farmer.New(root)
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{WireRef: root})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reply, err := c.RequestWork(transport.WorkRequest{Worker: "remote", Power: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != transport.WorkAssigned {
		t.Fatalf("status = %v", reply.Status)
	}
	if !reply.Interval.Equal(root) {
		t.Fatalf("assigned %v over the wire, want %v", reply.Interval, root)
	}

	ack, err := c.ReportSolution(transport.SolutionReport{Worker: "remote", Cost: 4000, Path: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || ack.BestCost != 4000 {
		t.Fatalf("ack = %+v", ack)
	}

	// Steady-state heartbeat: the farmer's intersection returns exactly the
	// folded interval, so the reply interval is elided on the wire and must
	// be restored bound-exact from the request's copy.
	half := root.Clone()
	a := half.A()
	b := half.B()
	a.Add(a, b).Rsh(a, 1)
	remaining := interval.New(a, b)
	up, err := c.UpdateInterval(transport.UpdateRequest{
		Worker: "remote", IntervalID: reply.IntervalID,
		Remaining: remaining, Power: 7, ExploredDelta: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Known {
		t.Fatal("interval unknown after the update")
	}
	if !up.Interval.Equal(remaining) {
		t.Fatalf("elided reply restored as %v, want %v", up.Interval, remaining)
	}
	if up.BestCost != 4000 {
		t.Fatalf("best over the wire = %d", up.BestCost)
	}

	// Unknown id: the reply differs from the fold (Known=false, empty
	// interval), so the non-elided reply path runs.
	up2, err := c.UpdateInterval(transport.UpdateRequest{
		Worker: "remote", IntervalID: 1 << 40, Remaining: remaining, Power: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if up2.Known {
		t.Fatal("bogus interval id reported known")
	}
}

// TestWireExchangeBatch: the coalesced Exchange frame over the wire —
// refill-only, fold+report, and the retire-and-refill round that
// discovers global termination in the same trip.
func TestWireExchangeBatch(t *testing.T) {
	root := interval.FromInt64(0, 1_000_000)
	f := farmer.New(root)
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{WireRef: root})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r1, err := c.Exchange(transport.BatchRequest{Worker: "sub", Power: 2, WantWork: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.HasWork || r1.Status != transport.WorkAssigned || !r1.WorkInterval.Equal(root) {
		t.Fatalf("refill leg = %+v", r1)
	}

	fold := interval.FromInt64(500_000, 1_000_000)
	r2, err := c.Exchange(transport.BatchRequest{
		Worker: "sub", Power: 2,
		HasFold: true, FoldID: r1.IntervalID, Remaining: fold, ExploredDelta: 10,
		HasReport: true, Cost: 77, Path: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.HasFold || !r2.Known || !r2.Interval.Equal(fold) {
		t.Fatalf("fold leg = %+v", r2)
	}
	if r2.BestCost != 77 {
		t.Fatalf("report leg lost: best = %d", r2.BestCost)
	}

	// Retire the copy ([B,B) fold) with the refill riding along: the table
	// drains, so the batch must come back Finished instead of assigning.
	end := interval.FromInt64(1_000_000, 1_000_000)
	r3, err := c.Exchange(transport.BatchRequest{
		Worker: "sub", Power: 2,
		HasFold: true, FoldID: r1.IntervalID, Remaining: end, WantWork: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Finished {
		t.Fatalf("retire-and-refill did not surface termination: %+v", r3)
	}
}

// TestNonPreamblePeerIsDropped: a connection that does not open with the
// wire preamble — a wrong first byte, or the right magic with a version
// this server does not speak — is closed and its slot freed, never handed
// to the rpc layer; a client dialled afterwards on the same server is
// served as usual. A peer that sends nothing at all is dropped by
// authTimeout.
func TestNonPreamblePeerIsDropped(t *testing.T) {
	old := transport.SetAuthTimeout(300 * time.Millisecond)
	defer transport.SetAuthTimeout(old)
	srv, err := transport.ServeWith(testFarmer(), "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for name, opening := range map[string][]byte{
		"gob-like first byte": {0x2f, 0xff, 0x81, 0x03, 0x01},
		"unknown version":     {0x00, 'G', 'B', 'W', 2},
		"silent":              nil,
	} {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(opening); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 16)); err != io.EOF {
			t.Fatalf("%s: read %d bytes, err %v — want the server to close without answering", name, n, err)
		}
		nc.Close()
		waitFor(t, name+": the connection slot to be freed", func() bool { return srv.Stats().ActiveConns == 0 })
	}

	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if reply, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil || reply.Status != transport.WorkAssigned {
		t.Fatalf("round-trip after the dropped peers: %+v %v", reply, err)
	}
}

// TestDialSharedMultiplexes: N sessions through DialShared ride ONE
// physical connection (the server sees a single conn), the batch frame
// works through the shared handle, and the connection closes only when
// the last handle does.
func TestDialSharedMultiplexes(t *testing.T) {
	root := interval.FromInt64(0, 1_000_000)
	f := farmer.New(root)
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{WireRef: root})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := transport.DialOptions{Share: true}
	h1 := transport.DialShared(srv.Addr(), opts)
	h2 := transport.DialShared(srv.Addr(), opts)
	h3 := transport.DialShared(srv.Addr(), opts)

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, h := range []*transport.Shared{h1, h2, h3} {
		wg.Add(1)
		go func(i int, h *transport.Shared) {
			defer wg.Done()
			_, errs[i] = h.RequestWork(transport.WorkRequest{Worker: transport.WorkerID(fmt.Sprintf("s%d", i)), Power: 1})
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := srv.Stats().ActiveConns; got != 1 {
		t.Fatalf("three sessions hold %d connections, want 1", got)
	}
	if _, err := h2.Exchange(transport.BatchRequest{Worker: "b", Power: 1}); err != nil {
		t.Fatalf("batch through the shared handle: %v", err)
	}

	// Close two handles: the survivor keeps the connection.
	h1.Close()
	h2.Close()
	if _, err := h3.RequestWork(transport.WorkRequest{Worker: "c", Power: 1}); err != nil {
		t.Fatalf("surviving handle lost its connection: %v", err)
	}
	if got := srv.Stats().ActiveConns; got != 1 {
		t.Fatalf("after two releases: %d connections, want 1", got)
	}
	h3.Close()
	waitFor(t, "the pooled connection to close", func() bool { return srv.Stats().ActiveConns == 0 })
}

// TestEvictionPrefersUnauthenticated pins the PR-6 bug: connections
// register before authentication, so a flood of token-less dials at the
// MaxConns cap could evict live authenticated workers. The policy now
// sacrifices the most idle UNauthenticated connection first — the flood
// competes with itself while the authenticated session, idle longer than
// any flood member, keeps its slot.
func TestEvictionPrefersUnauthenticated(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{
		Token: "tok", MaxConns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	authed, err := transport.DialWith(srv.Addr(), transport.DialOptions{Token: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer authed.Close()
	if _, err := authed.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatal(err)
	}
	// Let the authenticated session become the most idle connection: under
	// the old most-idle-wins policy it would be the flood's first victim.
	time.Sleep(50 * time.Millisecond)

	flood := func() net.Conn {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		return nc
	}
	flood() // fills the cap
	waitFor(t, "the first flood connection to register", func() bool {
		return srv.Stats().ActiveConns == 2
	})
	flood() // at the cap: must evict the first flood conn, not the worker
	waitFor(t, "the first eviction", func() bool { return srv.Stats().Evicted == 1 })
	flood()
	waitFor(t, "the second eviction", func() bool { return srv.Stats().Evicted == 2 })

	// The authenticated session survived the whole flood.
	if _, err := authed.ReportSolution(transport.SolutionReport{Worker: "w", Cost: 9}); err != nil {
		t.Fatalf("authenticated worker evicted by a token-less flood: %v", err)
	}
}

// TestRedialConcurrentCallsNotSerialized pins the PR-6 bug of Redial.call
// holding the mutex across the RPC: two calls against a stalled
// coordinator must time out CONCURRENTLY (elapsed ≈ one timeout), not
// back to back (elapsed ≈ two timeouts).
func TestRedialConcurrentCallsNotSerialized(t *testing.T) {
	addr := stalledServer(t)
	r := transport.NewRedialWith(addr, transport.DialOptions{
		Policy: transport.Policy{Timeout: time.Second},
	})
	defer r.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d succeeded against a stalled coordinator", i)
		}
	}
	if elapsed >= 1800*time.Millisecond {
		t.Fatalf("two concurrent calls took %v — serialized behind the Redial mutex", elapsed)
	}
}

// TestRedialCloseNotBlockedByInflightCall: the second half of the same
// bug — Close must return immediately while a call is mid-flight, and
// closing the connection must unblock that call long before its deadline.
func TestRedialCloseNotBlockedByInflightCall(t *testing.T) {
	addr := stalledServer(t)
	r := transport.NewRedialWith(addr, transport.DialOptions{
		Policy: transport.Policy{Timeout: 30 * time.Second},
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // the call is dialed and in flight
	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close blocked %v behind an in-flight call", elapsed)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call succeeded against a stalled coordinator")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call still blocked after Close")
	}
}

// TestDialAuthPhaseBounded pins the PR-6 bug of DialWith only arming a
// deadline when Policy.Timeout was set: with the zero policy, the
// TLS-handshake and token phases against a black-holed endpoint must
// still fail within the default auth bound instead of hanging forever.
func TestDialAuthPhaseBounded(t *testing.T) {
	old := transport.SetAuthTimeout(300 * time.Millisecond)
	defer transport.SetAuthTimeout(old)
	addr := blackholeListener(t)

	for _, tc := range []struct {
		name string
		opts transport.DialOptions
	}{
		{"tls", transport.DialOptions{TLS: &tls.Config{InsecureSkipVerify: true, MinVersion: tls.VersionTLS12}}},
		{"token", transport.DialOptions{Token: "tok"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			c, err := transport.DialWith(addr, tc.opts)
			if err == nil {
				c.Close()
				t.Fatal("dial against a black hole succeeded")
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("unbounded auth phase: dial took %v", elapsed)
			}
		})
	}
}
