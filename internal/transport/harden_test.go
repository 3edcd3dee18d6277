package transport_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/transport"
)

// testFarmer returns a live coordinator over a small integer root, enough
// for real protocol rounds without a problem instance.
func testFarmer() *farmer.Farmer {
	return farmer.New(interval.FromInt64(0, 1_000_000))
}

// blackholeListener accepts connections and never responds: a coordinator
// stalled before the wire negotiation, which is where a dial now meets it.
func blackholeListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return ln.Addr().String()
}

// stalledCoordinator negotiates like any coordinator and then never
// answers: every call blocks until the test ends.
type stalledCoordinator struct{ release chan struct{} }

func (s stalledCoordinator) RequestWork(transport.WorkRequest) (transport.WorkReply, error) {
	<-s.release
	return transport.WorkReply{}, nil
}
func (s stalledCoordinator) UpdateInterval(transport.UpdateRequest) (transport.UpdateReply, error) {
	<-s.release
	return transport.UpdateReply{}, nil
}
func (s stalledCoordinator) ReportSolution(transport.SolutionReport) (transport.SolutionAck, error) {
	<-s.release
	return transport.SolutionAck{}, nil
}

// stalledServer serves a stalledCoordinator: a coordinator stalled after
// the wire negotiation, which is where an established client meets it.
func stalledServer(t *testing.T) string {
	t.Helper()
	release := make(chan struct{})
	srv, err := transport.ServeWith(stalledCoordinator{release}, "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	return srv.Addr()
}

// TestClientDeadlineOnStalledCoordinator: the core liveness promise — a
// stalled endpoint yields ErrDeadline within the policy's timeout instead
// of blocking forever, whether it stalls before the negotiation (the dial
// times out) or after it (the call does).
func TestClientDeadlineOnStalledCoordinator(t *testing.T) {
	opts := transport.DialOptions{Policy: transport.Policy{Timeout: 100 * time.Millisecond}}
	start := time.Now()
	if _, err := transport.DialWith(blackholeListener(t), opts); !errors.Is(err, transport.ErrDeadline) {
		t.Fatalf("dial at a black hole: err = %v, want ErrDeadline", err)
	}
	c, err := transport.DialWith(stalledServer(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
	if !errors.Is(err, transport.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlines took %v to fire", elapsed)
	}
}

// TestRedialRetriesThenSurfacesDeadline: the retry policy makes 1+Retries
// attempts — each a fresh dial, visible to the accept counter — and still
// surfaces ErrDeadline when all of them stall.
func TestRedialRetriesThenSurfacesDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	var mu sync.Mutex
	var conns []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()

	r := transport.NewRedialWith(ln.Addr().String(), transport.DialOptions{
		Policy: transport.Policy{
			Timeout: 50 * time.Millisecond,
			Retries: 2,
			Backoff: transport.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		},
	})
	defer r.Close()
	_, err = r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
	if !errors.Is(err, transport.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if got := accepts.Load(); got != 3 {
		t.Fatalf("server saw %d dials, want 3 (1 attempt + 2 retries)", got)
	}
}

// TestRedialNeverRetriesServerErrors: a coordinator actively rejecting a
// request (here: the power-claim boundary) must not be hammered with
// retries — the request is wrong, not lost.
func TestRedialNeverRetriesServerErrors(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := transport.NewRedialWith(srv.Addr(), transport.DialOptions{
		Policy: transport.Policy{Timeout: time.Second, Retries: 3},
	})
	defer r.Close()
	if _, err := r.RequestWork(transport.WorkRequest{Worker: "w", Power: -1}); err == nil {
		t.Fatal("negative power accepted")
	}
	if got := f.Counters().RejectedPowers; got != 1 {
		t.Fatalf("farmer saw %d rejected requests, want exactly 1 (no retries)", got)
	}

	// The same verdict wrapped on its way up is still the server's: one
	// more rejection, no retries, and the connection it came over is kept.
	err = r.DoForTest(func(c *transport.Client) error {
		_, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: -1})
		return fmt.Errorf("asking for work: %w", err)
	})
	var se transport.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("wrapped rejection surfaced as %v, want a ServerError in the chain", err)
	}
	if got := f.Counters().RejectedPowers; got != 2 {
		t.Fatalf("farmer saw %d rejected requests after the wrapped one, want 2 (no retries)", got)
	}
	if _, err := r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().ActiveConns; got != 1 {
		t.Fatalf("%d connections after a wrapped server error, want the original 1", got)
	}
}

// TestServerKillsOversizeMessages: a hostile report bigger than the
// server's message budget kills the connection and advances the Oversize
// counter; the farmer never sees the message.
func TestServerKillsOversizeMessages(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{
		MaxMessageBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := make([]int, 100_000)
	if _, err := c.ReportSolution(transport.SolutionReport{Worker: "w", Cost: 1, Path: huge}); err == nil {
		t.Fatal("oversize report went through")
	}
	if got := srv.Stats().Oversize; got != 1 {
		t.Fatalf("Oversize = %d, want 1", got)
	}
	if got := f.Counters().SolutionReports; got != 0 {
		t.Fatalf("farmer processed %d reports, want 0", got)
	}
}

// TestServerEvictsForMaxConns: at the connection cap, the most idle
// connection yields its slot to the newcomer.
func TestServerEvictsForMaxConns(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c1, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.RequestWork(transport.WorkRequest{Worker: "w1", Power: 1}); err != nil {
		t.Fatal(err)
	}
	c2, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.ReportSolution(transport.SolutionReport{Worker: "w2", Cost: 9}); err != nil {
		t.Fatalf("newcomer rejected: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Evicted == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Stats().Evicted; got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
	if _, err := c1.ReportSolution(transport.SolutionReport{Worker: "w1", Cost: 8}); err == nil {
		t.Fatal("evicted client still served")
	}
}

// TestServerReadTimeoutDropsSilentPeers: a peer that connects and goes
// silent is disconnected by the server after the idle deadline, freeing
// the slot — whether it falls silent before its wire preamble or after
// it. The client's own deadline is far above ReadTimeout and far below
// the authentication deadline, so only the server's close passes.
func TestServerReadTimeoutDropsSilentPeers(t *testing.T) {
	srv, err := transport.ServeWith(testFarmer(), "127.0.0.1:0", transport.ServerOptions{
		ReadTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, opening := range map[string][]byte{
		"before-preamble": nil,
		"after-preamble":  {0x00, 'G', 'B', 'W', 1},
	} {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(opening); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			nc.SetReadDeadline(start.Add(2 * time.Second))
			// Drain the preamble's acknowledgement, if any, up to the close.
			if _, err := io.ReadAll(nc); err != nil && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("silent connection not closed by the server: %v after %v", err, time.Since(start))
			}
			waitFor(t, "the connection slot to be freed", func() bool { return srv.Stats().ActiveConns == 0 })
		})
	}
}

// TestServerCloseDisconnectsClients: Close tears down tracked connections,
// not just the listener — in-flight clients observe the shutdown instead
// of holding dead sockets forever.
func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, err := transport.ServeWith(testFarmer(), "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.DialWith(srv.Addr(), transport.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded against a closed server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call against a closed server hung")
	}
}

// TestTokenAuthentication: the shared-token preamble — right token in,
// wrong token counted and shut out.
func TestTokenAuthentication(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good, err := transport.DialWith(srv.Addr(), transport.DialOptions{Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatalf("authenticated call failed: %v", err)
	}

	if _, err := transport.DialWith(srv.Addr(), transport.DialOptions{
		Token:  "wrong",
		Policy: transport.Policy{Timeout: 2 * time.Second},
	}); err == nil {
		t.Fatal("wrong token accepted")
	}
	if got := srv.Stats().AuthFailures; got != 1 {
		t.Fatalf("AuthFailures = %d, want 1", got)
	}

	// A client that skips the token entirely is refused at the dial: its
	// wire preamble is not a token frame.
	if _, err := transport.DialWith(srv.Addr(), transport.DialOptions{
		Policy: transport.Policy{Timeout: 2 * time.Second},
	}); err == nil {
		t.Fatal("token-less dial accepted")
	}
	if got := srv.Stats().AuthFailures; got != 2 {
		t.Fatalf("AuthFailures = %d, want 2", got)
	}
}
