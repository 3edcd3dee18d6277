package transport_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/farmer"
	"repro/internal/interval"
	"repro/internal/transport"
)

// TestSharedClosedHandleFailsFast pins the PR-8 pool bug: a call on a
// Closed Shared handle used to fall through to the shared Redial, which
// would happily re-dial — resurrecting a socket the pool's refcount no
// longer accounted for (and, if the key had been re-pooled since, driving
// a different handle's connection). A closed handle must fail fast with
// transport.ErrClosed and leave the wire untouched.
func TestSharedClosedHandleFailsFast(t *testing.T) {
	root := interval.FromInt64(0, 1_000_000)
	f := farmer.New(root)
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{WireRef: root})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := transport.DialOptions{Share: true}
	h := transport.DialShared(srv.Addr(), opts)
	if _, err := h.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the connection to register", func() bool { return srv.Stats().ActiveConns == 1 })
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the last release to close the socket", func() bool { return srv.Stats().ActiveConns == 0 })

	// Every method of the closed handle fails fast — no redial, no socket.
	if _, err := h.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("RequestWork on a closed handle: err=%v, want transport.ErrClosed", err)
	}
	if _, err := h.UpdateInterval(transport.UpdateRequest{Worker: "w", IntervalID: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("UpdateInterval on a closed handle: err=%v, want transport.ErrClosed", err)
	}
	if _, err := h.ReportSolution(transport.SolutionReport{Worker: "w", Cost: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("ReportSolution on a closed handle: err=%v, want transport.ErrClosed", err)
	}
	if _, err := h.Exchange(transport.BatchRequest{Worker: "w", Power: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Exchange on a closed handle: err=%v, want transport.ErrClosed", err)
	}
	if got := srv.Stats().ActiveConns; got != 0 {
		t.Fatalf("calls on a closed handle resurrected %d connections", got)
	}

	// A fresh handle on the same key is a NEW pool entry; the stale closed
	// handle still refuses while the fresh one works — no cross-talk.
	h2 := transport.DialShared(srv.Addr(), opts)
	defer h2.Close()
	if _, err := h2.RequestWork(transport.WorkRequest{Worker: "w2", Power: 1}); err != nil {
		t.Fatalf("fresh handle after re-pool: %v", err)
	}
	if _, err := h.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("stale handle after re-pool: err=%v, want transport.ErrClosed", err)
	}
}

// TestRedialCloseIsTerminal pins Redial's terminal Close: once Closed, a
// Redial never dials again — later calls fail fast with transport.ErrClosed
// even though the server is alive and a re-dial would succeed.
func TestRedialCloseIsTerminal(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := transport.NewRedialWith(srv.Addr(), transport.DialOptions{})
	if _, err := r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the connection to close", func() bool { return srv.Stats().ActiveConns == 0 })
	if _, err := r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("call after Close: err=%v, want transport.ErrClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := srv.Stats().ActiveConns; got != 0 {
		t.Fatalf("closed Redial re-dialed: %d connections", got)
	}
}

// TestRedialCloseRacesDial drives many concurrent first-calls into Close:
// whichever side of acquire's dial the Close lands on, the fresh socket
// must not outlive the handle — afterwards the server holds zero
// connections and every later call fails fast.
func TestRedialCloseRacesDial(t *testing.T) {
	f := testFarmer()
	srv, err := transport.ServeWith(f, "127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 20; i++ {
		r := transport.NewRedialWith(srv.Addr(), transport.DialOptions{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Errors are expected here (ErrClosed when Close wins the
				// race); the invariant under test is the socket accounting.
				_, _ = r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1})
			}()
		}
		r.Close()
		wg.Wait()
		if _, err := r.RequestWork(transport.WorkRequest{Worker: "w", Power: 1}); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("round %d: call after Close: err=%v, want transport.ErrClosed", i, err)
		}
	}
	waitFor(t, "all raced sockets to be torn down", func() bool { return srv.Stats().ActiveConns == 0 })
}
