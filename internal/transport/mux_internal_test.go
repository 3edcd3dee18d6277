package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/interval"
)

// What the standard library's RPC layer used to guarantee and the frame
// loop and the pending table now own: overlapped service on one
// connection, every in-flight caller failed when the connection dies, and
// a late reply unable to reach a caller that has given up.

// gateCoord blocks every RequestWork inside the coordinator until release
// is closed, announcing each arrival on entered; folds answer at once.
type gateCoord struct {
	entered chan struct{}
	release chan struct{}
}

func newGateCoord(t *testing.T) *gateCoord {
	g := &gateCoord{entered: make(chan struct{}, 64), release: make(chan struct{})}
	t.Cleanup(func() { close(g.release) })
	return g
}

func (g *gateCoord) RequestWork(WorkRequest) (WorkReply, error) {
	g.entered <- struct{}{}
	<-g.release
	return WorkReply{Status: WorkWait}, nil
}
func (g *gateCoord) UpdateInterval(req UpdateRequest) (UpdateReply, error) {
	return UpdateReply{Known: true, Interval: req.Remaining, BestCost: 5}, nil
}
func (g *gateCoord) ReportSolution(SolutionReport) (SolutionAck, error) {
	return SolutionAck{}, nil
}

func (c *Client) pendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func awaitEntered(t *testing.T, g *gateCoord, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d calls reached the coordinator", i, n)
		}
	}
}

// TestOneConnectionServesCallsOverlapped: with one call parked inside the
// coordinator (a sub-farmer's upstream round-trip), a second call on the
// SAME connection is answered — an inline-serial server loop would park it
// behind the first.
func TestOneConnectionServesCallsOverlapped(t *testing.T) {
	g := newGateCoord(t)
	srv, err := ServeWith(g, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialWith(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := make(chan error, 1)
	go func() {
		_, err := c.RequestWork(WorkRequest{Worker: "parked", Power: 1})
		first <- err
	}()
	awaitEntered(t, g, 1)

	second := make(chan error, 1)
	go func() {
		reply, err := c.UpdateInterval(UpdateRequest{Worker: "live", IntervalID: 1, Remaining: interval.FromInt64(3, 9)})
		if err == nil && (!reply.Known || reply.BestCost != 5) {
			err = errors.New("second call answered with the wrong reply")
		}
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second call on the connection parked behind the first")
	}
	select {
	case err := <-first:
		t.Fatalf("first call returned (%v) while the coordinator still held it", err)
	default:
	}
	if n := c.pendingCalls(); n != 1 {
		t.Fatalf("%d calls pending with one parked, want 1", n)
	}
	if got := srv.Stats().ActiveConns; got != 1 {
		t.Fatalf("two calls rode %d connections, want 1", got)
	}
}

// TestServerCloseFailsEveryInflightCall: the server goes away with N calls
// in flight on one connection — every caller gets an error, none hangs,
// and the pending table is left empty.
func TestServerCloseFailsEveryInflightCall(t *testing.T) {
	const calls = 8
	g := newGateCoord(t)
	srv, err := ServeWith(g, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.RequestWork(WorkRequest{Worker: "w", Power: 1})
			errs <- err
		}()
	}
	awaitEntered(t, g, calls)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call in flight at server close succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d in-flight calls still hang after the server closed", calls-i, calls)
		}
	}
	if n := c.pendingCalls(); n != 0 {
		t.Fatalf("%d calls left in the pending table", n)
	}
	if _, err := c.RequestWork(WorkRequest{Worker: "w", Power: 1}); err == nil {
		t.Fatal("a call on the dead connection succeeded")
	}
}

// TestLateReplyCannotReachATimedOutCaller: a caller whose Policy.Timeout
// fired has taken its entry out of the pending table, so the reply frame
// that arrives afterwards — here handed to deliver by the test, in place
// of the reader — finds nobody and leaves the caller's reply value alone.
func TestLateReplyCannotReachATimedOutCaller(t *testing.T) {
	ref := interval.FromInt64(0, 1000)
	cliSide, srvSide := net.Pipe()
	defer srvSide.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the peer: reads the request and never answers
		defer wg.Done()
		io.Copy(io.Discard, srvSide)
	}()
	c := &Client{conn: cliSide, ref: ref, timeout: 30 * time.Millisecond, pending: make(map[uint64]*pendingCall)}

	req := UpdateRequest{Worker: "w", IntervalID: 1, Remaining: interval.FromInt64(3, 9)}
	var reply UpdateReply
	if err := c.invoke(wireUpdateInterval, &req, &reply); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if n := c.pendingCalls(); n != 0 {
		t.Fatalf("timed-out call left %d entries pending", n)
	}

	late := wireAnswer{method: wireUpdateInterval, seq: 1, reply: &UpdateReply{Known: true, Interval: interval.FromInt64(4, 9), BestCost: 99}}
	if err := c.deliver(late.appendFrame(nil, ref)[wireFrameHead:]); err != nil {
		t.Fatalf("a late reply broke the reader: %v", err)
	}
	if reply.Known || reply.BestCost != 0 || !reply.Interval.IsEmpty() {
		t.Fatalf("late reply written into the caller's value: %+v", reply)
	}
	// The expiry closed the connection: the peer's read loop has ended.
	wg.Wait()
	if _, err := bufio.NewReader(cliSide).ReadByte(); err == nil {
		t.Fatal("connection still open after a call timed out on it")
	}
}
