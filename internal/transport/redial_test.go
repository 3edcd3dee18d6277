package transport

import (
	"errors"
	"testing"
	"time"
)

// countingCoord is a minimal Coordinator for wire-level tests. A negative
// power draws a server-side error (the hardened farmer's behaviour).
type countingCoord struct{ requests int }

func (c *countingCoord) RequestWork(req WorkRequest) (WorkReply, error) {
	c.requests++
	if req.Power < 0 {
		return WorkReply{}, errors.New("non-positive power")
	}
	return WorkReply{Status: WorkWait, BestCost: 7}, nil
}
func (c *countingCoord) UpdateInterval(req UpdateRequest) (UpdateReply, error) {
	return UpdateReply{Known: false}, nil
}
func (c *countingCoord) ReportSolution(req SolutionReport) (SolutionAck, error) {
	return SolutionAck{BestCost: req.Cost}, nil
}

// TestRedialSurvivesServerRestart pins the property cmd/subfarmer depends
// on for its lifetime: a plain Client is permanently dead after one
// connection loss, but a Redial coordinator re-dials and resumes once the
// server is back — with fail-fast behaviour inside the backoff window
// rather than a dial storm.
func TestRedialSurvivesServerRestart(t *testing.T) {
	coord := &countingCoord{}
	srv, err := ServeWith(coord, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	r := NewRedialWith(addr, DialOptions{})
	r.backoff.Base = 5 * time.Millisecond
	defer r.Close()

	if reply, err := r.RequestWork(WorkRequest{Worker: "w", Power: 1}); err != nil || reply.BestCost != 7 {
		t.Fatalf("first call: reply=%+v err=%v", reply, err)
	}

	// Kill the server. Server.Close only stops the listener (in-flight
	// connections drain on their own), so model the process death's TCP
	// reset by severing the established connection too.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.client.Close()
	r.mu.Unlock()
	if _, err := r.RequestWork(WorkRequest{Worker: "w", Power: 1}); err == nil {
		t.Fatal("call against a dead server succeeded")
	}

	// Restart on the same address: within a few backoff windows the
	// client must re-dial and serve calls again.
	srv2, err := ServeWith(coord, addr, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		reply, err := r.RequestWork(WorkRequest{Worker: "w", Power: 1})
		if err == nil {
			if reply.BestCost != 7 {
				t.Fatalf("recovered reply %+v", reply)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered after server restart: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A server-side protocol error must NOT drop the connection.
	before := coord.requests
	if _, err := r.RequestWork(WorkRequest{Worker: "w", Power: -1}); err == nil {
		t.Fatal("negative power accepted")
	}
	if reply, err := r.RequestWork(WorkRequest{Worker: "w", Power: 1}); err != nil || reply.BestCost != 7 {
		t.Fatalf("connection dropped after a server-side error: reply=%+v err=%v", reply, err)
	}
	if coord.requests <= before {
		t.Fatal("no calls reached the coordinator after the protocol error")
	}
}
