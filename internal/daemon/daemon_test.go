package daemon

import (
	"context"
	"errors"
	"flag"
	"reflect"
	"testing"
	"time"

	"repro/internal/interval"
)

// recorder is a Loop whose calls are logged in order.
func recorder(calls *[]string, done bool, ckptErr error) Loop {
	return Loop{
		Checkpoint:      func() error { *calls = append(*calls, "checkpoint"); return ckptErr },
		CheckpointEvery: time.Hour,
		Status:          func() bool { *calls = append(*calls, "status"); return done },
		StatusEvery:     time.Millisecond,
		Tick:            func() { *calls = append(*calls, "tick") },
		TickEvery:       time.Hour,
		Flush:           func() { *calls = append(*calls, "flush") },
	}
}

// TestRunStopPath: finished or stopped, Run ends on the same path — a
// Flush, then the final checkpoint — and reports which it was.
func TestRunStopPath(t *testing.T) {
	var calls []string
	done, err := Run(context.Background(), recorder(&calls, true, nil))
	if !done || err != nil || !reflect.DeepEqual(calls, []string{"status", "flush", "checkpoint"}) {
		t.Errorf("finished run: done=%v err=%v calls=%v", done, err, calls)
	}

	calls = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := recorder(&calls, false, nil)
	l.StatusEvery = time.Hour
	done, err = Run(ctx, l)
	if done || err != nil || !reflect.DeepEqual(calls, []string{"flush", "checkpoint"}) {
		t.Errorf("stopped run: done=%v err=%v calls=%v", done, err, calls)
	}
}

// TestRunFailedFinalCheckpoint: the final checkpoint's failure is Run's.
func TestRunFailedFinalCheckpoint(t *testing.T) {
	disk := errors.New("disk full")
	var calls []string
	l := recorder(&calls, true, disk)
	l.Flush = nil
	if _, err := Run(context.Background(), l); !errors.Is(err, disk) {
		t.Fatalf("Run = %v, want the checkpoint's error", err)
	}
}

// TestTLSMaterialErrors: a named certificate that cannot be loaded fails
// the listener and the dialer instead of silently running in clear.
func TestTLSMaterialErrors(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	serve := Serve(fs, "127.0.0.1:0", "")
	dial := Dial(fs, "root-")
	if err := fs.Parse([]string{"-tls-cert", "missing.pem", "-tls-key", "missing.pem", "-root-tls-ca", "missing.pem"}); err != nil {
		t.Fatal(err)
	}
	if srv, err := serve.Listen(nil, interval.Interval{}); err == nil {
		srv.Close()
		t.Error("listener served without its certificate")
	}
	if _, err := dial.Options(); err == nil {
		t.Error("dialer built options without its CA")
	}
}
