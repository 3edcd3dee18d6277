package worker

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/transport"
)

// scriptedCoordinator replays canned replies and can inject failures, to
// exercise the worker paths a healthy farmer never triggers. Assignments
// are tagged with the jobs of the script in turn, and every fold and
// report must echo the tag of the interval it belongs to.
type scriptedCoordinator struct {
	t           *testing.T
	jobs        []string
	workReplies []transport.WorkReply
	workErrs    []error
	updateErr   error
	reportErr   error
	// dropUpdates answers every update Known=false.
	dropUpdates bool

	held              string // tag of the last assignment
	assigned, updates int
}

func (s *scriptedCoordinator) RequestWork(transport.WorkRequest) (transport.WorkReply, error) {
	if len(s.workErrs) > 0 {
		err := s.workErrs[0]
		s.workErrs = s.workErrs[1:]
		if err != nil {
			return transport.WorkReply{}, err
		}
	}
	if len(s.workReplies) == 0 {
		return transport.WorkReply{Status: transport.WorkFinished}, nil
	}
	r := s.workReplies[0]
	s.workReplies = s.workReplies[1:]
	if r.Status == transport.WorkAssigned {
		r.Job = s.jobs[s.assigned%len(s.jobs)]
		s.held = r.Job
		s.assigned++
	}
	return r, nil
}

func (s *scriptedCoordinator) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	s.updates++
	if req.Job != s.held {
		s.t.Errorf("fold tagged %q, its interval came from job %q", req.Job, s.held)
	}
	if s.updateErr != nil {
		return transport.UpdateReply{}, s.updateErr
	}
	if s.dropUpdates {
		return transport.UpdateReply{Known: false}, nil
	}
	return transport.UpdateReply{Known: true, Interval: req.Remaining, BestCost: 1 << 62}, nil
}

func (s *scriptedCoordinator) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	if req.Job != s.held {
		s.t.Errorf("report tagged %q, its interval came from job %q", req.Job, s.held)
	}
	if s.reportErr != nil {
		return transport.SolutionAck{}, s.reportErr
	}
	return transport.SolutionAck{BestCost: 1 << 62}, nil
}

func sessionProblem() bb.Problem {
	return flowshop.NewProblem(flowshop.Taillard(7, 4, 3), flowshop.BoundOneMachine, flowshop.PairsAll)
}

// faultEngines is every way a session can be built: the paper's single
// explorer, the shard engine in both its forms, and a resolver-built
// session meeting two jobs.
var faultEngines = []struct {
	name  string
	jobs  []string
	build func(Config, transport.Coordinator) *Session
}{
	{"explorer", []string{""}, func(cfg Config, c transport.Coordinator) *Session {
		return NewSession(cfg, c, sessionProblem())
	}},
	{"stepped-shards", []string{"ops-name"}, func(cfg Config, c transport.Coordinator) *Session {
		cfg.Cores = 3
		return NewShardedSession(cfg, c, sessionProblem)
	}},
	{"goroutine-shards", []string{""}, func(cfg Config, c transport.Coordinator) *Session {
		cfg.Cores = 3
		s := NewShardedSession(cfg, c, sessionProblem)
		s.concurrent = true
		return s
	}},
	{"two-jobs", []string{"A", "B"}, func(cfg Config, c transport.Coordinator) *Session {
		return NewMultiJobSession(cfg, c, func(job string) (func() bb.Problem, bool) {
			return sessionProblem, job == "A" || job == "B"
		})
	}},
}

// TestSessionFaults runs the worker paths a healthy farmer never triggers
// over every engine: the protocol state machine is one, whatever explores.
func TestSessionFaults(t *testing.T) {
	root := core.NewNumbering(sessionProblem().Shape()).RootRange()
	// Infinity best so the first leaf triggers a report.
	assigned := func(id int64, iv interval.Interval) transport.WorkReply {
		return transport.WorkReply{Status: transport.WorkAssigned, IntervalID: id, Interval: iv, BestCost: 1 << 62}
	}
	cases := []struct {
		name  string
		cfg   Config
		coord scriptedCoordinator
		check func(t *testing.T, s *Session, coord *scriptedCoordinator)
	}{
		// A Wait reply surfaces as (0, false, nil) so the caller can back
		// off — the paper's cycle-stealing worker keeps polling.
		{"wait", Config{UpdatePeriodNodes: 1000},
			scriptedCoordinator{workReplies: []transport.WorkReply{{Status: transport.WorkWait}, assigned(1, root)}},
			func(t *testing.T, s *Session, _ *scriptedCoordinator) {
				n, finished, err := s.Advance(100)
				if err != nil || finished || n != 0 {
					t.Fatalf("wait reply: n=%d finished=%v err=%v", n, finished, err)
				}
				if s.HasWork() {
					t.Fatal("session claims work after Wait")
				}
				if n, _, err = s.Advance(100); err != nil || n == 0 {
					t.Fatalf("post-wait assignment: n=%d err=%v", n, err)
				}
			}},
		{"request-error", Config{},
			scriptedCoordinator{workErrs: []error{errors.New("network down")}},
			func(t *testing.T, s *Session, _ *scriptedCoordinator) {
				if _, _, err := s.Advance(10); err == nil {
					t.Fatal("request error swallowed")
				}
			}},
		{"update-error", Config{UpdatePeriodNodes: 10},
			scriptedCoordinator{workReplies: []transport.WorkReply{assigned(1, root)}, updateErr: errors.New("farmer rebooting")},
			func(t *testing.T, s *Session, _ *scriptedCoordinator) {
				if _, _, err := s.Advance(1000); err == nil {
					t.Fatal("update error swallowed")
				}
			}},
		// A failing solution push surfaces on an Advance return (the hook
		// runs inside the engine step).
		{"report-error", Config{UpdatePeriodNodes: 1 << 20},
			scriptedCoordinator{workReplies: []transport.WorkReply{assigned(1, root)}, reportErr: errors.New("push refused")},
			func(t *testing.T, s *Session, _ *scriptedCoordinator) {
				for i := 0; i < 100; i++ {
					if _, _, err := s.Advance(100); err != nil {
						return
					}
				}
				t.Fatal("report error never surfaced")
			}},
		// A corrupted reply is an error, not a silent retry loop.
		{"unknown-status", Config{},
			scriptedCoordinator{workReplies: []transport.WorkReply{{Status: transport.WorkStatus(99)}}},
			func(t *testing.T, s *Session, _ *scriptedCoordinator) {
				if _, _, err := s.Advance(10); err == nil {
					t.Fatal("unknown status accepted")
				}
			}},
		// Known=false makes the session drop its work and re-request, for
		// one job after the other; interval.Interval{} is accepted by
		// Reassign.
		{"dropped-interval", Config{UpdatePeriodNodes: 5},
			scriptedCoordinator{workReplies: []transport.WorkReply{assigned(7, root), assigned(8, root)}, dropUpdates: true},
			func(t *testing.T, s *Session, coord *scriptedCoordinator) {
				for i := 0; i < 50 && !s.Finished(); i++ {
					if _, _, err := s.Advance(100); err != nil {
						t.Fatal(err)
					}
				}
				if coord.updates < 2 || !s.Finished() || s.HasWork() {
					t.Fatalf("after %d dropped folds: finished=%v work=%v", coord.updates, s.Finished(), s.HasWork())
				}
			}},
	}
	for _, eng := range faultEngines {
		for _, tc := range cases {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				coord := tc.coord
				coord.t, coord.jobs = t, eng.jobs
				cfg := tc.cfg
				cfg.ID, cfg.Power = "w", 1
				s := eng.build(cfg, &coord)
				defer s.stop()
				tc.check(t, s, &coord)
			})
		}
	}
}

// TestRunBacksOffOnWait: the driver loop sleeps between Wait replies
// instead of hammering the coordinator, then finishes cleanly.
func TestRunBacksOffOnWait(t *testing.T) {
	coord := &scriptedCoordinator{t: t, workReplies: []transport.WorkReply{
		{Status: transport.WorkWait},
		{Status: transport.WorkWait},
		{Status: transport.WorkFinished},
	}}
	start := time.Now()
	_, err := Run(context.Background(), Config{ID: "w", Power: 1}, coord, sessionProblem())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("no backoff: finished in %s", elapsed)
	}
}
