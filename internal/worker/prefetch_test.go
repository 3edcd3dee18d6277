package worker

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/flowshop"
	"repro/internal/interval"
	"repro/internal/transport"
)

// chunkCoordinator hands out a tree's root range in fixed chunks, one per
// request, keeps the best cost reported to it, and halves every fourth
// fold it answers (load balancing's Restrict, without a second worker).
// Its replies depend only on the calls it receives, and it logs each call
// with its kind, fold ends, deltas and interval id.
type chunkCoordinator struct {
	chunks  []interval.Interval
	next    int
	best    int64
	updates int
	log     []string
}

func newChunkCoordinator(p bb.Problem, chunks int) *chunkCoordinator {
	root := core.NewNumbering(p.Shape()).RootRange()
	return &chunkCoordinator{chunks: interval.SplitEven(root, chunks), best: bb.Infinity}
}

func (c *chunkCoordinator) RequestWork(req transport.WorkRequest) (transport.WorkReply, error) {
	if c.next == len(c.chunks) {
		c.log = append(c.log, "request: finished")
		return transport.WorkReply{Status: transport.WorkFinished}, nil
	}
	c.next++
	c.log = append(c.log, fmt.Sprintf("request: interval %d %v", c.next, c.chunks[c.next-1]))
	return transport.WorkReply{Status: transport.WorkAssigned, Interval: c.chunks[c.next-1], IntervalID: int64(c.next), BestCost: c.best}, nil
}

func (c *chunkCoordinator) UpdateInterval(req transport.UpdateRequest) (transport.UpdateReply, error) {
	c.updates++
	c.log = append(c.log, fmt.Sprintf("update: interval %d fold %v explored %d pruned %d leaves %d",
		req.IntervalID, req.Remaining, req.ExploredDelta, req.PrunedDelta, req.LeavesDelta))
	iv := req.Remaining
	if c.updates%4 == 0 {
		iv, _ = interval.Halve(iv)
	}
	return transport.UpdateReply{Known: true, Interval: iv, BestCost: c.best}, nil
}

func (c *chunkCoordinator) ReportSolution(req transport.SolutionReport) (transport.SolutionAck, error) {
	c.log = append(c.log, fmt.Sprintf("report: cost %d", req.Cost))
	c.best = min(c.best, req.Cost)
	return transport.SolutionAck{BestCost: c.best}, nil
}

// prefetchCases counts the exchanges the twin made on nodes it explored
// ahead: the situations where exploring ahead could drift from stepping
// tick by tick.
type prefetchCases struct {
	improvements int // a report owed by a node explored ahead
	boundaries   int // a node-count update on a span's last node
	pausedFolds  int // a checkpoint of an engine paused on its interval's last node, inside a span
}

// driveTwins drives a session one budget per tick and a twin that, at
// random ticks, explores a span of random length ahead, each over its own
// chunk coordinator, through the same budgets and time-based checkpoints.
// A span ends at the next checkpoint, that tick included, as the
// simulator's spans do. The two coordinators must see the same calls tick
// by tick, and the two sessions report the same explored count after every
// tick.
func driveTwins(t *testing.T, seed int64, cases *prefetchCases) {
	ins := flowshop.Taillard(8, 5, seed)
	newSession := func() (*Session, *chunkCoordinator) {
		p := flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
		c := newChunkCoordinator(p, 40)
		return NewSession(Config{ID: "w", Power: 1, UpdatePeriodNodes: 7}, c, p), c
	}
	ticked, tc := newSession()
	twin, wc := newSession()

	rng := rand.New(rand.NewSource(seed))
	const ticks = 20_000
	budgets := make([]int64, ticks)
	checkpoint := make([]bool, ticks)
	for i, next := 0, 0; i < ticks; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
		case r < 9:
			budgets[i] = 1
		default:
			budgets[i] = 2 + rng.Int63n(4)
		}
		if i == next {
			checkpoint[i] = true
			next += 1 + rng.Intn(8)
		}
	}

	spans := rand.New(rand.NewSource(seed + 1))
	spanEnd := 0
	for tick := 0; tick < ticks; tick++ {
		if twin.HasWork() && twin.Prefetch(0) == 0 && spans.Intn(3) > 0 {
			var max int64
			end := min(tick+1+spans.Intn(12), ticks)
			for u := tick; u < end; u++ {
				max += budgets[u]
				if checkpoint[u] {
					end = u + 1
				}
			}
			if twin.Prefetch(max) > 0 {
				spanEnd = end
			}
		}
		ahead := twin.Prefetch(0)
		tcLen, wcLen := len(tc.log), len(wc.log)
		var updatesInAdvance int64
		for _, s := range []*Session{ticked, twin} {
			if budgets[tick] <= 0 && s.HasWork() {
				continue
			}
			before := s.Messages.Updates
			if _, _, err := s.Advance(budgets[tick]); err != nil {
				t.Fatalf("seed %d tick %d: %v", seed, tick, err)
			}
			if s == twin {
				updatesInAdvance = s.Messages.Updates - before
			}
		}
		wcAdvance := len(wc.log)
		for _, s := range []*Session{ticked, twin} {
			if checkpoint[tick] && s.HasWork() {
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("seed %d tick %d: checkpoint: %v", seed, tick, err)
				}
			}
		}
		got, want := wc.log[wcLen:], tc.log[tcLen:]
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("seed %d tick %d (budget %d, %d nodes ahead): twin sent\n%s\nticked session sent\n%s",
				seed, tick, budgets[tick], ahead, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if g, w := twin.Stats().Explored, ticked.Stats().Explored; g != w {
			t.Fatalf("seed %d tick %d: twin explored %d, ticked session %d", seed, tick, g, w)
		}
		if ahead > 0 && twin.Prefetch(0) == 0 {
			for _, call := range wc.log[wcLen:wcAdvance] {
				if strings.HasPrefix(call, "report") {
					cases.improvements++
				}
			}
			if updatesInAdvance > 0 && !emptyFold(wc.log[wcAdvance-1]) {
				cases.boundaries++
			}
		}
		if tick < spanEnd && wcAdvance < len(wc.log) && pausedFold(wc.log[len(wc.log)-1]) {
			cases.pausedFolds++
		}
		if ticked.Finished() && twin.Finished() {
			return
		}
	}
	t.Fatalf("seed %d: not finished in %d ticks", seed, ticks)
}

// emptyFold and pausedFold read a logged update: an empty fold, and the
// empty fold [n, hi) with n > hi of an engine that explored its interval's
// last node and has not stepped since.
func emptyFold(call string) bool {
	var id, a, b int64
	fmt.Sscanf(call, "update: interval %d fold [%d,%d)", &id, &a, &b)
	return a >= b
}

func pausedFold(call string) bool {
	var id, a, b int64
	fmt.Sscanf(call, "update: interval %d fold [%d,%d)", &id, &a, &b)
	return a > b
}

// TestPrefetchMatchesTickByTick: a session that explores spans ahead with
// Prefetch makes exactly the calls, tick by tick, of one stepped a budget
// at a time — including a report owed by a node explored ahead, a
// node-count update on a span's last node, and the paused engine's empty
// fold [n, hi) with n > hi when an interval ends on a span's last node and
// zero budgets lead to a checkpoint.
func TestPrefetchMatchesTickByTick(t *testing.T) {
	var cases prefetchCases
	for seed := int64(1); seed <= 6; seed++ {
		driveTwins(t, seed, &cases)
	}
	t.Logf("%+v", cases)
	if cases.improvements == 0 || cases.boundaries == 0 || cases.pausedFolds == 0 {
		t.Fatalf("cases not all reached: %+v", cases)
	}
}

// TestPrefetchRefusals: the shard engine keeps per-budget stepping, a
// session without work explores nothing ahead, and a checkpoint with nodes
// ahead unspent is an error, not a fold claiming them.
func TestPrefetchRefusals(t *testing.T) {
	ins := flowshop.Taillard(8, 5, 1)
	factory := func() bb.Problem { return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll) }

	sharded := NewShardedSession(Config{ID: "s", Cores: 2}, newChunkCoordinator(factory(), 4), factory)
	if n := sharded.Prefetch(100); n != 0 {
		t.Fatalf("idle session prefetched %d nodes", n)
	}
	if _, _, err := sharded.Advance(0); err != nil || !sharded.HasWork() {
		t.Fatalf("sharded session holds no work: %v", err)
	}
	if n := sharded.Prefetch(100); n != 0 {
		t.Fatalf("sharded session prefetched %d nodes", n)
	}

	s := NewSession(Config{ID: "w"}, newChunkCoordinator(factory(), 4), factory())
	if _, _, err := s.Advance(0); err != nil {
		t.Fatal(err)
	}
	n := s.Prefetch(10)
	if n <= 0 {
		t.Fatal("single-explorer session with work prefetched nothing")
	}
	if s.Stats().Explored != 0 {
		t.Fatalf("Stats counts %d nodes no budget has spent", s.Stats().Explored)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint with nodes ahead unspent succeeded")
	}
	if got, _, err := s.Advance(n); err != nil || got != n {
		t.Fatalf("Advance(%d) = %d, %v", n, got, err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
