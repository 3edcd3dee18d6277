package flowshop

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bb"
)

// permOf returns the identity permutation of n jobs.
func permOf(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestMakespanByHand checks the recurrence on a hand-computed 2x2 case.
func TestMakespanByHand(t *testing.T) {
	ins, err := NewInstance("hand", [][]int64{{3, 2}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Order 0,1: m0 finishes j0 at 3, j1 at 4; m1 starts j0 at 3 ends 5,
	// j1 starts max(4,5)=5 ends 9.
	if got := ins.Makespan([]int{0, 1}); got != 9 {
		t.Fatalf("makespan(0,1) = %d, want 9", got)
	}
	// Order 1,0: m0: j1 at 1, j0 at 4; m1: j1 1->5, j0 max(4,5)=5->7.
	if got := ins.Makespan([]int{1, 0}); got != 7 {
		t.Fatalf("makespan(1,0) = %d, want 7", got)
	}
}

// TestMakespanPanicsOnBadPerm: malformed permutations are programming
// errors and must not be silently mis-evaluated.
func TestMakespanPanicsOnBadPerm(t *testing.T) {
	ins := Taillard(4, 3, 1)
	for _, perm := range [][]int{{0, 1}, {0, 1, 2, 2}, {0, 1, 2, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %v", perm)
				}
			}()
			ins.Makespan(perm)
		}()
	}
}

// TestPartialMakespanPrefixConsistency: evaluating a full permutation
// incrementally through PartialMakespan agrees with Makespan.
func TestPartialMakespanPrefixConsistency(t *testing.T) {
	ins := Taillard(9, 6, 11)
	perm := permOf(9)
	heads := ins.PartialMakespan(perm, nil)
	if heads[ins.Machines-1] != ins.Makespan(perm) {
		t.Fatalf("partial %d != makespan %d", heads[ins.Machines-1], ins.Makespan(perm))
	}
}

// TestNewInstanceValidation rejects malformed inputs.
func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance("x", nil); err == nil {
		t.Error("no jobs accepted")
	}
	if _, err := NewInstance("x", [][]int64{{}}); err == nil {
		t.Error("no machines accepted")
	}
	if _, err := NewInstance("x", [][]int64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewInstance("x", [][]int64{{1, -2}}); err == nil {
		t.Error("negative time accepted")
	}
}

// TestTaillardDeterminism: the generator is a pure function of its seed.
func TestTaillardDeterminism(t *testing.T) {
	a := Taillard(20, 10, 587595453)
	b := Taillard(20, 10, 587595453)
	for j := 0; j < a.Jobs; j++ {
		for m := 0; m < a.Machines; m++ {
			if a.Proc[j][m] != b.Proc[j][m] {
				t.Fatalf("non-deterministic at (%d,%d)", j, m)
			}
		}
	}
}

// TestTaillardRange: all processing times are in [1, 99] as published.
func TestTaillardRange(t *testing.T) {
	ins := Taillard(100, 20, 450926852)
	for j := 0; j < ins.Jobs; j++ {
		for m := 0; m < ins.Machines; m++ {
			if p := ins.Proc[j][m]; p < 1 || p > 99 {
				t.Fatalf("time %d at (%d,%d) outside [1,99]", p, j, m)
			}
		}
	}
}

// TestTaillardNamedLookup covers the published index.
func TestTaillardNamedLookup(t *testing.T) {
	for name, dims := range map[string][2]int{
		"ta001": {20, 5}, "TA021": {20, 20}, "ta056": {50, 20}, "ta120": {500, 20},
	} {
		ins, err := TaillardNamed(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ins.Jobs != dims[0] || ins.Machines != dims[1] {
			t.Fatalf("%s dims = %dx%d, want %dx%d", name, ins.Jobs, ins.Machines, dims[0], dims[1])
		}
	}
	if _, err := TaillardNamed("ta121"); err == nil {
		t.Error("out-of-range instance accepted")
	}
	if _, err := TaillardNamed("nonsense"); err == nil {
		t.Error("garbage name accepted")
	}
	if got := len(TaillardIndices()); got != 120 {
		t.Fatalf("published instances = %d, want 120", got)
	}
}

// TestReduced: reduction keeps the data prefix bit-exactly.
func TestReduced(t *testing.T) {
	full := Ta056()
	red, err := full.Reduced(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		for m := 0; m < 7; m++ {
			if red.Proc[j][m] != full.Proc[j][m] {
				t.Fatalf("reduced data differs at (%d,%d)", j, m)
			}
		}
	}
	if _, err := full.Reduced(51, 20); err == nil {
		t.Error("oversized reduction accepted")
	}
	if _, err := full.Reduced(0, 5); err == nil {
		t.Error("zero-job reduction accepted")
	}
}

// TestTaillardReduced: the command-line reduction, where zero keeps a
// dimension whole and both zero means the published instance itself.
func TestTaillardReduced(t *testing.T) {
	for _, c := range []struct {
		jobs, machines int
		want           string // instance name, or "" for an error
	}{
		{0, 0, "ta056"},
		{11, 0, "ta056-reduced-11x20"},
		{0, 6, "ta056-reduced-50x6"},
		{11, 6, "ta056-reduced-11x6"},
		{51, 0, ""},
		{0, 21, ""},
		{-1, 6, ""},
	} {
		ins, err := TaillardReduced("ta056", c.jobs, c.machines)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("reduce to %dx%d accepted as %s", c.jobs, c.machines, ins.Name)
		case c.want != "" && err != nil:
			t.Errorf("reduce to %dx%d: %v", c.jobs, c.machines, err)
		case c.want != "" && ins.Name != c.want:
			t.Errorf("reduce to %dx%d gave %s, want %s", c.jobs, c.machines, ins.Name, c.want)
		}
	}
	if _, err := TaillardReduced("ta999", 0, 0); err == nil {
		t.Error("unknown instance accepted")
	}
}

// TestBoundsAdmissible is the soundness property of the bounding operator:
// for random partial schedules, every bound family is a true lower bound on
// the best completion (verified by brute force on small instances).
func TestBoundsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		jobs := 5 + rng.Intn(3)
		ins := Taillard(jobs, 2+rng.Intn(4), rng.Int63n(1<<30)+1)
		prefixLen := rng.Intn(jobs)
		perm := rng.Perm(jobs)
		prefix := perm[:prefixLen]
		rest := perm[prefixLen:]
		best := bestCompletion(ins, prefix, rest)
		for _, kind := range []BoundKind{BoundOneMachine, BoundTwoMachine, BoundCombined} {
			lb := boundOfPrefix(ins, kind, prefix)
			if lb > best {
				t.Fatalf("%s: bound kind %d of prefix %v = %d exceeds best completion %d",
					ins.Name, kind, prefix, lb, best)
			}
		}
	}
}

// boundOfPrefix drives the Problem state machine to the prefix and bounds.
func boundOfPrefix(ins *Instance, kind BoundKind, prefix []int) int64 {
	p := NewProblem(ins, kind, PairsAll)
	ranks, err := PathOfPermutation(ins.Jobs, prefix)
	if err != nil {
		panic(err)
	}
	for _, r := range ranks {
		p.Descend(r)
	}
	if len(prefix) == ins.Jobs {
		return p.Cost()
	}
	return p.Bound(bb.Infinity)
}

// bestCompletion brute-forces the best makespan over all completions.
func bestCompletion(ins *Instance, prefix, rest []int) int64 {
	perm := append(append([]int(nil), prefix...), rest...)
	best := int64(1) << 62
	n := len(rest)
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			if c := ins.Makespan(perm); c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			tail := perm[len(prefix):]
			tail[k], tail[i] = tail[i], tail[k]
			walk(k + 1)
			tail[k], tail[i] = tail[i], tail[k]
		}
	}
	walk(0)
	return best
}

// TestTwoMachineDominance: on every machine pair it inspects, the Johnson
// bound is at least as strong as the one-machine bound in aggregate — we
// check the weaker, always-true statement that combined >= one-machine.
func TestTwoMachineDominance(t *testing.T) {
	ins := Taillard(10, 6, 77)
	p1 := NewProblem(ins, BoundOneMachine, PairsAll)
	pc := NewProblem(ins, BoundCombined, PairsAll)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		prefix := rng.Perm(10)[:rng.Intn(5)]
		lb1 := boundWith(p1, ins, prefix)
		lbc := boundWith(pc, ins, prefix)
		if lbc < lb1 {
			t.Fatalf("combined bound %d < one-machine %d on prefix %v", lbc, lb1, prefix)
		}
	}
}

func boundWith(p *Problem, ins *Instance, prefix []int) int64 {
	p.Reset()
	ranks, err := PathOfPermutation(ins.Jobs, prefix)
	if err != nil {
		panic(err)
	}
	for _, r := range ranks {
		p.Descend(r)
	}
	return p.Bound(bb.Infinity)
}

// TestJohnsonOptimal: Johnson's rule is optimal for 2 machines — B&B must
// agree exactly.
func TestJohnsonOptimal(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ins := Taillard(8, 2, seed)
		_, johnson := Johnson(ins)
		sol, _ := bb.Solve(NewProblem(ins, BoundOneMachine, PairsAll), bb.Infinity)
		if sol.Cost != johnson {
			t.Fatalf("seed %d: B&B %d != Johnson %d", seed, sol.Cost, johnson)
		}
	}
}

// TestJohnsonPanicsOnWrongMachines: the oracle guards its precondition.
func TestJohnsonPanicsOnWrongMachines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Johnson(Taillard(5, 3, 1))
}

// TestNEHFeasibleAndDecent: NEH yields a valid permutation whose makespan
// is at least the optimum and not absurdly far from it on small instances.
func TestNEHFeasibleAndDecent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ins := Taillard(8, 5, seed)
		seq, cmax := NEH(ins)
		if got := ins.Makespan(seq); got != cmax {
			t.Fatalf("NEH reported %d but schedule evaluates to %d", cmax, got)
		}
		opt, _ := bb.Solve(NewProblem(ins, BoundOneMachine, PairsAll), bb.Infinity)
		if cmax < opt.Cost {
			t.Fatalf("NEH %d below the optimum %d: impossible", cmax, opt.Cost)
		}
		if float64(cmax) > 1.25*float64(opt.Cost) {
			t.Errorf("seed %d: NEH %d more than 25%% above optimum %d", seed, cmax, opt.Cost)
		}
	}
}

// TestIteratedGreedyImproves: IG never does worse than its NEH seed, and
// typically improves it.
func TestIteratedGreedyImproves(t *testing.T) {
	ins := Taillard(20, 5, 873654221) // ta001
	_, neh := NEH(ins)
	_, ig := IteratedGreedy(ins, IGOptions{Iterations: 300, DestructSize: 4, TemperatureFactor: 0.4, Seed: 3})
	if ig > neh {
		t.Fatalf("IG %d worse than its NEH seed %d", ig, neh)
	}
}

// TestIteratedGreedyDeterministic per seed.
func TestIteratedGreedyDeterministic(t *testing.T) {
	ins := Taillard(12, 5, 99)
	opt := IGOptions{Iterations: 100, DestructSize: 4, TemperatureFactor: 0.4, Seed: 7}
	_, a := IteratedGreedy(ins, opt)
	_, b := IteratedGreedy(ins, opt)
	if a != b {
		t.Fatalf("IG non-deterministic: %d vs %d", a, b)
	}
}

// TestProblemDescendAscendInverse: Ascend exactly undoes Descend (property
// over random walks), including the remaining list, the sums and the heads.
func TestProblemDescendAscendInverse(t *testing.T) {
	ins := Taillard(9, 4, 17)
	p := NewProblem(ins, BoundOneMachine, PairsAll)
	f := func(moves []uint8) bool {
		p.Reset()
		ref := NewProblem(ins, BoundOneMachine, PairsAll)
		depth := 0
		for _, mv := range moves {
			if depth < ins.Jobs && mv%2 == 0 {
				rank := int(mv/2) % (ins.Jobs - depth)
				p.Descend(rank)
				depth++
			} else if depth > 0 {
				p.Ascend()
				depth--
			}
		}
		// Rebuild the same position from scratch on ref and compare
		// bounds (a full state fingerprint).
		prefix := p.Prefix()
		ranks, err := PathOfPermutation(ins.Jobs, prefix)
		if err != nil {
			return false
		}
		for _, r := range ranks {
			ref.Descend(r)
		}
		if depth == ins.Jobs {
			return p.Cost() == ref.Cost()
		}
		return p.Bound(bb.Infinity) == ref.Bound(bb.Infinity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPathPermRoundTrip: PathOfPermutation inverts PermutationOfPath.
func TestPathPermRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		perm := rng.Perm(n)
		ranks, err := PathOfPermutation(n, perm)
		if err != nil {
			t.Fatal(err)
		}
		back, err := PermutationOfPath(n, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range perm {
			if back[i] != perm[i] {
				t.Fatalf("round trip %v -> %v -> %v", perm, ranks, back)
			}
		}
	}
	if _, err := PathOfPermutation(3, []int{0, 0}); err == nil {
		t.Error("repeated job accepted")
	}
	if _, err := PermutationOfPath(3, []int{5}); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// TestDecodePath covers the bb.Decoder implementation.
func TestDecodePath(t *testing.T) {
	ins := Taillard(4, 2, 1)
	p := NewProblem(ins, BoundOneMachine, PairsAll)
	out := p.DecodePath([]int{3, 0, 0, 0})
	if !strings.Contains(out, "3 0 1 2") {
		t.Errorf("DecodePath = %q", out)
	}
	if !strings.Contains(p.DecodePath([]int{9}), "invalid") {
		t.Error("bad path not flagged")
	}
}

// TestFormatLayout: the benchmark text layout has the header and
// machine-major rows.
func TestFormatLayout(t *testing.T) {
	ins := Taillard(3, 2, 42)
	out := ins.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("format has %d lines, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "3 2" {
		t.Fatalf("header = %q", lines[0])
	}
}

// TestTotalWork sums the matrix.
func TestTotalWork(t *testing.T) {
	ins, _ := NewInstance("x", [][]int64{{1, 2}, {3, 4}})
	if got := ins.TotalWork(); got != 10 {
		t.Fatalf("total work = %d", got)
	}
}

// TestIGLocalSearchStronger: the full IG_RS (with insertion local search)
// is at least as good as the plain variant on the same budget and seed.
func TestIGLocalSearchStronger(t *testing.T) {
	ins := Taillard(20, 10, 587595453) // ta011
	plain := IGOptions{Iterations: 60, DestructSize: 4, TemperatureFactor: 0.4, Seed: 5}
	full := plain
	full.LocalSearch = true
	_, cPlain := IteratedGreedy(ins, plain)
	_, cFull := IteratedGreedy(ins, full)
	if cFull > cPlain {
		t.Fatalf("IG with local search %d worse than without %d", cFull, cPlain)
	}
}

// TestLocalSearchNeverWorsens: the insertion local search is a descent.
func TestLocalSearchNeverWorsens(t *testing.T) {
	ins := Taillard(15, 5, 7)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		seq := rng.Perm(ins.Jobs)
		before := ins.Makespan(seq)
		after := localSearchInsertion(ins, seq, rng)
		if after > before {
			t.Fatalf("local search worsened %d -> %d", before, after)
		}
		if got := ins.Makespan(seq); got != after {
			t.Fatalf("reported %d but sequence evaluates to %d", after, got)
		}
	}
}

// TestParseBound: the three command-line bound names, and nothing else.
func TestParseBound(t *testing.T) {
	for name, want := range map[string]BoundKind{"one": BoundOneMachine, "two": BoundTwoMachine, "combined": BoundCombined} {
		if got, err := ParseBound(name); err != nil || got != want {
			t.Errorf("ParseBound(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseBound("bogus"); err == nil {
		t.Error("ParseBound accepted an unknown name")
	}
}
