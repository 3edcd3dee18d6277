package flowshop

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// TaillardRNG is the exact portable pseudo-random generator of Taillard
// (1993), "Benchmarks for basic scheduling problems", EJOR 64:278–285 —
// a Lehmer/Park-Miller linear congruential generator with Schrage's
// decomposition (a=16807, m=2^31-1). Reproducing it bit-exactly is what
// makes the generated instances identical to the published benchmark set,
// including the paper's Ta056.
type TaillardRNG struct {
	seed int64
}

// NewTaillardRNG seeds the generator. Valid seeds are 1..2^31-2; Taillard's
// published seeds all lie in that range.
func NewTaillardRNG(seed int64) *TaillardRNG {
	return &TaillardRNG{seed: seed}
}

// Unif draws a uniform integer in [low, high], advancing the generator,
// exactly as Taillard's unif() procedure.
func (r *TaillardRNG) Unif(low, high int64) int64 {
	const (
		m = 2147483647
		a = 16807
		b = 127773
		c = 2836
	)
	k := r.seed / b
	r.seed = a*(r.seed%b) - k*c
	if r.seed < 0 {
		r.seed += m
	}
	u := float64(r.seed) / float64(m)
	return low + int64(u*float64(high-low+1))
}

// Taillard generates a flowshop instance with the given dimensions and time
// seed using Taillard's procedure: processing times are drawn uniformly in
// [1, 99], machine-major (for each machine, for each job), then stored
// job-major here.
func Taillard(jobs, machines int, timeSeed int64) *Instance {
	rng := NewTaillardRNG(timeSeed)
	proc := make([][]int64, jobs)
	for j := range proc {
		proc[j] = make([]int64, machines)
	}
	for m := 0; m < machines; m++ {
		for j := 0; j < jobs; j++ {
			proc[j][m] = rng.Unif(1, 99)
		}
	}
	return &Instance{
		Name:     fmt.Sprintf("taillard-%dx%d-seed%d", jobs, machines, timeSeed),
		Jobs:     jobs,
		Machines: machines,
		Proc:     proc,
	}
}

// taGroup describes one published benchmark group: ten instances sharing
// dimensions, with their time seeds in instance order.
type taGroup struct {
	jobs, machines int
	first          int // index of the group's first instance (1-based, "taNNN")
	seeds          [10]int64
}

// taGroups is Taillard's published time-seed table for the flowshop
// benchmark sets Ta001–Ta120. The paper's instance Ta056 is the sixth
// 50x20 instance, time seed 1923497586 (§5.1: "the sixth instance generated
// for problems of 50 jobs on 20 machines").
var taGroups = []taGroup{
	{20, 5, 1, [10]int64{873654221, 379008056, 1866992158, 216771124, 495070989, 402959317, 1369363414, 2021925980, 573109518, 88325120}},
	{20, 10, 11, [10]int64{587595453, 1401007982, 873136276, 268827376, 1634173168, 691823909, 73807235, 1273398721, 2065119309, 1672900551}},
	{20, 20, 21, [10]int64{479340445, 268827376, 1958948863, 918272953, 555010963, 2010851491, 1519833303, 1748670931, 1923497586, 1829909967}},
	{50, 5, 31, [10]int64{1328042058, 200382020, 496319842, 1203030903, 1730708564, 450926852, 1303135678, 1273398721, 587288402, 248421594}},
	{50, 10, 41, [10]int64{1958948863, 575633267, 655816003, 1977864101, 93805469, 1803345551, 49612559, 1899802599, 2013025619, 578962478}},
	{50, 20, 51, [10]int64{1539989115, 691823909, 655816003, 1315102446, 1949668355, 1923497586, 1805594913, 1861070898, 715643788, 464843328}},
	{100, 5, 61, [10]int64{896678084, 1179439976, 1122278347, 416756875, 267829958, 1835213917, 1328833962, 1418570761, 161033112, 304212574}},
	{100, 10, 71, [10]int64{1539989115, 655816003, 960914243, 1915696806, 2013025619, 1168140026, 1923497586, 167698528, 1528387973, 993794175}},
	{100, 20, 81, [10]int64{450926852, 1462772409, 1021685265, 83696007, 508154254, 1861070898, 26482542, 444956424, 2115448041, 118254244}},
	{200, 10, 91, [10]int64{471503978, 1215892992, 135346136, 1602504050, 160037322, 551454346, 519485142, 383947510, 1968171878, 540872513}},
	{200, 20, 101, [10]int64{2013025619, 475051709, 914834335, 810642687, 1019331795, 2056065863, 1342855162, 1325809384, 1988803007, 765656702}},
	{500, 20, 111, [10]int64{1368624604, 450181436, 1927888393, 1759567256, 606425239, 19268348, 1298201670, 2041736264, 379756761, 28837162}},
}

// TaillardNamed returns the published benchmark instance with the given name
// ("ta001" .. "ta120", case-insensitive, leading zeros optional).
func TaillardNamed(name string) (*Instance, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	n = strings.TrimPrefix(n, "ta")
	var idx int
	if _, err := fmt.Sscanf(n, "%d", &idx); err != nil {
		return nil, fmt.Errorf("flowshop: bad Taillard instance name %q", name)
	}
	return TaillardByIndex(idx)
}

// TaillardReduced returns the named published instance reduced to its
// first jobs jobs and machines machines, the command-line tools' instance
// flags (-instance, -reduce-jobs, -reduce-machines). Zero keeps that
// dimension whole; with both zero the instance is returned unreduced.
func TaillardReduced(name string, jobs, machines int) (*Instance, error) {
	ins, err := TaillardNamed(name)
	if err != nil || (jobs == 0 && machines == 0) {
		return ins, err
	}
	return ins.Reduced(cmp.Or(jobs, ins.Jobs), cmp.Or(machines, ins.Machines))
}

// TaillardByIndex returns published instance number idx (1..120).
func TaillardByIndex(idx int) (*Instance, error) {
	for _, g := range taGroups {
		if idx >= g.first && idx < g.first+10 {
			ins := Taillard(g.jobs, g.machines, g.seeds[idx-g.first])
			ins.Name = fmt.Sprintf("ta%03d", idx)
			return ins, nil
		}
	}
	return nil, fmt.Errorf("flowshop: Taillard instance index %d out of range [1,120]", idx)
}

// TaillardIndices lists the published instance indices in ascending order,
// for enumeration tools.
func TaillardIndices() []int {
	var out []int
	for _, g := range taGroups {
		for i := 0; i < 10; i++ {
			out = append(out, g.first+i)
		}
	}
	sort.Ints(out)
	return out
}

// Reduced returns a new instance keeping only the first `jobs` jobs and the
// first `machines` machines of ins. It is the scaling tool of this
// reproduction: exact resolution of Ta056 itself needs 22 CPU-years
// (paper Table 2), so experiments run on reduced prefixes of the very same
// published data, preserving its processing-time distribution.
func (ins *Instance) Reduced(jobs, machines int) (*Instance, error) {
	if jobs <= 0 || jobs > ins.Jobs || machines <= 0 || machines > ins.Machines {
		return nil, fmt.Errorf("flowshop: cannot reduce %s to %dx%d", ins, jobs, machines)
	}
	proc := make([][]int64, jobs)
	for j := 0; j < jobs; j++ {
		proc[j] = append([]int64(nil), ins.Proc[j][:machines]...)
	}
	return &Instance{
		Name:     fmt.Sprintf("%s-reduced-%dx%d", ins.Name, jobs, machines),
		Jobs:     jobs,
		Machines: machines,
		Proc:     proc,
	}, nil
}
