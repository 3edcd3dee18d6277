package gridsim

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/bb"
	"repro/internal/flowshop"
)

func TestPaperScaleTrial(t *testing.T) {
	if os.Getenv("GRIDSIM_PAPER_SCALE") == "" {
		t.Skip("set GRIDSIM_PAPER_SCALE=1 to run the paper-scale replay, about 6 s on a 2-CPU box (cmd/gridsim runs it on demand)")
	}
	ins := flowshop.Taillard(14, 8, 5) // the primed run below explores 285,217 nodes
	factory := func() bb.Problem {
		return flowshop.NewProblem(ins, flowshop.BoundOneMachine, flowshop.PairsAll)
	}
	m := DefaultAvailability()
	rate := CalibrateRate(Table1Pool(), m, 750_000, 25*86400)
	seq, _ := bb.Solve(factory(), bb.Infinity)
	cfg := Config{
		Pool:                 Table1Pool(),
		Availability:         m,
		Seed:                 1,
		TickSeconds:          60,
		NodesPerGHzPerSecond: rate,
		MaxTicks:             80000,
		InitialUpper:         seq.Cost + 1, // run-2 protocol: primed one above the optimum
	}
	res, err := New(cfg, factory).Run()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("finished=%v ticks=%d joins=%d leaves=%d crashes=%d\n", res.Finished, res.Ticks, res.Joins, res.Leaves, res.Crashes)
	fmt.Println(res.Table2.RenderComparison())
	avg, max := TraceStats(res.Trace)
	fmt.Printf("trace avg=%.0f max=%d\n", avg, max)
}
