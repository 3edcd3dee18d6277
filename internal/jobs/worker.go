// The multi-job worker: one process, one protocol endpoint, many trees. It
// is worker.Session built over a job-id resolver — the session asks an
// untagged RequestWork ("give me whichever job is starved"), learns the job
// from the reply tag, keeps one engine per job it has ever served, and
// echoes the tag on folds and solution reports, which is what keeps the
// coordinator-side tables disjoint.
package jobs

import (
	"repro/internal/bb"
	"repro/internal/transport"
	"repro/internal/worker"
)

// Factories resolves a job id to that job's problem constructor. A worker
// can only explore trees it can rebuild locally; an assignment for an
// unresolvable job is a configuration error, surfaced as such.
type Factories func(jobID string) (func() bb.Problem, bool)

// SpecFactories adapts a static id→Spec catalogue (what a submission API
// hands out) into a Factories resolver.
func SpecFactories(specs map[string]Spec) Factories {
	return func(jobID string) (func() bb.Problem, bool) {
		s, ok := specs[jobID]
		if !ok {
			return nil, false
		}
		f, err := s.Factory()
		if err != nil {
			return nil, false
		}
		return f, true
	}
}

// WorkerSession, WorkerConfig and NewWorkerSession are the names the frozen
// bench/tenants.go spells for worker.Session, worker.Config and
// worker.NewMultiJobSession; nothing else may use them (ROADMAP item 3).
type (
	WorkerSession = worker.Session
	WorkerConfig  = worker.Config
)

// NewWorkerSession is worker.NewMultiJobSession under its bench name.
func NewWorkerSession(cfg WorkerConfig, coord transport.Coordinator, factories Factories) *WorkerSession {
	return worker.NewMultiJobSession(cfg, coord, factories)
}
