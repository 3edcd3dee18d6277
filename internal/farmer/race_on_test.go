//go:build race

package farmer

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates differently: the allocation guard skips itself.
const raceEnabled = true
