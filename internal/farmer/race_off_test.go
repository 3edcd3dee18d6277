//go:build !race

package farmer

// raceEnabled: see race_on_test.go.
const raceEnabled = false
