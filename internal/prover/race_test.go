//go:build race

package prover_test

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what it is given, so a decide sometimes lays out its scratch afresh.
const raceDetector = true
