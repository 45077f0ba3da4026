//go:build race

package discover

// raceDetector reports a -race build, whose instrumentation multiplies the
// memory a test's largest lattices take.
const raceDetector = true
