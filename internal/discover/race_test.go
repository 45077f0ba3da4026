//go:build race

package discover

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what it is given: a run re-allocates rank-sort scratch it would reuse.
const raceDetector = true
