//go:build race

package server

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what it is given, so pooled scratch is sometimes allocated afresh.
const raceDetector = true
