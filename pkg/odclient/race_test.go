//go:build race

package odclient

// raceDetector reports a -race build, under which sync.Pool drops a quarter
// of what it is given, so pooled buffers are sometimes allocated afresh.
const raceDetector = true
