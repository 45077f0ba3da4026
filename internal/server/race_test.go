//go:build race

package server

// raceDetector reports a -race build, under which a sync.Pool — encoding/json
// keeps one of encoder state — drops a quarter of what it is given, so that
// state is sometimes allocated afresh.
const raceDetector = true
