//go:build !race

package discover

const raceDetector = false
