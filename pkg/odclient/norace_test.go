//go:build !race

package odclient

const raceDetector = false
