//go:build !race

package prover_test

const raceDetector = false
