//go:build race

package server

// raceDetector reports whether the test binary is race-instrumented.
const raceDetector = true
