//go:build !race

package align

const raceDetector = false
