//go:build !race

package explore

const raceDetector = false
