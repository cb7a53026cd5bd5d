//go:build race

package explore

// raceDetector reports a -race build. Tests that run only single-threaded
// code skip under it: the detector cannot find a race there, and
// scripts/check.sh runs them without -race in their own gates.
const raceDetector = true
