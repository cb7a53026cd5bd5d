//go:build race

package align

// raceDetector reports a -race build. Allocation-bound tests skip under
// it: the race runtime drops a share of sync.Pool puts on purpose, so a
// pooled kernel allocates more than it does in a normal build.
const raceDetector = true
