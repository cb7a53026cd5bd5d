package par

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEachIndexOnce runs For inline and fanned out, with more
// workers than items too, and checks every index is visited exactly once.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{0, 1, 3, 200} {
			hits := make([]int32, n)
			For(n, w, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}
