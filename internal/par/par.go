// Package par is the bounded fan-out that the pipeline's independent-item
// stages share: exploration's fingerprint, signature, ranking and session
// passes, global merging's summaries, per-unit passes and merge wave, and
// batched LSH probes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers knob: a positive value is used as is, anything
// else means every available core.
func Workers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) on up to w goroutines; w <= 1 runs
// the loop inline. Work is claimed from an atomic counter, so uneven item
// costs balance themselves. fn must be safe for concurrent invocation with
// distinct i.
func For(n, w int, fn func(int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
