package align

import "sync"

// Whole-module exploration runs thousands of merge attempts, and every
// attempt allocates dynamic-programming scratch proportional to the product
// (or sum) of the sequence lengths. The pool below recycles the bit-parallel
// kernel's scratch across attempts — and across the goroutines of a parallel
// evaluation wave.
//
// Pooled buffers come back dirty: the kernel explicitly writes every cell it
// will later read instead of relying on make() zeroing.
var bitPool sync.Pool // *bitScratch

// getBitScratch returns pooled bit-parallel scratch with arbitrary contents.
func getBitScratch() *bitScratch {
	if s, ok := bitPool.Get().(*bitScratch); ok {
		return s
	}
	return new(bitScratch)
}

// putBitScratch recycles scratch obtained from getBitScratch.
func putBitScratch(s *bitScratch) {
	bitPool.Put(s)
}

// resize returns s resliced to length n, reallocated when too small; the
// contents are arbitrary.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
