package align

import "sync"

// Whole-module exploration runs thousands of merge attempts, and every
// attempt allocates dynamic-programming scratch proportional to the product
// (or sum) of the sequence lengths. The pools below recycle that scratch
// across attempts — and across the goroutines of a parallel evaluation wave.
//
// Pooled buffers come back dirty: each algorithm explicitly writes every
// cell it will later read (see the border initializations in the DP loops)
// instead of relying on make() zeroing.
var (
	i32Pool  sync.Pool // *[]int32
	bytePool sync.Pool // *[]byte
	bitPool  sync.Pool // *bitScratch
)

// getInt32 returns an int32 scratch slice of length n with arbitrary
// contents.
func getInt32(n int) []int32 {
	if p, ok := i32Pool.Get().(*[]int32); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int32, n)
}

// putInt32 recycles a slice obtained from getInt32.
func putInt32(s []int32) {
	if cap(s) == 0 {
		return
	}
	i32Pool.Put(&s)
}

// getBytes returns a byte scratch slice of length n with arbitrary contents.
func getBytes(n int) []byte {
	if p, ok := bytePool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// putBytes recycles a slice obtained from getBytes.
func putBytes(s []byte) {
	if cap(s) == 0 {
		return
	}
	bytePool.Put(&s)
}

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
