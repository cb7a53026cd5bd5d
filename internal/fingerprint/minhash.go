package fingerprint

// MinHash signatures for locality-sensitive candidate search. A function's
// signature summarizes its (opcode, type) shingle multiset: each instruction
// contributes one shingle keyed by its opcode and result type (alloca uses
// the allocated type), and repeated shingles contribute once per occurrence,
// so the expected fraction of equal lanes between two signatures estimates
// the weighted Jaccard index J = Σmin/Σmax of the two multisets. J is a
// monotone transform of the paper's similarity score restricted to joint
// (opcode, type) keys — s = J/(1+J) when the bounds coincide — so functions
// that rank highly under Similarity collide in many lanes.
//
// Determinism rules: lane seeds are fixed constants expanded from one
// splitmix64 chain, and type identity enters through the textual type key,
// never a pointer value. Signatures are therefore identical across runs,
// processes and worker counts, which the exploration pipeline's
// Workers-invariance requires.

import (
	"fmsa/internal/ir"
)

// SigLanes is the number of MinHash lanes in a Signature. More lanes sharpen
// the Jaccard estimate and give the banded index (internal/lsh) more
// bands/rows combinations to trade precision against recall.
const SigLanes = 128

// Signature is the fixed-width MinHash summary of one function.
type Signature [SigLanes]uint64

// minhashSeed roots the lane seed chain. Changing it changes every
// signature; it exists only to decorrelate lanes from the shingle hashes.
const minhashSeed = 0x66735f6d696e6821 // "fs_minh!"

var laneMul, laneXor [SigLanes]uint64

func init() {
	s := uint64(minhashSeed)
	for i := 0; i < SigLanes; i++ {
		s, laneMul[i] = splitmix64(s)
		laneMul[i] |= 1 // multiplicative constants must be odd
		s, laneXor[i] = splitmix64(s)
	}
}

// splitmix64 advances the seed and returns the next pseudo-random word
// (Steele, Lea, Flood — the generator java.util.SplittableRandom uses).
func splitmix64(seed uint64) (next, out uint64) {
	seed += 0x9e3779b97f4a7c15
	z := seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return seed, z ^ (z >> 31)
}

// mix64 finalizes one word to a well-distributed hash.
func mix64(x uint64) uint64 {
	_, out := splitmix64(x)
	return out
}

// hashString hashes a type key to 64 bits (FNV-1a), deterministically across
// processes.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// ComputeSignature builds the MinHash signature of a function definition.
// The cost is O(instructions × SigLanes); signatures are only computed when
// LSH ranking is enabled.
func ComputeSignature(f *ir.Func) *Signature {
	sig := &Signature{}
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	// Occurrence counters realize the multiset: the c-th copy of a shingle
	// hashes to its own element, so multiplicities shape the estimate.
	occ := make(map[uint64]uint64, 64)
	typeHash := make(map[*ir.Type]uint64, 16)
	f.Insts(func(in *ir.Inst) {
		t := in.Type()
		if in.Op == ir.OpAlloca {
			t = in.Alloc
		}
		th, ok := typeHash[t]
		if !ok {
			th = hashString(t.String())
			typeHash[t] = th
		}
		base := mix64(uint64(in.Op)*0x9e3779b97f4a7c15 ^ th)
		n := occ[base]
		occ[base] = n + 1
		elem := mix64(base ^ (n+1)*0xbf58476d1ce4e5b9)
		for lane := 0; lane < SigLanes; lane++ {
			h := (elem ^ laneXor[lane]) * laneMul[lane]
			h ^= h >> 33
			if h < sig[lane] {
				sig[lane] = h
			}
		}
	})
	return sig
}

// EstimateJaccard returns the fraction of equal lanes between two
// signatures, an unbiased estimate of the weighted Jaccard index of the two
// shingle multisets.
func EstimateJaccard(a, b *Signature) float64 {
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(SigLanes)
}
