// Package fingerprint implements the lightweight function summaries used by
// the ranking infrastructure (paper §IV): a map of instruction opcodes to
// their frequency plus the multiset of types manipulated by the function.
// Comparing two fingerprints yields an optimistic upper bound on how well
// the functions could merge, cheap enough to evaluate for every pair.
package fingerprint

import (
	"sort"

	"fmsa/internal/ir"
)

// Fingerprint summarizes one function for similarity ranking.
type Fingerprint struct {
	// OpFreq maps each opcode to its occurrence count.
	OpFreq [ir.NumOpcodes]int32
	// TypeFreq holds (type, count) pairs sorted by type identity for
	// linear-merge comparison.
	TypeFreq []TypeCount
	// Total is the instruction count: the sum of OpFreq.
	Total int32
	// nz holds, in its first nnz bytes, the opcodes whose OpFreq entry is
	// non-zero in ascending order — the sparse walk of upperBoundOps.
	// IndexOps builds it.
	nz  [ir.NumOpcodes]uint8
	nnz uint8
}

// Every opcode must fit a byte of nz.
var _ [256 - ir.NumOpcodes]struct{}

// TypeCount is one entry of the type-frequency table.
type TypeCount struct {
	Type *ir.Type
	// Key is Type.String(), computed once at fingerprint construction: the
	// table is sorted and merged by textual key, never by pointer identity,
	// so distinct Type pointers with the same spelling still match.
	Key   string
	Count int32
}

// Compute builds the fingerprint of a function definition.
func Compute(f *ir.Func) *Fingerprint {
	fp := &Fingerprint{}
	types := map[*ir.Type]int32{}
	f.Insts(func(in *ir.Inst) {
		fp.OpFreq[in.Op]++
		fp.Total++
		t := in.Type()
		if in.Op == ir.OpAlloca {
			t = in.Alloc
		}
		if !t.IsVoid() {
			types[t]++
		}
	})
	fp.IndexOps()
	fp.TypeFreq = make([]TypeCount, 0, len(types))
	for t, c := range types {
		fp.TypeFreq = append(fp.TypeFreq, TypeCount{Type: t, Key: t.String(), Count: c})
	}
	sort.Slice(fp.TypeFreq, func(i, j int) bool {
		return fp.TypeFreq[i].Key < fp.TypeFreq[j].Key
	})
	return fp
}

// IndexOps rebuilds the sparse opcode index from OpFreq. Compute calls it;
// code that fills OpFreq by hand (a decoder, a test) must call it before the
// fingerprint is compared, and must keep Total equal to the sum of OpFreq.
func (fp *Fingerprint) IndexOps() {
	fp.nnz = 0
	for k, c := range fp.OpFreq {
		if c != 0 {
			fp.nz[fp.nnz] = uint8(k)
			fp.nnz++
		}
	}
}

// upperBoundOps computes UB(f1, f2, Opcodes):
//
//	Σ min(freq(k,f1), freq(k,f2)) / Σ (freq(k,f1) + freq(k,f2))
//
// the best-case merge ratio if every same-opcode instruction pair matched.
// An opcode absent from either side adds 0 to the numerator, so the sum
// walks only the sparser side's non-zero opcodes, and the denominator is
// Total_1 + Total_2 — the same integers as the dense sum, so the same float.
func upperBoundOps(a, b *Fingerprint) float64 {
	totSum := a.Total + b.Total
	if totSum == 0 {
		return 0
	}
	if b.nnz < a.nnz {
		a, b = b, a
	}
	var minSum int32
	for _, k := range a.nz[:a.nnz] {
		minSum += min(a.OpFreq[k], b.OpFreq[k])
	}
	return float64(minSum) / float64(totSum)
}

// upperBoundTypes computes UB(f1, f2, Types), the type-based best case.
func upperBoundTypes(a, b *Fingerprint) float64 {
	var minSum, totSum int32
	i, j := 0, 0
	for i < len(a.TypeFreq) && j < len(b.TypeFreq) {
		ta, tb := a.TypeFreq[i], b.TypeFreq[j]
		switch {
		case ta.Key == tb.Key:
			if ta.Count < tb.Count {
				minSum += ta.Count
			} else {
				minSum += tb.Count
			}
			totSum += ta.Count + tb.Count
			i++
			j++
		case ta.Key < tb.Key:
			totSum += ta.Count
			i++
		default:
			totSum += tb.Count
			j++
		}
	}
	for ; i < len(a.TypeFreq); i++ {
		totSum += a.TypeFreq[i].Count
	}
	for ; j < len(b.TypeFreq); j++ {
		totSum += b.TypeFreq[j].Count
	}
	if totSum == 0 {
		return 0
	}
	return float64(minSum) / float64(totSum)
}

// Similarity returns s(f1, f2) = min(UB_opcodes, UB_types), a value in
// [0, 0.5]; identical functions score exactly 0.5 (paper §IV).
func Similarity(a, b *Fingerprint) float64 {
	return SimilarityFloor(a, b, 0)
}

// SimilarityFloor is Similarity for callers that only act on scores
// reaching floor: when the opcode bound alone falls below floor it is
// returned without merging the type tables (the dominant cost — a sorted
// string-keyed merge against the opcode pass's fixed array). The result
// then still bounds Similarity from above and still sits below floor, so
// any comparison against floor — or anything larger — is unchanged.
func SimilarityFloor(a, b *Fingerprint, floor float64) float64 {
	ops := upperBoundOps(a, b)
	if ops < floor {
		return ops
	}
	tys := upperBoundTypes(a, b)
	if tys < ops {
		return tys
	}
	return ops
}

// SimilarityUpperBound returns the size-ratio bound on Similarity(a, b):
// every per-key minimum is capped by the smaller instruction count, so
// s(a, b) ≤ min(Total_a, Total_b) / (Total_a + Total_b). The bound needs two
// integer reads, making it a cheap alignment-avoidance prefilter: when it
// already falls below a similarity floor the exact score cannot pass either.
func SimilarityUpperBound(a, b *Fingerprint) float64 {
	return SimilarityUpperBoundSized(a, b.Total)
}

// SimilarityUpperBoundSized is SimilarityUpperBound against a function
// known only by its instruction count — the identical arithmetic, so the
// two are interchangeable. Scans keep candidate counts in a dense array and
// avoid touching the candidate's fingerprint until the bound passes.
func SimilarityUpperBoundSized(a *Fingerprint, tb int32) float64 {
	tot := a.Total + tb
	if tot == 0 {
		return 0
	}
	return float64(min(a.Total, tb)) / float64(tot)
}
