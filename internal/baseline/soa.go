package baseline

import (
	"time"

	"fmsa/internal/align"
	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
)

// SOAEligible reports whether the state-of-the-art technique can merge the
// pair at all (von Koch et al., LCTES'14, as characterized in §VI-A):
//
//   - equivalent function types: same number, order and types of
//     parameters, same return type;
//   - isomorphic CFGs: the reverse post-order traversals pair up blocks
//     with identical successor structure;
//   - corresponding basic blocks contain exactly the same number of
//     instructions;
//   - corresponding instructions have equivalent result types and operand
//     types.
//
// Fig. 1's pair fails the signature test and Fig. 2's the isomorphism test,
// exactly as the paper describes.
func SOAEligible(a, b *ir.Func) bool {
	if a.Sig() != b.Sig() || a.IsDecl() || b.IsDecl() {
		return false
	}
	sa := linearize.Linearize(a)
	sb := linearize.Linearize(b)
	if len(sa) != len(sb) {
		return false
	}
	// Lockstep correspondence: labels with labels (same landing status and
	// the implied same block lengths), instructions with matching shapes.
	bmap := map[*ir.Block]*ir.Block{}
	for i := range sa {
		if sa[i].IsLabel() != sb[i].IsLabel() {
			return false
		}
		if sa[i].IsLabel() {
			la, lb := sa[i].Block, sb[i].Block
			if la.IsLandingBlock() != lb.IsLandingBlock() {
				return false
			}
			if len(la.Insts) != len(lb.Insts) {
				return false
			}
			bmap[la] = lb
			continue
		}
		ia, ib := sa[i].Inst, sb[i].Inst
		if ia.Type() != ib.Type() || ia.NumOperands() != ib.NumOperands() {
			return false
		}
		if ia.IsTerminator() != ib.IsTerminator() {
			return false
		}
		// Terminators must agree exactly in opcode so the CFGs stay
		// isomorphic.
		if ia.IsTerminator() && ia.Op != ib.Op {
			return false
		}
		for k := 0; k < ia.NumOperands(); k++ {
			oa, ob := ia.Operand(k), ib.Operand(k)
			ba, isBA := oa.(*ir.Block)
			bb, isBB := ob.(*ir.Block)
			if isBA != isBB {
				return false
			}
			if isBA {
				if mapped, ok := bmap[ba]; ok && mapped != bb {
					return false
				}
				continue
			}
			if oa.Type() != ob.Type() {
				return false
			}
		}
	}
	return true
}

// lockstepAlign produces the alignment the SOA technique implies: position i
// pairs with position i (match when equivalent, gap-pair otherwise). It is
// only used for pairs that passed SOAEligible. Equal codes mean equivalent
// entries because the pair is two distinct phi-free functions (RunSOA
// demotes phis first), the encode contract's domain.
func lockstepAlign(a, b []uint32) []align.Step {
	n, m := len(a), len(b)
	if n != m {
		// Not lockstep-mergeable; an all-gap alignment makes the merge
		// maximally unprofitable and it will be discarded.
		return align.DecomposeMismatches(alignAllGaps(n, m))
	}
	steps := make([]align.Step, 0, n)
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			steps = append(steps, align.Step{Op: align.OpMatch, I: i, J: i})
		} else {
			steps = append(steps,
				align.Step{Op: align.OpGapA, I: i, J: -1},
				align.Step{Op: align.OpGapB, I: -1, J: i})
		}
	}
	return steps
}

func alignAllGaps(n, m int) []align.Step {
	steps := make([]align.Step, 0, n+m)
	for i := 0; i < n; i++ {
		steps = append(steps, align.Step{Op: align.OpGapA, I: i, J: -1})
	}
	for j := 0; j < m; j++ {
		steps = append(steps, align.Step{Op: align.OpGapB, I: -1, J: j})
	}
	return steps
}

// RunSOA applies the state-of-the-art technique to the whole module:
// bucket by signature, find structurally similar pairs, merge them with a
// lockstep correspondence, guarding differing instructions on a function
// identifier. Merged functions change signature and therefore never
// re-merge — the limitation the paper calls out (§VI-A).
func RunSOA(m *ir.Module, target tti.Target) *explore.Report {
	rep := &explore.Report{SizeBefore: tti.ModuleSize(target, m)}
	start := time.Now()
	passes.DemotePhisModule(m)

	mergeOpts := core.DefaultOptions()
	mergeOpts.Align = lockstepAlign
	mergeOpts.Interner = encode.NewInterner()
	mergeOpts.NamePrefix = "__soa_merged"
	mergeOpts.ReuseParams = true

	// Bucket by signature.
	buckets := map[*ir.Type][]*ir.Func{}
	var order []*ir.Type
	for _, f := range m.Funcs {
		if f.IsDecl() || f.Sig().Variadic {
			continue
		}
		if _, seen := buckets[f.Sig()]; !seen {
			order = append(order, f.Sig())
		}
		buckets[f.Sig()] = append(buckets[f.Sig()], f)
	}

	for _, sig := range order {
		bucket := buckets[sig]
		used := make([]bool, len(bucket))
		for i := 0; i < len(bucket); i++ {
			if used[i] {
				continue
			}
			for j := i + 1; j < len(bucket); j++ {
				if used[j] {
					continue
				}
				if !SOAEligible(bucket[i], bucket[j]) {
					continue
				}
				res, err := core.Merge(bucket[i], bucket[j], mergeOpts)
				rep.CandidatesEvaluated++
				if err != nil {
					continue
				}
				if profit := res.Profit(target); profit <= 0 {
					res.Discard()
					continue
				}
				profit := res.Profit(target)
				removed := res.Commit()
				rep.MergeOps++
				rep.FullyRemoved += removed
				rep.Records = append(rep.Records, explore.MergeRecord{
					Merged: res.Merged.Name(),
					F1:     bucket[i].Name(),
					F2:     bucket[j].Name(),
					Profit: profit,
				})
				used[i] = true
				used[j] = true
				break
			}
		}
	}

	rep.Phases.UpdateCalls = time.Since(start)
	rep.SizeAfter = tti.ModuleSize(target, m)
	return rep
}
