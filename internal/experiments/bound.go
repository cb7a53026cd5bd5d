package experiments

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// BoundCheckResult summarizes one corpus of the profitability-bound
// differential check, serialized as a JSON line by cmd/fmsa-bench -exp bound.
type BoundCheckResult struct {
	Corpus string `json:"corpus"`
	// MergeOps is the (identical) number of merges both pipelines commit.
	MergeOps int `json:"merge_ops"`
	// BoundEvals and CodegenSkips come from the pruning run: how many bound
	// evaluations ran and how many skipped code generation.
	BoundEvals   int64 `json:"bound_evals"`
	CodegenSkips int64 `json:"codegen_skips"`
	// AuditedPairs counts candidate pairs where the audit run compared the
	// bound against the exact profit (pairs where bounding bails on the
	// constant-branch hazard are not comparable and not counted).
	AuditedPairs int64 `json:"audited_pairs"`
	// Inadmissible counts audited pairs whose exact profit exceeded the
	// bound — each one is a pair pruning could wrongly discard. Must be 0.
	Inadmissible int64 `json:"inadmissible"`
	// LoosePairs counts audited pairs the bound failed to prune: bound
	// above the pruning threshold (0) while the exact profit is not. Each
	// one paid for code generation a tighter bound could have skipped.
	LoosePairs int64 `json:"loose_pairs"`
	// MaxSlack is the largest bound − exact profit over audited pairs.
	MaxSlack int64 `json:"max_slack"`
	// Match reports bit-identical records and final module text between the
	// bounding and non-bounding pipelines.
	Match bool `json:"match"`
	// Detail names the first divergence when Match is false.
	Detail string `json:"detail,omitempty"`
}

// BoundCrossCheck is the executable form of the PR 5 admissibility guarantee.
// Every corpus runs through three identically built modules:
//
//  1. the reference pipeline with bounding disabled,
//  2. the default pipeline with pre-codegen pruning on, and
//  3. an audit pipeline where every usable bound is checked against the
//     exact cost model on the materialized merged function.
//
// Runs 1 and 2 must commit bit-identical merge records and final modules —
// pruning may only skip pairs the exact model rejects — and run 3 must find
// zero inadmissible bounds (exact profit > bound). An inadmissible bound, a
// decision divergence or a module-text difference all surface here. Returns
// an error naming the first diverging corpus.
func BoundCrossCheck(profiles []workload.Profile, target tti.Target, threshold, workers int) ([]BoundCheckResult, error) {
	var out []BoundCheckResult
	var firstErr error
	for _, p := range profiles {
		runOne := func(noBound bool, audit func(f1, f2 *ir.Func, bound, exact int)) (*explore.Report, string) {
			m := workload.Build(p)
			opts := explore.DefaultOptions()
			opts.Threshold = threshold
			opts.Target = target
			opts.Workers = workers
			opts.NoBound = noBound
			opts.Merge.BoundAudit = audit
			rep := explore.Run(m, opts)
			return rep, ir.FormatModule(m)
		}

		ref, refMod := runOne(true, nil)
		got, gotMod := runOne(false, nil)

		var pairs, inadmissible, loose, maxSlack atomic.Int64
		runOne(false, func(f1, f2 *ir.Func, bound, exact int) {
			pairs.Add(1)
			if exact > bound {
				inadmissible.Add(1)
			}
			if bound > 0 && exact <= 0 {
				loose.Add(1)
			}
			for slack := int64(bound - exact); ; {
				cur := maxSlack.Load()
				if slack <= cur || maxSlack.CompareAndSwap(cur, slack) {
					break
				}
			}
		})

		r := BoundCheckResult{
			Corpus:       p.Name,
			MergeOps:     got.MergeOps,
			BoundEvals:   got.BoundEvals,
			CodegenSkips: got.CodegenSkips,
			AuditedPairs: pairs.Load(),
			Inadmissible: inadmissible.Load(),
			LoosePairs:   loose.Load(),
			MaxSlack:     maxSlack.Load(),
			Match:        true,
		}
		switch {
		case r.Inadmissible > 0:
			r.Match, r.Detail = false,
				fmt.Sprintf("%d/%d audited pairs have exact profit above the bound", r.Inadmissible, r.AuditedPairs)
		case !reflect.DeepEqual(ref.Records, got.Records):
			r.Match, r.Detail = false, "merge records diverge"
		case ref.SizeAfter != got.SizeAfter:
			r.Match, r.Detail = false,
				fmt.Sprintf("final size diverges: nobound %d, bound %d", ref.SizeAfter, got.SizeAfter)
		case refMod != gotMod:
			r.Match, r.Detail = false, "final module text diverges"
		}
		if !r.Match && firstErr == nil {
			firstErr = fmt.Errorf("bound cross-check failed on %s: %s", p.Name, r.Detail)
		}
		out = append(out, r)
	}
	return out, firstErr
}
