// Package fmsa is a self-contained Go implementation of "Function Merging
// by Sequence Alignment" (Rocha, Petoumenos, Wang, Cole, Leather — CGO
// 2019): a code-size optimization that merges arbitrary pairs of similar
// functions — even with different signatures and control-flow graphs — by
// linearizing them, aligning the sequences with Needleman–Wunsch, and
// generating a combined function whose divergent regions are guarded by a
// function-identifier parameter.
//
// The package exposes the high-level surface:
//
//   - ParseModule / FormatModule: the textual IR the optimizer operates on;
//   - Merge: merge one pair of functions and inspect the result;
//   - Optimize: run a whole-module merging pipeline (the paper's Fig. 7
//     exploration framework, or one of the two baseline techniques);
//   - Verify and Interpret helpers for validating and executing modules.
//
// The underlying building blocks (IR, alignment, cost models, baselines,
// workload generators and experiment harnesses) live in internal/ packages;
// the cmd/ tools and examples/ programs demonstrate them end to end.
package fmsa

import (
	"fmt"

	"fmsa/internal/baseline"
	"fmsa/internal/core"
	"fmsa/internal/explore"
	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/passes"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
)

// Re-exported IR surface. These aliases make the optimizer usable without
// reaching into internal packages.
type (
	// Module is a translation unit of the textual IR.
	Module = ir.Module
	// Func is a function definition or declaration.
	Func = ir.Func
	// MergeResult describes one merged pair (see Merge).
	MergeResult = core.Result
	// Report summarizes a whole-module optimization run.
	Report = explore.Report
	// Machine executes modules (differential testing, profiling).
	Machine = interp.Machine
)

// ParseModule parses textual IR (see FormatModule for the syntax).
func ParseModule(name, src string) (*Module, error) {
	return ir.ParseModule(name, src)
}

// FormatModule renders a module in the textual IR format.
func FormatModule(m *Module) string { return ir.FormatModule(m) }

// Verify checks the module's structural and type invariants.
func Verify(m *Module) error { return ir.VerifyModule(m) }

// NewMachine builds an interpreter for the module.
func NewMachine(m *Module) *Machine { return interp.NewMachine(m) }

// Merge merges two functions by sequence alignment (paper §III) with
// default options and returns the uncommitted result. Call
// (*MergeResult).Profit to evaluate the cost model, (*MergeResult).Commit
// to install the merged function and rewrite callers, or
// (*MergeResult).Discard to abandon it. Inputs must be φ-free; use
// DemotePhis first if needed.
func Merge(f1, f2 *Func) (*MergeResult, error) {
	return core.Merge(f1, f2, core.DefaultOptions())
}

// DemotePhis rewrites φ-functions into memory operations, the pre-processing
// the merger requires (§III-A).
func DemotePhis(m *Module) { passes.DemotePhisModule(m) }

// Technique selects a whole-module merging strategy for Optimize.
type Technique string

// Techniques accepted by Optimize.
const (
	// TechniqueIdentical folds structurally identical functions (LLVM's
	// MergeFunctions).
	TechniqueIdentical Technique = "identical"
	// TechniqueSOA is the LCTES'14 state of the art: identical signatures
	// and isomorphic CFGs only, run after identical folding.
	TechniqueSOA Technique = "soa"
	// TechniqueFMSA is the paper's contribution, run after identical
	// folding.
	TechniqueFMSA Technique = "fmsa"
)

// Options configures Optimize. The zero value selects FMSA with the
// paper's defaults (threshold 1, Intel-like target).
type Options struct {
	// Technique selects the merging strategy (default TechniqueFMSA).
	Technique Technique
	// Threshold is FMSA's exploration threshold t (default 1).
	Threshold int
	// Target names the code-size cost model: "x86-64" (default) or
	// "thumb".
	Target string
	// Oracle replaces ranking with exhaustive exploration.
	Oracle bool
	// MaxHotness, when positive, excludes functions with a higher profile
	// weight from merging (profile-guided mode, §V-D).
	MaxHotness uint64
	// Workers bounds the goroutines used by FMSA's exploration pipeline
	// (fingerprinting, ranking, speculative candidate evaluation). Zero
	// uses all available cores; one runs fully serial. The optimized
	// module and the report are identical for every value.
	Workers int
	// Ranking selects FMSA's candidate ranking: "" or "exact" (the paper's
	// quadratic pool scan), or "lsh" (a sub-quadratic banded MinHash index;
	// deterministic across Workers, though its rankings may differ from
	// exact where the index misses a candidate). Small modules fall back to
	// the exact scan.
	Ranking string
	// Audit selects merge auditing: "" or "off" (none, the default),
	// "committed" (statically audit every committed merge and record
	// diagnostics in the report), or "deep" (additionally escalate flagged
	// merges to differential execution and reject confirmed miscompiles).
	// Only TechniqueFMSA audits; the baselines have no merge bodies to
	// check.
	Audit string
	// Verify selects the opt-in IR verification gates inside FMSA's
	// exploration pipeline: "" or "off" (none, the default), "fast"
	// (structural checks on every committed merge and the final module), or
	// "full" (additionally types, phi/pred correspondence, dominance and
	// use-list consistency). Verification is recording-only — findings land
	// in Report.VerifyDiags and never change merge decisions. Only
	// TechniqueFMSA verifies.
	Verify string
	// Store, when non-nil, backs the run with a persistent similarity
	// database (internal/simdb): fingerprints and MinHash signatures of
	// unchanged functions are reused from the store instead of recomputed,
	// merge attempts an earlier run priced unprofitable under the same
	// options are skipped (see explore.SessionConfig.Store), and this run's
	// state is written back for the next one. Results are bit-identical
	// with or without a store. Only TechniqueFMSA uses it,
	// and not in Oracle mode (the exploration runs as a one-shot
	// explore.Session, which rejects oracle exploration).
	Store *simdb.Store
}

// Optimize runs a whole-module function-merging pipeline in place and
// reports what happened.
func Optimize(m *Module, opts Options) (*Report, error) {
	target := tti.ByName(opts.Target)
	if opts.Target == "" {
		target = tti.X86{}
	}
	if target == nil {
		return nil, fmt.Errorf("fmsa: unknown target %q", opts.Target)
	}
	switch opts.Technique {
	case TechniqueIdentical:
		return baseline.RunIdentical(m, target), nil
	case TechniqueSOA:
		rep := baseline.RunIdentical(m, target)
		rep.Add(baseline.RunSOA(m, target))
		return rep, nil
	case TechniqueFMSA, "":
		audit, err := explore.ParseAuditMode(opts.Audit)
		if err != nil {
			return nil, fmt.Errorf("fmsa: %w", err)
		}
		ranking, err := explore.ParseRankingMode(opts.Ranking)
		if err != nil {
			return nil, fmt.Errorf("fmsa: %w", err)
		}
		verify, err := ir.ParseVerifyLevel(opts.Verify)
		if err != nil {
			return nil, fmt.Errorf("fmsa: %w", err)
		}
		rep := baseline.RunIdentical(m, target)
		eopts := explore.DefaultOptions()
		eopts.Target = target
		if opts.Threshold > 0 {
			eopts.Threshold = opts.Threshold
		}
		eopts.Oracle = opts.Oracle
		eopts.MaxHotness = opts.MaxHotness
		eopts.Workers = opts.Workers
		eopts.Audit = audit
		eopts.Ranking = ranking
		eopts.Verify = verify
		if opts.Store != nil {
			sess, err := explore.NewSession(explore.SessionConfig{
				Explore: eopts, Store: opts.Store,
			})
			if err != nil {
				return nil, fmt.Errorf("fmsa: %w", err)
			}
			srep, _, err := sess.Submit(m)
			if err != nil {
				return nil, fmt.Errorf("fmsa: %w", err)
			}
			rep.Add(srep)
			return rep, nil
		}
		rep.Add(explore.Run(m, eopts))
		return rep, nil
	default:
		return nil, fmt.Errorf("fmsa: unknown technique %q", opts.Technique)
	}
}

// ModuleSize estimates the module's object-code size in bytes under the
// named target's cost model.
func ModuleSize(m *Module, targetName string) (int, error) {
	target := tti.ByName(targetName)
	if targetName == "" {
		target = tti.X86{}
	}
	if target == nil {
		return 0, fmt.Errorf("fmsa: unknown target %q", targetName)
	}
	return tti.ModuleSize(target, m), nil
}
