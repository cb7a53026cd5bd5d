// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the synthetic workload suites: code-size reduction
// (Fig. 10/11, Tables I/II), rank-position CDF (Fig. 8), compile-time
// overhead and breakdown (Fig. 12/13), runtime impact with and without
// profile-guided exclusion (Fig. 14), plus the ablations the paper
// mentions in passing (parameter merging, §III-E; alignment algorithm and
// linearization order, §VII).
package experiments

import (
	"fmt"

	"fmsa/internal/align"
	"fmsa/internal/baseline"
	"fmsa/internal/core"
	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
)

// Technique is one of the compared merging techniques. Run mutates the
// module and reports what happened.
type Technique struct {
	Name string
	Run  func(m *ir.Module, target tti.Target) *explore.Report
}

// Identical is LLVM's identical-function merging.
func Identical() Technique {
	return Technique{
		Name: "Identical",
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			return baseline.RunIdentical(m, target)
		},
	}
}

// SOA is the state of the art, run after Identical per the paper's §V-A
// protocol.
func SOA() Technique {
	return Technique{
		Name: "SOA",
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			rep := baseline.RunIdentical(m, target)
			rep.Add(baseline.RunSOA(m, target))
			return rep
		},
	}
}

// FMSA is the paper's technique at the given exploration threshold, run
// after Identical per the §V-A protocol.
func FMSA(threshold int) Technique {
	return Technique{
		Name: fmt.Sprintf("FMSA[t=%d]", threshold),
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			rep := baseline.RunIdentical(m, target)
			opts := explore.DefaultOptions()
			opts.Threshold = threshold
			opts.Target = target
			rep.Add(explore.Run(m, opts))
			return rep
		},
	}
}

// FMSAOracle is the exhaustive-exploration upper bound, approximated above
// 64 candidates per function (exact below — see explore.Options.OracleCap).
func FMSAOracle() Technique {
	return Technique{
		Name: "FMSA[oracle]",
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			rep := baseline.RunIdentical(m, target)
			opts := explore.DefaultOptions()
			opts.Oracle = true
			opts.OracleCap = 64
			opts.Target = target
			rep.Add(explore.Run(m, opts))
			return rep
		},
	}
}

// FMSAHotAware is FMSA with profile-guided exclusion of functions hotter
// than maxHotness (§V-D).
func FMSAHotAware(threshold int, maxHotness uint64) Technique {
	return Technique{
		Name: fmt.Sprintf("FMSA[t=%d,cold]", threshold),
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			rep := baseline.RunIdentical(m, target)
			opts := explore.DefaultOptions()
			opts.Threshold = threshold
			opts.Target = target
			opts.MaxHotness = maxHotness
			rep.Add(explore.Run(m, opts))
			return rep
		},
	}
}

// FMSAVariant builds an FMSA technique with custom merge options, used by
// the ablation experiments.
func FMSAVariant(name string, threshold int, mutate func(*core.Options)) Technique {
	return Technique{
		Name: name,
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			rep := baseline.RunIdentical(m, target)
			opts := explore.DefaultOptions()
			opts.Threshold = threshold
			opts.Target = target
			mutate(&opts.Merge)
			rep.Add(explore.Run(m, opts))
			return rep
		},
	}
}

// Fig10Techniques returns the six configurations of Fig. 10/11.
func Fig10Techniques() []Technique {
	return []Technique{
		Identical(), SOA(), FMSA(1), FMSA(5), FMSA(10), FMSAOracle(),
	}
}

// AblationTechniques returns the design-choice ablations: parameter reuse
// off (§III-E's "up to 7%" claim), Hirschberg alignment, Smith-Waterman-
// style local alignment is excluded (it does not produce total alignments),
// and the two alternative linearization orders (§III-B).
func AblationTechniques() []Technique {
	return []Technique{
		FMSA(1),
		FMSAVariant("FMSA[no-param-reuse]", 1, func(o *core.Options) { o.ReuseParams = false }),
		FMSAVariant("FMSA[hirschberg]", 1, func(o *core.Options) {
			o.Align = align.HirschbergCodes
		}),
		FMSAVariant("FMSA[affine-gap]", 1, func(o *core.Options) {
			o.Align = align.GotohAlignerCodes
		}),
		FMSAVariant("FMSA[banded-32]", 1, func(o *core.Options) {
			o.Align = align.BandedAlignerCodes(32)
		}),
		FMSAVariant("FMSA[order=dfs]", 1, func(o *core.Options) { o.Order = linearize.OrderDFS }),
		FMSAVariant("FMSA[order=layout]", 1, func(o *core.Options) { o.Order = linearize.OrderLayout }),
		FMSACanonOrder(1),
	}
}

// FMSACanonOrder canonicalizes intra-block instruction order module-wide
// before merging — the instruction-reordering extension the paper proposes
// as future work (§VII) to maximize alignment matches.
func FMSACanonOrder(threshold int) Technique {
	return Technique{
		Name: "FMSA[canon-order]",
		Run: func(m *ir.Module, target tti.Target) *explore.Report {
			passes.CanonicalizeOrderModule(m)
			return FMSA(threshold).Run(m, target)
		},
	}
}
