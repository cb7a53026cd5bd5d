package global

import (
	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/par"
	"fmsa/internal/wire"
)

// Summarize is round 1: it computes one FuncSummary per definition across
// the units, fanning the per-function work (stable hash + MinHash
// signature) out over the worker pool. The result depends only on the
// units' contents and order — never on the worker count — because every
// slot is computed independently and written to its own index.
func Summarize(units []*ir.Module, workers int) []wire.TUSummary {
	type slot struct {
		tu int
		f  *ir.Func
	}
	var slots []slot
	tus := make([]wire.TUSummary, len(units))
	for t, u := range units {
		tus[t].Name = u.Name
		for _, f := range u.Funcs {
			if !f.IsDecl() {
				slots = append(slots, slot{t, f})
			}
		}
	}
	sums := make([]wire.FuncSummary, len(slots))
	par.For(len(slots), par.Workers(workers), func(i int) {
		sums[i] = summarizeFunc(slots[i].f)
	})
	for i, s := range slots {
		tus[s.tu].Funcs = append(tus[s.tu].Funcs, sums[i])
	}
	return tus
}

// summarizeFunc builds one definition's round-1 summary for Summarize: the
// stable structural hash, the MinHash signature, the size, and the
// linkage/usage flags the round-2 planner consults.
func summarizeFunc(f *ir.Func) wire.FuncSummary {
	hash, selfEq := StableHash(f)
	sig := fingerprint.ComputeSignature(f)
	fs := wire.FuncSummary{
		Name:    f.Name(),
		Linkage: f.Linkage,
		Size:    f.NumInsts(),
		Hash:    hash,
		MinHash: sig[:],
	}
	if selfEq {
		fs.Flags |= wire.SumSelfEq
	}
	if f.Sig().Variadic {
		fs.Flags |= wire.SumVariadic
	}
	f.Insts(func(in *ir.Inst) {
		for _, op := range in.Operands() {
			switch v := op.(type) {
			case *ir.Global:
				fs.Flags |= wire.SumUsesGlobals
			case *ir.Func:
				if v.Linkage == ir.InternalLinkage {
					fs.Flags |= wire.SumUsesInternal
				}
			}
		}
	})
	return fs
}
