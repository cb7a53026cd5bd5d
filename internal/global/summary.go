package global

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/wire"
)

// workerCount resolves a Workers knob.
func workerCount(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n) on up to w goroutines,
// claiming work from an atomic counter so uneven item costs balance.
func parallelFor(n, w int, fn func(int)) {
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
	parallelFor(len(slots), workerCount(workers), func(i int) {
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
