package core

import (
	"fmsa/internal/ir"
	"fmsa/internal/tti"
)

// CallerStats is a snapshot of the caller-facing state of a function: how
// many direct call sites it has and whether its address escapes. The cost
// model only depends on these two numbers, so concurrent speculative merge
// attempts snapshot them once, before any attempt runs, instead of reading
// live use lists that other attempts are transiently growing and shrinking.
// That keeps Profit deterministic regardless of how many parallel attempts
// are in flight.
type CallerStats struct {
	// Callers counts direct call/invoke sites of the function.
	Callers int
	// AddressTaken reports whether the function's address escapes.
	AddressTaken bool
}

// SnapshotCallerStats captures f's caller statistics. Call it only while no
// concurrent merge attempt involving f's module is running (e.g. before
// fanning out a speculative evaluation wave).
func SnapshotCallerStats(f *ir.Func) CallerStats {
	return CallerStats{Callers: len(f.Callers()), AddressTaken: f.HasAddressTaken()}
}

// Profit evaluates the §IV-A cost model for a (not yet committed) merge:
//
//	Δ({f1,f2}, f1,2) = (c(f1) + c(f2)) − (c(f1,2) + ε)
//
// where c is the target-specific code-size cost and ε accumulates the extra
// costs δ(fk, f1,2) of keeping thunks or widening rewritten call sites. The
// merge is profitable when the returned Δ is positive.
func (r *Result) Profit(t tti.Target) int {
	return r.ProfitWithStats(t, SnapshotCallerStats(r.F1), SnapshotCallerStats(r.F2), nil)
}

// ProfitWithStats evaluates the cost model against pre-captured caller
// snapshots instead of the live use lists, making the result independent of
// concurrent speculative merges (see CallerStats). A non-nil memo, which must
// price on t, serves the input functions' sizes; the merged function is
// always sized directly — it is unique to this attempt, so memoizing it
// would only grow the memo. The result does not depend on the memo.
func (r *Result) ProfitWithStats(t tti.Target, s1, s2 CallerStats, memo *FuncMemo) int {
	before := memo.FuncSize(t, r.F1) + memo.FuncSize(t, r.F2)
	after := tti.FuncSize(t, r.Merged)
	eps := r.delta(t, r.F1, s1) + r.delta(t, r.F2, s2)
	return before - (after + eps)
}

// delta estimates δ(f, merged): the residual cost of redirecting f's callers
// to the merged function. If f can be deleted outright, the cost is the
// per-call-site growth from the widened argument list; otherwise it is the
// size of the thunk that must remain.
func (r *Result) delta(t tti.Target, f *ir.Func, s CallerStats) int {
	callSiteGrowth := r.callGrowth(t, f, s.Callers)
	if f.Linkage == ir.InternalLinkage && !s.AddressTaken {
		return callSiteGrowth
	}
	return r.thunkCost(t, f) + callSiteGrowth
}

// callGrowth estimates the summed per-call-site size increase when calls to
// f are rewritten to call the merged function.
func (r *Result) callGrowth(t tti.Target, f *ir.Func, callers int) int {
	if callers == 0 {
		return 0
	}
	oldCall := syntheticCall(f)
	newCall := syntheticCall(r.Merged)
	growth := t.InstSize(newCall) - t.InstSize(oldCall)
	oldCall.Detach()
	newCall.Detach()
	if growth < 0 {
		growth = 0
	}
	return growth * callers
}

// thunkCost estimates the size of the forwarding thunk left behind for f.
func (r *Result) thunkCost(t tti.Target, f *ir.Func) int {
	call := syntheticCall(r.Merged)
	cost := t.FuncOverhead() + t.InstSize(call)
	call.Detach()
	ret := ir.NewInst(ir.OpRet, ir.Void())
	cost += t.InstSize(ret)
	if f.ReturnType() != r.Merged.ReturnType() && !f.ReturnType().IsVoid() {
		// Unwrap conversion, roughly one cast.
		cast := ir.NewInst(ir.OpBitCast, f.ReturnType())
		cost += t.InstSize(cast)
	}
	return cost
}

// syntheticCall builds a detached call instruction with the right arity for
// size estimation. Callers must Detach it afterwards to release the use of
// callee.
func syntheticCall(callee *ir.Func) *ir.Inst {
	sig := callee.Sig()
	ops := make([]ir.Value, 0, len(sig.Fields)+1)
	ops = append(ops, callee)
	for _, pt := range sig.Fields {
		ops = append(ops, ir.NewUndef(pt))
	}
	return ir.NewInst(ir.OpCall, sig.Ret, ops...)
}
