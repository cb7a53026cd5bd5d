package core

import (
	"reflect"
	"sync"
	"testing"

	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/passes"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// TestFloorMemoSyntheticSizes checks the memo's synthetic instruction sizes
// — the fixed func_id branch, select and ret, the arity-only calls and the
// call to each function — against instructions built per query, on and off
// a memo, per target, and that Drop forgets a function's call size.
func TestFloorMemoSyntheticSizes(t *testing.T) {
	m := ir.MustParseModule("adversarial", adversarialIR)
	for _, target := range boundTargets {
		memo := NewFuncMemo(target, linearize.OrderRPO, encode.NewInterner())
		var none *FuncMemo
		fresh := newSynthSizes(target)
		if fresh.condBr != target.InstSize(ir.NewInst(ir.OpBr, ir.Void(), nil, nil, nil)) ||
			fresh.sel != target.InstSize(ir.NewInst(ir.OpSelect, ir.Bool(), nil, nil, nil)) ||
			fresh.ret != target.InstSize(ir.NewInst(ir.OpRet, ir.Void())) {
			t.Errorf("%s: synthetic sizes %+v disagree with built instructions", target.Name(), fresh)
		}
		if memo.synthSizes(target) != fresh || none.synthSizes(target) != fresh {
			t.Errorf("%s: fixed sizes %+v (nil memo %+v), want %+v", target.Name(),
				memo.synthSizes(target), none.synthSizes(target), fresh)
		}
		for arity := range 8 {
			want := target.InstSize(ir.NewInst(ir.OpCall, ir.Void(), make([]ir.Value, arity+1)...))
			for range 2 {
				if got := memo.arityCallSize(target, arity); got != want {
					t.Errorf("%s: arity-%d call size %d, want %d", target.Name(), arity, got, want)
				}
			}
			if got := none.arityCallSize(target, arity); got != want {
				t.Errorf("%s: nil memo: arity-%d call size %d, want %d", target.Name(), arity, got, want)
			}
		}
		for _, f := range m.Funcs {
			want := directCallSize(target, f)
			e, _ := memo.lookup(f)
			for range 2 {
				if got := e.callSize(target); got != want {
					t.Errorf("%s: call to %s size %d, want %d", target.Name(), f.Name(), got, want)
				}
			}
			memo.Drop(f)
			if again, hit := memo.lookup(f); hit || again.call.v.Load() != 0 {
				t.Errorf("%s: Drop kept the call size of %s", target.Name(), f.Name())
			}
		}
	}
}

// memoCorpus returns the modules TestFuncMemoMatchesDirect sweeps: the
// branch-floor fixtures (candidates and anchors of every shape), the
// adversarial bound fixtures and one generated SPEC-like corpus, all
// φ-demoted as exploration leaves them.
func memoCorpus(t *testing.T) []*ir.Module {
	t.Helper()
	mods := []*ir.Module{
		ir.MustParseModule("cfgfloor", cfgFloorIR),
		ir.MustParseModule("adversarial", adversarialIR),
	}
	for _, p := range workload.SPECLike() {
		if p.Name == "433.milc" {
			mods = append(mods, workload.Build(p))
		}
	}
	if len(mods) != 3 {
		t.Fatal("433.milc profile missing")
	}
	for _, m := range mods {
		passes.DemotePhisModule(m)
	}
	return mods
}

// directCallSize measures a call to f on t without a memo.
func directCallSize(t tti.Target, f *ir.Func) int {
	call := syntheticCall(f)
	defer call.Detach()
	return t.InstSize(call)
}

// checkEntry compares every field of f's memo entry with its direct
// computation. Codes are compared up to renaming, through one bijection
// per module (fwd, back), so the check also covers code equality across
// entries; interners number classes in first-seen order.
func checkEntry(t *testing.T, memo *FuncMemo, target tti.Target, f *ir.Func,
	direct *encode.Interner, fwd, back map[uint32]uint32) {
	t.Helper()
	e, _ := memo.lookup(f)
	seq := linearize.LinearizeOrder(f, linearize.OrderRPO)
	want := direct.Encode(seq)
	if !reflect.DeepEqual(e.enc.Seq, seq) || len(e.enc.Codes) != len(want.Codes) {
		t.Fatalf("%s: memo sequence differs from a fresh linearization", f.Name())
	}
	for i, c := range e.enc.Codes {
		d := want.Codes[i]
		if x, ok := fwd[c]; ok && x != d {
			t.Fatalf("%s: entry %d has code %d, which elsewhere maps to %d, not %d", f.Name(), i, c, x, d)
		}
		if x, ok := back[d]; ok && x != c {
			t.Fatalf("%s: entry %d: direct code %d already maps from %d, not %d", f.Name(), i, d, x, c)
		}
		fwd[c], back[d] = d, c
	}
	for range 2 { // the first call fills, the second serves the fill
		if got, want := e.funcSize(target), tti.FuncSize(target, f); got != want {
			t.Errorf("%s: FuncSize %d, direct %d", f.Name(), got, want)
		}
		if got, want := memo.FuncSize(target, f), tti.FuncSize(target, f); got != want {
			t.Errorf("%s: memo FuncSize %d, direct %d", f.Name(), got, want)
		}
		if got, want := e.callSize(target), directCallSize(target, f); got != want {
			t.Errorf("%s: call size %d, direct %d", f.Name(), got, want)
		}
		if got, want := e.brFloors(), buildBrFloors(seq); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: floors %+v, direct %+v", f.Name(), got, want)
		}
	}
}

// TestFuncMemoMatchesDirect checks that every field of a memo entry equals
// its direct computation — codes, FuncSize, call size and branch floors —
// for every function of the corpus, on both targets, as does the nil memo's
// FuncSize. It then pins the
// drop-only contract: a lookup after the body changes still serves the
// cached values, and the first lookup after Drop re-measures. Concurrent
// lookups give -race the fill paths to check.
func TestFuncMemoMatchesDirect(t *testing.T) {
	for _, target := range boundTargets {
		t.Run(target.Name(), func(t *testing.T) {
			memo := NewFuncMemo(target, linearize.OrderRPO, encode.NewInterner())
			var none *FuncMemo
			mods := memoCorpus(t)
			var funcs []*ir.Func
			for _, m := range mods {
				direct := encode.NewInterner()
				fwd, back := map[uint32]uint32{}, map[uint32]uint32{}
				for _, f := range m.Funcs {
					if f.IsDecl() {
						continue
					}
					funcs = append(funcs, f)
					checkEntry(t, memo, target, f, direct, fwd, back)
					if got, want := none.FuncSize(target, f), tti.FuncSize(target, f); got != want {
						t.Errorf("nil memo: %s FuncSize %d, direct %d", f.Name(), got, want)
					}
				}
			}

			// Refill from scratch: every entry is created by racing misses
			// and every lazy field filled by racing lookups.
			for _, f := range funcs {
				memo.Drop(f)
			}
			var wg sync.WaitGroup
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, f := range funcs {
						e, _ := memo.lookup(f)
						if e.funcSize(target) != tti.FuncSize(target, f) ||
							e.callSize(target) != directCallSize(target, f) ||
							e.brFloors() == nil {
							t.Errorf("%s: concurrent lookup disagrees with direct", f.Name())
							return
						}
					}
				}()
			}
			wg.Wait()

			// Drop-only invalidation: grow one function of the fixtures,
			// changing its size, codes and floors.
			g := mods[0].FuncByName("diamond")
			e, _ := memo.lookup(g)
			before, floors := e.funcSize(target), e.brFloors()
			call := e.callSize(target)
			entry := g.Blocks[0]
			entry.InsertBefore(ir.NewInst(ir.OpAdd, ir.I32(), g.Params[0], g.Params[0]), entry.Terminator())
			if again, hit := memo.lookup(g); !hit || again != e ||
				again.funcSize(target) != before || again.brFloors() != floors || again.callSize(target) != call {
				t.Fatal("a lookup after mutation re-measured instead of serving the cached entry")
			}
			memo.Drop(g)
			after, hit := memo.lookup(g)
			if hit || after.size.v.Load() != 0 || after.call.v.Load() != 0 || after.floors.Load() != nil {
				t.Fatal("the first lookup after Drop served filled values")
			}
			if after.funcSize(target) <= before {
				t.Errorf("post-Drop size %d, want > %d", after.funcSize(target), before)
			}
			checkEntry(t, memo, target, g, encode.NewInterner(), map[uint32]uint32{}, map[uint32]uint32{})
		})
	}
}
