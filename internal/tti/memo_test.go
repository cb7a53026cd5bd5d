package tti_test

// The per-function cost memo lives in core.FuncMemo, which also caches the
// facts the merger needs besides the code size; core imports tti, so these
// tests of its FuncSize contract against the direct cost model sit in an
// external test package.

import (
	"sync"
	"testing"

	"fmsa/internal/core"
	"fmsa/internal/encode"
	"fmsa/internal/ir"
	"fmsa/internal/linearize"
	"fmsa/internal/tti"
)

const memoSrc = `
define i64 @g(i64 %a) {
entry:
  %s = add i64 %a, 1
  %q = mul i64 %s, 3
  ret i64 %q
}

define void @h(i64 %a) {
entry:
  %r = call i64 @g(i64 %a)
  ret void
}
`

func parseMemoSrc(t *testing.T) *ir.Module {
	t.Helper()
	m, err := ir.ParseModule("t", memoSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newMemo(tgt tti.Target) *core.FuncMemo {
	return core.NewFuncMemo(tgt, linearize.OrderRPO, encode.NewInterner())
}

func TestCostMemoMatchesDirect(t *testing.T) {
	m := parseMemoSrc(t)
	for _, tgt := range tti.Targets() {
		memo := newMemo(tgt)
		for _, f := range m.Funcs {
			want := tti.FuncSize(tgt, f)
			if got := memo.FuncSize(tgt, f); got != want {
				t.Errorf("%s/%s: memo miss = %d, direct = %d", tgt.Name(), f.Name(), got, want)
			}
			if got := memo.FuncSize(tgt, f); got != want {
				t.Errorf("%s/%s: memo hit = %d, direct = %d", tgt.Name(), f.Name(), got, want)
			}
		}
	}
}

// TestCostMemoDropInvalidates is the drop-only invalidation contract: a
// stale entry survives mutation until Drop, and the next lookup after Drop
// re-measures the changed body.
func TestCostMemoDropInvalidates(t *testing.T) {
	m := parseMemoSrc(t)
	g := m.FuncByName("g")
	tgt := tti.X86{}
	memo := newMemo(tgt)
	before := memo.FuncSize(tgt, g)

	// Mutate g: append an instruction to the entry block.
	entry := g.Blocks[0]
	ret := entry.Insts[len(entry.Insts)-1]
	entry.InsertBefore(ir.NewInst(ir.OpAdd, ir.I64(), g.Params[0], g.Params[0]), ret)
	if got := memo.FuncSize(tgt, g); got != before {
		t.Fatalf("pre-Drop lookup re-measured: %d, want cached %d", got, before)
	}
	memo.Drop(g)
	after := memo.FuncSize(tgt, g)
	if after <= before {
		t.Fatalf("post-Drop size = %d, want > %d", after, before)
	}
	if want := tti.FuncSize(tgt, g); after != want {
		t.Fatalf("post-Drop size = %d, direct = %d", after, want)
	}
}

// TestCostMemoNilSafe checks the nil receiver computes directly, so an
// optional memo can be threaded through unconditionally.
func TestCostMemoNilSafe(t *testing.T) {
	m := parseMemoSrc(t)
	g := m.FuncByName("g")
	var memo *core.FuncMemo
	if got, want := memo.FuncSize(tti.X86{}, g), tti.FuncSize(tti.X86{}, g); got != want {
		t.Errorf("nil memo FuncSize = %d, want %d", got, want)
	}
	memo.Drop(g) // must not panic
}

// TestCostMemoConcurrentLookups races many lookups across functions, one
// memo per target (run under -race): all must agree with the direct
// computation.
func TestCostMemoConcurrentLookups(t *testing.T) {
	m := parseMemoSrc(t)
	targets := tti.Targets()
	memos := make([]*core.FuncMemo, len(targets))
	for i, tgt := range targets {
		memos[i] = newMemo(tgt)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for j, tgt := range targets {
					for _, f := range m.Funcs {
						if got, want := memos[j].FuncSize(tgt, f), tti.FuncSize(tgt, f); got != want {
							t.Errorf("%s/%s: concurrent lookup = %d, want %d", tgt.Name(), f.Name(), got, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
