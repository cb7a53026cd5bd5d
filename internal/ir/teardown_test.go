package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sharedBodies builds n functions whose bodies interleave uses of one shared
// callee and one shared global (built round-robin, so every body's entries
// sit in the middle of both shared use lists), call each other and
// themselves, and use one entry-block alloca many times. The construction is
// deterministic: two calls build structurally identical twins.
func sharedBodies(n, rounds int) (*Module, []*Func, []*Inst) {
	m := NewModule("teardown")
	g := m.NewGlobalIn("g", I32())
	callee := m.NewFuncIn("callee", FuncOf(I32(), I32()))
	fs := make([]*Func, n)
	bds := make([]*Builder, n)
	slots := make([]*Inst, n)
	for i := range fs {
		fs[i] = m.NewFuncIn(fmt.Sprintf("f%d", i), FuncOf(I32(), I32()))
		bds[i] = NewBuilder(fs[i].NewBlockIn("entry"))
		slots[i] = bds[i].Alloca(I32())
	}
	for r := 0; r < rounds; r++ {
		for i, bd := range bds {
			v := bd.Load(g)
			c := bd.Call(callee, bd.Add(v, fs[i].Params[0]))
			bd.Store(c, slots[i])
			if r%3 == 0 {
				bd.Store(c, g)
			}
			if r%4 == 1 {
				bd.Call(fs[(i+1)%n], v)
			}
			if r%5 == 2 {
				bd.Call(fs[i], c)
			}
		}
	}
	for i, bd := range bds {
		exit := fs[i].NewBlockIn("exit")
		bd.Br(exit)
		bd.SetBlock(exit)
		bd.Ret(bd.Load(slots[i]))
	}
	return m, fs, slots
}

// useKey renders a use position-independently of object identity, so use
// lists of twin modules can be compared.
func useKey(u Use) string {
	b := u.User.parent
	if b == nil || b.parent == nil {
		return fmt.Sprintf("detached:%d", u.Index)
	}
	f := b.parent
	for bi, x := range f.Blocks {
		if x != b {
			continue
		}
		for ii, in := range b.Insts {
			if in == u.User {
				return fmt.Sprintf("%s:%d:%d:%d", f.name, bi, ii, u.Index)
			}
		}
	}
	return fmt.Sprintf("%s:?:%d", f.name, u.Index)
}

// allUseLists renders the use list of every definition in m — globals,
// functions, and each body's parameters, blocks and instructions — in
// module order.
func allUseLists(m *Module) []string {
	var out []string
	add := func(name string, uses []Use) {
		keys := make([]string, len(uses))
		for i, u := range uses {
			keys[i] = useKey(u)
		}
		out = append(out, name+" <- "+strings.Join(keys, " "))
	}
	for _, g := range m.Globals {
		add("@"+g.name, g.Uses())
	}
	for _, f := range m.Funcs {
		add("@"+f.name, f.Uses())
		for _, p := range f.Params {
			add(fmt.Sprintf("%s.arg%d", f.name, p.Index), p.Uses())
		}
		for bi, b := range f.Blocks {
			add(fmt.Sprintf("%s.bb%d", f.name, bi), b.Uses())
			for ii, in := range b.Insts {
				add(fmt.Sprintf("%s.%d.%d", f.name, bi, ii), in.Uses())
			}
		}
	}
	return out
}

// localDefs lists the parameters, blocks and instructions of f's body.
func localDefs(f *Func) []userTracked {
	var defs []userTracked
	for _, p := range f.Params {
		defs = append(defs, p)
	}
	for _, b := range f.Blocks {
		defs = append(defs, b)
		for _, in := range b.Insts {
			defs = append(defs, in)
		}
	}
	return defs
}

// TestDropBodyMatchesPerUseRemoval drops one body of several that share a
// callee, a global and each other, and checks that the linear teardown
// leaves every surviving use list exactly — in order — as the per-use,
// order-preserving removal leaves it on a twin module, that the dropped
// body's own definitions end up unused, and that the module verifies.
func TestDropBodyMatchesPerUseRemoval(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		m, fs, _ := sharedBodies(4, 40)
		ref, rfs, _ := sharedBodies(4, 40)
		if !reflect.DeepEqual(allUseLists(m), allUseLists(ref)) {
			t.Fatal("twin modules differ before teardown")
		}
		locals := localDefs(fs[victim])

		fs[victim].DropBody()
		// Reference: the per-use removal, one operand at a time.
		rf := rfs[victim]
		for _, b := range rf.Blocks {
			for _, in := range b.Insts {
				for i, v := range in.operands {
					if v != nil {
						untrackUse(v, Use{User: in, Index: i})
					}
				}
				in.operands = in.operands[:0]
			}
		}
		for _, b := range rf.Blocks {
			for _, in := range b.Insts {
				in.parent = nil
			}
			b.Insts, b.parent = nil, nil
		}
		rf.Blocks = nil

		got, want := allUseLists(m), allUseLists(ref)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i < len(want) && got[i] != want[i] {
					t.Fatalf("victim f%d: use list diverges:\n got  %s\n want %s", victim, got[i], want[i])
				}
			}
			t.Fatalf("victim f%d: use lists diverge", victim)
		}
		for _, d := range locals {
			if n := len(d.Uses()); n != 0 {
				t.Errorf("victim f%d: local definition %s keeps %d uses", victim, d.Ident(), n)
			}
		}
		if diags := VerifyModuleLevel(m, VerifyFull); len(diags) != 0 {
			t.Errorf("victim f%d: verifier findings after DropBody:\n%s", victim, FormatVerifyDiags(diags))
		}
	}
}

// TestRewriteUsesMatchesSetOperandLoop checks the bulk rewrite against the
// SetOperand loop it replaces on twin modules: a whole-list replacement of
// a shared global, a demotion-style rewrite that skips some uses and
// creates a fresh load per rewritten use, and a rewrite that points uses
// back at the value they came from.
func TestRewriteUsesMatchesSetOperandLoop(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *Module, fs []*Func, slots []*Inst, rewrite func(Value, func(Use) Value))
	}{
		{"replace-all-global", func(m *Module, fs []*Func, slots []*Inst, rewrite func(Value, func(Use) Value)) {
			g2 := m.NewGlobalIn("g2", I32())
			rewrite(m.GlobalByName("g"), func(Use) Value { return g2 })
		}},
		{"demote-param", func(m *Module, fs []*Func, slots []*Inst, rewrite func(Value, func(Use) Value)) {
			k := 0
			rewrite(fs[1].Params[0], func(u Use) Value {
				k++
				if k%3 == 0 {
					return nil
				}
				ld := NewInst(OpLoad, I32(), slots[1])
				u.User.parent.InsertBefore(ld, u.User)
				return ld
			})
		}},
		{"self-callee", func(m *Module, fs []*Func, slots []*Inst, rewrite func(Value, func(Use) Value)) {
			callee := m.FuncByName("callee")
			k := 0
			rewrite(callee, func(Use) Value {
				k++
				if k%2 == 0 {
					return nil
				}
				return callee
			})
		}},
	}
	for _, c := range cases {
		m, fs, slots := sharedBodies(3, 30)
		c.run(m, fs, slots, RewriteUses)
		ref, rfs, rslots := sharedBodies(3, 30)
		c.run(ref, rfs, rslots, func(old Value, to func(Use) Value) {
			for _, u := range append([]Use(nil), old.(userTracked).Uses()...) {
				if v := to(u); v != nil {
					u.User.SetOperand(u.Index, v)
				}
			}
		})
		got, want := allUseLists(m), allUseLists(ref)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i < len(want) && got[i] != want[i] {
					t.Fatalf("%s: use list diverges:\n got  %s\n want %s", c.name, got[i], want[i])
				}
			}
			t.Fatalf("%s: use lists diverge", c.name)
		}
		if FormatModule(m) != FormatModule(ref) {
			t.Errorf("%s: module text diverges", c.name)
		}
	}
}

// BenchmarkDropBody tears down a body whose entry alloca has n uses — the
// shape of a discarded trial merge of a large function. Teardown is linear:
// doubling n should roughly double ns/op (per-use removal was quadratic).
func BenchmarkDropBody(b *testing.B) {
	for _, n := range []int{10000, 20000} {
		b.Run(fmt.Sprintf("uses=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := NewFunc("big", FuncOf(Void()))
				bd := NewBuilder(f.NewBlockIn("entry"))
				slot := bd.Alloca(I32())
				zero := NewConstInt(I32(), 0)
				for j := 0; j < n; j++ {
					bd.Store(zero, slot)
				}
				bd.Ret(nil)
				b.StartTimer()
				f.DropBody()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/use")
		})
	}
}
