package ir_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fmsa/internal/interp"
	"fmsa/internal/ir"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

func buildSplitFixture(t *testing.T, seed int64) *ir.Module {
	t.Helper()
	p := workload.Profile{
		Name: "split", NumFuncs: 12, AvgSize: 20, MaxSize: 60,
		Identical: 0.2, TypeVar: 0.1, InternalFrac: 0.6, Seed: seed,
	}
	return workload.Build(p)
}

func runMain(t *testing.T, m *ir.Module) uint64 {
	t.Helper()
	mc := interp.NewMachine(m)
	workload.RegisterIntrinsics(mc)
	v, err := mc.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSplitLinkRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		want := runMain(t, buildSplitFixture(t, 5))

		src := buildSplitFixture(t, 5)
		units, err := ir.SplitModule(src, n)
		if err != nil {
			t.Fatalf("split(%d): %v", n, err)
		}
		if len(units) != n {
			t.Fatalf("units = %d, want %d", len(units), n)
		}
		for _, u := range units {
			if err := ir.VerifyModule(u); err != nil {
				t.Fatalf("split(%d) unit invalid: %v\n%s", n, err, ir.FormatModule(u))
			}
		}
		// Units must be independently parseable (real translation units).
		for _, u := range units {
			text := ir.FormatModule(u)
			if _, err := ir.ParseModule(u.Name, text); err != nil {
				t.Fatalf("split(%d) unit unparseable: %v", n, err)
			}
		}

		linked, err := ir.LinkModules("relinked", units...)
		if err != nil {
			t.Fatalf("link after split(%d): %v", n, err)
		}
		if err := ir.VerifyModule(linked); err != nil {
			t.Fatalf("relinked invalid: %v", err)
		}
		if got := runMain(t, linked); got != want {
			t.Fatalf("split(%d)+link changed semantics: %d vs %d", n, got, want)
		}
	}
}

func TestSplitDistributesFunctions(t *testing.T) {
	src := buildSplitFixture(t, 6)
	defs := len(src.Definitions())
	units, err := ir.SplitModule(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, u := range units {
		d := len(u.Definitions())
		total += d
		if k > 0 && u.FuncByName("main") != nil && !u.FuncByName("main").IsDecl() {
			t.Error("main must live in unit 0")
		}
	}
	if total != defs {
		t.Errorf("definitions across units = %d, want %d", total, defs)
	}
}

// topLevelChunks cuts a printed module into its top-level declarations and
// definitions so tests can permute the input order.
func topLevelChunks(text string) []string {
	var chunks []string
	var cur []string
	inBody := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case inBody:
			cur = append(cur, line)
			if line == "}" {
				chunks = append(chunks, strings.Join(cur, "\n"))
				cur, inBody = nil, false
			}
		case strings.HasPrefix(line, "define"):
			cur, inBody = []string{line}, true
		case strings.HasPrefix(line, "declare"):
			chunks = append(chunks, line)
		}
	}
	return chunks
}

// TestSplitPermutationInvariant pins the shard-determinism prerequisite:
// unit assignment and unit-internal order follow symbol names, so feeding
// the same definitions in a different order must split into textually
// identical units.
func TestSplitPermutationInvariant(t *testing.T) {
	src := buildSplitFixture(t, 9)
	text := ir.FormatModule(src)
	chunks := topLevelChunks(text)
	if len(chunks) < 3 {
		t.Fatalf("fixture too small to permute: %d chunks", len(chunks))
	}
	// Reversal permutes every position; rotation catches off-by-one
	// round-robin dependence on the first element.
	perms := map[string][]string{
		"reversed": nil,
		"rotated":  nil,
	}
	rev := make([]string, len(chunks))
	for i, c := range chunks {
		rev[len(chunks)-1-i] = c
	}
	perms["reversed"] = rev
	perms["rotated"] = append(append([]string(nil), chunks[len(chunks)/2:]...), chunks[:len(chunks)/2]...)

	for _, n := range []int{2, 4} {
		base, err := ir.SplitModule(buildSplitFixture(t, 9), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"reversed", "rotated"} {
			perm, err := ir.ParseModule(src.Name, strings.Join(perms[name], "\n")+"\n")
			if err != nil {
				t.Fatalf("%s: reparse: %v", name, err)
			}
			got, err := ir.SplitModule(perm, n)
			if err != nil {
				t.Fatalf("%s: split: %v", name, err)
			}
			for k := range base {
				want := ir.FormatModule(base[k])
				have := ir.FormatModule(got[k])
				if want != have {
					t.Fatalf("split(%d) unit %d differs under %s input order:\n--- original\n%s\n--- permuted\n%s",
						n, k, name, want, have)
				}
			}
		}
	}
}

// TestSplitRelinkShardCounts drives split→relink at the shard counts the
// global pipeline uses, checking full-level verifier cleanliness at every
// boundary, unchanged semantics, and that a second split→relink round
// reproduces the first round's printed module exactly.
func TestSplitRelinkShardCounts(t *testing.T) {
	profiles := []workload.Profile{
		{Name: "split", NumFuncs: 12, AvgSize: 20, MaxSize: 60,
			Identical: 0.2, TypeVar: 0.1, InternalFrac: 0.6, Seed: 5},
		workload.UnscaledSmall()[0], // 429.mcf
	}
	for _, p := range profiles {
		want := runMain(t, workload.Build(p))
		for _, n := range []int{1, 2, 4, 8} {
			units, err := ir.SplitModule(workload.Build(p), n)
			if err != nil {
				t.Fatalf("%s split(%d): %v", p.Name, n, err)
			}
			for _, u := range units {
				if diags := ir.VerifyModuleLevel(u, ir.VerifyFull); len(diags) > 0 {
					t.Fatalf("%s split(%d) unit %s: %v", p.Name, n, u.Name, diags[0])
				}
			}
			linked, err := ir.LinkModules("relinked", units...)
			if err != nil {
				t.Fatalf("%s link(%d): %v", p.Name, n, err)
			}
			if diags := ir.VerifyModuleLevel(linked, ir.VerifyFull); len(diags) > 0 {
				t.Fatalf("%s relinked(%d): %v", p.Name, n, diags[0])
			}
			if got := runMain(t, linked); got != want {
				t.Fatalf("%s split(%d)+link changed semantics: %d vs %d", p.Name, n, got, want)
			}
			text1 := ir.FormatModule(linked)

			// Idempotency: the relinked module splits and relinks to itself.
			units2, err := ir.SplitModule(linked, n)
			if err != nil {
				t.Fatalf("%s resplit(%d): %v", p.Name, n, err)
			}
			linked2, err := ir.LinkModules("relinked", units2...)
			if err != nil {
				t.Fatalf("%s relink(%d): %v", p.Name, n, err)
			}
			if text2 := ir.FormatModule(linked2); text1 != text2 {
				t.Fatalf("%s split(%d)+link not idempotent", p.Name, n)
			}
		}
	}
}

func TestSplitRejectsGlobals(t *testing.T) {
	m := ir.MustParseModule("g", `
@g = global i64 zeroinitializer

define void @f() {
entry:
  ret void
}
`)
	if _, err := ir.SplitModule(m, 2); err == nil {
		t.Error("modules with globals must be rejected")
	}
}

// referenceSplit is the per-function-copy SplitModule that the shared
// per-unit value map replaced: every cloned body gets a fresh copy of the
// unit's function map, and unused declarations are removed one at a time.
// It is quadratic in the function count and kept only as the oracle for
// TestSplitModuleMatchesReference.
func referenceSplit(m *ir.Module, n int) []*ir.Module {
	sorted := append([]*ir.Func(nil), m.Funcs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name() < sorted[j].Name() })
	unitOf := map[*ir.Func]int{}
	next := 0
	for _, f := range sorted {
		if f.IsDecl() {
			continue
		}
		if f.Name() == "main" {
			unitOf[f] = 0
			continue
		}
		unitOf[f] = next % n
		next++
	}
	for _, f := range m.Funcs {
		if f.IsDecl() || f.Linkage != ir.InternalLinkage {
			continue
		}
		for _, u := range f.Uses() {
			if unitOf[u.User.Parent().Parent()] != unitOf[f] {
				f.Linkage = ir.ExternalLinkage
				break
			}
		}
	}
	units := make([]*ir.Module, n)
	for k := range units {
		unit := ir.NewModule(fmt.Sprintf("%s.unit%d", m.Name, k))
		units[k] = unit
		locals := make([]*ir.Func, len(sorted)) // base map: sorted[i] -> locals[i]
		for i, f := range sorted {
			local := ir.NewFunc(f.Name(), f.Sig())
			if !f.IsDecl() && unitOf[f] == k {
				local.Linkage = f.Linkage
				local.Hotness = f.Hotness
			} else {
				local.Linkage = ir.ExternalLinkage
			}
			unit.AddFunc(local)
			locals[i] = local
		}
		vmap := map[ir.Value]ir.Value{}
		for fi, f := range sorted {
			if f.IsDecl() || unitOf[f] != k {
				continue
			}
			dst := locals[fi]
			// A fresh copy of the base map per body (recycling the storage).
			clear(vmap)
			for j, g := range sorted {
				vmap[g] = locals[j]
			}
			for i, p := range f.Params {
				dst.Params[i].SetName(p.Name())
				vmap[p] = dst.Params[i]
			}
			ir.CloneBody(f, dst, vmap)
		}
		for _, f := range append([]*ir.Func(nil), unit.Funcs...) {
			if f.IsDecl() && f.NumUses() == 0 {
				unit.RemoveFunc(f)
			}
		}
	}
	return units
}

// permuteBodies moves every definition but @main to another symbol slot,
// the way perfbench lays out a held-out seed: each body takes another
// name, and so another unit, and another position in the module.
func permuteBodies(m *ir.Module, seed int64) *ir.Module {
	var slots []int
	for i, f := range m.Funcs {
		if !f.IsDecl() && f.Name() != "main" {
			slots = append(slots, i)
		}
	}
	defs := make([]*ir.Func, len(slots))
	names := make([]string, len(slots))
	for k, i := range slots {
		defs[k], names[k] = m.Funcs[i], m.Funcs[i].Name()
		defs[k].SetName(fmt.Sprintf("permuted.%d", k)) // free every name first
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(defs))
	for k, f := range defs {
		f.SetName(names[perm[k]])
		m.Funcs[slots[perm[k]]] = f
	}
	return m
}

// TestSplitModuleMatchesReference pins the shared per-unit value map:
// SplitModule must produce units byte-identical — in fmir and in text — to
// the per-function-copy reference on every SPEC-like profile, and on one
// corpus with its bodies permuted among the symbol slots.
func TestSplitModuleMatchesReference(t *testing.T) {
	var corpora []*ir.Module
	for _, p := range workload.SPECLike() {
		corpora = append(corpora, workload.Build(p))
	}
	permuted := permuteBodies(workload.Build(workload.SPECLike()[8]), 23)
	permuted.Name += "-permuted"
	corpora = append(corpora, permuted)

	for _, m := range corpora {
		// Splitting mutates its source only by promoting linkage, so one
		// module serves every split once the linkage is restored.
		linkage := map[*ir.Func]ir.Linkage{}
		for _, f := range m.Funcs {
			linkage[f] = f.Linkage
		}
		restore := func() {
			for f, l := range linkage {
				f.Linkage = l
			}
		}
		for _, n := range []int{1, 3, 4, 8} {
			restore()
			got, err := ir.SplitModule(m, n)
			if err != nil {
				t.Fatalf("%s split(%d): %v", m.Name, n, err)
			}
			restore()
			want := referenceSplit(m, n)
			for k := range want {
				gb, err := wire.Encode(got[k])
				if err != nil {
					t.Fatal(err)
				}
				wb, err := wire.Encode(want[k])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s split(%d) unit %d: fmir differs from the reference", m.Name, n, k)
				}
				if ir.FormatModule(got[k]) != ir.FormatModule(want[k]) {
					t.Fatalf("%s split(%d) unit %d: text differs from the reference", m.Name, n, k)
				}
			}
		}
	}
}

// TestSplitModuleAllocLinear guards splitting's linear cost: doubling the
// function count must not much more than double the bytes SplitModule
// allocates. The per-function map copy it replaced grew ×3.5 here.
func TestSplitModuleAllocLinear(t *testing.T) {
	allocs := func(funcs int) uint64 {
		m := workload.Build(workload.Profile{
			Name: "alloclin", NumFuncs: funcs, AvgSize: 10, MaxSize: 30,
			Identical: 0.1, TypeVar: 0.1, InternalFrac: 0.6, Seed: 3,
		})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := ir.SplitModule(m, 4); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocs(500), allocs(1000)
	if ratio := float64(large) / float64(small); ratio >= 2.5 {
		t.Errorf("SplitModule allocated %d bytes at 500 functions and %d at 1000 (×%.2f, want < 2.5)",
			small, large, ratio)
	}
}
