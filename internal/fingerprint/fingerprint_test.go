package fingerprint

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.ParseModule("fp", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIdenticalFunctionsScoreHalf(t *testing.T) {
	m := parse(t, `
define i32 @a(i32 %x) {
entry:
  %r = add i32 %x, 1
  %s = mul i32 %r, 2
  ret i32 %s
}

define i32 @b(i32 %x) {
entry:
  %r = add i32 %x, 5
  %s = mul i32 %r, 9
  ret i32 %s
}
`)
	fa := Compute(m.FuncByName("a"))
	fb := Compute(m.FuncByName("b"))
	if s := Similarity(fa, fb); s != 0.5 {
		t.Errorf("structurally identical functions score %v, want 0.5 (paper §IV)", s)
	}
	if s := Similarity(fa, fa); s != 0.5 {
		t.Errorf("self-similarity %v, want 0.5", s)
	}
}

func TestDisjointFunctionsScoreZero(t *testing.T) {
	m := parse(t, `
define i32 @ints(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define void @floats(f64 %x) {
entry:
  %r = fmul f64 %x, 2.0
  %s = fdiv f64 %r, 3.0
  %p = alloca f64
  store f64 %s, f64* %p
  ret void
}
`)
	fa := Compute(m.FuncByName("ints"))
	fb := Compute(m.FuncByName("floats"))
	s := Similarity(fa, fb)
	if s > 0.1 {
		t.Errorf("dissimilar functions score %v, want near 0", s)
	}
}

func TestSimilarityRange(t *testing.T) {
	// Property: 0 ≤ s ≤ 0.5 for arbitrary generated pairs, and s is
	// symmetric.
	f := func(seedA, seedB int64, szA, szB uint8) bool {
		m := ir.NewModule("q")
		fa := workload.Generate(m, workload.FuncSpec{
			Name: "a", Seed: seedA, Scalar: ir.I64(),
			NumParams: 2, Regions: int(szA%4) + 1, OpsPerBlock: int(szA%6) + 2,
		})
		fb := workload.Generate(m, workload.FuncSpec{
			Name: "b", Seed: seedB, Scalar: ir.F32(),
			NumParams: 1, Regions: int(szB%4) + 1, OpsPerBlock: int(szB%6) + 2,
		})
		pa, pb := Compute(fa), Compute(fb)
		s1 := Similarity(pa, pb)
		s2 := Similarity(pb, pa)
		return s1 >= 0 && s1 <= 0.5 && s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTypeUpperBoundRefinesOpcodeBound(t *testing.T) {
	// Same opcode histogram, disjoint types: the type bound must drag the
	// final score down (the refinement the paper motivates in §IV).
	m := parse(t, `
define i32 @ia(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %a, 2
  ret i32 %b
}

define i64 @ib(i64 %x) {
entry:
  %a = add i64 %x, 1
  %b = add i64 %a, 2
  ret i64 %b
}
`)
	fa := Compute(m.FuncByName("ia"))
	fb := Compute(m.FuncByName("ib"))
	if ops := upperBoundOps(fa, fb); ops != 0.5 {
		t.Errorf("opcode bound = %v, want 0.5", ops)
	}
	if tys := upperBoundTypes(fa, fb); tys != 0 {
		t.Errorf("type bound = %v, want 0", tys)
	}
	if s := Similarity(fa, fb); s != 0 {
		t.Errorf("similarity = %v, want 0 (min of the two bounds)", s)
	}
}

func TestFingerprintCounts(t *testing.T) {
	m := parse(t, `
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %a, 2
  %p = alloca i64
  ret i32 %b
}
`)
	fp := Compute(m.FuncByName("f"))
	if fp.Total != 4 {
		t.Errorf("Total = %d, want 4", fp.Total)
	}
	if fp.OpFreq[ir.OpAdd] != 2 || fp.OpFreq[ir.OpRet] != 1 || fp.OpFreq[ir.OpAlloca] != 1 {
		t.Errorf("opcode frequencies wrong: %v", fp.OpFreq)
	}
	// alloca contributes its allocated type (i64), adds contribute i32.
	var sawI64 bool
	for _, tc := range fp.TypeFreq {
		if tc.Type == ir.I64() {
			sawI64 = true
		}
	}
	if !sawI64 {
		t.Error("alloca's allocated type missing from type frequencies")
	}
}

func TestTypeMergeMatchesByKeyNotPointer(t *testing.T) {
	// Regression: two distinct *ir.Type pointers with the same textual form
	// must still match during the type-table merge. (The interner normally
	// guarantees pointer identity, but the merge must not depend on it: with
	// pointer comparison the pair fell into the mismatch branch and was never
	// counted, undercounting similarity.)
	ta := &ir.Type{Kind: ir.IntKind, Bits: 32}
	tb := &ir.Type{Kind: ir.IntKind, Bits: 32}
	if ta == tb || ta.String() != tb.String() {
		t.Fatalf("want distinct pointers with equal keys, got %p/%p %q/%q", ta, tb, ta, tb)
	}
	a := &Fingerprint{TypeFreq: []TypeCount{{Type: ta, Key: ta.String(), Count: 3}}}
	b := &Fingerprint{TypeFreq: []TypeCount{{Type: tb, Key: tb.String(), Count: 5}}}
	if got, want := upperBoundTypes(a, b), 3.0/8.0; got != want {
		t.Errorf("upperBoundTypes = %v, want %v (min 3 over total 8)", got, want)
	}
}

func TestComputePrecomputesSortedKeys(t *testing.T) {
	m := parse(t, `
define i64 @f(i32 %x, f64 %y) {
entry:
  %a = add i32 %x, 1
  %b = fadd f64 %y, 2.0
  %p = alloca [4 x i64]
  %c = zext i32 %a to i64
  ret i64 %c
}
`)
	fp := Compute(m.FuncByName("f"))
	for i, tc := range fp.TypeFreq {
		if tc.Key != tc.Type.String() {
			t.Errorf("entry %d: Key %q != Type.String() %q", i, tc.Key, tc.Type)
		}
		if i > 0 && fp.TypeFreq[i-1].Key >= tc.Key {
			t.Errorf("type table not strictly sorted by key: %q !< %q",
				fp.TypeFreq[i-1].Key, tc.Key)
		}
	}
}

func TestSimilarityUpperBoundDominatesSimilarity(t *testing.T) {
	f := func(seedA, seedB int64, szA, szB uint8) bool {
		m := ir.NewModule("ub")
		fa := workload.Generate(m, workload.FuncSpec{
			Name: "a", Seed: seedA, Scalar: ir.I32(),
			NumParams: 2, Regions: int(szA%4) + 1, OpsPerBlock: int(szA%6) + 2,
		})
		fb := workload.Generate(m, workload.FuncSpec{
			Name: "b", Seed: seedB, Scalar: ir.I64(),
			NumParams: 1, Regions: int(szB%4) + 1, OpsPerBlock: int(szB%6) + 2,
		})
		pa, pb := Compute(fa), Compute(fb)
		return SimilarityUpperBound(pa, pb) >= Similarity(pa, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimilarity(b *testing.B) {
	m := ir.NewModule("bench")
	fa := workload.Generate(m, workload.FuncSpec{
		Name: "a", Seed: 1, Scalar: ir.I64(), NumParams: 3, Regions: 6, OpsPerBlock: 10,
	})
	fb := workload.Generate(m, workload.FuncSpec{
		Name: "b", Seed: 2, Scalar: ir.F64(), NumParams: 2, Regions: 6, OpsPerBlock: 10,
	})
	pa, pb := Compute(fa), Compute(fb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Similarity(pa, pb)
	}
}

// denseUpperBoundOps is the opcode bound summed over every opcode, the
// form the sparse walk in upperBoundOps must reproduce bit for bit.
func denseUpperBoundOps(a, b *Fingerprint) float64 {
	var minSum, totSum int32
	for k := range a.OpFreq {
		minSum += min(a.OpFreq[k], b.OpFreq[k])
		totSum += a.OpFreq[k] + b.OpFreq[k]
	}
	if totSum == 0 {
		return 0
	}
	return float64(minSum) / float64(totSum)
}

// TestUpperBoundOpsSparseMatchesDense pits the sparse opcode bound against
// the dense sum on random histograms, from empty to every opcode present,
// and on fingerprints Compute builds.
func TestUpperBoundOpsSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func() *Fingerprint {
		fp := &Fingerprint{}
		density := rng.Intn(int(ir.NumOpcodes) + 1)
		for k := range fp.OpFreq {
			if rng.Intn(int(ir.NumOpcodes)) < density {
				fp.OpFreq[k] = int32(rng.Intn(50))
				fp.Total += fp.OpFreq[k]
			}
		}
		fp.IndexOps()
		return fp
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := random(), random()
		if got, want := upperBoundOps(a, b), denseUpperBoundOps(a, b); got != want {
			t.Fatalf("sparse bound %v, dense %v for %v vs %v", got, want, a.OpFreq, b.OpFreq)
		}
	}
	m := ir.NewModule("fp")
	var fps []*Fingerprint
	for i := 0; i < 12; i++ {
		f := workload.Generate(m, workload.FuncSpec{
			Name: "g" + string(rune('a'+i)), Seed: int64(i), Scalar: ir.I32(),
			NumParams: 1 + i%3, Regions: 1 + i%4, OpsPerBlock: 3 + i,
		})
		fps = append(fps, Compute(f))
	}
	for _, a := range fps {
		for _, b := range fps {
			if got, want := upperBoundOps(a, b), denseUpperBoundOps(a, b); got != want {
				t.Fatalf("sparse bound %v, dense %v on computed fingerprints", got, want)
			}
		}
	}
}
