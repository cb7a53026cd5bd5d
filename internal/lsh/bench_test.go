package lsh

import (
	"fmt"
	"runtime"
	"testing"

	"fmsa/internal/fingerprint"
)

// syntheticSigs builds n deterministic signatures without IR generation so the
// benchmark measures index construction, not fingerprinting.
func syntheticSigs(n int) []*fingerprint.Signature {
	sigs := make([]*fingerprint.Signature, n)
	for i := range sigs {
		var s fingerprint.Signature
		x := uint64(i)*0x9e3779b97f4a7c15 + 1
		for l := range s {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s[l] = x
		}
		sigs[i] = &s
	}
	return sigs
}

// BenchmarkLSHRehydrate measures rebuilding an index from n known members —
// the simdb segment-rehydration path — with pre-sized band maps (NewSized)
// vs the unhinted constructor.
func BenchmarkLSHRehydrate(b *testing.B) {
	const n = 4096
	sigs := syntheticSigs(n)
	b.Run("sized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := NewSized(Params{}, n)
			for id, s := range sigs {
				ix.Insert(int32(id), s)
			}
		}
	})
	b.Run("unsized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := New(Params{})
			for id, s := range sigs {
				ix.Insert(int32(id), s)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewFromSignatures(Params{}, sigs, runtime.GOMAXPROCS(0))
		}
	})
	keys := make([][]uint64, n)
	for id, s := range sigs {
		keys[id] = AppendBandKeys(Params{}, s, nil)
	}
	b.Run("keyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewFromBandKeys(Params{}, keys)
		}
	})
}

// TestNewSizedMatchesNew pins that pre-sizing is invisible to index state.
func TestNewSizedMatchesNew(t *testing.T) {
	sigs := syntheticSigs(64)
	a, b := New(Params{}), NewSized(Params{}, len(sigs))
	for id, s := range sigs {
		a.Insert(int32(id), s)
		b.Insert(int32(id), s)
	}
	for id, s := range sigs {
		ra := a.Probe(s, int32(id))
		rb := b.Probe(s, int32(id))
		if len(ra) != len(rb) {
			t.Fatalf("probe %d: sized and unsized disagree (%d vs %d results)", id, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("probe %d: result %d differs: %d vs %d", id, i, ra[i], rb[i])
			}
		}
	}
}

// TestNewFromSignaturesMatchesInserts pins that bulk construction produces the
// same index state as an ascending Insert loop — including nil gaps (unsigned
// records) — and that the bulk-built index still mutates correctly afterwards
// (Remove must find every band bucket, Insert must not collide with arenas),
// serially and across workers.
func TestNewFromSignaturesMatchesInserts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testNewFromSignaturesMatchesInserts(t, workers)
		})
	}
}

func testNewFromSignaturesMatchesInserts(t *testing.T, workers int) {
	sigs := syntheticSigs(97)
	sigs[3], sigs[40], sigs[96] = nil, nil, nil // unsigned gaps
	want := New(Params{})
	for id, s := range sigs {
		if s != nil {
			want.Insert(int32(id), s)
		}
	}
	got := NewFromSignatures(Params{}, sigs, workers)
	check := func(stage string) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: Len %d != %d", stage, got.Len(), want.Len())
		}
		for id, s := range sigs {
			if s == nil {
				continue
			}
			rg := got.Probe(s, int32(id))
			rw := want.Probe(s, int32(id))
			if len(rg) != len(rw) {
				t.Fatalf("%s: probe %d: %d vs %d results", stage, id, len(rg), len(rw))
			}
			for i := range rg {
				if rg[i] != rw[i] {
					t.Fatalf("%s: probe %d: result %d differs: %d vs %d", stage, id, i, rg[i], rw[i])
				}
			}
		}
	}
	check("bulk")
	// Mutate both the same way: churn some members, re-add one.
	for _, id := range []int32{0, 17, 95} {
		got.Remove(id)
		want.Remove(id)
	}
	got.Insert(17, sigs[17])
	want.Insert(17, sigs[17])
	sigs[0], sigs[95] = nil, nil
	check("after churn")
}

// TestNewFromBandKeysMatchesInserts pins that the keyed bulk builder — fed
// AppendBandKeys output — matches both an Insert loop over the signatures and
// an InsertKeyed loop over the same keys, and keeps mutating correctly.
func TestNewFromBandKeysMatchesInserts(t *testing.T) {
	sigs := syntheticSigs(83)
	sigs[0], sigs[51] = nil, nil // unsigned gaps
	keys := make([][]uint64, len(sigs))
	for id, s := range sigs {
		if s != nil {
			keys[id] = AppendBandKeys(Params{}, s, nil)
		}
	}
	want := New(Params{})
	keyed := New(Params{})
	for id, s := range sigs {
		if s != nil {
			want.Insert(int32(id), s)
			keyed.InsertKeyed(int32(id), keys[id])
		}
	}
	got := NewFromBandKeys(Params{}, keys)
	check := func(stage string, ix *Index) {
		t.Helper()
		if got.Len() != ix.Len() {
			t.Fatalf("%s: Len %d != %d", stage, got.Len(), ix.Len())
		}
		for id, s := range sigs {
			if s == nil {
				continue
			}
			rg := got.Probe(s, int32(id))
			rw := ix.Probe(s, int32(id))
			if len(rg) != len(rw) {
				t.Fatalf("%s: probe %d: %d vs %d results", stage, id, len(rg), len(rw))
			}
			for i := range rg {
				if rg[i] != rw[i] {
					t.Fatalf("%s: probe %d: result %d differs: %d vs %d", stage, id, i, rg[i], rw[i])
				}
			}
		}
	}
	check("vs insert", want)
	check("vs insert-keyed", keyed)
	// Bulk-built indexes must keep mutating correctly: remove members, re-add
	// one by signature, and stay in lockstep with the Insert-built index.
	for _, id := range []int32{2, 51, 82} {
		got.Remove(id)
		want.Remove(id)
	}
	got.Insert(82, sigs[82])
	want.Insert(82, sigs[82])
	sigs[2] = nil
	check("after churn", want)
}
