package lsh

import (
	"reflect"
	"testing"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/workload"
)

// sigFor generates a function from the spec and returns its signature.
func sigFor(m *ir.Module, spec workload.FuncSpec) *fingerprint.Signature {
	return fingerprint.ComputeSignature(workload.Generate(m, spec))
}

// cloneFamily builds n const-variant clones (identical shingles) plus k
// unrelated functions and returns all signatures, clones first.
func cloneFamily(t *testing.T, n, k int) []*fingerprint.Signature {
	t.Helper()
	m := ir.NewModule("lsh")
	base := workload.FuncSpec{
		Name: "c0", Seed: 7, Scalar: ir.I64(), NumParams: 2, Regions: 4, OpsPerBlock: 8,
	}
	var sigs []*fingerprint.Signature
	for i := 0; i < n; i++ {
		spec := base
		spec.Name = "c" + string(rune('0'+i))
		spec.ConstSalt = int64(i)
		sigs = append(sigs, sigFor(m, spec))
	}
	for i := 0; i < k; i++ {
		spec := workload.FuncSpec{
			Name: "u" + string(rune('0'+i)), Seed: int64(1000 + 13*i),
			Scalar: ir.F32(), NumParams: 1, Regions: 2, OpsPerBlock: 4,
		}
		sigs = append(sigs, sigFor(m, spec))
	}
	return sigs
}

func TestProbeFindsClones(t *testing.T) {
	sigs := cloneFamily(t, 3, 4)
	ix := New(Params{})
	for i, s := range sigs {
		ix.Insert(int32(i), s)
	}
	got := ix.Probe(sigs[0], 0)
	for _, want := range []int32{1, 2} {
		found := false
		for _, id := range got {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("clone %d missing from probe result %v", want, got)
		}
	}
	// Results must be deduplicated, ascending and self-free.
	for i, id := range got {
		if id == 0 {
			t.Error("probe returned self")
		}
		if i > 0 && got[i-1] >= id {
			t.Errorf("probe result not strictly ascending: %v", got)
		}
	}
}

func TestRemoveKeepsIndexConsistent(t *testing.T) {
	sigs := cloneFamily(t, 4, 2)
	ix := New(DefaultParams())
	for i, s := range sigs {
		ix.Insert(int32(i), s)
	}
	ix.Remove(1)
	ix.Remove(5)
	ix.Remove(99) // unknown: no-op
	if ix.Len() != 4 {
		t.Fatalf("Len = %d after removals, want 4", ix.Len())
	}
	for _, id := range ix.Probe(sigs[0], 0) {
		if id == 1 || id == 5 {
			t.Errorf("removed id %d still probed", id)
		}
	}
	// Re-probing after removal still finds the surviving clones (unrelated
	// members may legitimately collide too — only the clones are required).
	got := ix.Probe(sigs[0], 0)
	for _, want := range []int32{2, 3} {
		found := false
		for _, id := range got {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("surviving clone %d missing after removals: %v", want, got)
		}
	}
}

// TestCollideMatchesProbe: probe membership is the bucket-mate relation —
// j is in Probe(i) exactly when the two signatures agree on some band key —
// and is therefore symmetric, which is what lets the exploration cache
// offer a merged function to the members of its own probe.
func TestCollideMatchesProbe(t *testing.T) {
	sigs := cloneFamily(t, 3, 5)
	p := DefaultParams()
	ix := New(p)
	keys := make([][]uint64, len(sigs))
	for i, s := range sigs {
		ix.Insert(int32(i), s)
		keys[i] = AppendBandKeys(p, s, nil)
	}
	probed := make([]map[int32]bool, len(sigs))
	for i, a := range sigs {
		probed[i] = map[int32]bool{}
		for _, id := range ix.Probe(a, int32(i)) {
			probed[i][id] = true
		}
	}
	for i := range sigs {
		for j := range sigs {
			if i == j {
				continue
			}
			share := false
			for band := range keys[i] {
				share = share || keys[i][band] == keys[j][band]
			}
			if share != probed[i][int32(j)] {
				t.Errorf("signatures %d,%d share a band key: %v, but Probe membership is %v",
					i, j, share, probed[i][int32(j)])
			}
			if probed[i][int32(j)] != probed[j][int32(i)] {
				t.Errorf("Probe membership of %d,%d is not symmetric", i, j)
			}
		}
	}
}

func TestProbeBatchMatchesSerialProbe(t *testing.T) {
	sigs := cloneFamily(t, 4, 4)
	ix := New(DefaultParams())
	selves := make([]int32, len(sigs))
	for i, s := range sigs {
		ix.Insert(int32(i), s)
		selves[i] = int32(i)
	}
	for _, workers := range []int{1, 4} {
		got := ix.ProbeBatch(sigs, selves, workers)
		for i := range sigs {
			want := ix.Probe(sigs[i], selves[i])
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("workers=%d query %d: batch %v != serial %v", workers, i, got[i], want)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	sigs := cloneFamily(t, 3, 1)
	ix := New(DefaultParams())
	for i, s := range sigs {
		ix.Insert(int32(i), s)
	}
	st := ix.ComputeStats()
	if st.Members != 4 {
		t.Errorf("Members = %d, want 4", st.Members)
	}
	if st.MaxBucket < 3 {
		t.Errorf("MaxBucket = %d, want >= 3 (the clone bucket)", st.MaxBucket)
	}
	if st.Buckets == 0 {
		t.Error("no buckets counted")
	}
}

func TestInvalidBandingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized banding did not panic")
		}
	}()
	New(Params{Bands: fingerprint.SigLanes, Rows: 2})
}

// snapshotBuckets deep-copies the index's bucket state for exact comparison.
func snapshotBuckets(ix *Index) []map[uint64][]int32 {
	out := make([]map[uint64][]int32, len(ix.buckets))
	for band, m := range ix.buckets {
		out[band] = make(map[uint64][]int32, len(m))
		for k, b := range m {
			out[band][k] = append([]int32(nil), b...)
		}
	}
	return out
}

// TestRemoveInsertRestoresState is the canonical-form contract: removing
// any subset of members and re-inserting them with their original
// signatures must restore the exact bucket state — byte-for-byte, not just
// probe-equivalent — regardless of removal or reinsertion order. It is what
// makes the index state a pure function of the live (id, signature) set.
func TestRemoveInsertRestoresState(t *testing.T) {
	sigs := cloneFamily(t, 4, 4)
	ix := New(DefaultParams())
	for i, s := range sigs {
		ix.Insert(int32(i), s)
	}
	want := snapshotBuckets(ix)
	wantMembers := ix.Members()

	// Remove an interior subset (clones and unrelated members alike), in a
	// scattered order, then re-insert in a different order.
	for _, id := range []int32{5, 1, 3, 6} {
		ix.Remove(id)
	}
	for _, id := range []int32{3, 6, 1, 5} {
		ix.Insert(id, sigs[id])
	}

	if !reflect.DeepEqual(ix.Members(), wantMembers) {
		t.Fatalf("members after remove+insert = %v, want %v", ix.Members(), wantMembers)
	}
	got := snapshotBuckets(ix)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket state not restored by remove+insert round trip")
	}
	// And every bucket is sorted ascending (the canonical-form invariant the
	// restoration property rests on).
	for band, m := range got {
		for k, b := range m {
			for i := 1; i < len(b); i++ {
				if b[i-1] >= b[i] {
					t.Fatalf("band %d bucket %d not sorted: %v", band, k, b)
				}
			}
		}
	}
}
