package align

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestHirschbergCodedTwinProperty is the core property of the linear-space
// variant: on random sequences its alignments are valid and score-optimal
// (equal to the full-matrix Needleman–Wunsch score), and they follow the
// reference recursion (refHirschberg) split for split. Needleman–Wunsch and
// Hirschberg may pick different co-optimal paths, so only scores are
// compared between the two.
func TestHirschbergCodedTwinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(70)
		m := rng.Intn(70)
		alphabet := 2 + rng.Intn(6)
		a := randCodes(rng, n, alphabet)
		b := randCodes(rng, m, alphabet)

		h := HirschbergCodes(a, b)
		if !Validate(h, n, m) {
			t.Fatalf("trial %d: invalid Hirschberg alignment (n=%d m=%d)", trial, n, m)
		}
		nw := NeedlemanWunschCodes(a, b)
		if hs, ns := Score(h), Score(nw); hs != ns {
			t.Fatalf("trial %d: Hirschberg score %d != NW score %d (n=%d m=%d)",
				trial, hs, ns, n, m)
		}
		if want := refHirschberg(a, b); !slices.Equal(h, want) {
			t.Fatalf("trial %d: Hirschberg diverges from the reference:\ngot  %v\nwant %v", trial, h, want)
		}
	}
}

// TestHirschbergPooledBuffersConcurrent runs many alignments concurrently so
// the sync.Pool scratch rows are constantly recycled across goroutines; under
// -race this catches any sharing of a pooled buffer between two live
// alignments, and the reference check catches reuse of stale row contents.
func TestHirschbergPooledBuffersConcurrent(t *testing.T) {
	type job struct {
		a, b     []uint32
		nw, hirs []Step
	}
	rng := rand.New(rand.NewSource(31))
	jobs := make([]job, 48)
	for i := range jobs {
		a := randCodes(rng, 20+rng.Intn(60), 4)
		b := randCodes(rng, 20+rng.Intn(60), 4)
		jobs[i] = job{a: a, b: b, nw: refNWSteps(a, b), hirs: refHirschberg(a, b)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, j := range jobs {
					steps, want := HirschbergCodes(j.a, j.b), j.hirs
					if (w+rep)%2 == 0 {
						steps, want = NeedlemanWunschCodes(j.a, j.b), j.nw
					}
					if !slices.Equal(steps, want) {
						t.Errorf("worker %d: alignment diverges from the reference (stale pooled row?)", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHirschbergDegenerate pins the base cases the recursion bottoms out on.
func TestHirschbergDegenerate(t *testing.T) {
	cases := []struct{ a, b []uint32 }{
		{nil, nil},
		{[]uint32{1}, nil},
		{nil, []uint32{1, 2, 3}},
		{[]uint32{1}, []uint32{1}},
		{[]uint32{1}, []uint32{2, 1, 2}},
		{[]uint32{5, 5, 5}, []uint32{5}},
	}
	for _, c := range cases {
		h := HirschbergCodes(c.a, c.b)
		if !Validate(h, len(c.a), len(c.b)) {
			t.Errorf("invalid alignment for %v vs %v", c.a, c.b)
		}
		if want := refHirschberg(c.a, c.b); !slices.Equal(h, want) {
			t.Errorf("%v vs %v: got %v, want %v", c.a, c.b, h, want)
		}
	}
}
