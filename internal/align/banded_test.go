package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBandedValidAlignments(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 150; iter++ {
		a := randCodes(r, r.Intn(30), 4)
		b := randCodes(r, r.Intn(30), 4)
		for _, band := range []int{1, 3, 8, 100} {
			steps := BandedCodes(a, b, band)
			if !Validate(steps, len(a), len(b)) {
				t.Fatalf("invalid banded(%d) alignment of %v, %v: %v", band, a, b, steps)
			}
		}
	}
}

func TestBandedWideBandIsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for iter := 0; iter < 100; iter++ {
		a := randCodes(r, r.Intn(20), 3)
		b := randCodes(r, r.Intn(20), 3)
		wide := BandedCodes(a, b, 64)
		if got, want := Score(wide), slowScore(a, b); got != want {
			t.Fatalf("wide band not optimal for %v, %v: %d vs %d", a, b, got, want)
		}
	}
}

func TestBandedNeverBeatsOptimal(t *testing.T) {
	f := func(aRaw, bRaw []byte, bandRaw uint8) bool {
		a, b := quickCodes(aRaw, 30, 4), quickCodes(bRaw, 30, 4)
		band := int(bandRaw%12) + 1
		banded := BandedCodes(a, b, band)
		if !Validate(banded, len(a), len(b)) {
			return false
		}
		return Score(banded) <= slowScore(a, b)
	}
	if err := quick.Check(f, quickConfig(150, 24)); err != nil {
		t.Error(err)
	}
}

func TestBandedIdenticalSequences(t *testing.T) {
	// Identical sequences live on the main diagonal: even band 1 recovers
	// the full match.
	s := codesOf("mergemergemerge")
	steps := BandedCodes(s, s, 1)
	if countOps(steps)[OpMatch] != len(s) {
		t.Errorf("band-1 failed to match identical sequences: %v", steps)
	}
}

func TestBandedNarrowDegradesGracefully(t *testing.T) {
	// A large shift (prefix insertion) exceeds the band: the result stays
	// valid, just with no more matches than the optimum.
	a := codesOf("0123456789")
	b := codesOf("XXXXXXXX0123456789")
	narrow := BandedCodes(a, b, 9) // just covers diff
	if !Validate(narrow, len(a), len(b)) {
		t.Fatal("invalid narrow alignment")
	}
	nw := NeedlemanWunschCodes(a, b)
	if countOps(narrow)[OpMatch] > countOps(nw)[OpMatch] {
		t.Error("banded cannot out-match the optimum")
	}
}

func TestBandedAligner(t *testing.T) {
	fn := BandedAlignerCodes(16)
	steps := fn(codesOf("abca"), codesOf("abca"))
	if countOps(steps)[OpMatch] != 4 {
		t.Errorf("adapter misaligned: %v", steps)
	}
}

func BenchmarkBanded500(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	s1 := randCodes(r, 500, 8)
	s2 := randCodes(r, 500, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BandedCodes(s1, s2, 32)
	}
}
