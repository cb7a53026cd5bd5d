package align

import (
	"slices"
	"testing"
)

// fuzzCodes turns fuzzer bytes into two code sequences of up to 256 entries
// over an alphabet of 1–4 codes. data[0]'s low two bits pick the alphabet
// and its next two bits are the ninth length bits of a and b, whose low
// bytes are data[1] and data[2]; the rest packs four 2-bit codes a byte
// (absent bytes read as zero codes).
func fuzzCodes(data []byte) (a, b []uint32) {
	var hdr [3]byte
	copy(hdr[:], data)
	alphabet := uint32(hdr[0]&3) + 1
	n := min(256, int(hdr[1])|int(hdr[0]>>2&1)<<8)
	m := min(256, int(hdr[2])|int(hdr[0]>>3&1)<<8)
	payload := data[min(3, len(data)):]
	code := func(k int) uint32 {
		if k/4 >= len(payload) {
			return 0
		}
		return uint32(payload[k/4]>>(2*(k%4))&3) % alphabet
	}
	a, b = make([]uint32, n), make([]uint32, m)
	for i := range a {
		a[i] = code(i)
	}
	for j := range b {
		b[j] = code(n + j)
	}
	return a, b
}

// FuzzAlignOracle: on any pair of sequences, AlignCodes returns refNW's
// steps exactly and HirschbergCodes returns refHirschberg's. Seeds sit at
// and around the 64-column word boundaries of the bit-parallel fill, in
// both orientations; sides above 128 cross the 64-row mask blocks of
// Hirschberg's score rows. Run as a smoke in CI: go test -run '^$' -fuzz
// FuzzAlignOracle -fuzztime 10s ./internal/align/.
func FuzzAlignOracle(f *testing.F) {
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i*37 + i>>3)
	}
	for _, sh := range [][2]int{
		{0, 5}, {5, 0}, {1, 200}, {200, 1}, {63, 64}, {64, 65}, {65, 63},
		{127, 128}, {129, 127}, {128, 128}, {200, 70}, {70, 200}, {256, 256},
	} {
		for alphabet := byte(0); alphabet < 4; alphabet++ {
			hdr := []byte{alphabet | byte(sh[0]>>8)<<2 | byte(sh[1]>>8)<<3, byte(sh[0]), byte(sh[1])}
			f.Add(append(hdr, payload[:int(alphabet)*32]...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzCodes(data)
		want, _ := refNW(a, b)
		if got := AlignCodes(a, b); !slices.Equal(got, want) {
			t.Fatalf("AlignCodes diverges from the reference on a=%v b=%v:\ngot  %v\nwant %v", a, b, got, want)
		}
		if got, want := HirschbergCodes(a, b), refHirschberg(a, b); !slices.Equal(got, want) {
			t.Fatalf("HirschbergCodes diverges from the reference on a=%v b=%v:\ngot  %v\nwant %v", a, b, got, want)
		}
	})
}
