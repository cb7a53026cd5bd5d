package align

import "math/bits"

// The bit-parallel Needleman–Wunsch kernel (DESIGN.md §8, after BitPAl:
// Loving, Hernandez & Benson, Bioinformatics 2014), for the paper's scheme
// of +1 per match and −1 per mismatch or gap.
//
// Shift every score by its cell's coordinates, H′[i][j] = H[i][j] + i + j.
// Then a match adds 3 along the diagonal, a mismatch 1 and a gap 0, the
// borders are all 0, and both deltas of a cell,
//
//	v′[i][j] = H′[i][j] − H′[i−1][j]    h′[i][j] = H′[i][j] − H′[i][j−1],
//
// lie in {0,1,2,3}. With hin = h′[i−1][j] and vin = v′[i][j−1] the
// recurrence becomes
//
//	v′[i][j] = max(s − hin, 0, vin − hin)    h′[i][j] = max(s − vin, hin − vin, 0)
//
// for s = 3 on a match and 1 on a mismatch. Only v′ depends on its left
// neighbour, and its thresholds v′ ≥ 3 and v′ ≥ 2 are carry chains that
// one bits.Add64 per word resolves for 64 columns at once; v′ ≥ 1 and all
// of h′ are plain word logic on the neighbours shifted by one column. Each
// cell keeps its two deltas as four bits, and the traceback re-derives the
// reference's diagonal ≻ up ≻ left choice from them.

// deltaWord holds 64 consecutive cells of one row: v′ and h′ as two bit
// planes each (value = 2·hi + lo), cell j at bit (j−1) mod 64.
type deltaWord struct{ vLo, vHi, hLo, hHi uint64 }

// bitScratch is the bit-parallel kernel's pooled scratch. It comes back
// dirty; the kernel writes each word before it reads it.
type bitScratch struct {
	planes  []deltaWord // (rows+1)·words, row 0 the zero border; 2·words in lastRowBits
	masks   []uint64    // one words-long match mask per distinct row code of the fill or block
	rowMask []int       // offset into masks of each row's mask
	keys    []uint32    // open-addressed table: row code → mask number
	slots   []int32     // mask number + 1 of each table slot, 0 when empty
	steps   []Step      // traceback buffer, filled from the back
}

// nwBitCodes appends NeedlemanWunschCodes(a, b) for non-empty a and b to
// dst: a fill that computes 64 cells per word operation, then a traceback
// from the delta planes with the diagonal ≻ up ≻ left tie-break. The longer
// sequence runs along the words and the shorter one down the rows; H is
// symmetric under transposition, so a transposed fill only swaps which
// plane the traceback reads as v′ and which as h′. Hirschberg's one-row
// base cases append straight to their result through dst.
func nwBitCodes(dst []Step, a, b []uint32) []Step {
	n, m := len(a), len(b)
	short, long := a, b
	tr := n > m
	if tr {
		short, long = b, a
	}
	rows, words := len(short), (len(long)+63)/64
	s := getBitScratch()
	buildMasks(s, short, long, words)
	s.planes = resize(s.planes, (rows+1)*words)
	clear(s.planes[:words])
	for r := 1; r <= rows; r++ {
		off := s.rowMask[r-1]
		nwBitRow(s.planes[r*words:(r+1)*words], s.planes[(r-1)*words:r*words], s.masks[off:off+words])
	}

	// Walk once from the corner, writing the steps from the back of the
	// buffer, then append them to dst. A nil dst gets an exact-size result.
	planes := s.planes
	buf := resize(s.steps, n+m)
	k := len(buf)
	i, j := n, m
	for i > 0 && j > 0 {
		var v, h uint64 // v′[i][j] and h′[i−1][j]
		if !tr {
			c := uint(j - 1)
			d, u := planes[i*words+int(c>>6)], planes[(i-1)*words+int(c>>6)]
			v = d.vLo>>(c&63)&1 | d.vHi>>(c&63)&1<<1
			h = u.hLo>>(c&63)&1 | u.hHi>>(c&63)&1<<1
		} else {
			// Transposed, v′[i][j] is the stored h′ of row j, column i,
			// and h′[i−1][j] the stored v′ of row j, column i−1 (0 at
			// column 0).
			c := uint(i - 1)
			d := planes[j*words+int(c>>6)]
			v = d.hLo>>(c&63)&1 | d.hHi>>(c&63)&1<<1
			if c > 0 {
				c--
				u := planes[j*words+int(c>>6)]
				h = u.vLo>>(c&63)&1 | u.vHi>>(c&63)&1<<1
			}
		}
		op, sub := OpMismatch, uint64(1)
		if a[i-1] == b[j-1] {
			op, sub = OpMatch, 3
		}
		k--
		switch {
		case v+h == sub:
			buf[k] = Step{Op: op, I: i - 1, J: j - 1}
			i, j = i-1, j-1
		case v == 0:
			buf[k] = Step{Op: OpGapA, I: i - 1, J: -1}
			i--
		default:
			buf[k] = Step{Op: OpGapB, I: -1, J: j - 1}
			j--
		}
	}
	for ; i > 0; i-- {
		k--
		buf[k] = Step{Op: OpGapA, I: i - 1, J: -1}
	}
	for ; j > 0; j-- {
		k--
		buf[k] = Step{Op: OpGapB, I: -1, J: j - 1}
	}
	if dst == nil {
		dst = make([]Step, 0, len(buf)-k)
	}
	dst = append(dst, buf[k:]...)
	s.steps = buf
	putBitScratch(s)
	return dst
}

// maskBlock is how many rows lastRowBits builds match masks for at a time.
// At most maskBlock masks are live, so its scratch stays O(len(cols))
// words however many rows it fills; masks for every row at once would grow
// with rows·cols and break Hirschberg's linear space.
const maskBlock = 64

// lastRowBits writes H[len(rows)][0..len(cols)], the last row of the
// Needleman–Wunsch score matrix of rows × cols, into dst (grown when too
// short) and returns it, for Hirschberg's split. It rolls two delta rows
// through nwBitRow and reads H[n][j] as the running sum of the last row's
// h′, which is H′[n][j], minus the shift n + j.
func lastRowBits(dst []int32, rows, cols []uint32) []int32 {
	n, words := len(rows), (len(cols)+63)/64
	s := getBitScratch()
	s.planes = resize(s.planes, 2*words)
	prev, cur := s.planes[:words], s.planes[words:]
	clear(prev)
	for lo := 0; lo < n; lo += maskBlock {
		block := rows[lo:min(n, lo+maskBlock)]
		buildMasks(s, block, cols, words)
		for r := range block {
			off := s.rowMask[r]
			nwBitRow(cur, prev, s.masks[off:off+words])
			prev, cur = cur, prev
		}
	}
	out := resize(dst, len(cols)+1)
	out[0] = -int32(n)
	sum := int32(0)
	for j := range cols {
		w, c := prev[j>>6], uint(j)&63
		sum += int32(w.hLo>>c&1 | w.hHi>>c&1<<1)
		out[j+1] = sum - int32(n+j+1)
	}
	putBitScratch(s)
	return out
}

// buildMasks fills s.masks with one words-long mask per distinct code of
// short, bit j set where long[j] holds the code, and points s.rowMask[r]
// at the mask of short[r]. Keying the masks on the shorter sequence bounds
// them by rows·words words whatever long's alphabet; phis get fresh codes,
// so masks keyed on a long function's codes would grow quadratically.
func buildMasks(s *bitScratch, short, long []uint32, words int) {
	size := 2
	for size < 2*len(short) {
		size <<= 1
	}
	shift := 32 - uint(bits.TrailingZeros(uint(size)))
	s.keys = resize(s.keys, size)
	s.slots = resize(s.slots, size)
	s.rowMask = resize(s.rowMask, len(short))
	clear(s.slots)
	keys, slots := s.keys, s.slots
	distinct := int32(0)
	for r, c := range short {
		h := c * 0x9E3779B1 >> shift
		for slots[h] != 0 && keys[h] != c {
			h = (h + 1) & uint32(size-1)
		}
		if slots[h] == 0 {
			distinct++
			keys[h], slots[h] = c, distinct
		}
		s.rowMask[r] = int(slots[h]-1) * words
	}
	s.masks = resize(s.masks, int(distinct)*words)
	clear(s.masks)
	masks := s.masks
	for j, c := range long {
		for h := c * 0x9E3779B1 >> shift; slots[h] != 0; h = (h + 1) & uint32(size-1) {
			if keys[h] == c {
				masks[int(slots[h]-1)*words+j>>6] |= 1 << (uint(j) & 63)
				break
			}
		}
	}
}

// nwBitRow computes one row of deltas into cur from the row above, prev,
// and the row code's match mask eq. The carries of the two v′ chains and
// the top v′ bits of each word cross into the next word, starting from
// column 0's v′ = 0.
func nwBitRow(cur, prev []deltaWord, eq []uint64) {
	cur, eq = cur[:len(prev)], eq[:len(prev)]
	var c3, c2, t1, t2, t3 uint64
	for w, up := range prev {
		m := eq[w]
		// hin thresholds: h1 = hin ≥ 1, h2 = hin ≥ 2, h3 = hin = 3.
		h2 := up.hHi
		h1, h3 := up.hLo|h2, up.hLo&h2
		p := ^h1 // hin = 0: v′ ≥ k carries on from the left neighbour

		// v′ ≥ 3 starts at a match over hin = 0 and runs while hin = 0.
		// The sum's carries are the chain: with generate g and propagate
		// p, carry into bit j = sum ^ (p &^ g), and the bit holds v′ ≥ 3
		// iff it generates or receives a carry it propagates.
		g := m & p
		sum, c := bits.Add64(g, g|p, c3)
		c3 = c
		r3 := g | p&(sum^(p&^g))
		s3 := r3<<1 | t3 // v′ ≥ 3 of each cell's left neighbour
		t3 = r3 >> 63

		// v′ ≥ 2 starts at a match over hin ≤ 1, or hin = 1 after a left
		// neighbour at 3, and runs while hin = 0.
		g = m&^h2 | h1&^h2&s3
		sum, c = bits.Add64(g, g|p, c2)
		c2 = c
		r2 := g | p&(sum^(p&^g))
		s2 := r2<<1 | t2
		t2 = r2 >> 63

		// v′ ≥ 1 needs no chain: hin = 0 alone gives it.
		r1 := p | m&^h3 | h1&^h2&s2 | h2&^h3&s3
		s1 := r1<<1 | t1
		t1 = r1 >> 63

		// h′ ≥ k iff s − vin ≥ k or hin − vin ≥ k.
		mh3 := m | h3
		o3 := mh3 &^ s1
		o2 := m&^s2 | h2&^s1 | h3&^s2
		o1 := ^s1 | h2&^s2 | mh3&^s3
		cur[w] = deltaWord{vLo: r1&^r2 | r3, vHi: r2, hLo: o1&^o2 | o3, hHi: o2}
	}
}
