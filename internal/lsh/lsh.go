// Package lsh implements a banded MinHash index over function signatures
// (fingerprint.Signature): the classic locality-sensitive-hashing scheme for
// Jaccard similarity. The signature's lanes are split into Bands bands of
// Rows consecutive lanes each; two members land in the same bucket of a band
// exactly when all Rows lanes of that band agree, which happens with
// probability J^Rows for weighted Jaccard J. Probing returns every member
// sharing at least one band bucket — probability 1-(1-J^Rows)^Bands — so
// similar pairs are found near-certainly while dissimilar pairs are almost
// never touched, replacing the quadratic all-pairs scan of the exact ranking
// with per-bucket work.
//
// The index is deliberately deterministic: members are integer ids (the
// exploration pool assigns pool-insertion indices, the similarity database
// record positions), buckets hold their ids sorted ascending, and probe
// results are returned sorted ascending — the ranking's pool-order
// tie-break. Sorted buckets make the index state a pure function of the
// live (id, signature) set, whatever order the members arrived in, which is
// what lets the bulk builders below stand in for an insert loop. Inserts and
// removals keep the index consistent as merges retire pool functions and
// add merged ones.
//
// The index itself is not safe for concurrent mutation; ProbeBatch performs
// read-only probes for many queries across a bounded worker pool.
package lsh

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fmsa/internal/fingerprint"
	"fmsa/internal/par"
)

// Params configures the banding: Bands bands of Rows consecutive signature
// lanes. Bands×Rows must not exceed fingerprint.SigLanes; the zero value
// selects DefaultParams.
type Params struct {
	Bands, Rows int
}

// DefaultParams returns the banding used when Params is zero: 21 bands of 6
// rows over the 128-lane signature. The collision s-curve crosses one half
// near J ≈ 0.57 while the dissimilar tail stays dark (P ≈ 0.1% at J = 0.2),
// and top-ranked candidate pairs — clone families with high shingle overlap —
// are recalled near-certainly. Measured on the largest synthetic corpus this
// banding probes under a quarter of the pairs the exact scan visits for ≈99%
// top-1 recall; flatter bandings (more bands, fewer rows) push recall
// marginally higher but probe several times more of the pool.
func DefaultParams() Params { return Params{Bands: 21, Rows: 6} }

// NumBands returns the band count after zero-value resolution — the number
// of keys AppendBandKeys produces and NewFromBandKeys expects per member.
func (p Params) NumBands() int { return p.normalized().Bands }

// normalized resolves the zero value and validates the banding.
func (p Params) normalized() Params {
	if p.Bands == 0 && p.Rows == 0 {
		return DefaultParams()
	}
	if p.Bands <= 0 || p.Rows <= 0 || p.Bands*p.Rows > fingerprint.SigLanes {
		panic(fmt.Sprintf("lsh: invalid banding %d×%d over %d lanes", p.Bands, p.Rows, fingerprint.SigLanes))
	}
	return p
}

// bandKey condenses one band's rows into a bucket key.
func bandKey(sig *fingerprint.Signature, band, rows int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, lane := range sig[band*rows : (band+1)*rows] {
		h = (h ^ lane) * prime
	}
	return h
}

// AppendBandKeys appends sig's bucket key for every band of the banding to
// dst and returns the extended slice — the exact keys Insert would compute.
// Persisting them next to a signature (the simdb segment does) lets a later
// InsertKeyed rehydrate the index without re-hashing any band.
func AppendBandKeys(p Params, sig *fingerprint.Signature, dst []uint64) []uint64 {
	p = p.normalized()
	for band := 0; band < p.Bands; band++ {
		dst = append(dst, bandKey(sig, band, p.Rows))
	}
	return dst
}

// Index is the banded MinHash index.
type Index struct {
	p Params
	// buckets[band] maps a band key to member ids sorted ascending.
	buckets []map[uint64][]int32
	// keys remembers each member's band keys for removal.
	keys map[int32][]uint64
	// keyArena batch-allocates the per-member band-key slices: inserts carve
	// Bands-sized windows off one chunk instead of allocating each slice.
	// Removed members' windows stay pinned until their chunk dies — a few
	// hundred bytes per churned member, traded for allocation-free inserts
	// on the rehydration path.
	keyArena []uint64
	// scratches pools per-probe dedup state so concurrent ProbeBatch
	// goroutines never share one.
	scratches sync.Pool
}

// probeScratch deduplicates one probe's bucket members without a map: ids are
// dense pool indices, so an id is visited iff stamp[id] holds the current
// generation. Bumping gen invalidates the whole array in O(1).
type probeScratch struct {
	stamp []uint32
	gen   uint32
}

// New returns an empty index with the given banding.
func New(p Params) *Index { return NewSized(p, 0) }

// NewSized returns an empty index with the given banding, pre-sizing every
// band map and the key table for n expected members so that rehydrating a
// known-size corpus (a simdb segment, a session pool) never rehashes. Growth
// past n still works; n is a hint, not a cap.
func NewSized(p Params, n int) *Index {
	p = p.normalized()
	ix := &Index{p: p, buckets: make([]map[uint64][]int32, p.Bands), keys: make(map[int32][]uint64, n)}
	for i := range ix.buckets {
		ix.buckets[i] = make(map[uint64][]int32, n)
	}
	if n > 0 {
		ix.keyArena = make([]uint64, 0, n*p.Bands)
	}
	ix.scratches.New = func() any { return &probeScratch{} }
	return ix
}

// NewFromSignatures bulk-builds the index a NewSized+Insert loop over dense
// ids would produce: member i is sigs[i], nil entries are skipped. The final
// state is bit-identical to inserting the non-nil signatures in ascending id
// order — buckets sorted ascending, same band keys — but construction carves
// every bucket at its exact final size from one arena, so a large corpus
// costs a handful of allocations instead of one per bucket growth step, and
// bands are built across up to workers goroutines: each band's bucket map is
// the work of exactly one goroutine and depends only on the signatures, so
// the result is identical for any worker count and interleaving. This is how
// exploration builds its per-run index over a freshly set-up pool.
func NewFromSignatures(p Params, sigs []*fingerprint.Signature, workers int) *Index {
	ix := NewSized(p, len(sigs))
	signed := make([]int32, 0, len(sigs))
	wins := make([][]uint64, 0, len(sigs))
	for id, sig := range sigs {
		if sig == nil {
			continue
		}
		if cap(ix.keyArena)-len(ix.keyArena) < ix.p.Bands {
			ix.keyArena = make([]uint64, 0, 256*ix.p.Bands)
		}
		keys := ix.keyArena[len(ix.keyArena) : len(ix.keyArena)+ix.p.Bands : len(ix.keyArena)+ix.p.Bands]
		ix.keyArena = ix.keyArena[:len(ix.keyArena)+ix.p.Bands]
		ix.keys[int32(id)] = keys
		signed = append(signed, int32(id))
		wins = append(wins, keys)
	}
	if len(signed) == 0 {
		return ix
	}
	// Per band: compute every member's band key, count members per bucket
	// key, carve exact-capacity bucket slices off the band's slice of one
	// shared arena, then fill in ascending id order so the buckets come out
	// sorted without any insertion shifting. Bands are independent: member
	// key windows are written one element per band, bucket maps and arena
	// slices are per-band, so the bands fan out across a bounded worker pool.
	idArena := make([]int32, len(signed)*ix.p.Bands)
	buildBand := func(band int, counts map[uint64]int32) {
		for i, id := range signed {
			k := bandKey(sigs[id], band, ix.p.Rows)
			wins[i][band] = k
			counts[k]++
		}
		seg := idArena[band*len(signed) : (band+1)*len(signed)]
		bmap := ix.buckets[band]
		for i, id := range signed {
			k := wins[i][band]
			b, ok := bmap[k]
			if !ok {
				c := counts[k]
				b = seg[0:0:c]
				seg = seg[c:]
			}
			bmap[k] = append(b, id)
		}
	}
	workers = min(workers, ix.p.Bands)
	if workers <= 1 {
		counts := make(map[uint64]int32, len(signed))
		for band := 0; band < ix.p.Bands; band++ {
			clear(counts)
			buildBand(band, counts)
		}
		return ix
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			counts := make(map[uint64]int32, len(signed))
			for {
				band := int(atomic.AddInt64(&next, 1)) - 1
				if band >= ix.p.Bands {
					return
				}
				clear(counts)
				buildBand(band, counts)
			}
		}()
	}
	wg.Wait()
	return ix
}

// NewFromBandKeys bulk-builds the index from precomputed band keys: member i
// is keys[i] when it holds exactly Bands keys (AppendBandKeys order); other
// entries are skipped. The final state is bit-identical to InsertKeyed of the
// members in ascending id order, but no band is ever hashed, every bucket is
// carved at its exact final size from one arena, and the members' key
// windows are aliased rather than copied — the construction allocates a
// handful of objects for a corpus-sized input instead of one per bucket
// growth step. This is the segment-rehydration fast path: a simdb store
// persists each record's band keys, so a warm start files every member
// straight into its buckets.
func NewFromBandKeys(p Params, keys [][]uint64) *Index {
	p = p.normalized()
	ix := &Index{p: p, buckets: make([]map[uint64][]int32, p.Bands)}
	ix.scratches.New = func() any { return &probeScratch{} }
	signed := make([]int32, 0, len(keys))
	for id, k := range keys {
		if len(k) == p.Bands {
			signed = append(signed, int32(id))
		}
	}
	ix.keys = make(map[int32][]uint64, len(signed))
	for _, id := range signed {
		ix.keys[id] = keys[id]
	}
	if len(signed) == 0 {
		for band := range ix.buckets {
			ix.buckets[band] = map[uint64][]int32{}
		}
		return ix
	}
	// Per band: count members per bucket key, size the band map to its exact
	// distinct-key count, carve exact-capacity bucket slices off the band's
	// slice of one shared arena, then fill in ascending id order so buckets
	// come out sorted without any insertion shifting.
	idArena := make([]int32, len(signed)*p.Bands)
	counts := make(map[uint64]int32, len(signed))
	for band := 0; band < p.Bands; band++ {
		clear(counts)
		for _, id := range signed {
			counts[keys[id][band]]++
		}
		bmap := make(map[uint64][]int32, len(counts))
		seg := idArena[band*len(signed) : (band+1)*len(signed)]
		for _, id := range signed {
			k := keys[id][band]
			b, ok := bmap[k]
			if !ok {
				c := counts[k]
				b = seg[0:0:c]
				seg = seg[c:]
			}
			bmap[k] = append(b, id)
		}
		ix.buckets[band] = bmap
	}
	return ix
}

// Params returns the index's banding.
func (ix *Index) Params() Params { return ix.p }

// Len returns the number of members.
func (ix *Index) Len() int { return len(ix.keys) }

// Insert adds a member at its sorted bucket positions. Ids must be unique
// among live members; a removed id may be re-inserted, and re-inserting it
// with its original signature restores the exact pre-removal bucket state.
func (ix *Index) Insert(id int32, sig *fingerprint.Signature) {
	keys := ix.carveKeys(id)
	for band := 0; band < ix.p.Bands; band++ {
		keys[band] = bandKey(sig, band, ix.p.Rows)
	}
	ix.insertKeyed(id, keys)
}

// InsertKeyed adds a member from its precomputed band keys (AppendBandKeys
// order) without touching the signature — the rehydration fast path for
// stores that persisted the keys. The resulting index state is bit-identical
// to Insert of the signature the keys were computed from.
func (ix *Index) InsertKeyed(id int32, bandKeys []uint64) {
	if len(bandKeys) != ix.p.Bands {
		panic(fmt.Sprintf("lsh: InsertKeyed got %d band keys, banding has %d bands", len(bandKeys), ix.p.Bands))
	}
	keys := ix.carveKeys(id)
	copy(keys, bandKeys)
	ix.insertKeyed(id, keys)
}

// carveKeys reserves the member's band-key window off the arena and checks
// id uniqueness.
func (ix *Index) carveKeys(id int32) []uint64 {
	if _, dup := ix.keys[id]; dup {
		panic(fmt.Sprintf("lsh: duplicate insert of id %d", id))
	}
	if cap(ix.keyArena)-len(ix.keyArena) < ix.p.Bands {
		ix.keyArena = make([]uint64, 0, 256*ix.p.Bands)
	}
	keys := ix.keyArena[len(ix.keyArena) : len(ix.keyArena)+ix.p.Bands : len(ix.keyArena)+ix.p.Bands]
	ix.keyArena = ix.keyArena[:len(ix.keyArena)+ix.p.Bands]
	return keys
}

// insertKeyed files id into its sorted bucket position in every band; keys
// must be the member's arena window, already filled.
func (ix *Index) insertKeyed(id int32, keys []uint64) {
	for band, k := range keys {
		b := ix.buckets[band][k]
		pos := len(b)
		for pos > 0 && b[pos-1] > id {
			pos--
		}
		b = append(b, 0)
		copy(b[pos+1:], b[pos:])
		b[pos] = id
		ix.buckets[band][k] = b
	}
	ix.keys[id] = keys
}

// Remove deletes a member; unknown ids are a no-op. Bucket order of the
// remaining members is preserved (still sorted ascending).
func (ix *Index) Remove(id int32) {
	keys, ok := ix.keys[id]
	if !ok {
		return
	}
	delete(ix.keys, id)
	for band, k := range keys {
		b := ix.buckets[band][k]
		for i, m := range b {
			if m == id {
				b = append(b[:i], b[i+1:]...)
				break
			}
		}
		if len(b) == 0 {
			delete(ix.buckets[band], k)
		} else {
			ix.buckets[band][k] = b
		}
	}
}

// Members returns the live member ids sorted ascending.
func (ix *Index) Members() []int32 {
	out := make([]int32, 0, len(ix.keys))
	for id := range ix.keys {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Probe returns the ids of every member sharing at least one band bucket
// with sig, excluding self, deduplicated and sorted ascending (pool
// insertion order — the deterministic tie-break order of the ranking).
func (ix *Index) Probe(sig *fingerprint.Signature, self int32) []int32 {
	sc := ix.scratches.Get().(*probeScratch)
	sc.gen++
	if sc.gen == 0 { // generation wrapped: the stale stamps are ambiguous
		clear(sc.stamp)
		sc.gen = 1
	}
	var out []int32
	for band := 0; band < ix.p.Bands; band++ {
		for _, id := range ix.buckets[band][bandKey(sig, band, ix.p.Rows)] {
			if id == self {
				continue
			}
			if int(id) >= len(sc.stamp) {
				grown := make([]uint32, int(id)+1)
				copy(grown, sc.stamp)
				sc.stamp = grown
			}
			if sc.stamp[id] == sc.gen {
				continue
			}
			sc.stamp[id] = sc.gen
			out = append(out, id)
		}
	}
	// Results must come back ascending (pool insertion order). When the
	// probe touched a large fraction of the id space an in-order sweep of
	// the stamp array is cheaper than comparison sorting; otherwise sort.
	if len(out)*8 >= len(sc.stamp) {
		out = out[:0]
		for id, g := range sc.stamp {
			if g == sc.gen {
				out = append(out, int32(id))
			}
		}
	} else {
		slices.Sort(out)
	}
	ix.scratches.Put(sc)
	return out
}

// ProbeBatch probes many queries across up to workers goroutines. The index
// must not be mutated concurrently; probes themselves are read-only.
// selves[i] is excluded from result i the way Probe excludes self.
func (ix *Index) ProbeBatch(sigs []*fingerprint.Signature, selves []int32, workers int) [][]int32 {
	if len(sigs) != len(selves) {
		panic("lsh: ProbeBatch length mismatch")
	}
	out := make([][]int32, len(sigs))
	par.For(len(sigs), workers, func(i int) {
		out[i] = ix.Probe(sigs[i], selves[i])
	})
	return out
}

// Stats summarizes the index occupancy (experiment reporting).
type Stats struct {
	// Members is the number of indexed functions.
	Members int
	// Buckets is the number of non-empty buckets across all bands.
	Buckets int
	// MaxBucket is the largest single bucket.
	MaxBucket int
}

// ComputeStats walks the buckets and summarizes them.
func (ix *Index) ComputeStats() Stats {
	st := Stats{Members: len(ix.keys)}
	for _, band := range ix.buckets {
		st.Buckets += len(band)
		for _, b := range band {
			if len(b) > st.MaxBucket {
				st.MaxBucket = len(b)
			}
		}
	}
	return st
}
