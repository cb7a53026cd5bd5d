package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The fmdb segment format: the on-disk carrier of the persistent similarity
// database (internal/simdb, DESIGN.md §14). A segment file is an append-only
// log in the fmir sectioned-LEB128 style under its own magic:
//
//	magic "FMDB" | version uvarint | store-name (len+bytes)
//	section*     id byte | payload-length uvarint | payload
//
// Unlike fmir there is no end section: the stream is terminated by EOF, so a
// writer extends a segment by appending whole sections (O_APPEND), and a
// reader replays sections in order. Four section kinds exist:
//
//   - records: upserts keyed by stable hash + content key — a later record
//     for the same key supersedes an earlier one;
//   - tombstones: removals of the same key; a still-later record resurrects
//     it;
//   - content keys: (stable hash, canonical key bytes) pairs, the store's
//     hash → key table beyond what its records already carry;
//   - attempt entries: negative-attempt memo entries, each asserting that one
//     merge attempt class priced unprofitable under one configuration digest
//     (see DBAttempt).
//
// Replay order is the log order, which is what makes the live set a pure
// function of the file bytes; key and attempt entries are facts, not
// upserts, so their replay order only matters through the reader's own
// collision rule.
//
// A record carries everything the explore rank cache needs to skip
// re-fingerprinting an unchanged function: the stable hash and the canonical
// content key (the staleness check is key byte equality), the sparse opcode
// and type frequency tables of the fingerprint, the MinHash signature lanes
// (absent on records produced by exact-ranking runs that never signed), and
// optionally the LSH band keys derived from those lanes.
// Hash, digest and lane values are fixed-width little-endian — high-entropy
// values varints would only inflate — everything else is LEB128. Key bytes
// alias the input buffer on decode (zero-copy), like fmir body strings.
type DBRecord struct {
	Hash    uint64
	Name    string
	Linkage byte
	Flags   byte
	Size    int // instruction count (the fingerprint's Total)
	Key     []byte
	// Ops and Types are the sparse fingerprint tables: opcode counts with
	// ascending opcodes, and type-key counts sorted by key (the order
	// fingerprint.Compute produces).
	Ops   []DBOpCount
	Types []DBTypeCount
	// MinHash carries the raw signature lanes; empty means the record was
	// never signed. The wire layer round-trips whatever lane count the
	// producer wrote; the consumer validates it against fingerprint.SigLanes.
	MinHash []uint64
	// Bands carries the record's precomputed LSH band keys (one per band of
	// the producer's banding), letting a reader rehydrate the index without
	// re-hashing any band. Empty means not persisted; the consumer validates
	// the count against its own banding and falls back to recomputing from
	// MinHash on mismatch, so the field is a pure accelerator.
	Bands []uint64
}

// DBOpCount is one sparse opcode-frequency entry.
type DBOpCount struct {
	Op    int32
	Count int32
}

// DBTypeCount is one type-frequency entry, keyed by the type's spelling.
type DBTypeCount struct {
	Key   string
	Count int32
}

// DBTombstone removes the record with this exact (hash, key) pair from the
// live set. The key bytes disambiguate FNV collisions.
type DBTombstone struct {
	Hash uint64
	Key  []byte
}

// DBKey is one content-key entry: the canonical key bytes a stable hash was
// verified against. Key bytes alias the input buffer on decode.
type DBKey struct {
	Hash uint64
	Key  []byte
}

// DBAttempt is one negative-attempt memo entry: merging the function with
// verified content hash H1 into the one with hash H2, under the caller
// snapshots (Callers, AddrTaken) and linkages of each side, failed or priced
// unprofitable under the exploration configuration whose digest is Digest.
// The wire layer carries the fields; what they mean, and when an entry may
// be trusted, is the consumer's contract (internal/explore, DESIGN.md §14).
type DBAttempt struct {
	Digest             uint64
	H1, H2             uint64
	Callers1, Callers2 uint32
	AddrTaken1         bool
	AddrTaken2         bool
	Linkage1, Linkage2 byte
}

// DBSelfEq marks records whose key equality implies structural equality
// (mirrors SumSelfEq; functions with φs or unmodeled invokes clear it).
const DBSelfEq byte = 1 << 0

// DBMagic is the 4-byte fmdb segment signature.
var DBMagic = [4]byte{'F', 'M', 'D', 'B'}

// DBVersion is the fmdb format version this package reads and writes.
// Segments persist global.StableHash values and default-banding LSH band
// keys, so the stable-hash algorithm and lsh.DefaultParams are part of the
// format: a change to either must bump this so stale segments are rejected
// instead of silently mis-comparing. v1 hashes with the 8-byte-block FNV-1a
// + splitmix64-finalizer fnv64; v2 keeps that hash and adds the content-key
// and attempt-entry sections.
const DBVersion = 2

// fmdb section identifiers (disjoint stream from fmir sections).
const (
	dbSecRecords  = 1
	dbSecTombs    = 2
	dbSecKeys     = 3
	dbSecAttempts = 4
)

// Attempt-entry flag bits.
const (
	dbAttemptAddr1 = 1 << 0
	dbAttemptAddr2 = 1 << 1
)

// maxDBOps bounds a record's sparse opcode table: there are only NumOpcodes
// distinct opcodes, but the wire layer sits below ir's enum, so it uses a
// generous fixed bound and the consumer re-validates exact opcode ranges.
const maxDBOps = 4096

// IsFMDB reports whether data begins with the fmdb magic bytes.
func IsFMDB(data []byte) bool {
	return len(data) >= len(DBMagic) && string(data[:len(DBMagic)]) == string(DBMagic[:])
}

// AppendDBHeader appends the segment header: magic, version, store name.
func AppendDBHeader(b []byte, name string) []byte {
	b = append(b, DBMagic[:]...)
	b = appendUvarint(b, DBVersion)
	return appendString(b, name)
}

// AppendDBRecords appends one records section holding recs in order.
func AppendDBRecords(b []byte, recs []DBRecord) []byte {
	var payload []byte
	payload = appendUvarint(payload, uint64(len(recs)))
	for i := range recs {
		payload = appendDBRecord(payload, &recs[i])
	}
	return appendDBSection(b, dbSecRecords, payload)
}

// appendDBSection frames one section: id, payload length, payload.
func appendDBSection(b []byte, id byte, payload []byte) []byte {
	b = append(b, id)
	b = appendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// appendDBHashKey appends one (hash, key) item, the layout tombstone and
// content-key sections share.
func appendDBHashKey(b []byte, hash uint64, key []byte) []byte {
	b = binaryLEAppend64(b, hash)
	b = appendUvarint(b, uint64(len(key)))
	return append(b, key...)
}

func appendDBRecord(b []byte, r *DBRecord) []byte {
	b = binaryLEAppend64(b, r.Hash)
	b = appendString(b, r.Name)
	b = append(b, r.Linkage, r.Flags)
	b = appendUvarint(b, uint64(r.Size))
	b = appendUvarint(b, uint64(len(r.Key)))
	b = append(b, r.Key...)
	b = appendUvarint(b, uint64(len(r.Ops)))
	for _, oc := range r.Ops {
		b = appendUvarint(b, uint64(oc.Op))
		b = appendUvarint(b, uint64(oc.Count))
	}
	b = appendUvarint(b, uint64(len(r.Types)))
	for _, tc := range r.Types {
		b = appendString(b, tc.Key)
		b = appendUvarint(b, uint64(tc.Count))
	}
	b = appendUvarint(b, uint64(len(r.MinHash)))
	for _, lane := range r.MinHash {
		b = binaryLEAppend64(b, lane)
	}
	b = appendUvarint(b, uint64(len(r.Bands)))
	for _, k := range r.Bands {
		b = binaryLEAppend64(b, k)
	}
	return b
}

// AppendDBTombstones appends one tombstone section holding tombs in order.
func AppendDBTombstones(b []byte, tombs []DBTombstone) []byte {
	var payload []byte
	payload = appendUvarint(payload, uint64(len(tombs)))
	for _, t := range tombs {
		payload = appendDBHashKey(payload, t.Hash, t.Key)
	}
	return appendDBSection(b, dbSecTombs, payload)
}

// AppendDBKeys appends one content-key section holding keys in order.
func AppendDBKeys(b []byte, keys []DBKey) []byte {
	var payload []byte
	payload = appendUvarint(payload, uint64(len(keys)))
	for _, k := range keys {
		payload = appendDBHashKey(payload, k.Hash, k.Key)
	}
	return appendDBSection(b, dbSecKeys, payload)
}

// AppendDBAttempts appends one attempt-entry section holding atts in order.
func AppendDBAttempts(b []byte, atts []DBAttempt) []byte {
	var payload []byte
	payload = appendUvarint(payload, uint64(len(atts)))
	for _, a := range atts {
		payload = binaryLEAppend64(payload, a.Digest)
		payload = binaryLEAppend64(payload, a.H1)
		payload = binaryLEAppend64(payload, a.H2)
		payload = appendUvarint(payload, uint64(a.Callers1))
		payload = appendUvarint(payload, uint64(a.Callers2))
		var flags byte
		if a.AddrTaken1 {
			flags |= dbAttemptAddr1
		}
		if a.AddrTaken2 {
			flags |= dbAttemptAddr2
		}
		payload = append(payload, flags, a.Linkage1, a.Linkage2)
	}
	return appendDBSection(b, dbSecAttempts, payload)
}

// DBVisitor receives the items of a segment replay; any callback may be nil.
type DBVisitor struct {
	Record  func(DBRecord)
	Tomb    func(DBTombstone)
	Key     func(DBKey)
	Attempt func(DBAttempt)
}

// WalkDB replays a segment byte stream in log order, invoking v's callback
// for every record, tombstone, content key and attempt entry. Key bytes of
// records, tombstones and content keys alias data; a record's Ops, Types,
// MinHash and Bands slices are scratch reused between callbacks — a callback that
// keeps a record beyond its invocation must copy them (Types' Key strings
// are immutable and safe to retain as-is). Corrupt or truncated input
// returns an error; callbacks already invoked before the error stand (the
// caller discards its accumulated state on error). Returns the store name
// from the header.
//
// WalkDB is the strict walker: every byte of data must belong to a complete,
// well-formed section. A reader that wants crash recovery — replay the
// complete prefix of a segment whose tail was cut mid-append — uses
// WalkDBPrefix instead.
func WalkDB(data []byte, v DBVisitor) (string, error) {
	name, n, err := WalkDBPrefix(data, v)
	if err != nil {
		return "", err
	}
	if n != len(data) {
		return "", fmt.Errorf("wire: fmdb segment truncated mid-section at offset %d", n)
	}
	return name, nil
}

// WalkDBPrefix replays the longest complete-section prefix of a segment byte
// stream, with the same callback and aliasing contract as WalkDB, and
// returns the store name plus the prefix length in bytes. A truncated
// trailing section — what a crash mid-way through an O_APPEND flush leaves
// behind — is not an error: replay stops at the last complete section and
// the returned length tells the caller where the valid log ends (n <
// len(data) signals a damaged tail to truncate before appending again).
// Errors are reserved for damage that recovery cannot scope: bad magic, a
// version mismatch, a truncated header, an unknown section id, or corruption
// inside a fully-present section payload (including bytes left over after
// its last item). No callback is invoked for the
// truncated tail: sections replay only once their payload is complete.
func WalkDBPrefix(data []byte, v DBVisitor) (string, int, error) {
	if !IsFMDB(data) {
		return "", 0, ErrBadDBMagic
	}
	r := &reader{buf: data, pos: len(DBMagic)}
	if v := r.uvarint(); r.err == nil && v != DBVersion {
		return "", 0, fmt.Errorf("wire: unsupported fmdb version %d (this build reads version %d)", v, DBVersion)
	}
	name := string(r.bytes(int(r.uvarint())))
	if r.err != nil {
		return "", 0, r.err // a segment without a complete header holds nothing
	}
	good := r.pos
	for r.remaining() > 0 {
		id := r.byte()
		plen := r.uvarint()
		if r.err != nil {
			break // truncated tail: keep the prefix
		}
		payload := r.bytes(int(plen))
		if r.err != nil {
			break
		}
		sub := &reader{buf: payload}
		switch id {
		case dbSecRecords:
			walkDBRecords(sub, v.Record)
		case dbSecTombs:
			walkDBHashKeys(sub, func(h uint64, k []byte) {
				if v.Tomb != nil {
					v.Tomb(DBTombstone{Hash: h, Key: k})
				}
			})
		case dbSecKeys:
			walkDBHashKeys(sub, func(h uint64, k []byte) {
				if v.Key != nil {
					v.Key(DBKey{Hash: h, Key: k})
				}
			})
		case dbSecAttempts:
			walkDBAttempts(sub, v.Attempt)
		default:
			return "", good, fmt.Errorf("wire: unexpected section %d in fmdb stream", id)
		}
		if sub.err == nil && sub.remaining() > 0 {
			sub.fail("%d trailing bytes in fmdb section %d", sub.remaining(), id)
		}
		if sub.err != nil {
			return "", good, sub.err
		}
		good = r.pos
	}
	return name, good, nil
}

func walkDBRecords(r *reader, onRecord func(DBRecord)) {
	n := r.count(12) // hash(8) + four 1-byte fields is the floor of a record
	// Scratch state shared across the section's records: the Ops, Types and
	// MinHash slices handed to the callback are reused between invocations
	// (see the WalkDB retention contract), and type-key spellings — a small
	// set repeated across thousands of records — are interned so replaying a
	// large segment allocates per distinct spelling, not per entry.
	var (
		opsBuf   []DBOpCount
		typesBuf []DBTypeCount
		laneBuf  []uint64
		bandBuf  []uint64
		interned map[string]string
	)
	for i := 0; i < n && r.err == nil; i++ {
		var rec DBRecord
		rec.Hash = binaryLE64(r)
		rec.Name = string(r.bytes(int(r.uvarint())))
		rec.Linkage = r.byte()
		rec.Flags = r.byte()
		rec.Size = int(r.uvarint())
		rec.Key = dbKeyBytes(r)
		nOps := r.count(2)
		if r.err == nil && nOps > maxDBOps {
			r.fail("fmdb record with %d opcode entries exceeds limit %d", nOps, maxDBOps)
			return
		}
		opsBuf = opsBuf[:0]
		for k := 0; k < nOps && r.err == nil; k++ {
			op := r.uvarint()
			count := r.uvarint()
			if op > maxDBOps || count > 1<<31-1 {
				r.fail("fmdb opcode entry out of range at offset %d", r.pos)
				return
			}
			opsBuf = append(opsBuf, DBOpCount{Op: int32(op), Count: int32(count)})
		}
		if len(opsBuf) > 0 {
			rec.Ops = opsBuf
		}
		nTypes := r.count(2)
		typesBuf = typesBuf[:0]
		for k := 0; k < nTypes && r.err == nil; k++ {
			kb := r.bytes(int(r.uvarint()))
			count := r.uvarint()
			if count > 1<<31-1 {
				r.fail("fmdb type count out of range at offset %d", r.pos)
				return
			}
			if interned == nil {
				interned = make(map[string]string, 32)
			}
			key, ok := interned[string(kb)]
			if !ok {
				key = string(kb)
				interned[key] = key
			}
			typesBuf = append(typesBuf, DBTypeCount{Key: key, Count: int32(count)})
		}
		if len(typesBuf) > 0 {
			rec.Types = typesBuf
		}
		lanes := int(r.uvarint())
		if r.err == nil && lanes > maxSummaryLanes {
			r.fail("fmdb record with %d MinHash lanes exceeds limit %d", lanes, maxSummaryLanes)
			return
		}
		if r.err == nil && lanes > 0 {
			if lanes*8 > r.remaining() {
				r.fail("fmdb lane data exceeds payload at offset %d", r.pos)
				return
			}
			if cap(laneBuf) < lanes {
				laneBuf = make([]uint64, lanes)
			}
			mh := laneBuf[:lanes]
			for l := range mh {
				mh[l] = binaryLE64(r)
			}
			rec.MinHash = mh
		}
		bands := int(r.uvarint())
		if r.err == nil && bands > maxSummaryLanes {
			r.fail("fmdb record with %d band keys exceeds limit %d", bands, maxSummaryLanes)
			return
		}
		if r.err == nil && bands > 0 {
			if bands*8 > r.remaining() {
				r.fail("fmdb band data exceeds payload at offset %d", r.pos)
				return
			}
			if cap(bandBuf) < bands {
				bandBuf = make([]uint64, bands)
			}
			bk := bandBuf[:bands]
			for l := range bk {
				bk[l] = binaryLE64(r)
			}
			rec.Bands = bk
		}
		if r.err == nil && onRecord != nil {
			onRecord(rec)
		}
	}
}

// walkDBHashKeys reads the (hash, key) items of a tombstone or content-key
// section.
func walkDBHashKeys(r *reader, on func(hash uint64, key []byte)) {
	n := r.count(9) // hash(8) + key length byte
	for i := 0; i < n && r.err == nil; i++ {
		h := binaryLE64(r)
		k := dbKeyBytes(r)
		if r.err == nil {
			on(h, k)
		}
	}
}

func walkDBAttempts(r *reader, onAttempt func(DBAttempt)) {
	n := r.count(29) // digest + two hashes (24) + two callers + flags + two linkages
	for i := 0; i < n && r.err == nil; i++ {
		var a DBAttempt
		a.Digest = binaryLE64(r)
		a.H1 = binaryLE64(r)
		a.H2 = binaryLE64(r)
		c1, c2 := r.uvarint(), r.uvarint()
		if c1 > math.MaxUint32 || c2 > math.MaxUint32 {
			r.fail("fmdb attempt caller count out of range at offset %d", r.pos)
			return
		}
		a.Callers1, a.Callers2 = uint32(c1), uint32(c2)
		flags := r.byte()
		if flags&^(dbAttemptAddr1|dbAttemptAddr2) != 0 {
			r.fail("fmdb attempt flags %#x invalid at offset %d", flags, r.pos)
			return
		}
		a.AddrTaken1 = flags&dbAttemptAddr1 != 0
		a.AddrTaken2 = flags&dbAttemptAddr2 != 0
		a.Linkage1 = r.byte()
		a.Linkage2 = r.byte()
		if r.err == nil && onAttempt != nil {
			onAttempt(a)
		}
	}
}

// ErrBadDBMagic reports that input did not start with the fmdb signature.
var ErrBadDBMagic = errors.New("wire: not an fmdb segment (bad magic)")

// dbKeyBytes reads a length-prefixed key, normalizing zero length to nil so
// round trips are exact (the encoder writes nil and empty identically).
func dbKeyBytes(r *reader) []byte {
	n := int(r.uvarint())
	if n == 0 {
		return nil
	}
	return r.bytes(n)
}

// binaryLE64 reads one fixed-width little-endian uint64.
func binaryLE64(r *reader) uint64 {
	return binary.LittleEndian.Uint64(pad8(r.bytes(8)))
}

// binaryLEAppend64 appends one fixed-width little-endian uint64.
func binaryLEAppend64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
