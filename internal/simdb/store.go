// Package simdb is the persistent corpus-scale similarity database
// (ROADMAP item 5, DESIGN.md §14): a content-addressed store of function
// similarity state — stable hash, canonical content key, rank-cache
// fingerprint, MinHash signature — that survives process restarts so a warm
// start rehydrates the LSH bands and fingerprints from disk instead of
// re-running fingerprint.Compute/ComputeSignature over an unchanged corpus.
//
// Identity and staleness mirror the PR-9 session table: a function is keyed
// by its PR-8 stable hash, disambiguated by the canonical content key bytes
// (global.AppendStableKey output). Key byte equality implies an identical
// (opcode, type) instruction sequence, which implies identical fingerprint
// and signature — so a key hit is never stale and reuse is bit-exact.
//
// Next to the records a store holds the two content tables an
// explore.Session persists: a content-key table (stable hash → key bytes;
// record keys count too, the first key for a hash wins and a second,
// different one makes the hash unverifiable) and a set of negative-attempt
// entries (see Attempt). Both are facts about content, not live state:
// nothing removes them, and compaction rewrites them.
//
// On disk a store is one fmdb segment file (internal/wire): an append-only
// log of record, tombstone, content-key and attempt sections. Mutations
// accumulate in memory and Flush appends them as whole sections
// (O_APPEND), each sorted so the file bytes are deterministic for any
// worker count. Each flush writes
// its tombstone section before its record section: within one batch a
// pending record is always the key's live final state (Remove unlinks
// pending records), so records must replay after any same-batch tombstone —
// a remove-then-reput in one flush window stays live. Removals append
// tombstones whenever any file entry exists for the key; when the dead
// fraction of the file crosses the compaction threshold after a flush, the
// store rewrites itself live-only via a temp-file rename. Replay order makes
// the live set a pure function of the file bytes, so a reopened store equals
// the last-flushed state up to the last complete section: a crash partway
// through an appending flush leaves a truncated trailing section, which Open
// skips (wire.WalkDBPrefix) and the next flush or compaction truncates away
// before writing. Only a segment whose header never completely landed — a
// crash during the very first flush — is unrecoverable, and such a store
// never had a durable state to lose.
package simdb

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"

	"fmsa/internal/fingerprint"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
	"fmsa/internal/wire"
)

// Record is one live function's similarity state. Records are immutable once
// published: concurrent readers may hold a *Record across store mutations, so
// updates replace the table slot with a fresh record instead of mutating.
type Record struct {
	Hash    uint64
	Name    string
	Linkage ir.Linkage
	SelfEq  bool
	Size    int32 // instruction count (fingerprint Total)
	Key     []byte
	// Fp is the rank-cache fingerprint rehydrated from the sparse tables.
	// Its TypeFreq entries carry Key strings only (Type pointers are an
	// intra-package fingerprint detail and never serialized).
	Fp *fingerprint.Fingerprint
	// Sig is nil for records produced by exact-ranking runs that never
	// computed a signature; such records rehydrate fingerprints but do not
	// enter the LSH index.
	Sig *fingerprint.Signature
	// Bands holds Sig's LSH band keys under lsh.DefaultParams, computed at
	// Put time and persisted with the record so Rehydrate files the member
	// into its buckets without re-hashing any band. Nil for unsigned
	// records. A change to the default banding (or the band hash) is a
	// segment format change and must bump wire.DBVersion.
	Bands []uint64

	// flushed marks this exact record as present in the segment file;
	// onDisk marks the (hash, key) as having *some* file entry — this
	// record or a flushed predecessor it superseded. A superseding record
	// is unflushed but onDisk, and removing it must still tombstone the
	// predecessor's file entry or the predecessor resurrects on replay.
	flushed bool
	onDisk  bool
}

// Options tunes a store. The zero value selects the defaults.
type Options struct {
	// AutoCompactMin is the minimum dead-entry count before a flush may
	// trigger auto-compaction. Default 64.
	AutoCompactMin int
	// AutoCompactRatio triggers compaction when dead > ratio × written
	// file entries after a flush. Default 0.5; negative disables
	// auto-compaction entirely.
	AutoCompactRatio float64
}

const (
	defaultAutoCompactMin   = 64
	defaultAutoCompactRatio = 0.5
)

// Store is a persistent similarity database over one segment file. All
// methods are safe for concurrent use; lookups take a read lock.
type Store struct {
	mu   sync.RWMutex
	path string
	name string
	opts Options

	// table maps stable hash → records with that hash (key bytes
	// disambiguate FNV collisions). Slot replacement, never mutation.
	table map[uint64][]*Record
	live  int

	hasHeader bool // segment file exists with a header on disk
	written   int  // record + tombstone entries appended to the file
	compacts  int  // completed compactions

	// tailTrunc is the valid-prefix length of a segment whose tail was cut
	// mid-append (crash during Flush); the next write truncates the file to
	// this length before appending. -1 when the file has no damaged tail.
	tailTrunc int64

	pend      []*Record // records not yet in the file
	pendTombs []wire.DBTombstone

	// keys is the content-key table: stable hash → the canonical key bytes
	// it was first seen with, from a record, a key entry or VerifyKey. A
	// second, different key for the same hash marks the slot collided, and
	// a collided hash never verifies again. pendKeys holds the first key and
	// the first conflicting key of slots created since the last Flush.
	keys     map[uint64]keySlot
	pendKeys []wire.DBKey
	// attempts is the negative-attempt memo set (see Attempt); pendAtts
	// holds the entries added since the last Flush.
	attempts map[Attempt]struct{}
	pendAtts []Attempt
}

// keySlot is one content-key table entry. other is the first key that
// conflicted with key; it is kept so compaction can persist the collision.
type keySlot struct {
	key, other []byte
	collided   bool
}

// DefaultKeyTableCap bounds the content keys VerifyKey adds, and
// DefaultNegMemoCap the attempt entries AddAttempt adds; a full table stops
// growing, which only costs later sessions memo coverage. Keys carried by
// records are always kept, and replay restores whatever the file holds.
// explore's session tables apply the same bounds.
const (
	DefaultKeyTableCap = 1 << 17
	DefaultNegMemoCap  = 1 << 17
)

// Attempt is one persisted negative-attempt memo entry (see wire.DBAttempt):
// merging the function with content hash H1 into the one with hash H2, under
// the recorded caller snapshots and linkages, failed or priced unprofitable
// under the exploration configuration whose digest is Digest. The store only
// keeps and serves entries; the session that writes them guarantees both
// hashes were verified byte-for-byte against this store's content keys.
type Attempt = wire.DBAttempt

// Open loads the segment at path, or creates an empty store bound to it when
// the file does not exist yet (nothing is written until the first Flush).
// name labels a newly created store; an existing file keeps its stored name.
func Open(path, name string, opts Options) (*Store, error) {
	if opts.AutoCompactMin == 0 {
		opts.AutoCompactMin = defaultAutoCompactMin
	}
	if opts.AutoCompactRatio == 0 {
		opts.AutoCompactRatio = defaultAutoCompactRatio
	}
	s := &Store{path: path, name: name, opts: opts,
		table: map[uint64][]*Record{}, tailTrunc: -1,
		keys: map[uint64]keySlot{}, attempts: map[Attempt]struct{}{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	// Replay allocation is batched: records, fingerprints and signatures come
	// from arena chunks (a signed record is ~1.3 KiB of mostly pointer-free
	// state — per-record allocations would dominate a large segment's replay),
	// and the table is presized from the segment size so rehydration never
	// rehashes.
	var arena replayArena
	s.table = make(map[uint64][]*Record, len(data)/1024)
	var walkErr error
	stored, good, err := wire.WalkDBPrefix(data, wire.DBVisitor{
		Record: func(w wire.DBRecord) {
			if walkErr != nil {
				return
			}
			rec, err := arena.wireToRecord(&w)
			if err != nil {
				walkErr = err
				return
			}
			rec.flushed = true
			rec.onDisk = true
			s.written++
			s.noteKeyLocked(rec.Hash, rec.Key, true)
			// The common replay case — first record for its hash — takes a
			// table slot carved from the arena; collisions and in-file
			// supersedes (rare) fall back to the general upsert.
			if _, taken := s.table[rec.Hash]; !taken {
				s.table[rec.Hash] = arena.slot(rec)
				s.live++
			} else {
				s.upsertLocked(rec)
			}
		},
		Tomb: func(t wire.DBTombstone) {
			s.written++
			s.dropLocked(t.Hash, t.Key)
		},
		Key: func(k wire.DBKey) { s.noteKeyLocked(k.Hash, k.Key, true) },
		Attempt: func(a wire.DBAttempt) {
			s.attempts[a] = struct{}{}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("simdb: %s: %w", path, err)
	}
	if walkErr != nil {
		return nil, fmt.Errorf("simdb: %s: %w", path, walkErr)
	}
	s.name = stored
	s.hasHeader = true
	if good < len(data) {
		// Crash tail: a flush was cut mid-append. The replayed prefix is the
		// last durable state; the garbage past it is truncated away by the
		// next flush or compaction so the log stays strictly well-formed.
		s.tailTrunc = int64(good)
	}
	return s, nil
}

// Path returns the segment file path.
func (s *Store) Path() string { return s.path }

// Name returns the store label from the segment header.
func (s *Store) Name() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.name
}

// Len returns the live record count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Lookup returns the live record for (hash, key), or nil. The returned
// record is shared and must not be mutated; key bytes are compared, not
// aliased, so any equal byte slice matches.
func (s *Store) Lookup(hash uint64, key []byte) *Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookupLocked(hash, key)
}

func (s *Store) lookupLocked(hash uint64, key []byte) *Record {
	for _, r := range s.table[hash] {
		if bytes.Equal(r.Key, key) {
			return r
		}
	}
	return nil
}

// Put upserts r's similarity state. A record with the same (hash, key) —
// identical content — is kept unless r upgrades it: adding a signature where
// none was stored, or (for records not yet on disk) a lexicographically
// smaller name, so in-memory state is order-insensitive while flushed names
// stay stable and never force a supersede write. r.Fp must be non-nil; the
// store retains r.Key, r.Fp, r.Sig and r.Bands without copying, and derives
// the band keys from r.Sig when the caller left r.Bands nil.
func (s *Store) Put(r Record) {
	if r.Fp == nil {
		panic("simdb: Put without fingerprint")
	}
	if r.Sig != nil && r.Bands == nil {
		r.Bands = lsh.AppendBandKeys(lsh.Params{}, r.Sig, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteKeyLocked(r.Hash, r.Key, false)
	recs := s.table[r.Hash]
	for i, old := range recs {
		if !bytes.Equal(old.Key, r.Key) {
			continue
		}
		name := old.Name
		if !old.flushed && r.Name < name {
			name = r.Name
		}
		sig, bands := old.Sig, old.Bands
		if sig == nil {
			sig, bands = r.Sig, r.Bands
		}
		if name == old.Name && sig == old.Sig {
			return // nothing new
		}
		nr := &Record{
			Hash: old.Hash, Name: name, Linkage: old.Linkage, SelfEq: old.SelfEq,
			Size: old.Size, Key: old.Key, Fp: old.Fp, Sig: sig, Bands: bands,
			onDisk: old.onDisk,
		}
		recs[i] = nr
		if old.flushed {
			s.pend = append(s.pend, nr) // supersedes the file entry on replay
		} else {
			for j, p := range s.pend {
				if p == old {
					s.pend[j] = nr
					break
				}
			}
		}
		return
	}
	nr := &Record{
		Hash: r.Hash, Name: r.Name, Linkage: r.Linkage, SelfEq: r.SelfEq,
		Size: r.Size, Key: r.Key, Fp: r.Fp, Sig: r.Sig, Bands: r.Bands,
	}
	s.table[r.Hash] = append(recs, nr)
	s.live++
	s.pend = append(s.pend, nr)
}

// Remove deletes the live record for (hash, key), reporting whether one
// existed. Any file entry for the key — the record itself, or a flushed
// predecessor an unflushed record superseded — is removed by tombstone at
// the next Flush; a record that never reached the file is simply unlinked
// from the pending batch.
func (s *Store) Remove(hash uint64, key []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.dropLocked(hash, key)
	if old == nil {
		return false
	}
	if old.onDisk {
		s.pendTombs = append(s.pendTombs, wire.DBTombstone{Hash: hash, Key: key})
	}
	if !old.flushed {
		for j, p := range s.pend {
			if p == old {
				s.pend = append(s.pend[:j], s.pend[j+1:]...)
				break
			}
		}
	}
	return true
}

// noteKeyLocked records that hash was seen with key and reports whether the
// hash verifies against key: the slot is new or holds these bytes, and the
// hash never collided. fromFile marks replayed keys, which are already on
// disk; others queue for the next Flush when they create or collide a slot.
func (s *Store) noteKeyLocked(hash uint64, key []byte, fromFile bool) bool {
	sl, ok := s.keys[hash]
	if ok && bytes.Equal(sl.key, key) {
		return !sl.collided
	}
	if ok && sl.collided {
		return false
	}
	if ok {
		sl.other, sl.collided = key, true
	} else {
		sl.key = key
	}
	s.keys[hash] = sl
	if !fromFile {
		s.pendKeys = append(s.pendKeys, wire.DBKey{Hash: hash, Key: key})
	}
	return !ok
}

// VerifyKey reports whether hash verifies against key in the content-key
// table, adding the pair when the hash is new and the table has room. A
// true result means every attempt entry naming hash was written by a
// session that held exactly these key bytes. The store retains key.
func (s *Store) VerifyKey(hash uint64, key []byte) bool {
	s.mu.RLock()
	sl, ok := s.keys[hash]
	s.mu.RUnlock()
	if ok && (sl.collided || bytes.Equal(sl.key, key)) {
		return !sl.collided
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.keys[hash]; !ok && len(s.keys) >= DefaultKeyTableCap {
		return false
	}
	return s.noteKeyLocked(hash, key, false)
}

// usableLocked reports whether hash has one uncollided content key.
func (s *Store) usableLocked(hash uint64) bool {
	sl, ok := s.keys[hash]
	return ok && !sl.collided
}

// HasAttempt reports whether a is a stored attempt entry whose two hashes
// still map to single, uncollided content keys.
func (s *Store) HasAttempt(a Attempt) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.attempts[a]
	return ok && s.usableLocked(a.H1) && s.usableLocked(a.H2)
}

// AddAttempt records a for the next Flush. Entries whose hashes have no
// usable content key are dropped, as are new entries once the set holds
// DefaultNegMemoCap.
func (s *Store) AddAttempt(a Attempt) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.attempts[a]; ok || len(s.attempts) >= DefaultNegMemoCap ||
		!s.usableLocked(a.H1) || !s.usableLocked(a.H2) {
		return
	}
	s.attempts[a] = struct{}{}
	s.pendAtts = append(s.pendAtts, a)
}

// upsertLocked installs rec, replacing any same-key slot (file replay:
// later record wins).
func (s *Store) upsertLocked(rec *Record) {
	recs := s.table[rec.Hash]
	for i, old := range recs {
		if bytes.Equal(old.Key, rec.Key) {
			recs[i] = rec
			return
		}
	}
	s.table[rec.Hash] = append(recs, rec)
	s.live++
}

// dropLocked unlinks the live record for (hash, key) and returns it.
func (s *Store) dropLocked(hash uint64, key []byte) *Record {
	recs := s.table[hash]
	for i, old := range recs {
		if bytes.Equal(old.Key, key) {
			recs[i] = recs[len(recs)-1]
			recs = recs[:len(recs)-1]
			if len(recs) == 0 {
				delete(s.table, hash)
			} else {
				s.table[hash] = recs
			}
			s.live--
			return old
		}
	}
	return nil
}

// Flush appends pending tombstones, records, content keys and attempt
// entries to the segment file as whole sections — tombstones first, because
// a key with both in one batch is one that was removed and re-put inside
// the flush window, and its record must win on replay — each sorted so the
// bytes are independent of insertion order and worker count, then
// auto-compacts if the dead fraction crossed the threshold. Content keys a
// live record already carries are not written again. A no-op when nothing
// is pending. On error the pending state is kept for the next Flush, and a
// partly written append is truncated away before it.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pend) == 0 && len(s.pendTombs) == 0 && len(s.pendKeys) == 0 && len(s.pendAtts) == 0 {
		return nil
	}
	sortRecords(s.pend)
	tombs := s.pendTombs
	sort.Slice(tombs, func(i, j int) bool {
		if tombs[i].Hash != tombs[j].Hash {
			return tombs[i].Hash < tombs[j].Hash
		}
		return bytes.Compare(tombs[i].Key, tombs[j].Key) < 0
	})
	var buf []byte
	if !s.hasHeader {
		buf = wire.AppendDBHeader(buf, s.name)
	}
	if len(tombs) > 0 {
		buf = wire.AppendDBTombstones(buf, tombs)
	}
	if len(s.pend) > 0 {
		ws := make([]wire.DBRecord, len(s.pend))
		for i, r := range s.pend {
			ws[i] = recordToWire(r)
		}
		buf = wire.AppendDBRecords(buf, ws)
	}
	buf = s.appendKeysLocked(buf, s.pendKeys)
	buf = appendAttempts(buf, s.pendAtts)
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if s.tailTrunc >= 0 {
		// Drop the crash tail left by an interrupted flush before appending;
		// O_APPEND writes land at the new, truncated end.
		if err := f.Truncate(s.tailTrunc); err != nil {
			f.Close()
			return err
		}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(buf); err != nil {
		// Whatever part of buf landed is a crash tail: the next flush
		// truncates back to the last complete section and rewrites it all.
		s.tailTrunc = fi.Size()
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		s.tailTrunc = fi.Size()
		return err
	}
	s.hasHeader = true
	s.tailTrunc = -1
	s.written += len(s.pend) + len(tombs)
	for _, r := range s.pend {
		r.flushed = true
		r.onDisk = true
	}
	s.pend, s.pendTombs, s.pendKeys, s.pendAtts = nil, nil, nil, nil
	if dead := s.written - s.live; s.opts.AutoCompactRatio >= 0 &&
		dead >= s.opts.AutoCompactMin &&
		float64(dead) > s.opts.AutoCompactRatio*float64(s.written) {
		return s.compactLocked()
	}
	return nil
}

// appendKeysLocked appends a content-key section for the keys no live
// record carries (replay notes record keys already), sorted by (hash, key);
// nothing when every key is covered.
func (s *Store) appendKeysLocked(buf []byte, keys []wire.DBKey) []byte {
	var out []wire.DBKey
	for _, k := range keys {
		if s.lookupLocked(k.Hash, k.Key) == nil {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return buf
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hash != out[j].Hash {
			return out[i].Hash < out[j].Hash
		}
		return bytes.Compare(out[i].Key, out[j].Key) < 0
	})
	return wire.AppendDBKeys(buf, out)
}

// appendAttempts appends an attempt section holding atts sorted by their
// fields in declaration order; nothing when atts is empty.
func appendAttempts(buf []byte, atts []Attempt) []byte {
	if len(atts) == 0 {
		return buf
	}
	slices.SortFunc(atts, func(a, b Attempt) int {
		return cmp.Or(
			cmp.Compare(a.Digest, b.Digest),
			cmp.Compare(a.H1, b.H1),
			cmp.Compare(a.H2, b.H2),
			cmp.Compare(a.Callers1, b.Callers1),
			cmp.Compare(a.Callers2, b.Callers2),
			cmpBool(a.AddrTaken1, b.AddrTaken1),
			cmpBool(a.AddrTaken2, b.AddrTaken2),
			cmp.Compare(a.Linkage1, b.Linkage1),
			cmp.Compare(a.Linkage2, b.Linkage2),
		)
	})
	return wire.AppendDBAttempts(buf, atts)
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}

// Compact rewrites the segment live-only (pending state included), dropping
// superseded records and tombstones via a temp-file rename.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	liveRecs := s.liveLocked()
	buf := wire.AppendDBHeader(nil, s.name)
	if len(liveRecs) > 0 {
		ws := make([]wire.DBRecord, len(liveRecs))
		for i, r := range liveRecs {
			ws[i] = recordToWire(r)
		}
		buf = wire.AppendDBRecords(buf, ws)
	}
	// The key table outlives the records that brought its keys, and a
	// collision must survive the rewrite: both of a collided slot's keys
	// are written unless a live record carries them.
	keys := make([]wire.DBKey, 0, len(s.keys))
	for h, sl := range s.keys {
		keys = append(keys, wire.DBKey{Hash: h, Key: sl.key})
		if sl.collided {
			keys = append(keys, wire.DBKey{Hash: h, Key: sl.other})
		}
	}
	buf = s.appendKeysLocked(buf, keys)
	atts := make([]Attempt, 0, len(s.attempts))
	for a := range s.attempts {
		atts = append(atts, a)
	}
	buf = appendAttempts(buf, atts)
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	s.hasHeader = true
	s.tailTrunc = -1 // full rewrite: any crash tail is gone with the old file
	s.written = len(liveRecs)
	for _, r := range liveRecs {
		r.flushed = true
		r.onDisk = true
	}
	s.pend, s.pendTombs, s.pendKeys, s.pendAtts = nil, nil, nil, nil
	s.compacts++
	return nil
}

// Live returns the live records sorted by (hash, key) — the canonical order,
// identical for any mutation history reaching the same live set.
func (s *Store) Live() []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveLocked()
}

func (s *Store) liveLocked() []*Record {
	all := make([]*Record, 0, s.live)
	for _, recs := range s.table {
		all = append(all, recs...)
	}
	sortRecords(all)
	return all
}

// sortRecords orders records by (hash, key) — a total order, since live
// records are unique per (hash, key).
func sortRecords(recs []*Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Hash != recs[j].Hash {
			return recs[i].Hash < recs[j].Hash
		}
		return bytes.Compare(recs[i].Key, recs[j].Key) < 0
	})
}

// Rehydrate builds a banded LSH index over the live set without recomputing
// any signature: records are assigned dense ids in canonical order (the
// index into the returned slice) and every signed record is inserted —
// straight from its persisted band keys when the record carries a full set
// for p's banding, re-hashed from the signature otherwise. Unsigned records
// appear in the slice but not the index.
func (s *Store) Rehydrate(p lsh.Params) (*lsh.Index, []*Record) {
	liveRecs := s.Live()
	// Persisted band keys are computed under the default banding; any other
	// banding re-hashes from the signatures (a matching band count alone
	// would not prove matching row grouping).
	stored := p == lsh.Params{} || p == lsh.DefaultParams()
	nb := p.NumBands()
	keys := make([][]uint64, len(liveRecs))
	for id, r := range liveRecs {
		switch {
		case stored && len(r.Bands) == nb:
			keys[id] = r.Bands
		case r.Sig != nil:
			keys[id] = lsh.AppendBandKeys(p, r.Sig, nil)
		}
	}
	return lsh.NewFromBandKeys(p, keys), liveRecs
}

// Stats is a point-in-time summary of store and segment state.
type Stats struct {
	Name         string
	Path         string
	Live         int // live records
	Signed       int // live records carrying a MinHash signature
	Written      int // record+tombstone entries in the segment file
	Dead         int // file entries superseded or tombstoned
	PendingRecs  int // records awaiting Flush
	PendingTombs int
	Compactions  int
	SegmentBytes int64 // current file size (0 when not yet created)
	// TailBytes counts garbage bytes past the last complete section — the
	// remnant of a flush interrupted by a crash, skipped on Open and
	// truncated away by the next flush or compaction. 0 for a clean log.
	TailBytes int64
	// Keys counts content-key table slots, Collided the unverifiable ones
	// among them, and Attempts the negative-attempt entries.
	Keys, Collided, Attempts int
}

// Stats returns current counters; segment size comes from the filesystem.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Name: s.name, Path: s.path,
		Live: s.live, Written: s.written, Dead: s.written - s.live,
		PendingRecs: len(s.pend), PendingTombs: len(s.pendTombs),
		Keys: len(s.keys), Attempts: len(s.attempts),
		Compactions: s.compacts,
	}
	for _, sl := range s.keys {
		if sl.collided {
			st.Collided++
		}
	}
	for _, recs := range s.table {
		for _, r := range recs {
			if r.Sig != nil {
				st.Signed++
			}
		}
	}
	if fi, err := os.Stat(s.path); err == nil {
		st.SegmentBytes = fi.Size()
		if s.tailTrunc >= 0 && fi.Size() > s.tailTrunc {
			st.TailBytes = fi.Size() - s.tailTrunc
		}
	}
	return st
}

// recordToWire lowers a record to its wire form. Fingerprint tables go
// sparse: only non-zero opcode counts, type entries keyed by spelling.
func recordToWire(r *Record) wire.DBRecord {
	w := wire.DBRecord{
		Hash: r.Hash, Name: r.Name, Linkage: byte(r.Linkage),
		Size: int(r.Size), Key: r.Key,
	}
	if r.SelfEq {
		w.Flags |= wire.DBSelfEq
	}
	for op, c := range r.Fp.OpFreq {
		if c != 0 {
			w.Ops = append(w.Ops, wire.DBOpCount{Op: int32(op), Count: c})
		}
	}
	if n := len(r.Fp.TypeFreq); n > 0 {
		w.Types = make([]wire.DBTypeCount, n)
		for i, tc := range r.Fp.TypeFreq {
			w.Types[i] = wire.DBTypeCount{Key: tc.Key, Count: tc.Count}
		}
	}
	if r.Sig != nil {
		w.MinHash = r.Sig[:]
		w.Bands = r.Bands
	}
	return w
}

// replayArena batch-allocates the objects a segment replay produces. Chunked
// slices hand out one element at a time; everything a chunk holds is live
// for the store's lifetime anyway, so batching only removes per-object
// allocator and GC-scan overhead, never retention.
type replayArena struct {
	recs  []Record
	fps   []fingerprint.Fingerprint
	sigs  []fingerprint.Signature
	tcs   []fingerprint.TypeCount
	bands []uint64
	ptrs  []*Record
}

const replayChunk = 512

func (a *replayArena) record() *Record {
	if len(a.recs) == 0 {
		a.recs = make([]Record, replayChunk)
	}
	r := &a.recs[0]
	a.recs = a.recs[1:]
	return r
}

func (a *replayArena) fingerprint() *fingerprint.Fingerprint {
	if len(a.fps) == 0 {
		a.fps = make([]fingerprint.Fingerprint, replayChunk)
	}
	fp := &a.fps[0]
	a.fps = a.fps[1:]
	return fp
}

func (a *replayArena) signature() *fingerprint.Signature {
	if len(a.sigs) == 0 {
		a.sigs = make([]fingerprint.Signature, replayChunk)
	}
	sig := &a.sigs[0]
	a.sigs = a.sigs[1:]
	return sig
}

// slot returns a capacity-1 table slot holding r. Nearly every hash maps to
// exactly one record, so carving the singleton slices from a chunk removes a
// per-record allocation; a later append (hash collision, session Put) simply
// reallocates past the capacity without touching the chunk.
func (a *replayArena) slot(r *Record) []*Record {
	if len(a.ptrs) == 0 {
		a.ptrs = make([]*Record, replayChunk)
	}
	s := a.ptrs[0:1:1]
	s[0] = r
	a.ptrs = a.ptrs[1:]
	return s
}

func (a *replayArena) typeCounts(n int) []fingerprint.TypeCount {
	if len(a.tcs) < n {
		a.tcs = make([]fingerprint.TypeCount, max(replayChunk, n))
	}
	out := a.tcs[:n:n]
	a.tcs = a.tcs[n:]
	return out
}

func (a *replayArena) bandKeys(n int) []uint64 {
	if len(a.bands) < n {
		a.bands = make([]uint64, max(replayChunk, n))
	}
	out := a.bands[:n:n]
	a.bands = a.bands[n:]
	return out
}

// wireToRecord validates and lifts a wire record: opcodes must be in range
// and ascending, their counts non-negative and summing to the record's Size
// (every writer stores Size = Total = Σ OpFreq, so a damaged count cannot
// slip through as a different fingerprint), and the lane count must be
// exactly fingerprint.SigLanes or zero. Key bytes alias the segment buffer
// (zero-copy); the wire record's scratch slices are copied into
// arena-backed state.
func (a *replayArena) wireToRecord(w *wire.DBRecord) (*Record, error) {
	rec := a.record()
	*rec = Record{
		Hash: w.Hash, Name: w.Name, Linkage: ir.Linkage(w.Linkage),
		SelfEq: w.Flags&wire.DBSelfEq != 0, Size: int32(w.Size), Key: w.Key,
	}
	if w.Size > math.MaxInt32 {
		return nil, fmt.Errorf("record %q: size %d out of range", w.Name, w.Size)
	}
	fp := a.fingerprint()
	fp.Total = int32(w.Size)
	var sum int64
	for i, oc := range w.Ops {
		if oc.Op < 0 || oc.Op >= int32(ir.NumOpcodes) {
			return nil, fmt.Errorf("record %q: opcode %d out of range", w.Name, oc.Op)
		}
		if i > 0 && oc.Op <= w.Ops[i-1].Op {
			return nil, fmt.Errorf("record %q: opcode %d out of order", w.Name, oc.Op)
		}
		if oc.Count < 0 {
			return nil, fmt.Errorf("record %q: opcode %d has negative count %d", w.Name, oc.Op, oc.Count)
		}
		fp.OpFreq[oc.Op] = oc.Count
		sum += int64(oc.Count)
	}
	if sum != int64(w.Size) {
		return nil, fmt.Errorf("record %q: opcode counts sum to %d, want size %d", w.Name, sum, w.Size)
	}
	fp.IndexOps()
	if n := len(w.Types); n > 0 {
		fp.TypeFreq = a.typeCounts(n)
		for i, tc := range w.Types {
			fp.TypeFreq[i] = fingerprint.TypeCount{Key: tc.Key, Count: tc.Count}
		}
	}
	rec.Fp = fp
	switch len(w.MinHash) {
	case 0:
	case fingerprint.SigLanes:
		sig := a.signature()
		copy(sig[:], w.MinHash)
		rec.Sig = sig
	default:
		return nil, fmt.Errorf("record %q: %d MinHash lanes, want %d or none",
			w.Name, len(w.MinHash), fingerprint.SigLanes)
	}
	if n := len(w.Bands); n > 0 {
		if rec.Sig == nil {
			return nil, fmt.Errorf("record %q: band keys without a signature", w.Name)
		}
		rec.Bands = a.bandKeys(n)
		copy(rec.Bands, w.Bands)
	}
	return rec, nil
}
