package simdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fmsa/internal/wire"
)

// attemptsOver returns one attempt entry per ordered pair of distinct
// record hashes (capped at n), under digest d.
func attemptsOver(recs []Record, d uint64, n int) []Attempt {
	var out []Attempt
	for i := range recs {
		for j := range recs {
			if i == j || len(out) == n {
				continue
			}
			out = append(out, Attempt{
				Digest: d, H1: recs[i].Hash, H2: recs[j].Hash,
				Callers1: uint32(i % 3), AddrTaken2: j%2 == 0,
				Linkage1: byte(recs[i].Linkage), Linkage2: byte(recs[j].Linkage),
			})
		}
	}
	return out
}

func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestStoreKeyTableCollision: the first key seen for a hash verifies; a
// second, different key makes the hash unverifiable for good — through
// Flush, reopen and compaction — and record keys take part like any other.
func TestStoreKeyTableCollision(t *testing.T) {
	recs := genRecords(t, 2, 0)
	s := tmpStore(t, Options{})
	const h = 77
	a, b := []byte("key-a"), []byte("key-b")
	if !s.VerifyKey(h, a) || !s.VerifyKey(h, a) {
		t.Fatal("a new hash did not verify against its first key")
	}
	if s.VerifyKey(h, b) {
		t.Fatal("a second key for the same hash verified")
	}
	if s.VerifyKey(h, a) {
		t.Fatal("the first key still verifies after a collision")
	}
	s.Put(recs[0])
	if !s.VerifyKey(recs[0].Hash, recs[0].Key) {
		t.Fatal("a record's key does not verify")
	}
	forged := append(append([]byte(nil), recs[1].Key...), 'x')
	if !s.VerifyKey(recs[1].Hash, forged) {
		t.Fatal("a new hash did not verify")
	}
	s.Put(recs[1]) // the record's real key collides with the forged one
	if s.VerifyKey(recs[1].Hash, recs[1].Key) || s.VerifyKey(recs[1].Hash, forged) {
		t.Fatal("a record key that collides with a stored key verified")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, when string) {
		t.Helper()
		if st.VerifyKey(h, a) || st.VerifyKey(h, b) || st.VerifyKey(recs[1].Hash, recs[1].Key) {
			t.Fatalf("%s: a collided hash verified", when)
		}
		if !st.VerifyKey(recs[0].Hash, recs[0].Key) {
			t.Fatalf("%s: a record key no longer verifies", when)
		}
		if got := st.Stats(); got.Keys != 3 || got.Collided != 2 {
			t.Fatalf("%s: %d keys (%d collided), want 3 (2)", when, got.Keys, got.Collided)
		}
	}
	check(s, "live")
	re := reopen(t, s)
	check(re, "reopened")
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	check(reopen(t, re), "compacted")
}

// TestStoreAttemptsPersist: attempt entries survive Flush, reopen and
// compaction — including entries whose keys came from records that were
// removed since — and entries naming a hash without a usable key are
// neither kept nor served.
func TestStoreAttemptsPersist(t *testing.T) {
	recs := genRecords(t, 6, 0)
	s := tmpStore(t, Options{AutoCompactRatio: -1})
	for _, r := range recs {
		s.Put(r)
	}
	atts := attemptsOver(recs, 0xd16e57, 12)
	for _, a := range atts {
		s.AddAttempt(a)
	}
	s.AddAttempt(Attempt{Digest: 1, H1: 12345, H2: recs[0].Hash}) // unknown hash
	if !s.VerifyKey(999, []byte("session-only")) {
		t.Fatal("a new hash did not verify")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Remove(recs[0].Hash, recs[0].Key)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store, when string) {
		t.Helper()
		for _, a := range atts {
			if !st.HasAttempt(a) {
				t.Fatalf("%s: attempt %+v lost", when, a)
			}
		}
		if st.HasAttempt(Attempt{Digest: 1, H1: 12345, H2: recs[0].Hash}) {
			t.Fatalf("%s: an entry naming an unknown hash was kept", when)
		}
		other := atts[0]
		other.Digest++
		if st.HasAttempt(other) {
			t.Fatalf("%s: an entry matched under another digest", when)
		}
		if !st.VerifyKey(recs[0].Hash, recs[0].Key) || !st.VerifyKey(999, []byte("session-only")) {
			t.Fatalf("%s: a content key was lost", when)
		}
		if got := st.Stats(); got.Attempts != len(atts) || got.Keys != len(recs)+1 {
			t.Fatalf("%s: %d attempts %d keys, want %d %d", when, got.Attempts, got.Keys, len(atts), len(recs)+1)
		}
	}
	check(s, "live")
	re := reopen(t, s)
	check(re, "reopened")
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	check(reopen(t, re), "compacted")

	// Collision revokes the entries of the collided hash only.
	re2 := reopen(t, re)
	re2.VerifyKey(recs[1].Hash, []byte("forged"))
	for _, a := range atts {
		names := a.H1 == recs[1].Hash || a.H2 == recs[1].Hash
		if re2.HasAttempt(a) == names {
			t.Fatalf("after a collision on %x: HasAttempt(%+v) = %v", recs[1].Hash, a, names)
		}
	}
}

// TestStoreMemoDeterministicBytes: one flush of the same keys and attempt
// entries writes identical bytes whatever order they were added in — the
// property that keeps a segment independent of the worker count.
func TestStoreMemoDeterministicBytes(t *testing.T) {
	recs := genRecords(t, 8, 0)
	atts := attemptsOver(recs, 5, 40)
	var want []byte
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := tmpStore(t, Options{})
		for _, i := range rng.Perm(len(recs)) {
			s.VerifyKey(recs[i].Hash, recs[i].Key)
		}
		for _, i := range rng.Perm(len(atts)) {
			s.AddAttempt(atts[i])
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(s.Path())
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Fatalf("trial %d: segment bytes differ from trial 0", trial)
		}
	}
}

// TestStoreRecoversCrashTailInMemoSections cuts a flush of content keys and
// attempt entries at every byte. Open must replay exactly the complete
// sections before the cut, and the next flush must leave a strictly
// well-formed segment.
func TestStoreRecoversCrashTailInMemoSections(t *testing.T) {
	recs := genRecords(t, 4, 0)
	s := tmpStore(t, Options{AutoCompactRatio: -1})
	s.Put(recs[0])
	s.Put(recs[1])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	durable, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	s.VerifyKey(recs[2].Hash, recs[2].Key)
	s.VerifyKey(recs[3].Hash, recs[3].Key)
	atts := attemptsOver(recs, 9, 6)
	for _, a := range atts {
		s.AddAttempt(a)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	// The flush appended a key section (id 3), then an attempt section (4).
	plen, n := binary.Uvarint(data[len(durable)+1:])
	keysEnd := len(durable) + 1 + n + int(plen)
	if n <= 0 || keysEnd >= len(data) || data[len(durable)] != 3 || data[keysEnd] != 4 {
		t.Fatalf("unexpected flush layout: durable %d, keys end %d, total %d", len(durable), keysEnd, len(data))
	}
	path := filepath.Join(t.TempDir(), "cut.fmdb")
	for cut := len(durable) + 1; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path, "", Options{})
		if err != nil {
			t.Fatalf("cut %d: crash tail not recovered: %v", cut, err)
		}
		st := re.Stats()
		wantKeys, wantTail := 2, cut-len(durable)
		if cut >= keysEnd {
			wantKeys, wantTail = 4, cut-keysEnd
		}
		if st.Keys != wantKeys || st.Attempts != 0 || st.TailBytes != int64(wantTail) || re.Len() != 2 {
			t.Fatalf("cut %d: recovered %d keys %d attempts %d records, tail %d; want %d keys, 0 attempts, 2 records, tail %d",
				cut, st.Keys, st.Attempts, re.Len(), st.TailBytes, wantKeys, wantTail)
		}
		for _, a := range atts {
			re.AddAttempt(a)
		}
		if err := re.Flush(); err != nil {
			t.Fatal(err)
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.WalkDB(repaired, wire.DBVisitor{}); err != nil {
			t.Fatalf("cut %d: repaired segment not strictly well-formed: %v", cut, err)
		}
	}
}

// TestStoreRejectsOldVersion: a segment of the previous format version is
// refused with an error naming both versions, not replayed.
func TestStoreRejectsOldVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.fmdb")
	seg := wire.AppendDBHeader(nil, "old")
	seg[len(wire.DBMagic)] = 1
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, "", Options{})
	if err == nil || !strings.Contains(err.Error(), "version 1") ||
		!strings.Contains(err.Error(), fmt.Sprintf("version %d", wire.DBVersion)) {
		t.Fatalf("v1 segment: got %v, want an error naming versions 1 and %d", err, wire.DBVersion)
	}
}

// TestStoreFlushFailureKeepsPending: a flush that cannot write keeps every
// pending item, and the next successful flush persists all of them.
func TestStoreFlushFailureKeepsPending(t *testing.T) {
	recs := genRecords(t, 3, 0)
	s := tmpStore(t, Options{})
	for _, r := range recs {
		s.Put(r)
	}
	atts := attemptsOver(recs, 3, 4)
	for _, a := range atts {
		s.AddAttempt(a)
	}
	if err := os.Mkdir(s.Path(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush into a directory succeeded")
	}
	if err := os.Remove(s.Path()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	re := reopen(t, s)
	if re.Len() != len(recs) || re.Stats().Attempts != len(atts) {
		t.Fatalf("after a failed then a good flush: %d records %d attempts, want %d %d",
			re.Len(), re.Stats().Attempts, len(recs), len(atts))
	}
}
