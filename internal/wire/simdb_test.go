package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func sampleDBRecords() []DBRecord {
	return []DBRecord{
		{
			Hash: 0xdeadbeefcafe, Name: "alpha", Linkage: 1, Flags: DBSelfEq,
			Size: 12, Key: []byte("key-alpha"),
			Ops:     []DBOpCount{{Op: 0, Count: 3}, {Op: 7, Count: 9}},
			Types:   []DBTypeCount{{Key: "i32", Count: 5}, {Key: "i64*", Count: 7}},
			MinHash: []uint64{1, 1 << 40, 0xffffffffffffffff},
			Bands:   []uint64{0xabc, 42},
		},
		{
			Hash: 2, Name: "beta", Linkage: 0, Flags: 0,
			Size: 1, Key: []byte{0, 1, 2, 0xff},
			// unsigned record: no lanes
		},
	}
}

func sampleDBKeys() []DBKey {
	return []DBKey{{Hash: 3, Key: []byte("key-three")}, {Hash: 0xfeedface, Key: []byte{9, 0, 9}}}
}

func sampleDBAttempts() []DBAttempt {
	return []DBAttempt{
		{Digest: 0xd1, H1: 3, H2: 0xfeedface, Callers1: 2, Callers2: 1 << 20,
			AddrTaken2: true, Linkage1: 1, Linkage2: 0},
		{Digest: 0xd2, H1: 0xfeedface, H2: 3, AddrTaken1: true, Linkage1: 2, Linkage2: 1},
	}
}

// sampleDBSegment is a segment holding one section of every kind, in the
// order a store flush writes them.
func sampleDBSegment() []byte {
	seg := AppendDBHeader(nil, "corpus")
	seg = AppendDBTombstones(seg, []DBTombstone{{Hash: 7, Key: []byte("kk")}})
	seg = AppendDBRecords(seg, sampleDBRecords())
	seg = AppendDBKeys(seg, sampleDBKeys())
	return AppendDBAttempts(seg, sampleDBAttempts())
}

// dbItems collects every item a walk replays, copying the scratch-reused
// record slices.
type dbItems struct {
	recs  []DBRecord
	tombs []DBTombstone
	keys  []DBKey
	atts  []DBAttempt
	order []byte
}

func (it *dbItems) visitor() DBVisitor {
	return DBVisitor{
		Record:  func(r DBRecord) { it.recs = append(it.recs, copyDBRecord(r)); it.order = append(it.order, 'r') },
		Tomb:    func(tb DBTombstone) { it.tombs = append(it.tombs, tb); it.order = append(it.order, 't') },
		Key:     func(k DBKey) { it.keys = append(it.keys, k); it.order = append(it.order, 'k') },
		Attempt: func(a DBAttempt) { it.atts = append(it.atts, a); it.order = append(it.order, 'a') },
	}
}

// copyDBRecord deep-copies the scratch-reused slices of a walked record so a
// test collector may retain it past the callback (see the WalkDB contract).
func copyDBRecord(r DBRecord) DBRecord {
	if len(r.Ops) > 0 {
		r.Ops = append([]DBOpCount(nil), r.Ops...)
	}
	if len(r.Types) > 0 {
		r.Types = append([]DBTypeCount(nil), r.Types...)
	}
	if len(r.MinHash) > 0 {
		r.MinHash = append([]uint64(nil), r.MinHash...)
	}
	if len(r.Bands) > 0 {
		r.Bands = append([]uint64(nil), r.Bands...)
	}
	return r
}

func TestDBSegmentRoundTrip(t *testing.T) {
	recs := sampleDBRecords()
	tombs := []DBTombstone{{Hash: 2, Key: []byte{0, 1, 2, 0xff}}, {Hash: 99, Key: nil}}

	seg := AppendDBHeader(nil, "corpus")
	seg = AppendDBRecords(seg, recs[:1])
	seg = AppendDBTombstones(seg, tombs)
	seg = AppendDBRecords(seg, recs[1:]) // appended later, like an O_APPEND flush
	seg = AppendDBKeys(seg, sampleDBKeys())
	seg = AppendDBAttempts(seg, sampleDBAttempts())

	if !IsFMDB(seg) {
		t.Fatal("encoded segment does not sniff as fmdb")
	}
	var got dbItems
	name, err := WalkDB(seg, got.visitor())
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if name != "corpus" {
		t.Fatalf("name = %q, want corpus", name)
	}
	if string(got.order) != "rttrkkaa" {
		t.Fatalf("replay order %q, want rttrkkaa (log order)", got.order)
	}
	if !reflect.DeepEqual(got.recs, recs) {
		t.Fatalf("records round trip mismatch:\ngot  %+v\nwant %+v", got.recs, recs)
	}
	if !reflect.DeepEqual(got.tombs, tombs) {
		t.Fatalf("tombstones round trip mismatch:\ngot  %+v\nwant %+v", got.tombs, tombs)
	}
	if !reflect.DeepEqual(got.keys, sampleDBKeys()) {
		t.Fatalf("content keys round trip mismatch:\ngot  %+v\nwant %+v", got.keys, sampleDBKeys())
	}
	if !reflect.DeepEqual(got.atts, sampleDBAttempts()) {
		t.Fatalf("attempt entries round trip mismatch:\ngot  %+v\nwant %+v", got.atts, sampleDBAttempts())
	}
}

func TestDBSegmentKeyAliases(t *testing.T) {
	seg := AppendDBHeader(nil, "z")
	seg = AppendDBRecords(seg, []DBRecord{{Hash: 1, Name: "f", Key: []byte("abc")}})
	var key []byte
	if _, err := WalkDB(seg, DBVisitor{Record: func(r DBRecord) { key = r.Key }}); err != nil {
		t.Fatal(err)
	}
	if len(key) != 3 {
		t.Fatalf("key lost: %q", key)
	}
	// Zero-copy: the decoded key must point into the segment buffer.
	if &key[0] != &seg[bytes.Index(seg, []byte("abc"))] {
		t.Fatal("decoded key does not alias the segment buffer")
	}
}

func TestDBSegmentRejectsCorruption(t *testing.T) {
	// A cut at a section boundary is a valid, shorter log (that is what
	// O_APPEND growth looks like mid-write-crash recovery rejects); every
	// other prefix must fail — never panic, never silently succeed.
	seg := AppendDBHeader(nil, "corpus")
	boundary := map[int]bool{len(seg): true}
	seg = AppendDBRecords(seg, sampleDBRecords())
	boundary[len(seg)] = true
	seg = AppendDBTombstones(seg, []DBTombstone{{Hash: 7, Key: []byte("k")}})
	boundary[len(seg)] = true
	seg = AppendDBKeys(seg, sampleDBKeys())
	boundary[len(seg)] = true
	seg = AppendDBAttempts(seg, sampleDBAttempts())
	hdrLen := len(AppendDBHeader(nil, "corpus"))
	for cut := 0; cut < len(seg); cut++ {
		_, err := WalkDB(seg[:cut], DBVisitor{})
		if boundary[cut] {
			if err != nil {
				t.Fatalf("section-boundary prefix at %d rejected: %v", cut, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(seg))
		}
	}

	if _, err := WalkDB([]byte("FMIR"), DBVisitor{}); err != ErrBadDBMagic {
		t.Fatalf("fmir magic: got %v, want ErrBadDBMagic", err)
	}
	bad := append([]byte(nil), seg...)
	bad[4] = 0x7f // version
	if _, err := WalkDB(bad, DBVisitor{}); err == nil {
		t.Fatal("bad version accepted")
	}
	bad[4] = 1 // a v1 segment: the error names both versions
	_, err := WalkDB(bad, DBVisitor{})
	if err == nil || !strings.Contains(err.Error(), "version 1") ||
		!strings.Contains(err.Error(), fmt.Sprintf("version %d", DBVersion)) {
		t.Fatalf("v1 segment: got %v, want an error naming versions 1 and %d", err, DBVersion)
	}
	bad = append([]byte(nil), seg...)
	bad[hdrLen] = 0x33 // unknown section id
	if _, err := WalkDB(bad, DBVisitor{}); err == nil {
		t.Fatal("unknown section id accepted")
	}
}

// TestDBSegmentPrefixWalk sweeps every truncation point: cuts inside the
// header are unrecoverable, every other cut replays exactly the complete
// sections before it and reports the boundary so a crashed store can
// truncate its tail — while corruption inside a complete section stays a
// hard error even for the prefix walker.
func TestDBSegmentPrefixWalk(t *testing.T) {
	seg := AppendDBHeader(nil, "corpus")
	hdr := len(seg)
	// ends[i] is the end offset of section i; want[i] the item order its
	// complete prefix replays.
	var ends []int
	var wants []string
	seg = AppendDBRecords(seg, sampleDBRecords())
	ends, wants = append(ends, len(seg)), append(wants, "rr")
	seg = AppendDBTombstones(seg, []DBTombstone{{Hash: 7, Key: []byte("k")}})
	ends, wants = append(ends, len(seg)), append(wants, "rrt")
	seg = AppendDBKeys(seg, sampleDBKeys())
	ends, wants = append(ends, len(seg)), append(wants, "rrtkk")
	seg = AppendDBAttempts(seg, sampleDBAttempts())
	ends, wants = append(ends, len(seg)), append(wants, "rrtkkaa")
	for cut := 0; cut <= len(seg); cut++ {
		var got dbItems
		name, n, err := WalkDBPrefix(seg[:cut], got.visitor())
		if cut < hdr {
			if err == nil {
				t.Fatalf("cut %d inside the header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if name != "corpus" {
			t.Fatalf("cut %d: name %q", cut, name)
		}
		want, wantOrder := hdr, ""
		for i, end := range ends {
			if cut >= end {
				want, wantOrder = end, wants[i]
			}
		}
		if n != want {
			t.Fatalf("cut %d: prefix %d, want %d", cut, n, want)
		}
		if string(got.order) != wantOrder {
			t.Fatalf("cut %d: replayed %q, want %q", cut, got.order, wantOrder)
		}
	}
	bad := append([]byte(nil), seg...)
	bad[hdr] = 0x33 // unknown id on a fully-present section
	if _, _, err := WalkDBPrefix(bad, DBVisitor{}); err == nil {
		t.Fatal("prefix walk accepted an unknown section id")
	}
	// A complete attempt section with an undefined flag bit is corruption,
	// not a crash tail.
	bad = append([]byte(nil), seg...)
	bad[len(bad)-3] |= 0x80 // last entry's flags byte
	if _, _, err := WalkDBPrefix(bad, DBVisitor{}); err == nil {
		t.Fatal("prefix walk accepted undefined attempt flags")
	}
}

func TestDBSegmentBoundsHostileCounts(t *testing.T) {
	// A records section claiming a huge element count must be rejected by
	// the min-size bound before any allocation.
	seg := AppendDBHeader(nil, "x")
	payload := appendUvarint(nil, 1<<40)
	seg = append(seg, dbSecRecords)
	seg = appendUvarint(seg, uint64(len(payload)))
	seg = append(seg, payload...)
	if _, err := WalkDB(seg, DBVisitor{}); err == nil {
		t.Fatal("hostile record count accepted")
	}

	// A record claiming more MinHash lanes than the cap must be rejected.
	rec := DBRecord{Hash: 1, Name: "f", MinHash: make([]uint64, 3)}
	seg = AppendDBHeader(nil, "x")
	body := AppendDBRecords(nil, []DBRecord{rec})
	// Patch the lane count varint (the record ends with count + 3 lanes +
	// the zero bands count).
	body[len(body)-1-3*8-1] = 0xff // becomes a multi-byte varint prefix -> corrupt
	seg = append(seg, body...)
	if _, err := WalkDB(seg, DBVisitor{}); err == nil {
		t.Fatal("corrupted lane count accepted")
	}
}

// FuzzSimDBSegment: the segment walker must error on corrupt or truncated
// input, never panic and never over-read. Seeds cover valid multi-section
// segments and their mutations; the fuzzer explores from there.
func FuzzSimDBSegment(f *testing.F) {
	valid := sampleDBSegment()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-5]) // cut inside the attempt section
	f.Add(AppendDBKeys(AppendDBHeader(nil, "k"), sampleDBKeys()))
	f.Add(AppendDBAttempts(AppendDBHeader(nil, "a"), sampleDBAttempts()))
	f.Add(AppendDBHeader(nil, ""))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add([]byte("FMDB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got dbItems
		name, err := WalkDB(data, got.visitor())
		if err != nil {
			return
		}
		// Accepted input must re-encode and replay to the same items: the
		// format has a canonical byte form per item, so a walk→encode→walk
		// cycle is lossless.
		seg := AppendDBHeader(nil, name)
		if len(got.recs) > 0 {
			seg = AppendDBRecords(seg, got.recs)
		}
		if len(got.tombs) > 0 {
			seg = AppendDBTombstones(seg, got.tombs)
		}
		if len(got.keys) > 0 {
			seg = AppendDBKeys(seg, got.keys)
		}
		if len(got.atts) > 0 {
			seg = AppendDBAttempts(seg, got.atts)
		}
		var again dbItems
		name2, err := WalkDB(seg, again.visitor())
		if err != nil {
			t.Fatalf("re-encoded segment rejected: %v", err)
		}
		if name2 != name || !reflect.DeepEqual(got.recs, again.recs) ||
			!reflect.DeepEqual(got.tombs, again.tombs) ||
			!reflect.DeepEqual(got.keys, again.keys) ||
			!reflect.DeepEqual(got.atts, again.atts) {
			t.Fatal("walk→encode→walk not lossless")
		}
	})
}
