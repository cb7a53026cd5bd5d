package simdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fmsa/internal/fingerprint"
	"fmsa/internal/global"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
	"fmsa/internal/passes"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// genRecords generates n structurally varied functions (a few const-variant
// clone pairs among them) and returns their full similarity records. Every
// kth record is left unsigned when unsignedMod > 0.
func genRecords(t testing.TB, n, unsignedMod int) []Record {
	t.Helper()
	m := ir.NewModule("db")
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		spec := workload.FuncSpec{
			Name: fmt.Sprintf("f%03d", i), Seed: int64(1 + i/2), Scalar: ir.I64(),
			NumParams: 2, Regions: 2 + i%3, OpsPerBlock: 5, ConstSalt: int64(i),
		}
		f := workload.Generate(m, spec)
		passes.DemotePhis(f)
		key, selfEq := global.AppendStableKey(nil, f)
		fp := fingerprint.Compute(f)
		r := Record{
			Hash: global.HashStableKey(key), Name: f.Name(), Linkage: f.Linkage,
			SelfEq: selfEq, Size: fp.Total, Key: key, Fp: fp,
		}
		if unsignedMod == 0 || i%unsignedMod != 0 {
			r.Sig = fingerprint.ComputeSignature(f)
		}
		recs = append(recs, r)
	}
	return recs
}

func tmpStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "db.fmdb"), "test", opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exported strips unexported state so reopened stores can be compared
// field-for-field against the original live set.
func exported(recs []*Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{
			Hash: r.Hash, Name: r.Name, Linkage: r.Linkage, SelfEq: r.SelfEq,
			Size: r.Size, Key: append([]byte(nil), r.Key...), Fp: r.Fp, Sig: r.Sig,
		}
	}
	return out
}

// probeAll asserts two indexes answer every probe identically.
func probeAll(t *testing.T, got, want *lsh.Index, recs []*Record) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("index size %d, want %d", got.Len(), want.Len())
	}
	for id, r := range recs {
		if r.Sig == nil {
			continue
		}
		g := got.Probe(r.Sig, int32(id))
		w := want.Probe(r.Sig, int32(id))
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("probe %d (%s): got %v want %v", id, r.Name, g, w)
		}
	}
}

// fromScratch builds the reference index the way a cold run would: insert
// every signed live record in canonical id order into a fresh index.
func fromScratch(p lsh.Params, recs []*Record) *lsh.Index {
	ix := lsh.New(p)
	for id, r := range recs {
		if r.Sig != nil {
			ix.Insert(int32(id), r.Sig)
		}
	}
	return ix
}

func TestStoreReopenRoundTrip(t *testing.T) {
	recs := genRecords(t, 20, 5)
	s := tmpStore(t, Options{})
	for _, r := range recs {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	wantLive := exported(s.Live())

	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Name() != "test" {
		t.Fatalf("reopened name %q, want test", re.Name())
	}
	gotLive := exported(re.Live())
	if len(gotLive) != len(wantLive) {
		t.Fatalf("live %d, want %d", len(gotLive), len(wantLive))
	}
	for i := range wantLive {
		g, w := gotLive[i], wantLive[i]
		// Fingerprint pointers differ across processes; compare content.
		if g.Hash != w.Hash || g.Name != w.Name || g.Linkage != w.Linkage ||
			g.SelfEq != w.SelfEq || g.Size != w.Size || !bytes.Equal(g.Key, w.Key) {
			t.Fatalf("record %d mismatch:\ngot  %+v\nwant %+v", i, g, w)
		}
		if !reflect.DeepEqual(g.Fp.OpFreq, w.Fp.OpFreq) || g.Fp.Total != w.Fp.Total {
			t.Fatalf("record %d fingerprint opcode tables differ", i)
		}
		if len(g.Fp.TypeFreq) != len(w.Fp.TypeFreq) {
			t.Fatalf("record %d type table length differs", i)
		}
		for k := range g.Fp.TypeFreq {
			if g.Fp.TypeFreq[k].Key != w.Fp.TypeFreq[k].Key ||
				g.Fp.TypeFreq[k].Count != w.Fp.TypeFreq[k].Count {
				t.Fatalf("record %d type entry %d differs", i, k)
			}
		}
		if (g.Sig == nil) != (w.Sig == nil) {
			t.Fatalf("record %d signedness differs", i)
		}
		if g.Sig != nil && *g.Sig != *w.Sig {
			t.Fatalf("record %d signature lanes differ", i)
		}
	}
}

// TestStoreNeverResurrects is the remove/compact interplay property test:
// insert → remove → compact → probe never resurrects a tombstoned function,
// and the rehydrated index matches a from-scratch index bit-for-bit.
func TestStoreNeverResurrects(t *testing.T) {
	recs := genRecords(t, 30, 0)
	s := tmpStore(t, Options{AutoCompactRatio: -1}) // manual compaction only
	for _, r := range recs {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	removed := map[uint64]bool{}
	for i := 0; i < len(recs); i += 3 {
		if !s.Remove(recs[i].Hash, recs[i].Key) {
			t.Fatalf("remove %s: not found", recs[i].Name)
		}
		removed[recs[i].Hash] = true
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, liveRecs := re.Rehydrate(lsh.Params{})
	for _, r := range liveRecs {
		if removed[r.Hash] {
			t.Fatalf("tombstoned %s resurrected after compact+reopen", r.Name)
		}
	}
	for i := 0; i < len(recs); i += 3 {
		if re.Lookup(recs[i].Hash, recs[i].Key) != nil {
			t.Fatalf("lookup resurrects removed %s", recs[i].Name)
		}
		// Probing a removed function's signature must never return an id
		// mapping back to the removed (hash, key).
		for _, id := range ix.Probe(recs[i].Sig, -1) {
			got := liveRecs[id]
			if got.Hash == recs[i].Hash && bytes.Equal(got.Key, recs[i].Key) {
				t.Fatalf("probe resurrects removed %s", recs[i].Name)
			}
		}
	}
	probeAll(t, ix, fromScratch(lsh.Params{}, liveRecs), liveRecs)
}

// TestStoreDeterministicBytes pins that one flush of one batch produces
// identical file bytes regardless of Put order.
func TestStoreDeterministicBytes(t *testing.T) {
	recs := genRecords(t, 25, 4)
	var want []byte
	for trial := 0; trial < 3; trial++ {
		order := rand.New(rand.NewSource(int64(trial))).Perm(len(recs))
		s := tmpStore(t, Options{})
		for _, i := range order {
			s.Put(recs[i])
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
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("trial %d: segment bytes differ from trial 0", trial)
		}
	}
}

// TestStoreRandomOpsMatchModel drives a seeded op mix (put, remove, flush,
// compact, reopen) against a plain-map model and requires the live sets and
// probe answers to agree at every checkpoint.
func TestStoreRandomOpsMatchModel(t *testing.T) {
	recs := genRecords(t, 40, 6)
	rng := rand.New(rand.NewSource(42))
	s := tmpStore(t, Options{AutoCompactMin: 4, AutoCompactRatio: 0.3})
	model := map[string]Record{} // key string → record

	check := func(step int) {
		live := s.Live()
		if len(live) != len(model) {
			t.Fatalf("step %d: live %d, model %d", step, len(live), len(model))
		}
		for _, r := range live {
			if _, ok := model[string(r.Key)]; !ok {
				t.Fatalf("step %d: %s live but not in model", step, r.Name)
			}
		}
		ix, liveRecs := s.Rehydrate(lsh.Params{})
		probeAll(t, ix, fromScratch(lsh.Params{}, liveRecs), liveRecs)
	}

	for step := 0; step < 200; step++ {
		r := recs[rng.Intn(len(recs))]
		switch op := rng.Intn(10); {
		case op < 5:
			s.Put(r)
			model[string(r.Key)] = r
		case op < 8:
			want := false
			if _, ok := model[string(r.Key)]; ok {
				want = true
				delete(model, string(r.Key))
			}
			if got := s.Remove(r.Hash, r.Key); got != want {
				t.Fatalf("step %d: remove %s = %v, want %v", step, r.Name, got, want)
			}
		case op < 9:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if step%25 == 24 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(s.Path(), "", Options{})
			if err != nil {
				t.Fatal(err)
			}
			s = re
			check(step)
		}
	}
}

func TestStoreAutoCompacts(t *testing.T) {
	recs := genRecords(t, 12, 0)
	s := tmpStore(t, Options{AutoCompactMin: 2, AutoCompactRatio: 0.4})
	for _, r := range recs {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	grown := s.Stats().SegmentBytes
	for _, r := range recs[:10] {
		s.Remove(r.Hash, r.Key)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no auto-compaction after %d/%d removals: %+v", 10, 12, st)
	}
	if st.Dead != 0 || st.Written != st.Live || st.Live != 2 {
		t.Fatalf("post-compact counters wrong: %+v", st)
	}
	if st.SegmentBytes >= grown {
		t.Fatalf("segment did not shrink: %d -> %d bytes", grown, st.SegmentBytes)
	}
	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened live %d, want 2", re.Len())
	}
}

func TestStorePutUpgradesAndTiebreaks(t *testing.T) {
	recs := genRecords(t, 1, 0)
	r := recs[0]
	unsigned := r
	unsigned.Sig = nil

	s := tmpStore(t, Options{})
	s.Put(unsigned)
	if got := s.Lookup(r.Hash, r.Key); got == nil || got.Sig != nil {
		t.Fatal("unsigned put not stored unsigned")
	}
	// Signature upgrade replaces the slot.
	s.Put(r)
	if got := s.Lookup(r.Hash, r.Key); got == nil || got.Sig == nil {
		t.Fatal("signature upgrade lost")
	}
	// Unsigned re-put after upgrade must not downgrade.
	s.Put(unsigned)
	if got := s.Lookup(r.Hash, r.Key); got.Sig == nil {
		t.Fatal("signed record downgraded by unsigned re-put")
	}
	// Same content under a smaller name wins while unflushed.
	smaller := r
	smaller.Name = "a_" + r.Name
	s.Put(smaller)
	if got := s.Lookup(r.Hash, r.Key); got.Name != smaller.Name {
		t.Fatalf("unflushed name tiebreak: got %q, want %q", got.Name, smaller.Name)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flushed names are stable: a smaller name no longer supersedes.
	smallest := r
	smallest.Name = "0_" + r.Name
	s.Put(smallest)
	if got := s.Lookup(r.Hash, r.Key); got.Name != smaller.Name {
		t.Fatalf("flushed name changed: got %q, want %q", got.Name, smaller.Name)
	}
	if st := s.Stats(); st.PendingRecs != 0 {
		t.Fatalf("no-op put left %d pending records", st.PendingRecs)
	}
}

// TestStoreRemoveThenReputSameFlush pins the flush section order: removing
// a flushed record and re-putting the same content inside one flush window
// must leave the function live after reopen, which requires the batch's
// tombstone section to precede its record section in the log.
func TestStoreRemoveThenReputSameFlush(t *testing.T) {
	recs := genRecords(t, 3, 0)
	s := tmpStore(t, Options{AutoCompactRatio: -1})
	for _, r := range recs {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.Remove(recs[1].Hash, recs[1].Key) {
		t.Fatal("remove of flushed record not found")
	}
	s.Put(recs[1])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Lookup(recs[1].Hash, recs[1].Key) == nil {
		t.Fatal("record re-put after remove lost on reopen (tombstone replayed after record)")
	}
	if re.Len() != 3 {
		t.Fatalf("reopened live %d, want 3", re.Len())
	}
}

// TestStoreRemoveOfSupersededRecord pins tombstoning on the has-a-file-entry
// bit, not the current record's flushed bit: a flushed record superseded by
// an unflushed upgrade still has a file entry, so removing the upgraded
// record must tombstone it or the original resurrects on reopen.
func TestStoreRemoveOfSupersededRecord(t *testing.T) {
	recs := genRecords(t, 2, 0)
	r := recs[0]
	unsigned := r
	unsigned.Sig = nil
	s := tmpStore(t, Options{AutoCompactRatio: -1})
	s.Put(unsigned)
	s.Put(recs[1])
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put(r) // signature upgrade supersedes the flushed unsigned record
	if !s.Remove(r.Hash, r.Key) {
		t.Fatal("remove of upgraded record not found")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Lookup(r.Hash, r.Key) != nil {
		t.Fatal("removed function resurrected: superseded file entry was never tombstoned")
	}
	if re.Len() != 1 {
		t.Fatalf("reopened live %d, want 1", re.Len())
	}
}

// TestStoreRecoversCrashTail simulates a crash partway through an appending
// flush: the file ends mid-section. Open must recover the last-flushed
// state, report the garbage tail, and the next flush must truncate it so
// the segment is strictly well-formed again.
func TestStoreRecoversCrashTail(t *testing.T) {
	recs := genRecords(t, 8, 0)
	s := tmpStore(t, Options{AutoCompactRatio: -1})
	for _, r := range recs[:4] {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	durable, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[4:] {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	cut := len(durable) + (len(data)-len(durable))/2 // mid-second-section
	if err := os.WriteFile(s.Path(), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatalf("crash tail not recovered: %v", err)
	}
	if re.Len() != 4 {
		t.Fatalf("recovered live %d, want the 4 first-flush records", re.Len())
	}
	if got := re.Stats().TailBytes; got != int64(cut-len(durable)) {
		t.Fatalf("TailBytes %d, want %d", got, cut-len(durable))
	}
	re.Put(recs[4])
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	repaired, err := os.ReadFile(re.Path())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WalkDB(repaired, wire.DBVisitor{}); err != nil {
		t.Fatalf("repaired segment not strictly well-formed: %v", err)
	}
	re2, err := Open(re.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re2.Len() != 5 || re2.Lookup(recs[4].Hash, recs[4].Key) == nil {
		t.Fatalf("post-repair reopen live %d, want 5 with the re-put record", re2.Len())
	}
	if got := re2.Stats().TailBytes; got != 0 {
		t.Fatalf("repaired segment still reports %d tail bytes", got)
	}
}

func TestStoreRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.fmdb")
	if err := os.WriteFile(path, []byte("FMDBgarbage-not-a-segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "", Options{}); err == nil {
		t.Fatal("corrupt segment accepted")
	}
	if err := os.WriteFile(path, []byte("PLAINTEXT"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "", Options{}); err == nil {
		t.Fatal("non-fmdb file accepted")
	}
}

// TestStoreRejectsFlippedOpcodeCount flips one bit of one opcode count in a
// flushed segment. The wire layer still decodes the record cleanly, and the
// flipped count would silently change the record's similarity to every
// candidate; Open must instead reject the segment and name the record.
func TestStoreRejectsFlippedOpcodeCount(t *testing.T) {
	recs := genRecords(t, 4, 0)
	s := tmpStore(t, Options{})
	for _, r := range recs {
		s.Put(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	// The victim's content key followed by its sparse opcode table, encoded
	// as the segment writer lays them out.
	victim := recs[2]
	w := recordToWire(&victim)
	pat := binary.AppendUvarint(append([]byte(nil), victim.Key...), uint64(len(w.Ops)))
	countAt := -1 // offset of the first count within pat
	for _, oc := range w.Ops {
		pat = binary.AppendUvarint(pat, uint64(oc.Op))
		if countAt < 0 {
			countAt = len(pat)
		}
		pat = binary.AppendUvarint(pat, uint64(oc.Count))
	}
	at := bytes.Index(data, pat)
	if at < 0 || bytes.Contains(data[at+1:], pat) {
		t.Fatalf("victim's opcode table found %d times, want once", bytes.Count(data, pat))
	}
	if data[at+countAt] >= 0x80 {
		t.Fatal("first opcode count spans several varint bytes")
	}
	data[at+countAt] ^= 1
	if _, err := wire.WalkDB(data, wire.DBVisitor{}); err != nil {
		t.Fatalf("the flip should still decode at the wire layer: %v", err)
	}
	if err := os.WriteFile(s.Path(), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(s.Path(), "", Options{})
	if err == nil {
		t.Fatal("segment with a flipped opcode count accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", victim.Name)) {
		t.Fatalf("error %q does not name record %q", err, victim.Name)
	}
}

func TestStoreUnflushedRemoveLeavesNoTrace(t *testing.T) {
	recs := genRecords(t, 2, 0)
	s := tmpStore(t, Options{})
	s.Put(recs[0])
	s.Put(recs[1])
	s.Remove(recs[0].Hash, recs[0].Key)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Written != 1 || st.Dead != 0 {
		t.Fatalf("unflushed remove left file garbage: %+v", st)
	}
	re, err := Open(s.Path(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 || re.Lookup(recs[0].Hash, recs[0].Key) != nil {
		t.Fatal("dropped record reappeared after reopen")
	}
}
