package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fmsa/internal/align"
	"fmsa/internal/ir"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

func openTestStore(t *testing.T, path string) *simdb.Store {
	t.Helper()
	st, err := simdb.Open(path, "sess", simdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSessionStoreColdIdentical: a store-backed session — both one that
// populates an empty store and one that restarts onto a warm store — must
// produce bit-identical merge outcomes to a plain storeless run, for every
// worker count. This is the persistent analogue of
// TestSessionWarmColdIdentical: the store replays fingerprints, signatures
// and negative-attempt entries across process boundaries, and nothing
// downstream may notice. The inputs are a small clone-family corpus under
// both ranking modes and the xalancbmk shrink with a 1% constant delta
// under LSH. The first restart recomputes exactly the functions the delta
// edits or adds; later restarts find those flushed and miss nothing.
func TestSessionStoreColdIdentical(t *testing.T) {
	t.Parallel()
	type input struct {
		name        string
		ranking     RankingMode
		base, delta func() *ir.Module
		edited      int // functions delta edits or adds relative to base
	}
	base := sessionSpecs(60)
	delta := append([]workload.FuncSpec(nil), base...)
	delta[7].ConstSalt += 3
	delta[22].Seed += 900
	delta = append(delta, workload.FuncSpec{
		Name: "fnew", Seed: 104, Scalar: ir.I64(), NumParams: 2,
		Regions: 2, OpsPerBlock: 6, Internal: true,
	})
	specsBase := func() *ir.Module { return buildFromSpecs(base) }
	specsDelta := func() *ir.Module { return buildFromSpecs(delta) }
	shrink := xalancShrink(t)
	shrinkBase := func() *ir.Module { return workload.Build(shrink) }
	shrinkDelta := func() *ir.Module {
		m := workload.Build(shrink)
		editConsts(m, 0.01, 1)
		return m
	}
	inputs := []input{
		{"specs/exact", RankExact, specsBase, specsDelta, 3},
		{"specs/lsh", RankLSH, specsBase, specsDelta, 3},
		{"xalancbmk/lsh", RankLSH, shrinkBase, shrinkDelta, editConsts(shrinkBase(), 0.01, 1)},
	}

	for _, in := range inputs {
		path := filepath.Join(t.TempDir(), "sess.fmdb")

		// Populate the store once from the base corpus.
		seedSess, err := NewSession(SessionConfig{
			Explore: sessionOpts(1, in.ranking), Store: openTestStore(t, path),
		})
		if err != nil {
			t.Fatal(err)
		}
		repSeed, dSeed, err := seedSess.Submit(in.base())
		if err != nil {
			t.Fatal(err)
		}
		if dSeed.StoreHits != 0 || dSeed.StoreMisses != dSeed.Funcs {
			t.Fatalf("%s: empty-store submit hits=%d misses=%d funcs=%d",
				in.name, dSeed.StoreHits, dSeed.StoreMisses, dSeed.Funcs)
		}

		// Reference: plain storeless cold runs of base and delta.
		plainBase, err := NewSession(SessionConfig{Explore: sessionOpts(1, in.ranking)})
		if err != nil {
			t.Fatal(err)
		}
		repPlain, _, err := plainBase.Submit(in.base())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outcomeOf(repSeed), outcomeOf(repPlain); !sameOutcome(got, want) {
			t.Fatalf("%s: store-populating run diverged from plain run", in.name)
		}

		var wantOutcome mergeOutcome
		var wantModule string
		for i, workers := range []int{1, 2, 8} {
			opts := sessionOpts(workers, in.ranking)

			plain, err := NewSession(SessionConfig{Explore: opts})
			if err != nil {
				t.Fatal(err)
			}
			mPlain := in.delta()
			repWant, _, err := plain.Submit(mPlain)
			if err != nil {
				t.Fatal(err)
			}

			// Restart: fresh session, same on-disk store — zero in-memory
			// warm state, everything rehydrates from the segment.
			warm, err := NewSession(SessionConfig{
				Explore: opts, Store: openTestStore(t, path),
			})
			if err != nil {
				t.Fatal(err)
			}
			mGot := in.delta()
			repGot, dGot, err := warm.Submit(mGot)
			if err != nil {
				t.Fatal(err)
			}
			if dGot.StoreHits == 0 {
				t.Fatalf("%s workers=%d: restart onto warm store had no hits", in.name, workers)
			}
			// The restarted session skips what the earlier processes priced
			// unprofitable, and the skips stay invisible below.
			if dGot.NegHits == 0 || dGot.NegStoreHits == 0 || dGot.NegStoreHits > dGot.NegHits {
				t.Fatalf("%s workers=%d: restart reused no persisted attempts: NegHits=%d NegStoreHits=%d",
					in.name, workers, dGot.NegHits, dGot.NegStoreHits)
			}
			// The first restart misses exactly the edited and added
			// functions and flushes them, so later restarts miss nothing.
			wantMisses := in.edited
			if i > 0 {
				wantMisses = 0
			}
			if dGot.StoreMisses != wantMisses {
				t.Fatalf("%s workers=%d: %d store misses, want %d", in.name, workers, dGot.StoreMisses, wantMisses)
			}
			if got, want := outcomeOf(repGot), outcomeOf(repWant); !sameOutcome(got, want) {
				t.Fatalf("%s workers=%d: store-backed outcome diverged:\ngot  %+v\nwant %+v",
					in.name, workers, got, want)
			}
			if gotM, wantM := printModule(t, mGot), printModule(t, mPlain); gotM != wantM {
				t.Fatalf("%s workers=%d: merged modules differ", in.name, workers)
			}
			if i == 0 {
				wantOutcome = outcomeOf(repGot)
				wantModule = printModule(t, mGot)
				continue
			}
			if got := outcomeOf(repGot); !sameOutcome(got, wantOutcome) {
				t.Fatalf("%s: workers=%d outcome differs from workers=1", in.name, workers)
			}
			if got := printModule(t, mGot); got != wantModule {
				t.Fatalf("%s: workers=%d module differs from workers=1", in.name, workers)
			}
		}
	}
}

// TestSessionSharedStoreAcrossSessions: two sessions sharing one live store
// handle — the fmsa-serve arrangement — stay bit-identical to storeless
// runs, and the second session reuses the first one's flushed state.
func TestSessionSharedStoreAcrossSessions(t *testing.T) {
	specs := sessionSpecs(40)
	opts := sessionOpts(2, RankLSH)
	st := openTestStore(t, filepath.Join(t.TempDir(), "shared.fmdb"))

	first, err := NewSession(SessionConfig{Explore: opts, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := first.Submit(buildFromSpecs(specs)); err != nil {
		t.Fatal(err)
	}

	second, err := NewSession(SessionConfig{Explore: opts, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	m2 := buildFromSpecs(specs)
	rep2, d2, err := second.Submit(m2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.StoreHits != d2.Funcs || d2.StoreMisses != 0 {
		t.Fatalf("second session: hits=%d misses=%d funcs=%d, want all hits",
			d2.StoreHits, d2.StoreMisses, d2.Funcs)
	}

	plain, err := NewSession(SessionConfig{Explore: opts})
	if err != nil {
		t.Fatal(err)
	}
	mPlain := buildFromSpecs(specs)
	repPlain, _, err := plain.Submit(mPlain)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(outcomeOf(rep2), outcomeOf(repPlain)) {
		t.Fatal("shared-store session diverged from plain run")
	}
	if printModule(t, m2) != printModule(t, mPlain) {
		t.Fatal("shared-store merged module differs from plain run")
	}
}

// sameOutcome compares identity-relevant report slices.
func sameOutcome(a, b mergeOutcome) bool {
	if a.MergeOps != b.MergeOps || a.FullyRemoved != b.FullyRemoved ||
		a.CandidatesEvaluated != b.CandidatesEvaluated || a.SizeAfter != b.SizeAfter {
		return false
	}
	if len(a.RankPositions) != len(b.RankPositions) || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.RankPositions {
		if a.RankPositions[i] != b.RankPositions[i] {
			return false
		}
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}

// storeRun submits specs to a fresh session over a freshly opened store at
// path and returns the outcome, the delta and the reopened store's stats.
func storeRun(t *testing.T, path string, opts Options, specs []workload.FuncSpec) (mergeOutcome, DeltaStats, simdb.Stats) {
	t.Helper()
	st := openTestStore(t, path)
	sess, err := NewSession(SessionConfig{Explore: opts, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	rep, d, err := sess.Submit(buildFromSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(rep), d, st.Stats()
}

// plainRun is the storeless cold reference.
func plainRun(t *testing.T, opts Options, specs []workload.FuncSpec) (mergeOutcome, DeltaStats) {
	t.Helper()
	sess, err := NewSession(SessionConfig{Explore: opts})
	if err != nil {
		t.Fatal(err)
	}
	rep, d, err := sess.Submit(buildFromSpecs(specs))
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(rep), d
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStoreForgedKey: appending, for every stored hash, a content
// key entry with the same hash but other bytes makes every hash
// unverifiable, so a restarted session takes no attempt entry from the
// store — and still merges exactly like a storeless run. The unforged copy
// of the segment is the control: there the same restart does hit.
func TestSessionStoreForgedKey(t *testing.T) {
	specs := sessionSpecs(60)
	for _, ranking := range []RankingMode{RankExact, RankLSH} {
		opts := sessionOpts(2, ranking)
		dir := t.TempDir()
		path := filepath.Join(dir, "forged.fmdb")
		storeRun(t, path, opts, specs)
		control := filepath.Join(dir, "control.fmdb")
		copyFile(t, path, control)

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var forged []wire.DBKey
		seen := map[uint64]bool{}
		forge := func(h uint64, key []byte) {
			if !seen[h] {
				seen[h] = true
				forged = append(forged, wire.DBKey{Hash: h, Key: append(append([]byte(nil), key...), 0xff)})
			}
		}
		if _, err := wire.WalkDB(data, wire.DBVisitor{
			Record: func(r wire.DBRecord) { forge(r.Hash, r.Key) },
			Key:    func(k wire.DBKey) { forge(k.Hash, k.Key) },
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, wire.AppendDBKeys(data, forged), 0o644); err != nil {
			t.Fatal(err)
		}

		want, _ := plainRun(t, opts, specs)
		got, d, st := storeRun(t, path, opts, specs)
		if d.NegStoreHits != 0 || st.Collided != len(forged) {
			t.Fatalf("ranking=%v: forged keys: NegStoreHits=%d, %d of %d hashes collided",
				ranking, d.NegStoreHits, st.Collided, len(forged))
		}
		if !sameOutcome(got, want) {
			t.Fatalf("ranking=%v: forged-key restart diverged from the storeless run", ranking)
		}
		if _, dc, _ := storeRun(t, control, opts, specs); dc.NegStoreHits == 0 {
			t.Fatalf("ranking=%v: the unforged control restart took no attempt entry", ranking)
		}
	}
}

// TestSessionStoreDigestMismatch: attempt entries priced under one
// configuration are never used under another. A store filled with
// parameter reuse off serves nothing to a default session (which still
// merges like a storeless run), but serves a session with the filling
// configuration; a custom alignment function cannot be digested, so such
// a session neither reads nor writes entries.
func TestSessionStoreDigestMismatch(t *testing.T) {
	specs := sessionSpecs(60)
	opts := sessionOpts(1, RankLSH)
	noReuse := opts
	noReuse.Merge.ReuseParams = false
	path := filepath.Join(t.TempDir(), "digest.fmdb")
	_, _, filled := storeRun(t, path, noReuse, specs)
	if filled.Attempts == 0 {
		t.Fatal("the filling run wrote no attempt entries")
	}

	want, _ := plainRun(t, opts, specs)
	got, d, _ := storeRun(t, path, opts, specs)
	if d.NegStoreHits != 0 {
		t.Fatalf("a session under another digest took %d attempt entries", d.NegStoreHits)
	}
	if !sameOutcome(got, want) {
		t.Fatal("digest-mismatched restart diverged from the storeless run")
	}
	if _, d, _ := storeRun(t, path, noReuse, specs); d.NegStoreHits == 0 {
		t.Fatal("a session under the filling digest took no attempt entry")
	}

	custom := opts
	custom.Merge.Align = func(a, b []uint32) []align.Step { return align.AlignCodes(a, b) }
	before := openTestStore(t, path).Stats().Attempts
	got, d, after := storeRun(t, path, custom, specs)
	if d.NegStoreHits != 0 || after.Attempts != before {
		t.Fatalf("custom Merge.Align: NegStoreHits=%d, attempt entries %d -> %d", d.NegStoreHits, before, after.Attempts)
	}
	if !sameOutcome(got, want) {
		t.Fatal("custom-align store-backed run diverged from the storeless run")
	}
}

// TestSessionStoreFlushFailure: a store flush that fails leaves the session
// consistent. The failing submit still returns its run, and the next
// submit of the same session — a delta, now with a writable segment —
// merges exactly like a cold storeless run and persists everything the
// failed flush left pending.
func TestSessionStoreFlushFailure(t *testing.T) {
	base := sessionSpecs(60)
	delta := append([]workload.FuncSpec(nil), base...)
	delta[7].ConstSalt += 3
	delta[22].Seed += 900
	opts := sessionOpts(2, RankLSH)
	path := filepath.Join(t.TempDir(), "flush.fmdb")
	st := openTestStore(t, path)
	sess, err := NewSession(SessionConfig{Explore: opts, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil { // the segment cannot be written
		t.Fatal(err)
	}
	rep, _, err := sess.Submit(buildFromSpecs(base))
	if err == nil {
		t.Fatal("submit over an unwritable segment reported no error")
	}
	want, _ := plainRun(t, opts, base)
	if rep == nil || !sameOutcome(outcomeOf(rep), want) {
		t.Fatal("the failed flush's submit did not return its completed run")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	mGot := buildFromSpecs(delta)
	repGot, dGot, err := sess.Submit(mGot)
	if err != nil {
		t.Fatal(err)
	}
	if !dGot.Warm {
		t.Fatal("the resubmit did not run against the adopted session state")
	}
	mPlain := buildFromSpecs(delta)
	plain, err := NewSession(SessionConfig{Explore: opts})
	if err != nil {
		t.Fatal(err)
	}
	repPlain, _, err := plain.Submit(mPlain)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(outcomeOf(repGot), outcomeOf(repPlain)) {
		t.Fatal("resubmit after a failed flush diverged from a cold run")
	}
	if printModule(t, mGot) != printModule(t, mPlain) {
		t.Fatal("resubmit after a failed flush merged a different module")
	}
	if re := openTestStore(t, path); re.Len() < len(base) || re.Stats().Attempts == 0 {
		t.Fatalf("after recovery the segment holds %d records and %d attempt entries",
			re.Len(), re.Stats().Attempts)
	}
}

// TestSessionStoreBytesWorkerInvariant: the segment a store-backed submit
// writes — records, content keys and attempt entries — is byte-identical
// for every worker count, because the memo learns only the failures that
// sequential evaluation also prices.
func TestSessionStoreBytesWorkerInvariant(t *testing.T) {
	specs := sessionSpecs(60)
	for _, ranking := range []RankingMode{RankExact, RankLSH} {
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			path := filepath.Join(t.TempDir(), "w.fmdb")
			_, _, st := storeRun(t, path, sessionOpts(workers, ranking), specs)
			if st.Attempts == 0 {
				t.Fatalf("ranking=%v workers=%d: no attempt entries written", ranking, workers)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = data
			} else if !bytes.Equal(data, want) {
				t.Fatalf("ranking=%v: workers=%d segment differs from workers=1", ranking, workers)
			}
		}
	}
}

// TestSessionStoreConcurrentSessions: sessions submitting at the same time
// over one store handle — fmsa-serve's arrangement — read and write its
// records, keys and attempt entries concurrently and still merge exactly
// like storeless runs; a later restart onto the segment hits the entries
// they wrote.
func TestSessionStoreConcurrentSessions(t *testing.T) {
	specs := sessionSpecs(60)
	opts := sessionOpts(2, RankLSH)
	path := filepath.Join(t.TempDir(), "concurrent.fmdb")
	st := openTestStore(t, path)
	want, _ := plainRun(t, opts, specs)

	const sessions = 3
	got := make([]mergeOutcome, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := NewSession(SessionConfig{Explore: opts, Store: st})
			if err != nil {
				errs[i] = err
				return
			}
			rep, _, err := sess.Submit(buildFromSpecs(specs))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = outcomeOf(rep)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameOutcome(got[i], want) {
			t.Fatalf("concurrent session %d diverged from the storeless run", i)
		}
	}
	restart, d, _ := storeRun(t, path, opts, specs)
	if d.NegStoreHits == 0 || !sameOutcome(restart, want) {
		t.Fatalf("restart after concurrent sessions: NegStoreHits=%d, identical=%v",
			d.NegStoreHits, sameOutcome(restart, want))
	}
}

// TestAttemptDigestPinned pins attemptDigest for the default options on
// both targets. Persisted attempt entries are keyed on the digest, so a
// change to the hashed text orphans every entry in existing fmdb segments;
// a deliberate change bumps attemptVersion and updates these values.
func TestAttemptDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		target tti.Target
		want   uint64
	}{{tti.X86{}, 0x9237a847bc89372b}, {tti.Thumb{}, 0x17d390064230489e}} {
		o := DefaultOptions()
		o.Target = tc.target
		got, ok := attemptDigest(o)
		if !ok || got != tc.want {
			t.Errorf("%s: attemptDigest = %#x, %v; want %#x, true", tc.target.Name(), got, ok, tc.want)
		}
	}
}
