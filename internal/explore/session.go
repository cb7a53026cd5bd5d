package explore

// Warm-state merge sessions. A Session owns every cross-run artifact whose
// validity survives a corpus edit — per-function fingerprints and MinHash
// signatures, the encode interner every run's per-function memo encodes
// through, the stable-hash content tables and the stored initial candidate
// rankings — and resubmits pay only for what a delta touched. A submit is
// a cold run over cached per-function state: it drives Run's own setup
// (newRunner, then the fill steps fingerprintPool, indexPool and rankPool in
// explore.go) and hands each fill step what the session already has.
//
//  1. Diff. The run's constructor φ-demotes the module and derives the
//     pool; every pool function's canonical structural key is computed and
//     its name classed unchanged / changed / added against the session
//     table (byte-verified key equality on self-comparable bodies;
//     anything weaker is treated as changed), and names that left the pool
//     are removed.
//  2. Fingerprint. Changed and added members are looked up in the store;
//     the fingerprint step computes only the fingerprints still missing,
//     and in LSH mode the index step signs only the members without a
//     signature and indexes the whole pool — the very index a cold run
//     builds — which the run uses and drops.
//  3. Reconcile rankings. Stored initial candidate lists (kept at depth 2t
//     so evictions cannot expose unstored candidates) are pruned of
//     changed/removed members and offered the changed/added ones through
//     the run's own bounded insert; lists that still hold the exact top-t
//     seed the rank step and are stored back, the rest — plus all
//     changed/added owners — are scanned by it, and the session stores
//     them off the rank cache before the run consumes them.
//  4. Run. The runner executes the standard exploration; the
//     negative-attempt memo additionally skips (content, content, caller
//     stats) attempt classes an earlier run already priced unprofitable,
//     which on a small delta eliminates nearly all alignment and codegen.
//
// Warm submissions are bit-identical to cold ones: every reused artifact
// is content-verified or provably equal to what a cold run rebuilds, and
// TestSessionWarmColdIdentical/TestSessionConvergesToCold enforce it.
// Sessions reject the oracle and partition modes (their ranking and
// eligibility structure does not seed) and pin Options at construction —
// the memo contracts above are only valid under fixed options.

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fmsa/internal/fingerprint"
	"fmsa/internal/global"
	"fmsa/internal/ir"
	"fmsa/internal/par"
	"fmsa/internal/simdb"
)

// SessionConfig configures a Session.
type SessionConfig struct {
	// Explore is the pinned exploration configuration. Oracle and
	// Partition are rejected. The session's content tables hold up to
	// simdb's DefaultKeyTableCap and DefaultNegMemoCap entries.
	Explore Options
	// Store is an optional persistent similarity database. Submissions look
	// changed/added functions up by (stable hash, content key) and reuse the
	// stored fingerprint and signature on a hit — key byte equality implies
	// both are identical to a fresh computation, so results stay bit-exact.
	// The session's content-key table and negative-attempt memo fall back
	// to the store's on a local miss: an attempt entry is used only under
	// the options digest that priced it and only while both of its hashes
	// verify byte-for-byte against the stored keys (options that cannot be
	// digested, such as a custom Merge.Align, skip the memo entries). Each
	// Submit writes its records, keys and attempt entries back and flushes
	// them before returning, making a process restart as warm as a live
	// session. May be shared across concurrent sessions.
	Store *simdb.Store
}

// DeltaStats describes how one submission diffed against the session state
// and how much warm state it reused.
type DeltaStats struct {
	// Funcs is the submitted pool size; Unchanged/Changed/Added partition
	// it, and Removed counts names that left the pool.
	Funcs, Unchanged, Changed, Added, Removed int
	// SeededLists counts owners whose initial ranking was reconciled from
	// the stored session lists; RescannedLists were rebuilt by setup scans.
	SeededLists, RescannedLists int
	// NegHits counts merge attempts the negative-attempt memo skipped;
	// NegStoreHits is the part of them answered by the persistent store.
	NegHits, NegStoreHits int64
	// StoreHits/StoreMisses count changed/added functions whose fingerprint
	// state was reused from (or absent in) the persistent similarity store.
	StoreHits, StoreMisses int
	// Warm reports that the submission ran against prior session state.
	Warm bool
	// OrderBroken and ModeFlipped report why list seeding was abandoned
	// wholesale: the unchanged members' relative order shifted, or the
	// ranking mode crossed the LSH pool cutoff.
	OrderBroken, ModeFlipped bool
}

// sessEntry is the session's record of one live corpus function, keyed by
// name (function pointers die with their module).
type sessEntry struct {
	name   string
	hash   uint64
	key    []byte
	selfEq bool
	fp     *fingerprint.Fingerprint
	// sig is the MinHash signature; computed when a submit ranks via LSH
	// and retained across mode flips.
	sig *fingerprint.Signature
	// list is the stored initial candidate list (depth 2t); nil before the
	// first run covering this entry completes.
	list *warmList
}

// Session is a reusable warm-state exploration context. Methods are safe
// for concurrent use but submissions serialize: one Submit runs at a time
// (the daemon runs one session per client stream and parallelizes within
// the run, not across runs of one session).
type Session struct {
	cfg  SessionConfig
	opts Options
	t    int
	// depth is the stored-list depth: 2t, so up to t member evictions
	// leave at least t exact entries.
	depth int

	keys *keyTable
	neg  *negMemo

	mu      sync.Mutex
	entries map[string]*sessEntry
	order   []string // previous submission's pool names, in pool order
	lastLSH bool
	submits int

	delta DeltaStats
}

// NewSession builds a session around pinned exploration options.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Explore.Oracle {
		return nil, errors.New("explore: sessions do not support oracle mode")
	}
	if cfg.Explore.Partition != nil {
		return nil, errors.New("explore: sessions do not support partitioned exploration")
	}
	// Normalizing here pins a session-lived interner: every submit encodes
	// against the keys earlier submits already interned.
	opts := cfg.Explore.normalized()
	s := &Session{
		cfg:     cfg,
		opts:    opts,
		t:       opts.Threshold,
		depth:   2 * opts.Threshold,
		keys:    newKeyTable(),
		neg:     newNegMemo(),
		entries: map[string]*sessEntry{},
	}
	if digest, ok := attemptDigest(opts); ok && cfg.Store != nil {
		s.keys.store = cfg.Store
		s.neg.store, s.neg.digest = cfg.Store, digest
	}
	return s, nil
}

// Options returns the session's pinned (normalized) exploration options.
func (s *Session) Options() Options { return s.opts }

// LastDelta returns the delta statistics of the most recent Submit.
func (s *Session) LastDelta() DeltaStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delta
}

// classification of one pool function against the session table.
const (
	clsUnchanged = iota
	clsChanged
	clsAdded
)

// Submit explores m with whatever warm state the session holds, updates
// the session to m's corpus, and returns the run report plus the delta
// statistics. The module is φ-demoted and merged in place, exactly like
// Run — the submit drives Run's own setup, seeded with the cached state —
// and the report's merge records are bit-identical to a cold run's.
//
// With a Store, the store is flushed last. A flush error is returned with
// the completed report: the session has already adopted m's corpus, the
// unwritten state stays pending in the store for its next flush, and the
// next Submit proceeds normally.
func (s *Session) Submit(m *ir.Module) (*Report, DeltaStats, error) {
	if m == nil {
		return nil, DeltaStats{}, errors.New("explore: nil module")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	r := newRunner(m, s.opts)
	r.keys, r.neg = s.keys, s.neg
	pool, workers := r.pool, r.workers
	n := len(pool)
	delta := DeltaStats{Warm: s.submits > 0, Funcs: n}

	// Diff: class every pool function against the session table by
	// verified structural key.
	tDiff := time.Now()
	keysBuf := make([][]byte, n)
	selfEqs := make([]bool, n)
	hashes := make([]uint64, n)
	par.For(n, workers, func(i int) {
		k, se := global.AppendStableKey(nil, pool[i])
		keysBuf[i] = k
		selfEqs[i] = se
		hashes[i] = global.HashStableKey(k)
	})
	s.keys.reset()

	idxOf := make(map[string]int32, n)
	class := make([]int, n)
	entriesByIdx := make([]*sessEntry, n)
	newEntries := make(map[string]*sessEntry, n)
	for i, f := range pool {
		name := f.Name()
		idxOf[name] = int32(i)
		s.keys.register(f, keysBuf[i], selfEqs[i], hashes[i])
		old := s.entries[name]
		switch {
		case old != nil && old.selfEq && selfEqs[i] &&
			old.hash == hashes[i] && bytes.Equal(old.key, keysBuf[i]):
			class[i] = clsUnchanged
			delta.Unchanged++
			entriesByIdx[i] = old
		case old != nil:
			class[i] = clsChanged
			delta.Changed++
		default:
			class[i] = clsAdded
			delta.Added++
		}
		if entriesByIdx[i] == nil {
			entriesByIdx[i] = &sessEntry{
				name: name, hash: hashes[i], key: keysBuf[i], selfEq: selfEqs[i],
			}
		}
		newEntries[name] = entriesByIdx[i]
	}
	for name := range s.entries {
		if _, live := idxOf[name]; !live {
			delta.Removed++
		}
	}
	var fresh []int32
	for i := range pool {
		if class[i] != clsUnchanged {
			fresh = append(fresh, int32(i))
		}
	}
	r.rep.Phases.Ranking += time.Since(tDiff)

	// Look the changed/added subset up in the store: key byte equality
	// means the stored fingerprint and signature are what a fresh
	// computation would produce.
	tFP := time.Now()
	var storeHits, storeMisses int64
	if s.cfg.Store != nil {
		par.For(len(fresh), workers, func(j int) {
			e := entriesByIdx[fresh[j]]
			if rec := s.cfg.Store.Lookup(e.hash, e.key); rec != nil {
				e.fp, e.sig = rec.Fp, rec.Sig
				atomic.AddInt64(&storeHits, 1)
			} else {
				atomic.AddInt64(&storeMisses, 1)
			}
		})
	}
	delta.StoreHits = int(storeHits)
	delta.StoreMisses = int(storeMisses)
	fps := make([]*fingerprint.Fingerprint, n)
	sigs := make([]*fingerprint.Signature, n)
	for i, e := range entriesByIdx {
		fps[i], sigs[i] = e.fp, e.sig
	}
	r.rep.Phases.Fingerprint += time.Since(tFP)

	// The run's setup computes only what the cache lacks: fingerprints of
	// the fresh subset and, in LSH mode, signatures of every member without
	// one (changed, added, or last ranked exactly), filled in place; the
	// index covers the whole pool, exactly as a cold run builds it.
	r.fingerprintPool(fps)
	r.indexPool(sigs)
	lshMode := r.lsh != nil
	delta.ModeFlipped = delta.Warm && lshMode != s.lastLSH

	// Persist the fresh subset: unchanged store records are no-ops inside
	// Put, signature upgrades supersede unsigned ones. Names that left the
	// pool are NOT tombstoned — the store is content-addressed and shared
	// across sessions and corpora. The flush waits for the run, so one
	// append also carries the run's keys and attempt entries.
	tWarm := time.Now()
	for i, e := range entriesByIdx {
		e.fp, e.sig = fps[i], sigs[i]
	}
	if s.cfg.Store != nil {
		for _, i := range fresh {
			e := entriesByIdx[i]
			s.cfg.Store.Put(simdb.Record{
				Hash: e.hash, Name: e.name, Linkage: pool[i].Linkage,
				SelfEq: e.selfEq, Size: e.fp.Total, Key: e.key,
				Fp: e.fp, Sig: e.sig,
			})
		}
	}

	// Reconcile stored candidate lists into run seeds.
	warmLists := delta.Warm && !delta.ModeFlipped
	if warmLists && !s.orderPreserved(pool, class) {
		delta.OrderBroken = true
		warmLists = false
	}
	seeds := make([]*rankList, n)
	if warmLists {
		s.reconcileLists(pool, class, entriesByIdx, idxOf, r.lsh, seeds, workers)
	}
	r.rep.Phases.Ranking += time.Since(tWarm)

	// Rank: only owners without a seed scan. Their lists are stored by
	// name at depth 2t before the run starts to consume them.
	r.rankPool(seeds)
	tStore := time.Now()
	for i, rl := range seeds {
		if rl != nil {
			delta.SeededLists++
		} else {
			entriesByIdx[i].list = newWarmList(r.cache.lists[pool[i]])
		}
	}
	delta.RescannedLists = n - delta.SeededLists
	r.rep.Phases.Ranking += time.Since(tStore)

	negHits := s.neg.hits.Load()
	negStoreHits := s.neg.storeHits.Load()
	rep := r.run()
	delta.NegHits = s.neg.hits.Load() - negHits
	delta.NegStoreHits = s.neg.storeHits.Load() - negStoreHits

	// Adopt the new corpus as the session state.
	s.entries = newEntries
	s.order = make([]string, n)
	for i, f := range pool {
		s.order[i] = f.Name()
	}
	s.lastLSH = lshMode
	s.submits++
	s.delta = delta
	if s.cfg.Store != nil {
		return rep, delta, s.cfg.Store.Flush()
	}
	return rep, delta, nil
}

// orderPreserved reports whether the unchanged members appear in the same
// relative order as in the previous submission — the stored lists' pool-
// index tie-breaks are only valid if so.
func (s *Session) orderPreserved(pool []*ir.Func, class []int) bool {
	unchanged := make(map[string]bool, len(pool))
	for i, f := range pool {
		if class[i] == clsUnchanged {
			unchanged[f.Name()] = true
		}
	}
	var prev []string
	for _, name := range s.order {
		if unchanged[name] {
			prev = append(prev, name)
		}
	}
	j := 0
	for i, f := range pool {
		if class[i] != clsUnchanged {
			continue
		}
		if j >= len(prev) || prev[j] != f.Name() {
			return false
		}
		j++
	}
	return j == len(prev)
}

// reconcileLists turns surviving stored lists into run seeds. Each stored
// list is resolved against the new pool — members that changed or left the
// corpus drop out, which keeps both an exact prefix and a complete set what
// they were — and offered the changed/added members through rankList.offer,
// the path a run's commit offers take. A list that still holds at least t
// entries or is complete seeds the run in full, with its completeness flag,
// so the runner's own commit offers keep working on it, and is stored back
// by name. Other owners get nil (setup rescans and re-stores them). Runs in
// parallel over owners — each owner touches only its own entry and seed
// slot.
func (s *Session) reconcileLists(pool []*ir.Func, class []int, entriesByIdx []*sessEntry, idxOf map[string]int32, ls *lshState, seeds []*rankList, workers int) {
	// Offers: every changed/added pool member. In LSH mode each owner only
	// sees the offers it shares a band bucket with — exactly the probe
	// relation — precomputed by probing each offer against the run's index
	// over the new pool; in exact mode every owner sees every offer.
	var offers []int32
	for i := range pool {
		if class[i] != clsUnchanged {
			offers = append(offers, int32(i))
		}
	}
	var offersFor [][]int32 // owner pool index → offered pool indices (LSH mode)
	if ls != nil {
		offersFor = make([][]int32, len(pool))
		sigs := make([]*fingerprint.Signature, len(offers))
		for j, oi := range offers {
			sigs[j] = ls.sigs[oi]
		}
		for j, pis := range ls.idx.ProbeBatch(sigs, offers, workers) {
			for _, pi := range pis {
				if class[pi] == clsUnchanged {
					offersFor[pi] = append(offersFor[pi], offers[j])
				}
			}
		}
	}
	par.For(len(pool), workers, func(i int) {
		e := entriesByIdx[i]
		if class[i] != clsUnchanged || e.list == nil {
			return
		}
		rl := &rankList{fp: e.fp, cands: make([]candidate, 0, len(e.list.cands)+1), complete: e.list.complete}
		for _, wc := range e.list.cands {
			if pi, ok := idxOf[wc.name]; ok && class[pi] == clsUnchanged {
				rl.cands = append(rl.cands, candidate{fn: pool[pi], sim: wc.sim, size: wc.size, pi: pi})
			}
		}
		mine := offers
		if ls != nil {
			mine = offersFor[i]
		}
		for _, oi := range mine {
			rl.offer(pool[oi], oi, entriesByIdx[oi].fp, s.depth, s.opts.MinSimilarity)
		}
		if !rl.complete && len(rl.cands) < s.t {
			return
		}
		e.list = newWarmList(rl)
		seeds[i] = rl
	})
}
