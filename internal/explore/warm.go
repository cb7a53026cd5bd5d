package explore

// Pure warm-session state: the content-key table and negative-attempt memo
// shared across a session's runs, the name-keyed stored candidate lists a
// delta submission reconciles instead of rescanning, and the seed structure
// that carries all of it into a runner. Everything here is a pure function
// of its inputs — the session orchestration (and all of its wall-clock
// timing) lives in session.go.
//
// Correctness contracts, in one place:
//
//   - keyTable: a funcKey with ok=true means the function's canonical
//     structural key (global.AppendStableKey) is byte-equal to the table
//     entry for its hash AND the function is self-comparable (selfEq). Key
//     equality at that strength implies column-for-column structural
//     equality, so two ok funcKeys with equal hashes denote structurally
//     identical bodies — across runs and across modules.
//   - negMemo: an entry (h1, h2, s1, s2) asserts that merging a function
//     with verified key h1 into one with verified key h2, under caller
//     snapshots s1/s2 and the session's pinned options, failed or priced
//     unprofitable. Merge outcome and exact profit are pure functions of
//     the two bodies and those snapshots, so the assertion transfers to any
//     later attempt with the same verified keys and snapshots. Skipping
//     such an attempt is invisible in the merge records: an unprofitable
//     attempt commits nothing and CandidatesEvaluated follows sequential
//     semantics (the winner's rank), not the set of attempts actually run.
//   - persistence: with a SessionConfig.Store, both tables fall back to the
//     store on a local miss and write what they learn through to it. The
//     store's content keys take over the verifying role (first writer
//     wins; two different keys for one hash make it unverifiable), and
//     each attempt entry carries attemptDigest of the options, so an entry
//     is used only under the configuration that priced it and only while
//     both of its hashes verify byte-for-byte against the stored keys.
//   - warmList: a stored list is the exact top-depth prefix (or, when
//     complete, the entire set) of its owner's initial candidate ranking
//     under the corpus it was stored for, in the order before defines.
//     Reconciliation resolves it against the next corpus, drops evicted
//     members and inserts changed ones through insertBounded, which keeps
//     that invariant, so a reconciled list seeds the next run with exactly
//     what a cold scan would build.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"fmsa/internal/align"
	"fmsa/internal/core"
	"fmsa/internal/fingerprint"
	"fmsa/internal/global"
	"fmsa/internal/ir"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
)

// funcKey is a function's verified content identity: hash is its stable
// structural hash, and ok reports that the hash was verified byte-for-byte
// against the session content table (see keyTable). Functions with ok=false
// (phi/unmodeled-invoke bodies, hash collisions, a full table) never
// participate in the negative memo.
type funcKey struct {
	hash uint64
	ok   bool
}

// keyTable maps content hashes to verified canonical keys (session-lived)
// and caches per-function identities (per-run; function pointers die with
// their module). Safe for concurrent use.
//
// The content table holds at most simdb.DefaultKeyTableCap entries, the
// bound the persistent store applies too. A full table stops verifying new
// content; affected functions simply lose negative-memo coverage.
type keyTable struct {
	mu sync.RWMutex
	// tab is the content table: hash → the canonical key bytes the hash was
	// first seen with. First writer wins; a later mismatch marks the
	// function not-memoizable instead of evicting.
	tab map[uint64][]byte
	// funcs caches the identity per function pointer for the current run.
	funcs map[*ir.Func]funcKey
	// store, when non-nil, is the verifying authority: a hash missing from
	// tab verifies only through store.VerifyKey, so tab caches exactly the
	// store's answers and a persisted attempt entry's hashes mean the same
	// bytes in every session that reads it.
	store *simdb.Store
}

func newKeyTable() *keyTable {
	return &keyTable{tab: make(map[uint64][]byte), funcs: make(map[*ir.Func]funcKey)}
}

// reset begins a new run: the per-function cache is dropped (its pointers
// belong to the previous module), the content table survives.
func (kt *keyTable) reset() {
	kt.mu.Lock()
	kt.funcs = make(map[*ir.Func]funcKey)
	kt.mu.Unlock()
}

// register installs a precomputed key for f and returns its identity.
// Verification happens here, once: an ok identity needs no byte comparison
// at lookup time. Concurrent duplicate registration of the same function
// computes the same identity.
func (kt *keyTable) register(f *ir.Func, key []byte, selfEq bool, hash uint64) funcKey {
	k := funcKey{}
	kt.mu.Lock()
	if selfEq {
		if cur, ok := kt.tab[hash]; ok {
			if bytes.Equal(cur, key) {
				k = funcKey{hash: hash, ok: true}
			}
		} else if kt.store != nil {
			if kt.store.VerifyKey(hash, key) {
				k = funcKey{hash: hash, ok: true}
				if len(kt.tab) < simdb.DefaultKeyTableCap {
					kt.tab[hash] = key
				}
			}
		} else if len(kt.tab) < simdb.DefaultKeyTableCap {
			kt.tab[hash] = key
			k = funcKey{hash: hash, ok: true}
		}
	}
	kt.funcs[f] = k
	kt.mu.Unlock()
	return k
}

// of returns f's verified identity, computing and registering it on first
// sight — merged functions appear mid-run, after the session pre-registered
// the submitted pool.
func (kt *keyTable) of(f *ir.Func) funcKey {
	kt.mu.RLock()
	k, ok := kt.funcs[f]
	kt.mu.RUnlock()
	if ok {
		return k
	}
	key, selfEq := global.AppendStableKey(nil, f)
	return kt.register(f, key, selfEq, global.HashStableKey(key))
}

// negKey identifies one attempt class: the two verified content hashes plus
// every cost-model input the structural key does not capture — the
// caller-stat snapshots and the linkages (an internal, non-address-taken
// function pays no thunk on deletion, so body-identical functions of
// different linkage price differently).
type negKey struct {
	h1, h2 uint64
	s1, s2 core.CallerStats
	l1, l2 ir.Linkage
}

// negMemo records attempt classes known to fail or price unprofitable.
// Bounded insert-if-room at simdb.DefaultNegMemoCap entries, the store's
// bound too; never evicts, so an entry's assertion stays valid for the
// session's lifetime (options are pinned). A full memo stops inserting;
// results are unaffected either way.
type negMemo struct {
	mu   sync.Mutex
	m    map[negKey]struct{}
	hits atomic.Int64
	// store, when non-nil, answers local misses and receives every insert
	// as an attempt entry under digest (see attemptDigest); storeHits
	// counts the hits it answered.
	store     *simdb.Store
	digest    uint64
	storeHits atomic.Int64
}

func newNegMemo() *negMemo {
	return &negMemo{m: make(map[negKey]struct{})}
}

// known reports whether the attempt class is recorded as unprofitable,
// locally or in the store. A store hit is cached locally.
func (nm *negMemo) known(k negKey) bool {
	nm.mu.Lock()
	_, ok := nm.m[k]
	nm.mu.Unlock()
	if !ok && nm.store != nil {
		if a, fits := nm.attempt(k); fits && nm.store.HasAttempt(a) {
			ok = true
			nm.storeHits.Add(1)
			nm.mu.Lock()
			if len(nm.m) < simdb.DefaultNegMemoCap {
				nm.m[k] = struct{}{}
			}
			nm.mu.Unlock()
		}
	}
	if ok {
		nm.hits.Add(1)
	}
	return ok
}

// insert records an attempt class as unprofitable, in the store as well.
func (nm *negMemo) insert(k negKey) {
	nm.mu.Lock()
	if len(nm.m) < simdb.DefaultNegMemoCap {
		nm.m[k] = struct{}{}
	}
	nm.mu.Unlock()
	if nm.store != nil {
		if a, fits := nm.attempt(k); fits {
			nm.store.AddAttempt(a)
		}
	}
}

// attempt lowers k to its persisted form; fits is false when a caller
// count or linkage does not fit the entry's 32-bit or 8-bit field.
func (nm *negMemo) attempt(k negKey) (a simdb.Attempt, fits bool) {
	if uint64(k.s1.Callers) > math.MaxUint32 || uint64(k.s2.Callers) > math.MaxUint32 ||
		uint64(k.l1) > math.MaxUint8 || uint64(k.l2) > math.MaxUint8 {
		return a, false
	}
	return simdb.Attempt{
		Digest: nm.digest, H1: k.h1, H2: k.h2,
		Callers1: uint32(k.s1.Callers), Callers2: uint32(k.s2.Callers),
		AddrTaken1: k.s1.AddressTaken, AddrTaken2: k.s2.AddressTaken,
		Linkage1: byte(k.l1), Linkage2: byte(k.l2),
	}, true
}

// attemptVersion names the merge and cost-model semantics that persisted
// attempt entries were priced under. Bump it whenever core.Merge, the
// profitability bound or the profit model can change a pair's outcome, so
// entries written by older code stop matching.
const attemptVersion = 1

// attemptDigest hashes every option a pair's outcome depends on: the
// target, the linearization order, parameter reuse and the bound's
// MinProfit (0 in exploration). ok is false for options that cannot be
// named by value — a custom Target or Merge.Align — and such sessions
// neither read nor write persisted attempt entries.
func attemptDigest(o Options) (digest uint64, ok bool) {
	switch o.Target.(type) {
	case tti.X86, tti.Thumb:
	default:
		return 0, false
	}
	if fn := o.Merge.Align; fn != nil &&
		reflect.ValueOf(fn).Pointer() != reflect.ValueOf(align.AlignCodes).Pointer() {
		return 0, false
	}
	h := fnv.New64a()
	// The alignment scoring is fixed; it stays in the text so that digests,
	// and with them persisted attempt entries, keep their values.
	fmt.Fprintf(h, "fmsa-attempt/v%d target=%s scoring=1,-1,-1 order=%d reuse=%t minprofit=%d",
		attemptVersion, o.Target.Name(), o.Merge.Order, o.Merge.ReuseParams, pruneMinProfit)
	return h.Sum64(), true
}

// warmCand is one stored candidate-list entry, held by name so it survives
// across modules (function pointers and pool indices do not).
type warmCand struct {
	name string
	sim  float64
	size int32
}

// warmList is one owner's stored initial candidate list at the session's
// storage depth (2t). complete reports that the list holds the owner's
// entire candidate set above MinSimilarity — not just a depth-bounded
// prefix — so evictions can never expose an unstored candidate.
type warmList struct {
	cands    []warmCand
	complete bool
}

// newWarmList stores rl, a list ranked over the current pool, by name.
func newWarmList(rl *rankList) *warmList {
	wl := &warmList{cands: make([]warmCand, len(rl.cands)), complete: rl.complete}
	for i, c := range rl.cands {
		wl.cands[i] = warmCand{name: c.fn.Name(), sim: c.sim, size: c.size}
	}
	return wl
}

// warmSeed carries one submission's precomputed warm state into a runner.
// All per-function slices are parallel to the pool the runner derives from
// the module — the session derives the identical pool first (same
// eligibility scan over the same φ-demoted module) and the runner asserts
// the lengths agree.
type warmSeed struct {
	// fps[i] is pool[i]'s fingerprint; the runner skips recomputation.
	fps []*fingerprint.Fingerprint
	// lists[i], when non-nil, is pool[i]'s reconciled initial candidate
	// list — an exact prefix of its full ranking that holds at least t
	// entries or is complete — freshly allocated for the run, which mutates
	// it in place. nil entries are built by the setup scan.
	lists []*rankList
	// onScan receives every setup-built list at depth 2t, before
	// truncation to t, so the session can store it. Invoked from
	// par.For with distinct pool indices; it must touch only
	// per-owner state.
	onScan func(poolIdx int, rl *rankList)
	// lsh, when non-nil, is the run's LSH index, which the session built
	// over this pool from its cached signatures and probed while
	// reconciling lists; the run adopts it as a cold run adopts its own.
	lsh *lshState
	// keys and neg are the session-lived content tables.
	keys *keyTable
	neg  *negMemo
}
