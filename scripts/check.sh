#!/bin/sh
# Tier-1 gate suite. Each gate is named, individually timed, and fails the
# run on first breakage with the gate name in the failure line.
#
# What the gates enforce:
#  - vet/build: the usual compiler-visible hygiene.
#  - lint: the repo linter's analyzer registry (use-list locking, pool
#    get/put pairing, map-range ordering, wall-clock purity, goroutine
#    captures); lint-registry first asserts the expected analyzers exist.
#  - race-tests: the full suite under the race detector — the parallel
#    exploration pipeline must stay deterministic and data-race-free.
#  - audit-corpus: the static merge auditor reports zero diagnostics across
#    the whole workload corpus; any finding is a merger bug or an auditor
#    false positive, and both block.
#  - fuzz-roundtrip / fuzz-decode-verify: short smoke-fuzz of the textual
#    parse/print round trip and of the wire decoder + staged IR verifier
#    (the decoder must never accept a module the verifier rejects).
#  - fuzz-align: short smoke-fuzz of the alignment kernels against the
#    textbook oracles (two code sequences of up to 256 entries over 1–4
#    codes; AlignCodes must return the Needleman–Wunsch oracle's steps and
#    HirschbergCodes the Hirschberg oracle's, exactly, tie-breaks included,
#    across the bit-parallel fill's 64-column words and the 64-row mask
#    blocks of Hirschberg's score rows).
#  - verify-sweep: explore's TestVerifyBoundaries and TestVerifyCleanCorpus
#    — on the paper-scale profiles plus the quick SPEC-like and
#    MiBench-like corpora, the staged verifier finds zero full-level
#    diagnostics after print->reparse, the wire round trip and a 4-unit
#    split plus relink; merging draws no finding at the fast or the full
#    level (the full level across the whole corpus); verify off and full
#    commit the same merges and text; and the fast level's own time stays
#    within 5% of the same runs' exploration wall clock.
#  - rank: explore's TestLSHRecallTop1 — the MinHash/LSH ranking keeps
#    top-1 recall >= 0.95 against the exact scan with zero fallbacks, on two
#    synthetic recall corpora and on 483.xalancbmk at t=1.
#  - bound: explore's TestBoundDecisionInvariance — on the demo corpus and
#    the quick SPEC-like corpora (t=5, all cores) bounding on and off commit
#    identical records, size and module text, the prune fires, and an audit
#    run finds no pair whose exact profit exceeds its bound (run it with -v
#    for each corpus's loose_pairs and max_slack).
#  - ingest: wire's TestIngestFormatsAgree — every quick corpus emitted as
#    text and as fmir loads to the same module, the fmir module verifies,
#    exploring both at t=2 commits the same merges and text, and
#    wire.LoadFiles returns the same modules in path order.
#  - kernels: the alignment path's package tests — the coded kernels match
#    the reference Needleman–Wunsch/Hirschberg oracle step for step, the
#    equivalence codes obey the encode contract (equal codes exactly when
#    the entries are equivalent), Hirschberg's linear-space scratch stays
#    within its allocation bound and one call makes at most three
#    allocations (both skipped under -race, whose sync.Pool drops puts),
#    and on the quick corpora exploration with the linearization cache on
#    commits the same merges and module as with it off.
#  - bound-huge: the profitability bound must prune 483.xalancbmk's @main
#    against its closest partners and stay admissible there, so a loosened
#    branch floor fails by name rather than somewhere inside race-tests.
#  - fuzz-stablehash: short smoke-fuzz of the cross-TU stable hash (hash
#    equality on self-comparable functions must imply structural equality,
#    and hashing must survive print->reparse).
#  - global: global's TestGlobalQuickCorpora — on the quick corpora split
#    into 4 units, worker counts 1/2/8 commit identical records and link
#    identical text, .fmsum summaries round-trip, and summary planning
#    exact-scores >= 30% fewer pairs than monolithic exploration at t=1.
#  - fuzz-serve-frame: short smoke-fuzz of the daemon frame codec (decode
#    must reject what it cannot re-encode byte-identically, and never
#    panic or over-read).
#  - serve: serve's TestServeWarmMatchesCold, TestServeBackpressure,
#    TestServeGracefulDrain and TestServeShutdownAdmissionRace, plus
#    explore's TestSessionWarmWorkFloor, TestSessionWarmColdIdentical,
#    TestSessionConvergesToCold, TestSessionModeFlipMatchesCold and
#    TestSessionLSHSparseListsMatchCold — over a
#    live server, a warm 1% delta of the 350-function 483.xalancbmk shrink
#    merges like a cold session for workers 1/2/8 and every stream
#    resubmission stays warm; a 1-slot server answers a burst with Busy;
#    admitted work survives Shutdown, also when submits race it; in-process
#    the warm delta aligns and bounds at least 5x less than a cold session
#    (exact counts); and warm submits, random submit/evict/resubmit
#    sequences and a pool crossing the LSH cutoff both ways all merge like
#    cold runs in both ranking modes; in LSH mode a stored list takes only
#    its owner's bucket-mates, also where short complete lists would let a
#    changed non-mate in.
#  - fuzz-simdb: short smoke-fuzz of the fmdb segment walker (corrupt or
#    truncated segments must error, never panic or over-read, and accepted
#    input must walk->encode->walk losslessly).
#  - simdb: explore's TestSessionStoreColdIdentical, simdb's
#    TestStoreReopenRoundTrip and TestStoreNeverResurrects, and lsh's
#    TestNewFromBandKeysMatchesInserts — store-backed sessions on a shared
#    segment merge like storeless ones for workers 1/2/8 (the xalancbmk
#    shrink under LSH among the inputs), a restart recomputes exactly the
#    edited functions, reopened records keep every field, and a rehydrated
#    index answers every probe like a fresh one.
#  - perfbench-selftest: the layered benchmark's own self-tests in short
#    mode (its output checks and metric schema, about 2 s). perfbench is a
#    separate Go module, so the root `go test ./...` never runs them; an IR
#    or explore change that breaks the benchmark fails here instead of first
#    in the benchmark pipeline.
#
# Run this before every commit that touches internal/explore, internal/ir,
# internal/align, internal/encode, internal/core, internal/analysis or
# internal/wire.
set -eu

cd "$(dirname "$0")/.."

# gate <name> <cmd...>: run one named section, timed, fail fast.
gate() {
    name="$1"
    shift
    echo "=== gate: $name ==="
    start=$(date +%s)
    if ! "$@"; then
        echo "=== gate FAILED: $name ($*) ===" >&2
        exit 1
    fi
    echo "=== gate ok: $name ($(($(date +%s) - start))s) ==="
}

check_registry() {
    got=$(go run ./scripts/lint -list | awk '{print $1}' | tr '\n' ' ')
    want="uselist poolpair maprange walltime goloopcapture "
    if [ "$got" != "$want" ]; then
        echo "lint registry mismatch: got '$got', want '$want'" >&2
        return 1
    fi
}

gate vet                go vet ./...
gate build              go build ./...
gate lint-registry      check_registry
gate lint               go run ./scripts/lint
gate race-tests         go test -race ./...
gate audit-corpus       go test -run 'TestAuditCleanCorpus' -count=1 ./internal/explore/
gate fuzz-roundtrip     go test -run '^$' -fuzz 'FuzzRoundTrip' -fuzztime 10s ./internal/ir/
gate fuzz-decode-verify go test -run '^$' -fuzz 'FuzzDecodeVerify' -fuzztime 10s ./internal/wire/
gate fuzz-align        go test -run '^$' -fuzz 'FuzzAlignOracle' -fuzztime 10s ./internal/align/
gate fuzz-stablehash    go test -run '^$' -fuzz 'FuzzStableHash' -fuzztime 10s ./internal/global/
gate verify-sweep       go test -count=1 -run '^(TestVerifyBoundaries|TestVerifyCleanCorpus)$' ./internal/explore/
gate rank               go test -count=1 -run '^TestLSHRecallTop1$' ./internal/explore/
gate kernels            go test -count=1 -run 'TestCodedKernelsMatchOracle|TestHirschbergScratchBound|TestHirschbergAllocs|TestContract|TestKernelCrossCheck' ./internal/align/ ./internal/encode/ ./internal/explore/
gate bound              go test -count=1 -run '^TestBoundDecisionInvariance$' ./internal/explore/
gate bound-huge         go test -run TestBoundPrunesHugeBodyPairs -count=1 ./internal/core/
gate ingest             go test -count=1 -run '^TestIngestFormatsAgree$' ./internal/wire/
gate global             go test -count=1 -run '^TestGlobalQuickCorpora$' ./internal/global/
gate fuzz-serve-frame   go test -run '^$' -fuzz 'FuzzServeFrame' -fuzztime 10s ./internal/wire/
gate serve              go test -count=1 -run '^(TestServeWarmMatchesCold|TestServeBackpressure|TestServeGracefulDrain|TestServeShutdownAdmissionRace|TestSessionWarmWorkFloor|TestSessionWarmColdIdentical|TestSessionConvergesToCold|TestSessionModeFlipMatchesCold|TestSessionLSHSparseListsMatchCold)$' ./internal/serve/ ./internal/explore/
gate fuzz-simdb         go test -run '^$' -fuzz 'FuzzSimDBSegment' -fuzztime 10s ./internal/wire/
gate simdb              go test -count=1 -run '^(TestSessionStoreColdIdentical|TestStoreReopenRoundTrip|TestStoreNeverResurrects|TestNewFromBandKeysMatchesInserts)$' ./internal/explore/ ./internal/simdb/ ./internal/lsh/
gate perfbench-selftest env GOTOOLCHAIN=local GOPROXY=off GOWORK=off go -C perfbench test -short ./...

echo "all gates passed"
