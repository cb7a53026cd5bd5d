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
#  - verify-sweep: the staged verifier finds zero diagnostics at every
#    pipeline boundary on the quick corpus, verification never changes
#    merge decisions, and the fast level stays within its overhead budget.
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
#    the entries are equivalent), and on the quick corpora exploration with
#    the linearization cache and alignment memo on commits the same merges
#    and module as with both off.
#  - bound-huge: the profitability bound must prune 483.xalancbmk's @main
#    against its closest partners and stay admissible there, so a loosened
#    branch floor fails by name rather than somewhere inside race-tests.
#  - fuzz-stablehash: short smoke-fuzz of the cross-TU stable hash (hash
#    equality on self-comparable functions must imply structural equality,
#    and hashing must survive print->reparse).
#  - global: global's TestGlobalQuickCorpora — on the quick corpora split
#    into 4 units, shard counts 1/2/8 commit identical records and link
#    identical text, .fmsum summaries round-trip, and summary planning
#    exact-scores >= 30% fewer pairs than monolithic exploration at t=1.
#  - fuzz-serve-frame: short smoke-fuzz of the daemon frame codec (decode
#    must reject what it cannot re-encode byte-identically, and never
#    panic or over-read).
#  - serve: the warm merge-session daemon experiment in quick mode — a
#    load test over a live server (cold submit, warm delta resubmission,
#    stream latency, warm/cold bit-identity across worker counts,
#    admission backpressure, graceful drain). The 5x warm-speedup floor
#    applies to the full-size run (fmsa-bench -exp serve), not quick mode.
#  - fuzz-simdb: short smoke-fuzz of the fmdb segment walker (corrupt or
#    truncated segments must error, never panic or over-read, and accepted
#    input must walk->encode->walk losslessly).
#  - simdb: the persistent similarity database experiment in quick mode —
#    store-backed startup vs full rebuild, probe answers checked against a
#    from-scratch index, merge-decision bit-identity across worker counts
#    on a shared segment. The 3x startup-speedup floor applies to the
#    full-size run (fmsa-bench -exp simdb), not quick mode.
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
gate fuzz-stablehash    go test -run '^$' -fuzz 'FuzzStableHash' -fuzztime 10s ./internal/global/
gate verify-sweep       go run ./cmd/fmsa-bench -exp verify -quick -runs 3
gate rank               go test -count=1 -run '^TestLSHRecallTop1$' ./internal/explore/
gate kernels            go test -count=1 -run 'TestCodedKernelsMatchOracle|TestContract|TestKernelCrossCheck' ./internal/align/ ./internal/encode/ ./internal/explore/
gate bound              go test -count=1 -run '^TestBoundDecisionInvariance$' ./internal/explore/
gate bound-huge         go test -run TestBoundPrunesHugeBodyPairs -count=1 ./internal/core/
gate ingest             go test -count=1 -run '^TestIngestFormatsAgree$' ./internal/wire/
gate global             go test -count=1 -run '^TestGlobalQuickCorpora$' ./internal/global/
gate fuzz-serve-frame   go test -run '^$' -fuzz 'FuzzServeFrame' -fuzztime 10s ./internal/wire/
gate serve              go run ./cmd/fmsa-bench -exp serve -quick
gate fuzz-simdb         go test -run '^$' -fuzz 'FuzzSimDBSegment' -fuzztime 10s ./internal/wire/
gate simdb              go run ./cmd/fmsa-bench -exp simdb -quick
gate perfbench-selftest env GOTOOLCHAIN=local GOPROXY=off GOWORK=off go -C perfbench test -short ./...

echo "all gates passed"
