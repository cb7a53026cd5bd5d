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
#  - rank/kernels/bound/ingest: the cross-check experiments (LSH recall,
#    kernel equivalence, bound admissibility, fmir ingest bit-identity).
#  - fuzz-stablehash: short smoke-fuzz of the cross-TU stable hash (hash
#    equality on self-comparable functions must imply structural equality,
#    and hashing must survive print->reparse).
#  - global: the sharded cross-TU experiment (bit-identity across shard
#    counts, .fmsum summary round trip, exact-scoring reduction floor).
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
gate rank               go run ./cmd/fmsa-bench -exp rank -quick
gate kernels            go run ./cmd/fmsa-bench -exp kernels -quick
gate bound              go run ./cmd/fmsa-bench -exp bound -quick
gate ingest             go run ./cmd/fmsa-bench -exp ingest -quick
gate global             go run ./cmd/fmsa-bench -exp global -quick
gate fuzz-serve-frame   go test -run '^$' -fuzz 'FuzzServeFrame' -fuzztime 10s ./internal/wire/
gate serve              go run ./cmd/fmsa-bench -exp serve -quick
gate fuzz-simdb         go test -run '^$' -fuzz 'FuzzSimDBSegment' -fuzztime 10s ./internal/wire/
gate simdb              go run ./cmd/fmsa-bench -exp simdb -quick
gate perfbench-selftest env GOTOOLCHAIN=local GOPROXY=off GOWORK=off go -C perfbench test -short ./...

echo "all gates passed"
