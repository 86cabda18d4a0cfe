#!/bin/sh
# ci.sh — the tier-1+ gate. Everything here must pass before merging:
# formatting, build (library and commands), vet, repolint, the full test
# suite under the race detector (which also runs the planck plan verifier
# on every engine query), and a clean obdalint run over the benchmark
# artifacts (see ROADMAP.md).
set -eux

UNFORMATTED=$(gofmt -l cmd internal examples *.go)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
go build ./...
go build ./cmd/...
go vet ./...
# Typed static analysis in strict mode: any unsuppressed error/warning
# finding fails; every //lint:ignore must be in the documented allowlist
# and must match a diagnostic; the canonical report must equal the
# committed golden; and the typed load + call graph + summaries + passes
# must stay inside the wall-time budget.
go run ./cmd/repolint -strict -allow testdata/repolint_allow.txt \
    -golden testdata/repolint.golden -budget 20s
# The full suite under the race detector. Allocations are gated by
# measurement here too: TestNPDMixAllocBudget fails when one warm NPD mix
# allocates past its committed budget.
go test -race ./...
go run ./cmd/obdalint -strict -quiet

# Instrumented smoke run: one client, one small mix, with the JSONL run log
# on; the validator fails the gate when the log is empty or malformed (and,
# for schema-v2 records, when the per-query usage block is missing).
RUNLOG=$(mktemp)
MIXOUT=$(mktemp)
SRVLOG=$(mktemp)
SERVEREP=$(mktemp)
OBDAQD_BIN=$(mktemp)
OBDAQD_PID=""
cleanup() {
    [ -n "$OBDAQD_PID" ] && kill "$OBDAQD_PID" 2> /dev/null
    rm -f "$RUNLOG" "$MIXOUT" "$SRVLOG" "$SERVEREP" "$OBDAQD_BIN"
}
trap cleanup EXIT
go run ./cmd/mixer -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 1 -queries q2,q3 -jsonl "$RUNLOG" > /dev/null
go run ./cmd/mixer -validatejsonl "$RUNLOG"
grep -q '"schema":2' "$RUNLOG" || {
    echo "run-log smoke: records not stamped with schema v2" >&2
    exit 1
}

# Plan-cache smoke: repeated runs with concurrent clients and the cache on
# (the default) must serve warm executions from the compiled-query cache —
# the metric exposition has to show a nonzero hit count.
go run ./cmd/mixer -breakdown -scales 1 -seedscale 0.15 -runs 2 -warmup 0 \
    -triples=false -clients 2 -queries q2,q3 -plancache -metrics \
    -jsonl "$RUNLOG" > "$MIXOUT"
go run ./cmd/mixer -validatejsonl "$RUNLOG"
grep -E 'npdbench_compile_cache_hits_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "plan-cache smoke: no cache hits in metric exposition" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# Parallel-execution smoke: a mix with intra-query parallelism on must
# actually fan work out — the npdbench_exec_parallel_* family has to show
# dispatched tasks and parallel union arms.
go run ./cmd/mixer -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 2 -parallel 4 -metrics -queries q2,q6,q9 > "$MIXOUT"
grep -E 'npdbench_exec_parallel_tasks_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "parallel smoke: no parallel tasks in metric exposition" >&2
    cat "$MIXOUT" >&2
    exit 1
}
grep -E 'npdbench_exec_parallel_union_arms_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "parallel smoke: no parallel union arms in metric exposition" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# Nested-loop smoke: the full 21-query NPD mix must execute without
# examining a single nested-loop row pair. Typed IRI-template unification
# prunes or aligns every template pair the mix joins, and any leftover
# expression equality hash-joins on computed keys, so the
# npdbench_exec_nested_loop_pairs_total counter has to read exactly 0.
go run ./cmd/mixer -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 1 -metrics > "$MIXOUT"
grep -E '^npdbench_exec_nested_loop_pairs_total 0$' "$MIXOUT" > /dev/null || {
    echo "nested-loop smoke: the NPD mix ran nested-loop joins" >&2
    grep -E 'npdbench_exec_nested_loop_pairs_total' "$MIXOUT" >&2
    exit 1
}

# Serving-telemetry smoke: a mix with the slow log and a 0s slow threshold
# must capture executions, and the exposition must carry the runtime-metrics
# family (goroutines can never be zero in a live process) plus the usage
# accounting counters.
go run ./cmd/mixer -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 1 -queries q2,q3 -slowlog 4 -slowthreshold 1us \
    -metrics > "$MIXOUT"
grep -E 'slow log: [1-9][0-9]* of' "$MIXOUT" > /dev/null || {
    echo "telemetry smoke: slow log captured nothing" >&2
    cat "$MIXOUT" >&2
    exit 1
}
grep -E 'npdbench_runtime_goroutines [1-9]' "$MIXOUT" > /dev/null || {
    echo "telemetry smoke: runtime-metrics family missing or zero" >&2
    cat "$MIXOUT" >&2
    exit 1
}
grep -E 'npdbench_usage_rows_scanned_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "telemetry smoke: usage accounting counters missing" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# The slow-query log as served over HTTP: obdaq -slowlog prints the same
# JSON document /debug/slowlog serves; it must contain a captured entry
# with a trace id.
go run ./cmd/obdaq -q q2 -seedscale 0.15 -slowlog 2 -slowthreshold 1us \
    -rows 0 > "$MIXOUT"
grep -q '"trace_id"' "$MIXOUT" || {
    echo "telemetry smoke: obdaq slow log has no captured entry" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# Bench-regression differ: the committed JSONL fixture pair plants one
# genuine regression, which the differ must flag (exit 1).
if go run ./cmd/mixer -benchdiff \
    internal/mixer/testdata/benchdiff_old.jsonl \
    internal/mixer/testdata/benchdiff_new.jsonl > /dev/null; then
    echo "benchdiff: seeded regression fixture not flagged" >&2
    exit 1
fi

# Determinism under a single OS thread: parallel scheduling interleaves
# completely differently with GOMAXPROCS=1, and results (parallel vs
# sequential, batched vs row-at-a-time) must still be bit-identical.
GOMAXPROCS=1 go test -run 'TestParallelSequentialIdentical|TestBatchRowIdentical' .

# Serving smoke: a live obdaqd endpoint driven by the open-loop mixer.
# The mixer exits nonzero when any rate completes zero queries or hits a
# protocol error, and its report (a temporary file, so the committed
# BENCH_serve.json is never rewritten) must carry a nonzero QMpH at every
# rate. Then the endpoint has to survive a SIGHUP mapping reload mid-life
# and drain cleanly on SIGTERM.
go build -o "$OBDAQD_BIN" ./cmd/obdaqd
"$OBDAQD_BIN" -http 127.0.0.1:18685 -seedscale 0.15 -timeout 2s > "$SRVLOG" 2>&1 &
OBDAQD_PID=$!
go run ./cmd/mixer -servebench "$SERVEREP" \
    -endpoint http://127.0.0.1:18685 -rates 5,20 -rateduration 3s -tenants 2
if grep -q '"qmph": 0,' "$SERVEREP"; then
    echo "serving smoke: a rate reports zero QMpH" >&2
    cat "$SERVEREP" >&2
    exit 1
fi
kill -HUP "$OBDAQD_PID"
sleep 1
grep -q 'reload complete' "$SRVLOG" || {
    echo "serving smoke: SIGHUP reload not confirmed" >&2
    cat "$SRVLOG" >&2
    exit 1
}
# The endpoint must keep answering after the reload.
go run ./cmd/mixer -servebench "$MIXOUT" \
    -endpoint http://127.0.0.1:18685 -rates 5 -rateduration 2s -tenants 1 \
    -queries q2,q3,q7 > /dev/null
kill -TERM "$OBDAQD_PID"
wait "$OBDAQD_PID"
OBDAQD_PID=""
grep -q 'shutdown complete' "$SRVLOG" || {
    echo "serving smoke: graceful shutdown not confirmed" >&2
    cat "$SRVLOG" >&2
    exit 1
}
