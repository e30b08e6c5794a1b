#!/usr/bin/env bash
# Tier-1 CI gate.
#
# Runs the full test suite, then the gates that add something to it:
# the three files whose slow- or drill-marked cases the tier-1 filter
# deselects (run again in full), the ratio benches and the
# benchmark-of-record self-tests. No other test file runs twice. The
# tier-1 gate also fails when the number of tests it deselected differs
# from the number carrying a slow or drill mark, so a new mark cannot
# silently drop a test from every gate. A gate fails if its suite
# failed, or was skipped or deselected. Every gate runs to the end whatever the others
# did — one stale ratio must not hide the gates behind it — then a
# pass/fail table with each gate's wall seconds is printed and the exit
# status is non-zero if any gate failed:
#
# - the hot-path perf smoke: column reconstruction (reconstruct_batch,
#   one numpy kernel over the columns as words) >= 3.75x per-element
#   naive Lagrange over every subset it measures, decoding a
#   half-noise merged list filtered by the
#   queried term first (unpack_terms) >= 1.3x grouping every term
#   element by element with equal rows, and column
#   splitting (split_many) >= 2x per-element split with share-for-share
#   equal output at the same seed, and column packing (pack_many) >=
#   1.5x per-element pack(PostingElement(...)) with value-for-value
#   equal secrets, and re-encoding a served FetchListsResponse (a
#   seat's read snapshot, its packed columns memoised) >= 10x faster
#   than its first encode with equal bytes (ratio gates, no absolute
#   numbers, so they cannot flake on slow machines);
# - the benchmark-of-record self-tests (benchmarks/e2e, ~10 s): its
#   tracer resolves the read path's methods by name, and the write
#   path's too (IndexServer.insert_batch / delete, SegmentedStore.
#   append_inserts / append_deletes, DocumentOwner.share_document /
#   flush_updates / delete_document), so a rename must fail here, not
#   in the benchmark pipeline;
# - the transport bench records BENCH_transport.json and gates the
#   in-process backend against the single-pod uncached qps recorded in
#   BENCH_cluster.json (ratio gate);
# - the anti-entropy drill suite runs in full, including the
#   drill-marked over-the-wire variant that tier-1 deselects: dropped
#   writes must heal via sweep alone (no owner), over both transports,
#   with byte-identical answers afterwards;
# - the repair convergence property suite runs both the tier-1 smoke
#   pass and the slow-marked wide pass: random interleavings of
#   writes, deletes, kills, restarts, and sweeps must always quiesce
#   to an empty ledger and a byte-identical index;
# - the scored oracle property suite runs both the tier-1 smoke pass
#   and the slow-marked wide pass (200 worlds): the single fleet and a
#   two-pod R = 2 cluster must rank exactly as a plaintext trusted
#   index with an ACL check, scored as the client scores, score bits
#   included;
# - the slow-pod bench stalls one replica pod server-side (the public
#   fault seam, cluster.registry.fault_plan, which the socket server
#   acts out, so both runs fetch in pipelined rounds and hedges ride
#   them) and gates hedged-read p99 at <= 0.5x the
#   unhedged p99, recording hedge/breaker/shed counters into
#   BENCH_load.json (ratio gate);
# - the cache bench records BENCH_cache.json and gates Zipf-workload
#   cached qps at >= 1.5x the uncached fan-out baseline with
#   byte-identical per-query digests and every hit rate in [0, 1]
#   (ratio gate; re-based from 2x when the columnar read path made the
#   uncached side 2.4x faster — it measures 1.7-1.8x);
# - the instrumentation-overhead bench pins spans per traced query and
#   registry updates per query on a one-pod async-socket cluster (count
#   gates: neither may grow) and gates single-thread untraced over
#   traced time per query, best of nine interleaved passes (ratio
#   gate); one traced open-loop overload run is recorded into
#   BENCH_load.json as information, not gated.
#
# The table ends with the numbers the roadmap tracks for the whole
# tree: the line counts of src/ and tests/, of the largest module under
# src/repro/cluster/ and under src/repro/protocol/, of cli.py and of
# the read path (client/searcher.py with client/fetch_round.py), the
# code-only lines of src/ and of the read path (scripts/count_code.py:
# no blank, comment or docstring lines), the numpy version the run
# used, and the wall time of this run. Before any gate, the script
# stops with one line if numpy cannot be imported.
#
# The benches write their records under benchmarks/results/ as they
# run. This script copies that directory aside at start and puts it
# back on exit, so a CI run leaves the checked-in results as they were.
# Regenerating them is running the bench by hand, e.g.
# `PYTHONPATH=src python -m pytest benchmarks/bench_cache.py -q`.

set -uo pipefail
cd "$(dirname "$0")/.."
started=$(date +%s)

# The library's one dependency: without it every gate would fail on
# the same import, so say so once and stop.
if ! numpy_version=$(python -c 'import numpy; print(numpy.__version__)' 2>/dev/null); then
    echo "FAIL: numpy is not importable; install it (pip install numpy)" >&2
    exit 1
fi

results=()
failed=0
log=$(mktemp)
results_dir=benchmarks/results
saved_results=$(mktemp -d)
cp -a "$results_dir"/. "$saved_results"/
restore_results() {
    find "$results_dir" -mindepth 1 -delete
    cp -a "$saved_results"/. "$results_dir"/
    rm -rf "$saved_results" "$log"
}
trap restore_results EXIT

gate() {
    # gate <label> <forbidden-pattern> <pytest args...>
    local label=$1 forbidden=$2 begun
    shift 2
    echo "== ${label} gate =="
    begun=$(date +%s)
    python -m pytest "$@" -q -rs >"$log" 2>&1
    local summary verdict=pass
    summary=$(tail -n 1 "$log")
    echo "$summary"
    if echo "$summary" | grep -qE "failed|error"; then
        verdict="FAIL (tests failed)"
    elif echo "$summary" | grep -qE "$forbidden"; then
        verdict="FAIL (did not run in full)"
    elif ! echo "$summary" | grep -qE "[0-9]+ passed"; then
        verdict="FAIL (reported no passes)"
    fi
    if [ "$verdict" != pass ]; then
        failed=$((failed + 1))
        # The last lines say which test and why; the table says which gate.
        tail -n 40 "$log" >&2
        echo "FAIL: the ${label} gate" >&2
    fi
    results+=("${verdict}|$(($(date +%s) - begun)) s|${label}")
}

# The tier-1 marker filter (setup.cfg) deselects the drill- and
# slow-marked cases on purpose; their own gates below run them. It
# must deselect nothing else.
gate "tier-1 suite" "failed|skipped|no tests ran|error"
deselected=$(tail -n 1 "$log" | grep -oE '[0-9]+ deselected' | grep -oE '[0-9]+')
marked=$(python -m pytest --collect-only -q -m "slow or drill" 2>/dev/null \
    | tail -n 1 | grep -oE '^[0-9]+')
if [ "${deselected:-0}" != "${marked:-0}" ] \
    && [ "${results[-1]%%|*}" = pass ]; then
    echo "FAIL: tier-1 deselected ${deselected:-0} tests;" \
        "${marked:-0} carry a slow or drill mark" >&2
    failed=$((failed + 1))
    results[-1]="FAIL (deselected ${deselected:-0}, marked ${marked:-0})|${results[-1]#*|}"
fi
gate "hot-path perf smoke" "failed|skipped|deselected|no tests ran|error" \
    benchmarks/bench_hotpath_reconstruct.py
gate "benchmark of record self-tests (tracer targets resolve)" \
    "failed|skipped|deselected|no tests ran|error" \
    benchmarks/e2e
gate "transport bench (BENCH_transport.json)" \
    "failed|skipped|deselected|no tests ran|error" \
    benchmarks/bench_transport.py
# -m "" clears the setup.cfg marker filter so the drill- and
# slow-marked cases run here alongside their tier-1 siblings.
gate "anti-entropy drills (sweep-only heal, all transports)" \
    "failed|skipped|deselected|no tests ran|error" \
    tests/test_anti_entropy.py -m ""
gate "repair convergence property (smoke + wide)" \
    "failed|skipped|deselected|no tests ran|error" \
    tests/test_repair_convergence.py -m ""
gate "scored oracle property (smoke + wide)" \
    "failed|skipped|deselected|no tests ran|error" \
    tests/test_scored_oracle.py -m ""
gate "slow-pod hedging bench (hedged p99 <= 0.5x unhedged)" \
    "failed|skipped|no tests ran|error" \
    benchmarks/bench_load.py -k slow_pod
gate "cache bench (BENCH_cache.json, >= 1.5x cached qps)" \
    "failed|skipped|deselected|no tests ran|error" \
    benchmarks/bench_cache.py
gate "instrumentation overhead bench (spans, registry calls, trace time)" \
    "failed|skipped|no tests ran|error" \
    benchmarks/bench_load.py -k instrumentation

echo "== summary =="
for row in "${results[@]}"; do
    rest=${row#*|}
    printf '  %-28s %6s  %s\n' "${row%%|*}" "${rest%%|*}" "${rest#*|}"
done
for tree in src tests; do
    printf '  %-28s %6s  %s\n' \
        "$(find "$tree" -name '*.py' -exec cat {} + | wc -l)" "" \
        "lines in ${tree}/"
done
# Module sizes the roadmap tracks (item 10), counted the same way.
for tree in src/repro/cluster src/repro/protocol; do
    largest=$(for f in "$tree"/*.py; do
        printf '%s %s\n' "$(wc -l <"$f")" "$f"
    done | sort -n | tail -n 1)
    printf '  %-28s %6s  %s\n' "${largest%% *}" "" \
        "lines in ${largest#* } (largest in ${tree#src/})"
done
printf '  %-28s %6s  %s\n' "$(wc -l <src/repro/cli.py)" "" \
    "lines in src/repro/cli.py"
# The read path (items 10 and 18): the search client and its fetch round.
read_path=(src/repro/client/searcher.py src/repro/client/fetch_round.py)
printf '  %-28s %6s  %s\n' "$(cat "${read_path[@]}" | wc -l)" "" \
    "lines in the read path (client/searcher.py + client/fetch_round.py)"
# The same trees counted as code only, so trimming prose moves neither.
printf '  %-28s %6s  %s\n' "$(python scripts/count_code.py src)" "" \
    "code-only lines in src/"
printf '  %-28s %6s  %s\n' "$(python scripts/count_code.py "${read_path[@]}")" \
    "" "code-only lines in the read path"
printf '  %-28s %6s  %s\n' "$numpy_version" "" "numpy version"
printf '  %-28s %6s  %s\n' "" "$(($(date +%s) - started)) s" "wall time"
if [ "$failed" -ne 0 ]; then
    echo "CI gate FAILED: ${failed} of ${#results[@]} gates" >&2
    exit 1
fi
echo "CI gate passed: ${#results[@]} of ${#results[@]} gates."
