#!/usr/bin/env bash
# Repo health check: the tier-1 test suite (twice: numpy executor active,
# then stubbed out) plus fast engine-benchmark smokes.
#
# Usage:  ./scripts/check.sh [lint|tests|serve|obs|smoke|profile|all]
#
#   lint    the concurrency-contract static analyzer (python -m
#           repro.analysis) over src/repro — lock discipline, event-loop
#           blocking, lock-order cycles — plus ruff when installed (CI
#           always installs it); writes ANALYSIS_report.json
#   tests   the tier-1 pytest suite, once per numpy arm
#   serve   the admission state machine's loop-free tests (the wire corpus
#           replayed through feed/complete, a hypothesis interleaving of
#           feed/idle/complete), then the async serving suites under
#           PYTHONASYNCIODEBUG=1 (both numpy
#           arms; includes the N-threads-x-M-queries stress test on one
#           shared engine), them and the sharded suite under the lock-order
#           witness, plus a live wire smoke: one script (a STREAM
#           request's chunk lines, a LIMIT/CURSOR page walk, a forged
#           cursor, a V2 line, !stats, a whitespace-only line) through a
#           real `serve` process on stdin and one on `--tcp`, which must
#           answer the same lines
#   obs     the telemetry suite plus a live `serve --metrics` smoke that
#           queries over TCP, asks !stats/!slow, and scrapes /metrics and
#           /healthz over HTTP (both numpy arms)
#   smoke   the benchmark harness smokes (tiny sizes)
#   profile the cProfile harness over the warm batched kernels, one pass
#           per available backend, then over the query rewriter on the
#           site-rewrite-cold texts, then over ShardedEngine.query_conjunctive
#           on the clustered-sharded-crpq ops, beside the same ops on a
#           monolithic Engine,
#           then over serve_stream on the web-served-point lines, loop and
#           flush-pool threads both, then over the web-edit-read
#           transactions with the product lowerings they built, patched
#           and hit (quick sizes); each writes the
#           gitignored PROFILE_report.txt so perf work starts from
#           measurements
#   all     everything, in order (the default — bare ./scripts/check.sh)
#
# Exits non-zero if any step fails.  The REPRO_DISABLE_NUMPY passes make
# the backend dispatcher (repro.engine.executor) treat numpy as absent,
# which keeps the pure-Python fallback executor from silently rotting on
# machines where numpy is installed.  The benchmark smoke runs use tiny sizes — they verify the
# harnesses end to end (and that engine answers still match the baseline
# evaluator), not the performance numbers; smoke artifacts go to
# BENCH_*_smoke.json paths so the committed full-run artifacts stay owned
# by real --check runs:
#   python benchmarks/bench_engine_throughput.py --check   (every batch
#     kernel >= 3x baseline warm; numpy >= 1.3x the recorded reference)
#   python benchmarks/bench_sharded.py --check             (sharded warm
#     serving within 1.5x of monolithic; per-shard warm start)
#   python benchmarks/bench_serving.py --check             (shared-batch
#     serving >= 2x sequential per-query;
#     telemetry-enabled serving within 5% of disabled; streamed first
#     answers p99 below the recorded full-resolve p99 with the
#     evaluation histograms flat)
#   python benchmarks/bench_crpq.py --check                (cost-model join
#     order >= 2x faster than the worst order; served == direct ==
#     nested-loop reference)
# All bench scripts write BENCH_*.json artifacts recording the numbers.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_lint() {
    echo "== lint: concurrency contract (repro.analysis) =="
    python -m repro.analysis src/repro --json-out ANALYSIS_report.json

    echo
    if command -v ruff >/dev/null 2>&1; then
        echo "== lint: ruff (pyflakes + bugbear subset, pyproject.toml) =="
        ruff check src tests
    else
        echo "== lint: ruff not installed; skipped (CI installs and runs it) =="
    fi
}

run_tests() {
    echo "== tier-1: full test suite (numpy backend, when available) =="
    python -m pytest -x -q

    echo
    echo "== tier-1: full test suite (numpy stubbed out, pure-Python fallback) =="
    REPRO_DISABLE_NUMPY=1 python -m pytest -x -q
}

run_serve() {
    echo "== serving: admission state machine, no event loop (corpus replay + hypothesis) =="
    python -m pytest tests/engine/test_admission.py -q

    echo
    # PYTHONASYNCIODEBUG=1 makes asyncio surface un-awaited coroutines,
    # slow callbacks and cross-loop misuse that a quiet run would hide; the
    # serving suite also carries the thread-sanity stress test (N threads x
    # M queries hammering one shared engine), so both executor arms run it.
    echo "== serving: asyncio suite + thread stress (numpy arm, asyncio debug) =="
    PYTHONASYNCIODEBUG=1 python -m pytest \
        tests/engine/test_serving.py tests/engine/test_serving_admission.py \
        tests/engine/test_wire_corpus.py -q

    echo
    echo "== serving: asyncio suite + thread stress (pure-Python arm, asyncio debug) =="
    PYTHONASYNCIODEBUG=1 REPRO_DISABLE_NUMPY=1 \
        python -m pytest tests/engine/test_serving.py tests/engine/test_serving_admission.py \
        tests/engine/test_wire_corpus.py -q

    echo
    # The session base creates both session kinds' locks, so the sharded
    # suite runs under the witness beside the serving one.
    echo "== serving: asyncio + sharded suites under the lock-order witness =="
    REPRO_LOCK_WITNESS=1 PYTHONASYNCIODEBUG=1 \
        python -m pytest tests/engine/test_serving.py tests/engine/test_serving_admission.py \
        tests/engine/test_sharding.py -q

    echo
    echo "== serving: live stdin-vs-TCP wire smoke (numpy arm) =="
    python scripts/serve_stream_smoke.py

    echo
    echo "== serving: live stdin-vs-TCP wire smoke (pure-Python arm) =="
    REPRO_DISABLE_NUMPY=1 python scripts/serve_stream_smoke.py
}

run_obs() {
    echo "== observability: telemetry suite (numpy arm) =="
    python -m pytest tests/engine/test_telemetry.py -q

    echo
    echo "== observability: telemetry suite (pure-Python arm) =="
    REPRO_DISABLE_NUMPY=1 python -m pytest tests/engine/test_telemetry.py -q

    echo
    echo "== observability: telemetry suite under the lock-order witness =="
    REPRO_LOCK_WITNESS=1 python -m pytest tests/engine/test_telemetry.py -q

    echo
    echo "== observability: live serve --metrics smoke (numpy arm) =="
    python scripts/obs_smoke.py

    echo
    echo "== observability: live serve --metrics smoke (pure-Python arm) =="
    REPRO_DISABLE_NUMPY=1 python scripts/obs_smoke.py
}

run_smoke() {
    echo "== bench smoke: engine throughput harness =="
    python benchmarks/bench_engine_throughput.py --smoke \
        --json BENCH_throughput_smoke.json

    echo
    echo "== bench smoke: engine throughput harness (packed kernel only) =="
    REPRO_DISABLE_NUMPY=1 python benchmarks/bench_engine_throughput.py --smoke \
        --json BENCH_throughput_nonumpy_smoke.json

    echo
    echo "== bench smoke: sharded harness =="
    python benchmarks/bench_sharded.py --smoke --json BENCH_sharded_smoke.json

    echo
    echo "== bench smoke: sharded harness (pure-Python executor) =="
    REPRO_DISABLE_NUMPY=1 python benchmarks/bench_sharded.py --smoke \
        --json BENCH_sharded_nonumpy_smoke.json

    echo
    echo "== bench smoke: async serving harness =="
    python benchmarks/bench_serving.py --smoke --json BENCH_serving_smoke.json

    echo
    echo "== bench smoke: async serving harness (pure-Python executor) =="
    REPRO_DISABLE_NUMPY=1 python benchmarks/bench_serving.py --smoke \
        --json BENCH_serving_nonumpy_smoke.json

    echo
    echo "== bench smoke: CRPQ join-planning harness =="
    python benchmarks/bench_crpq.py --smoke --json BENCH_crpq_smoke.json

    echo
    echo "== bench smoke: CRPQ join-planning harness (pure-Python executor) =="
    REPRO_DISABLE_NUMPY=1 python benchmarks/bench_crpq.py --smoke \
        --json BENCH_crpq_nonumpy_smoke.json
}

run_profile() {
    echo "== profile: cProfile over the warm batched kernels (quick) =="
    python scripts/profile.py --quick

    echo
    echo "== profile: cProfile, pure-Python arm (quick) =="
    REPRO_DISABLE_NUMPY=1 python scripts/profile.py --quick

    echo
    echo "== profile: cProfile over rewrite_query on the CS-department texts (quick) =="
    python scripts/profile.py --target rewrite --quick

    echo
    echo "== profile: cProfile over sharded CRPQs vs a monolithic engine (quick) =="
    python scripts/profile.py --target crpq --quick

    echo
    echo "== profile: cProfile over serve_stream on the web-served-point lines (quick) =="
    python scripts/profile.py --target serve --quick

    echo
    echo "== profile: cProfile over web-edit-read's edit-then-read transactions (quick) =="
    python scripts/profile.py --target edit --quick
}

step="${1:-all}"
case "$step" in
    lint)
        run_lint
        ;;
    tests)
        run_tests
        ;;
    serve)
        run_serve
        ;;
    obs)
        run_obs
        ;;
    smoke)
        run_smoke
        ;;
    profile)
        run_profile
        ;;
    all)
        run_lint
        echo
        run_tests
        echo
        run_serve
        echo
        run_obs
        echo
        run_smoke
        echo
        run_profile
        ;;
    *)
        echo "usage: $0 [lint|tests|serve|obs|smoke|profile|all]" >&2
        exit 2
        ;;
esac

echo
echo "All checks passed."
