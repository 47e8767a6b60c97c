#!/usr/bin/env bash
# Single-entry-point static-analysis + test gate, usable as CI:
#
#   1. configure + build with ASan+UBSan, warnings-as-errors
#   2. run the full ctest suite (including the malformed-input fuzz
#      corpus) under the sanitizers
#   3. repeat the golden + propagation oracle/cache-equality +
#      batched-lane-equality + streaming-ingest + snapshot-series
#      tests across the MANRS_THREADS x MANRS_GRAIN environment matrix
#      (byte-equality at every combination), then the pipeline goldens
#      at MANRS_BATCH_WIDTH=8 and 13 (the batched engine's vector and
#      scalar lane paths), then the ingest goldens
#      once more under ASan with explicit emphasis
#      (MrtIngest/UpdateStream: block-scan stitching, mmap decode,
#      update-stream folding), then a series-smoke stage (manrs_series
#      sweeping the temporal snapshot engine at tiny scale with every
#      day oracle-checked against cold rebuilds)
#   4. TSan build + run of the parallel-pipeline tests (thread pool,
#      the serial-vs-parallel golden tests, the sharded RIB merge, the
#      propagation oracle, cache-equality, batched-lane, and
#      streaming-ingest frame-scan/decode tests) --
#      once at defaults and once at MANRS_GRAIN=1 -- plus perf_pipeline
#      smoke runs at MANRS_SCALE=tiny (TSan) and MANRS_SCALE=large
#      (sanitize build; skip with SMOKE_LARGE=0) (skip TSan with
#      TSAN=0)
#   5. clang-tidy over the full tree (src, tools, bench, tests) against
#      the sanitize build's compile_commands.json (skipped with a
#      warning if not installed)
#   6. manrs_analyze (tools/analyze/): the repo's own flow-aware
#      analyzer -- fails on any unwaived finding, writes a SARIF
#      artifact to out/analyze.sarif, self-checks its own sources,
#      sanity-checks the value layer (cursor-width / lockset-race /
#      unused-waiver must fire on the fixture corpus), verifies the
#      incremental cache (warm re-scan byte-identical to the cold
#      scan, timings + lattice version appended to
#      BENCH_analyze.json), and runs the baseline diff gate
#
# Exit 0 iff every stage that could run passed. See
# docs/static-analysis.md for the policy behind each stage.
#
# Env knobs:
#   BUILD_DIR       sanitizer build directory (default: build-sanitize)
#   SANITIZE        sanitizer set (default: address,undefined; use thread
#                   for a TSan pass of the whole suite)
#   TSAN_BUILD_DIR  TSan build directory (default: build-tsan)
#   TSAN            set to 0 to skip the dedicated TSan parallel-test stage
#   SMOKE_LARGE     set to 0 to skip the MANRS_SCALE=large pipeline smoke
#   JOBS            parallelism (default: nproc)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

BUILD_DIR="${BUILD_DIR:-build-sanitize}"
SANITIZE="${SANITIZE:-address,undefined}"
JOBS="${JOBS:-$(nproc)}"

step() { printf '\n== %s ==\n' "$*"; }

step "configure + build (SANITIZE=$SANITIZE)"
cmake -B "$BUILD_DIR" -S . -DSANITIZE="$SANITIZE" \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

step "ctest under sanitizers"
# abort_on_error makes any ASan report fail the test immediately;
# detect_leaks stays on by default with ASan.
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "thread x grain golden matrix"
# Repeat the serial-vs-parallel golden tests plus the propagation
# oracle / cache-equality tests through the environment: every
# MANRS_THREADS x MANRS_GRAIN combination must be byte-identical (the
# tests compare against an in-process serial golden or the naive
# reference oracle). This also exercises the env parsing / pool
# construction paths the in-test set_thread_count / set_grain
# overrides bypass, and the cache under every pool shape.
for matrix_threads in 2 4; do
  for matrix_grain in 1 64; do
    echo "-- MANRS_THREADS=$matrix_threads MANRS_GRAIN=$matrix_grain"
    MANRS_THREADS="$matrix_threads" MANRS_GRAIN="$matrix_grain" \
    ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}" \
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
      ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
        -R 'ParallelGolden|PropagationOracle|PropagationCache|PropagationBatch|PropagationResult|IrrValidate|MrtIngest|UpdateStream|SnapshotSeries|DeltaOracle'
  done
done

step "lane-width goldens (MANRS_BATCH_WIDTH=8, then 13)"
# The pipeline goldens at the batched engine's narrowest vector width (8:
# one 8-lane AVX2 group per AS in the descent fold and the key decode)
# and at a width the vector path cannot take (13: the scalar fold and
# decode on pipeline-size input). The tests read the width from the
# environment.
for lane_width in 8 13; do
  echo "-- MANRS_BATCH_WIDTH=$lane_width"
  MANRS_BATCH_WIDTH="$lane_width" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R 'ParallelGolden|PropagationBatchGolden|SnapshotSeries'
done

step "ingest goldens under ASan (mmap + block-parallel scan + fold)"
# The streaming-ingest goldens are the memory-safety hot spot of the MRT
# path: zero-copy spans into a mapping, speculative block anchors probing
# arbitrary offsets, and in-place body decode. Run the MrtIngest /
# UpdateStream suites on their own under ASan so a regression here fails
# with an ingest-named stage, not buried in the full suite.
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R 'MrtIngest|UpdateStream'

step "series-smoke (manrs_series, tiny scale, oracle-checked)"
# The temporal snapshot engine end to end under ASan: a 12-day sweep of
# the daily-delta evolution, every day's outputs byte-checked against an
# independent cold rebuild (--oracle), Fig 2/6/9 series on stdout.
MANRS_SCALE=tiny \
ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  "./$BUILD_DIR/tools/manrs_series" --days 12 --oracle

if [[ "${TSAN:-1}" != "0" && "$SANITIZE" != "thread" ]]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"

  step "TSan: build parallel-pipeline tests"
  cmake -B "$TSAN_BUILD_DIR" -S . -DSANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" \
    --target tests_util tests_integration tests_bgp_mrt tests_series \
    tests_sim tests_irr perf_pipeline

  step "TSan: parallel + golden + propagation cache tests"
  # The pool, env-parsing, and shutdown tests plus the serial-vs-parallel
  # golden equality tests (including the sharded flat-RIB merge) and the
  # propagation oracle / cache / batched-lane tests (concurrent lazy mask
  # build, cache insert/lookup under the pool, and the batched front
  # end's thread-local workspaces + locked install), plus the packed
  # PropagationResult and IRR-validation suites; TSan halts on the
  # first race.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R 'Parallel|ThreadPool|PropagationOracle|PropagationCache|PropagationBatch|PropagationResult|IrrValidate|MrtIngest|UpdateStream|SnapshotSeries|DeltaOracle'

  step "TSan: golden + cache tests at MANRS_GRAIN=1 (max chunk handoff)"
  # Grain 1 maximises work-counter contention, cross-thread row handoffs
  # in the sharded merge, and propagation-cache insert/lookup
  # interleavings -- the worst case for races.
  MANRS_THREADS=4 MANRS_GRAIN=1 \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R 'ParallelGolden|PropagationOracle|PropagationCache|PropagationBatch|PropagationResult|IrrValidate|MrtIngest|UpdateStream|SnapshotSeries|DeltaOracle'

  step "TSan: perf_pipeline smoke (MANRS_SCALE=tiny)"
  # MANRS_SERIES_DAYS caps the snapshot_series stage (default 64 days)
  # so the TSan smoke stays bounded; 16 days still crosses two weekly
  # membership batches.
  MANRS_SCALE=tiny \
  MANRS_SERIES_DAYS=16 \
  MANRS_BENCH_JSON="$TSAN_BUILD_DIR/BENCH_pipeline.smoke.json" \
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "./$TSAN_BUILD_DIR/bench/perf_pipeline"
fi

if [[ "${SMOKE_LARGE:-1}" != "0" ]]; then
  step "perf_pipeline smoke (MANRS_SCALE=large, sanitize build)"
  # The ROADMAP's "large run finishes at all" gate: the full pipeline at
  # the large preset (~3x default ASes), JSON into the build tree so the
  # repo's BENCH_pipeline.json only accumulates deliberate runs. Same
  # invocation as the smoke_large CMake target, but under ASan+UBSan.
  MANRS_SCALE=large \
  MANRS_SERIES_DAYS=8 \
  MANRS_BENCH_JSON="$BUILD_DIR/BENCH_smoke_large.json" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    "./$BUILD_DIR/bench/perf_pipeline"
fi

step "clang-tidy (full tree)"
if command -v clang-tidy >/dev/null 2>&1; then
  # Every first-party .cpp with an entry in the sanitize build's
  # compile_commands.json, including tools/analyze/; the fixture corpus
  # is deliberately broken and never compiled, so it is excluded.
  mapfile -t tidy_sources < <(find src tools bench tests -name '*.cpp' \
    -not -path 'tests/analyze_fixtures/*' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "${tidy_sources[@]}"
  else
    clang-tidy -p "$BUILD_DIR" --quiet "${tidy_sources[@]}"
  fi
else
  echo "warning: clang-tidy not installed; skipping (install it to run" \
       "the checked-in .clang-tidy profile)" >&2
fi

step "analyze (manrs_analyze)"
analyze_bin="$BUILD_DIR/tools/analyze/manrs_analyze"
if [[ ! -x "$analyze_bin" ]]; then
  cmake --build "$BUILD_DIR" -j "$JOBS" --target manrs_analyze
fi
mkdir -p out
# Fails (exit 1) on any unwaived finding across src tools bench tests;
# the SARIF artifact is the CI-consumable report.
"$analyze_bin" --root "$repo_root" --sarif out/analyze.sarif

step "analyze: self-check (tools/analyze over itself)"
"$analyze_bin" --root "$repo_root" tools/analyze

step "analyze: value layer (fixture corpus sanity)"
# The interval/lockset tier must keep firing on the fixture corpus: a
# silent engine regression would otherwise only show as "repo still
# clean". Exit 1 is expected (the corpus is deliberately broken).
fixtures_json=$("$analyze_bin" --root "$repo_root/tests/analyze_fixtures/tree" \
  --json || true)
for rule in cursor-width lockset-race unused-waiver; do
  grep -q "\"rule\":\"$rule\"" <<<"$fixtures_json" || {
    echo "value-layer rule never fired on fixtures: $rule" >&2; exit 1; }
done
echo "-- cursor-width, lockset-race, unused-waiver all fire on fixtures"

step "analyze: incremental cache (cold vs warm scan)"
# Two cached scans from a cold cache: the warm re-scan must reproduce
# the SARIF byte for byte and hit the cache for every file. Wall times
# for both runs accumulate in BENCH_analyze.json (runs[] is append-only,
# like BENCH_pipeline.json).
rm -rf "$BUILD_DIR/analyze-cache"
"$analyze_bin" --root "$repo_root" --cache-dir "$BUILD_DIR/analyze-cache" \
  --sarif out/analyze.cold.sarif --stats-json BENCH_analyze.json
"$analyze_bin" --root "$repo_root" --cache-dir "$BUILD_DIR/analyze-cache" \
  --sarif out/analyze.warm.sarif --stats-json BENCH_analyze.json \
  --json > out/analyze.warm.json
cmp out/analyze.cold.sarif out/analyze.warm.sarif
grep -q '"cache_misses":0' out/analyze.warm.json
echo "-- warm scan byte-identical, all cache hits"

step "analyze: baseline gate (no new findings vs out/analyze.sarif)"
# The diff mode must pass against the scan's own baseline; CI jobs can
# point --baseline at a committed out/analyze-baseline.sarif instead to
# gate PRs on net-new findings only.
"$analyze_bin" --root "$repo_root" --baseline out/analyze.sarif --fail-on-new

step "all checks passed"
