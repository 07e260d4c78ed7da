#!/bin/sh
# The one-command pre-merge gate (docs/robustness.md):
#
#   1. unit gate     - full `ctest -L unit` in the plain Release build,
#                      then the fleet serving suite by its own label
#                      (`ctest -L fleet`: federated identity vs the sequential
#                      oracle, verdict cache, the one admission path) so the
#                      serving-runtime gate is named even if labels reshuffle.
#   2. chaos gate    - `ctest -L fault` (deterministic fault-injection sweeps,
#                      the two-stage ingest stop paths of ingest_pipeline_test
#                      and arena_persistence_test's crash-resume sweeps:
#                      crash at every frame, torn undo tail at every byte,
#                      all on the sharded.meta checkpoint protocol),
#                      `ctest -L fuzz` (the seeded mutation harness over the
#                      index image decoder, the index file, sharded.meta and
#                      server protocol lines),
#                      `ctest -L shm` (the shared-memory serving plane:
#                      cross-process byte-identity, pin protocol, reader-crash
#                      isolation — docs/shm_serving.md), and `ctest -L proc`
#                      (supervised multi-process serving: worker RPC framing,
#                      restart budgets, sibling-retry identity, seeded
#                      kill/hang/torn-frame storms) in a
#                      FOCUS_SANITIZE=address build (ASan plus
#                      non-recovering UBSan), so every injected failure path,
#                      every decoder of untrusted bytes and every
#                      mapped-memory path also runs leak-, overflow- and
#                      undefined-behavior-checked.
#   3. tsan gate     - `ctest -L stress` (worker pool, live query over
#                      advancing ingest, background publication: readers on
#                      SnapshotSlot::Latest() sharing one query service while
#                      builder-thread publishes and parallel checkpoint
#                      persistence race them) plus the `-L fleet` suites
#                      (fleet_zipf_live_test: live fleet serving;
#                      fleet_query_service_test: the executor's work items,
#                      packer, striped verdict cache and concurrent Kx
#                      ladders) in a FOCUS_SANITIZE=thread build, so snapshot
#                      handoffs and the verdict cache's lock-free cached path
#                      run race-checked. Under TSan
#                      fleet_query_service_test builds an 8-camera fixture of
#                      30 s streams instead of 32 cameras of 60 s (its Release
#                      fixture, gate 1, is unchanged); every case runs at
#                      that size, none is filtered out. Then `ctest -L ingest`
#                      (chaos_ingest_test, flaky_stream_test,
#                      ingest_replay_test, ingest_pipeline_test) race-checks
#                      live ingest's crossing: the detection-stage thread
#                      filling the frame ring while the engine drains it,
#                      through checkpoint failures, stream aborts, simulated
#                      crashes and supervised restarts.
#   4. bench gate    - `bench/run_benches.sh --check`: the tracked perf
#                      guardrails, including bench_chaos's no-fault overhead
#                      of the robustness machinery and bench_live_query's
#                      background publish_overhead ceiling.
#
#   tools/check_all.sh [build_dir] [asan_build_dir] [tsan_build_dir]
#
# Build dirs default to build/, build-asan/, and build-tsan/ at the repo root;
# all are configured if missing and reused if present. Exits non-zero on the
# first failing gate. FOCUS_SKIP_ASAN=1 skips gate 2 and FOCUS_SKIP_TSAN=1
# skips gate 3 (e.g. on hosts without the sanitizer runtimes) — the underlying
# suites still ran inside gate 1's unit/stress sweeps, just uninstrumented.
set -e

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_DIR/build}"
ASAN_DIR="${2:-$REPO_DIR/build-asan}"
TSAN_DIR="${3:-$REPO_DIR/build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== gate 1/4: unit tests (Release) =="
cmake -S "$REPO_DIR" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" -L unit --output-on-failure
echo "== gate 1/4 (fleet label): fleet serving runtime =="
ctest --test-dir "$BUILD_DIR" -L fleet --output-on-failure

if [ "${FOCUS_SKIP_ASAN:-0}" = "1" ]; then
  echo "== gate 2/4: SKIPPED (FOCUS_SKIP_ASAN=1) =="
else
  echo "== gate 2/4: chaos + fuzz + shm + proc suites under ASan + UBSan =="
  cmake -S "$REPO_DIR" -B "$ASAN_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFOCUS_SANITIZE=address
  # Only the fault-, fuzz-, shm-, and proc-labeled suites are needed; build
  # just their targets.
  cmake --build "$ASAN_DIR" -j"$JOBS" \
    --target fault_injection_test chaos_ingest_test flaky_stream_test \
    arena_persistence_test ingest_pipeline_test codec_property_test shm_serving_test \
    worker_process_pool_test proc_serving_chaos_test
  ctest --test-dir "$ASAN_DIR" -L fault --output-on-failure
  ctest --test-dir "$ASAN_DIR" -L fuzz --output-on-failure
  ctest --test-dir "$ASAN_DIR" -L shm --output-on-failure
  ctest --test-dir "$ASAN_DIR" -L proc --output-on-failure
fi

if [ "${FOCUS_SKIP_TSAN:-0}" = "1" ]; then
  echo "== gate 3/4: SKIPPED (FOCUS_SKIP_TSAN=1) =="
else
  echo "== gate 3/4: stress + fleet + ingest suites under ThreadSanitizer =="
  cmake -S "$REPO_DIR" -B "$TSAN_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFOCUS_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j"$JOBS" \
    --target worker_pool_stress_test live_query_stress_test \
    background_publish_stress_test fleet_zipf_live_test fleet_query_service_test \
    chaos_ingest_test flaky_stream_test ingest_replay_test ingest_pipeline_test
  ctest --test-dir "$TSAN_DIR" -L stress --output-on-failure
  ctest --test-dir "$TSAN_DIR" -L fleet --output-on-failure
  ctest --test-dir "$TSAN_DIR" -L ingest --output-on-failure
fi

echo "== gate 4/4: bench guardrails =="
"$REPO_DIR/bench/run_benches.sh" --check "$BUILD_DIR"

echo "check_all: all gates passed"
