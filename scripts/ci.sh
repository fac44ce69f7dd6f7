#!/usr/bin/env bash
# Tier-1 verify as CI runs it: configure + build + ctest in a
# Debug/Release matrix with -Wall -Wextra -Werror, plus a
# ThreadSanitizer configuration covering the concurrency layers
# (simpi requests, exec spaces, halo overlap, hetero split shards) and
# an AddressSanitizer+UndefinedBehaviorSanitizer configuration over the
# full ctest suite (memory errors, leaks, undefined behaviour).
#
# The Debug+Release matrix deliberately runs the FSBM property suite
# (test_fsbm_properties) at both optimization levels so FP-contract
# differences between the hoisted sedimentation column solver and its
# unhoisted in-test reference would surface as bitwise-equivalence
# failures.
#
# Release additionally checks that the advection bin loops still
# vectorize (run_vec_check).
#
# Every configuration first runs check_prof_fence (see below).
#
# Usage: scripts/ci.sh [Debug|Release|tsan|asan|bench]
#        (no argument = Debug+Release plus the bench, obs and tune smokes)

set -euo pipefail
cd "$(dirname "$0")/.."

check_prof_fence() {
  # Timing has one mechanism, obs spans.  The only prof:: code left is
  # the empty prof::Profiler tag and its three forwarding overloads in
  # src/model/driver.{hpp,cpp}, kept for the frozen wrfbench/ harness;
  # no other source may name it (or the retired prof/prof.hpp).
  echo "=== prof fence ==="
  local hits
  hits="$(grep -rnE 'prof::|prof/prof\.hpp' src bench examples tests \
    --exclude=driver.hpp --exclude=driver.cpp || true)"
  if [ -n "${hits}" ]; then
    echo "prof fence: prof:: outside src/model/driver.{hpp,cpp}:"
    echo "${hits}"
    return 1
  fi
  local f
  for f in src/model/driver.hpp src/model/driver.cpp; do
    if grep -q 'prof/prof\.hpp' "${f}" ||
        [ "$(grep -c 'prof::Profiler&' "${f}")" -ne 3 ]; then
      echo "prof fence: ${f} must name prof::Profiler& in exactly the" \
        "three forwarding overloads"
      return 1
    fi
  done
  echo "prof fence: clean"
}

run_matrix_config() {
  local cfg="$1"
  local build_dir="build-ci-${cfg,,}"
  echo "=== ${cfg} ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${cfg}" \
    -DWRF_WERROR=ON
  cmake --build "${build_dir}" -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

run_vec_check() {
  # The bin loops of dyn::rk_scalar_tend_bins (one per vertical-flux
  # case, each marked `#pragma GCC ivdep`) are fast only because GCC
  # vectorizes them, and a later edit could silently undo that.  Compile
  # the file with the Release build's flags (compiler: $CXX, as CMake
  # picks it, else g++) plus -fopt-info-vec-optimized, and require a
  # "loop vectorized" report on the loop line after every ivdep pragma.
  echo "=== advection vectorization ==="
  local src="src/dyn/advection.cpp"
  local report
  report="$("${CXX:-g++}" -std=c++20 -O3 -DNDEBUG -Wall -Wextra -Werror \
    -Isrc -fopt-info-vec-optimized -c "${src}" -o /dev/null 2>&1)"
  local loops
  loops="$(grep -n '^#pragma GCC ivdep' "${src}" | cut -d: -f1)"
  if [ "$(wc -w <<< "${loops}")" -lt 3 ]; then
    echo "vec check: expected 3 ivdep bin loops in ${src}"
    return 1
  fi
  local line
  for line in ${loops}; do
    if ! grep -q "^${src}:$((line + 1)):[0-9]*: optimized: loop vectorized" \
        <<< "${report}"; then
      echo "vec check: ${src}:$((line + 1)) is no longer vectorized"
      return 1
    fi
  done
  echo "vec check: all $(wc -w <<< "${loops}") bin loops vectorized"
}

run_tsan() {
  # TSan build of the thread-heavy suites: the simpi request layer
  # (test_par), the execution spaces + threaded sedimentation dispatch +
  # heterogeneous split passes (test_exec — exec=hetero runs the device
  # shard's kernel and the host shard's remainder CONCURRENTLY, so the
  # data-race coverage here is load-bearing), the phased halo exchange
  # with comms/compute overlap (test_halo_overlap), the FSBM property
  # suite (per-thread column and scratch buffer reuse plus the hetero
  # partition-completeness and seed-determinism laws), and the forecast
  # service (test_svc — scheduler lanes run model::run_single
  # CONCURRENTLY against the shared queue/stats state, so this is where
  # a racy Scheduler or a non-thread-safe model path would surface), and
  # the hybrid microphysics (test_hybrid — the two fidelity populations
  # run on concurrent shards under exec=hetero, and the fidelity sweep
  # plus split physics pass dispatch through the threaded spaces), and
  # the observability layer (test_obs — concurrent shard threads and
  # threaded-space workers emit into one TraceSink's per-thread buffers,
  # and test_svc's trace mode has scheduler lanes emitting while the
  # dispatcher records lifecycle instants), and the autotuner (test_tune
  # — the tuner's measured rungs and the tuned-scheduler test run
  # threaded configs and scheduler lanes under tuned knob application),
  # and the pass executor (test_fusion, test_residency — their
  # fused/unfused x exec=hetero:2 cells run the device shard's kernel
  # and the host shard concurrently through run_device_group and
  # pass_coal_hetero).
  local build_dir="build-ci-tsan"
  echo "=== ThreadSanitizer ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DWRF_TSAN=ON
  cmake --build "${build_dir}" -j "$(nproc)" \
    --target test_par test_exec test_halo_overlap test_fsbm_properties \
    test_svc test_hybrid test_obs test_tune test_fusion test_residency
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "${build_dir}" --output-on-failure \
      -R '^(test_par|test_exec|test_halo_overlap|test_fsbm_properties|test_svc|test_hybrid|test_obs|test_tune|test_fusion|test_residency)$'
}

run_asan() {
  # AddressSanitizer + UndefinedBehaviorSanitizer build of the whole
  # tree, running every ctest suite: out-of-bounds and use-after-free
  # accesses, leaks (LeakSanitizer, on by default with ASan), and
  # undefined behaviour, which -fno-sanitize-recover turns from a
  # warning into a test failure.  The flags go through the standard
  # CMake variables, so no build option exists for this configuration.
  local build_dir="build-ci-asan"
  local san="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
  echo "=== AddressSanitizer + UndefinedBehaviorSanitizer ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${san} -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="${san}"
  cmake --build "${build_dir}" -j "$(nproc)"
  ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
    UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

run_obs_smoke() {
  # Smoke the observability exporters end to end: quickstart with
  # obs=trace must write a trace that (a) parses as JSON — the real
  # parser, not the unit tests' structural scan — and (b) has balanced
  # B/E span pairs with monotone timestamps on every track.
  echo "=== obs trace smoke ==="
  local build_dir="build-ci-release"
  local trace="${build_dir}/obs_ci_trace.json"
  (cd "${build_dir}" && ./quickstart exec=threads:2 \
    obs="trace:$(basename "${trace}")" > /dev/null)
  python3 -m json.tool "${trace}" > /dev/null
  python3 - "${trace}" <<'EOF'
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "empty trace"
open_spans = collections.Counter()
last_ts = {}
for e in events:
    tid = e["tid"]
    assert e["ts"] >= last_ts.get(tid, 0), f"ts regression on track {tid}"
    last_ts[tid] = e["ts"]
    if e["ph"] == "B":
        open_spans[tid] += 1
    elif e["ph"] == "E":
        open_spans[tid] -= 1
        assert open_spans[tid] >= 0, f"E without B on track {tid}"
assert not +open_spans, f"unbalanced spans: {dict(open_spans)}"
print(f"obs smoke: {len(events)} events on {len(last_ts)} tracks, "
      "balanced and monotone")
EOF
}

run_bench_smoke() {
  # Smoke the bench harness on tiny grids: asserts the res=persist >=5x
  # steady-state traffic reduction, the exec=hetero exact shard-scaling
  # gate (device-shard h2d == per-cell footprint x predicate-true shard
  # cells on a column tall enough that the split is two-sided), the
  # fuse=auto gates (strictly fewer kernel launches under both res
  # modes, less res=step inter-pass traffic), the forecast-service
  # gates (pool multiplexing, shrinking waits, fair-share wait
  # ordering, ensemble batching, clean completions), the phys=hybrid
  # gates (strict bulk > hybrid > bin throughput ordering with a
  # two-sided fidelity census), Table I's hotspot ranking (fast_sbm >
  # rk_scalar_tend > rk_update_scalar in both the all-ranks and the
  # one-rank view), and that the JSON distillation pipeline stays
  # runnable.
  echo "=== Table I smoke ==="
  "build-ci-release/bench_table1_hotspots" > /dev/null \
    || { echo "Table I smoke: hotspot ranking lost"; return 1; }
  echo "=== bench_json smoke ==="
  BENCH_SMOKE=1 BUILD=build-ci-release \
    OUT=build-ci-release/BENCH_residency_smoke.json \
    OUT_HETERO=build-ci-release/BENCH_hetero_smoke.json \
    OUT_FUSION=build-ci-release/BENCH_fusion_smoke.json \
    OUT_SERVICE=build-ci-release/BENCH_service_smoke.json \
    OUT_HYBRID=build-ci-release/BENCH_hybrid_smoke.json \
    OUT_TUNER=build-ci-release/BENCH_tuner_smoke.json \
    scripts/bench_json.sh
}

run_tune_smoke() {
  # Smoke the autotuner end to end on a tiny grid with a pruned space
  # and a loose CV target: the successive-halving ladder must converge,
  # the tuned.json artifact must parse as JSON (the real parser, not
  # the tuner's own writer/reader pair), the winner knob string must be
  # a valid knob set (asserted by bench_tuner's own bitwise gate), and
  # tune=file: must load the artifact into a real run (quickstart).
  echo "=== tune smoke ==="
  local build_dir="build-ci-release"
  local artifact="${build_dir}/tune_ci_smoke.json"
  "${build_dir}/bench_tuner" 24 16 10 2 version=v1 keep=4 target_cv=0.5 \
    "artifact=${artifact}" > /dev/null \
    || { echo "tune smoke: bench_tuner gates failed"; return 1; }
  python3 -m json.tool "${artifact}" > /dev/null
  (cd "${build_dir}" && ./quickstart \
    tune="file:$(basename "${artifact}")" > /dev/null)
  echo "tune smoke: artifact parses, gates pass, tune=file: loads"
}

check_prof_fence
if [ $# -eq 0 ]; then
  run_matrix_config Debug
  run_matrix_config Release
  run_vec_check
  run_bench_smoke
  run_obs_smoke
  run_tune_smoke
elif [ "${1}" = "tsan" ]; then
  run_tsan
elif [ "${1}" = "asan" ]; then
  run_asan
elif [ "${1}" = "bench" ]; then
  run_matrix_config Release
  run_vec_check
  run_bench_smoke
  run_obs_smoke
  run_tune_smoke
else
  run_matrix_config "${1}"
  if [ "${1}" = "Release" ]; then
    run_vec_check
  fi
fi
