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
# vectorize (run_vec_check) and that the coal sweeps' FMA clone still
# uses the hardware FMA without contracting anything else
# (run_fma_check).
#
# Every configuration first runs check_prof_fence (see below).  The
# matrix's ctest includes paper_claims_smoke (the modeled and count
# claims: the paper's on a small patch, the ext.* ones on their own
# grids); the bench smoke runs every claim, wall-clock ones included,
# the paper's on the paper-scale patch.
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
  # The bin loops of dyn::rk_scalar_tend_bins (the x, y and z face
  # seeds plus one per vertical-flux case, each marked `#pragma GCC
  # ivdep`) are fast only because GCC vectorizes them, and a later edit
  # could silently undo that.  Compile
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
  if [ "$(wc -w <<< "${loops}")" -lt 6 ]; then
    echo "vec check: expected 6 ivdep bin loops in ${src}"
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

run_fma_check() {
  # The device kernel's lerp_fma must reach the hardware FMA: the
  # lockstep coal sweeps have an FMA-target clone (sweep_fma, chosen at
  # run time when the CPU has FMA), and a later edit could silently fall
  # back to calling fmaf through the PLT, or let GCC contract other
  # expressions there (which would change their bits).  Compile the file
  # with the Release build's flags and require, inside the FMA clones:
  # no fmaf call, a vfmadd in the device-kernel clone, and no other FMA.
  # Only the device-kernel clone asks for an FMA, and only a single
  # precision one; any FMA in the other clones, or a double-precision
  # one anywhere, is a contraction leak.
  echo "=== coal FMA clone ==="
  local src="src/fsbm/coal_bott.cpp"
  local obj
  obj="$(mktemp --suffix=.o)"
  "${CXX:-g++}" -std=c++20 -O3 -DNDEBUG -Wall -Wextra -Werror -Isrc \
    -c "${src}" -o "${obj}"
  local clones
  clones="$(objdump -dr --no-show-raw-insn -C "${obj}" | awk '
    /^[0-9a-f]+ <.*>:$/ { in_clone = index($0, "sweep_fma<") > 0;
                          device = index($0, "FmaKernel") > 0; next }
    in_clone { print (device ? "device " : "other ") $0 }')"
  rm -f "${obj}"
  if [ -z "${clones}" ]; then
    echo "fma check: no sweep_fma clone in ${src}"
    return 1
  fi
  if grep -q 'fmaf' <<< "${clones}"; then
    echo "fma check: an FMA clone calls fmaf:"
    grep 'fmaf' <<< "${clones}"
    return 1
  fi
  if ! grep -q '^device .*vfmadd[0-9]*ss' <<< "${clones}"; then
    echo "fma check: the device-kernel FMA clone has no vfmadd"
    return 1
  fi
  local leak='^other .*vf(n)?m(add|sub)[0-9]*(ss|sd|ps|pd)|vf(n)?m(add|sub)[0-9]*(sd|pd)'
  if grep -qE "${leak}" <<< "${clones}"; then
    echo "fma check: FMA the code does not ask for (contraction):"
    grep -E "${leak}" <<< "${clones}"
    return 1
  fi
  echo "fma check: FMA clones use vfmadd, no fmaf call, no contraction"
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
  # Every row of bench_paper_claims claims=paper: the paper's claims on
  # the full CONUS rank patch and the ext.* gates of the fusion,
  # residency, hetero, hybrid, service and tuner extensions, wall rows
  # included.  PAPER_CLAIMS.json must parse, hold a passing verdict for
  # every claim, and carry the same row ids as the committed copy, so a
  # dropped or renamed row fails here.
  echo "=== paper claims ==="
  local build_dir="build-ci-release"
  (cd "${build_dir}" && ./bench_paper_claims claims=paper > /dev/null) \
    || { echo "paper claims: a claim no longer holds"; return 1; }
  python3 -m json.tool "${build_dir}/PAPER_CLAIMS.json" > /dev/null
  python3 - "${build_dir}/PAPER_CLAIMS.json" PAPER_CLAIMS.json <<'EOF'
import json, sys
fresh, committed = (json.load(open(p)) for p in sys.argv[1:3])
claims = fresh["claims"]
failed = [c["id"] for c in claims if c["pass"] is not True]
assert claims and not failed, f"claims not passing: {failed}"
ids = lambda doc: {r["id"] for k in ("claims", "figures") for r in doc[k]}
gone, new = ids(committed) - ids(fresh), ids(fresh) - ids(committed)
assert not gone and not new, (f"row ids differ from the committed "
                              f"PAPER_CLAIMS.json: gone {sorted(gone)}, "
                              f"new {sorted(new)}")
print(f"paper claims: all {len(claims)} hold; row ids match the committed "
      "PAPER_CLAIMS.json")
EOF
}

run_tune_smoke() {
  # Smoke the autotuner end to end on a tiny grid with a pruned space
  # and a loose CV target: the successive-halving ladder must converge,
  # the tuned.json artifact must parse as JSON (the real parser, not
  # the tuner's own writer/reader pair), and tune=file: must load the
  # artifact into a real run (quickstart).  The tuner's gates are the
  # ext.tuner rows of the bench smoke.
  echo "=== tune smoke ==="
  local build_dir="build-ci-release"
  local artifact="${build_dir}/tune_ci_smoke.json"
  "${build_dir}/tune_cli" 24 16 10 2 version=v1 keep=4 target_cv=0.5 \
    "artifact=${artifact}" > /dev/null \
    || { echo "tune smoke: tune_cli failed"; return 1; }
  python3 -m json.tool "${artifact}" > /dev/null
  (cd "${build_dir}" && ./quickstart \
    tune="file:$(basename "${artifact}")" > /dev/null)
  # A bad argument exits 2 naming it: knobs come from one table (a bad
  # value or a misspelled key), every example reads every knob, and
  # reals are parsed whole, never as atof's silent 0.
  local bad want err rc
  for bad in "exec|quickstart exec=warp9" "phsy|quickstart phsy=bulk" \
      "noise_floor|diffstate_cli a.bin b.bin abc" \
      "target_cv|tune_cli target_cv=abc"; do
    want="${bad%%|*}"
    rc=0
    # The program and its arguments are meant to split into words.
    # shellcheck disable=SC2086
    err="$("${build_dir}"/${bad#*|} 2>&1 > /dev/null)" || rc=$?
    if [ "${rc}" -ne 2 ] || [[ "${err}" != *"${want}"* ]]; then
      echo "tune smoke: ${bad#*|} exited ${rc}: ${err}"
      return 1
    fi
  done
  [[ "$("${build_dir}/scaling_study" phys=bulk)" == *"phys=bulk"* ]] \
    || { echo "tune smoke: scaling_study dropped phys=bulk"; return 1; }
  echo "tune smoke: artifact parses, tune=file: loads, bad arguments" \
    "exit 2"
}

check_prof_fence
if [ $# -eq 0 ]; then
  run_matrix_config Debug
  run_matrix_config Release
  run_vec_check
  run_fma_check
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
  run_fma_check
  run_bench_smoke
  run_obs_smoke
  run_tune_smoke
else
  run_matrix_config "${1}"
  if [ "${1}" = "Release" ]; then
    run_vec_check
    run_fma_check
  fi
fi
