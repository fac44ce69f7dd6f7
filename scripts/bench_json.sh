#!/usr/bin/env bash
# Distill committed benchmark trajectory points from the key sweeps:
#
#   BENCH_residency.json — steady-state per-step h2d/d2h bytes and
#     modeled transfer milliseconds for res=step vs res=persist on the
#     CONUS rank patch (exec=device, the device-resident stepping
#     configuration), plus the >=5x reduction factor the acceptance bar
#     tracks.
#
#   BENCH_hetero.json — the heterogeneous-dispatch point from
#     bench_hetero: split fraction (device-shard cells /
#     total), per-shard wall time, and shard-granular vs full-field
#     transfer traffic per offloaded version, plus the exact-scaling
#     gate (device-shard h2d == per-cell footprint x predicate-true
#     shard cells; interior predicate-false cells never transfer).
#
#   BENCH_fusion.json — the pass-fusion point from bench_fusion:
#     kernel launches and inter-pass h2d/d2h bytes per step for
#     fuse=off vs fuse=auto (v3 + offloaded condensation, exec=device),
#     plus the two acceptance gates (fewer launches under both res
#     modes; less res=step traffic).
#
#   BENCH_service.json — the forecast-service point from bench_service:
#     makespan, throughput, p50/p95 queue wait, per-class mean wait,
#     pool parallelism/occupancy and batching for one mixed-class job
#     stream over 1/2/4-lane pools, plus the scheduler gates (pool
#     multiplexing, shrinking waits, fair-share wait ordering,
#     ensemble batching, clean completions).
#
#   BENCH_hybrid.json — the phys= knob point from bench_hybrid:
#     cell-step throughput for phys=bulk / hybrid / bin on the scaled
#     CONUS storm patch, the hybrid's bin-fidelity fraction, and the
#     acceptance gates (strict bulk > hybrid > bin throughput ordering;
#     a genuinely two-sided fidelity census).
#
#   BENCH_tuner.json — the autotuner point from bench_tuner: tuned vs
#     untuned throughput on the CONUS rank patch (the tuned side loaded
#     back through tune=file:, i.e. the artifact round trip), the
#     winning knob string, the deciding rung's CV, and the gates
#     (tuned >= untuned; deciding CV under target; tune=file: bitwise
#     identical to the same knobs set explicitly).
#
# Every distilled point is stamped with the bench schema version and
# the machine fingerprint (hardware threads + modeled DeviceSpec) so
# committed trajectory points are comparable across hosts.
#
# Usage:
#   scripts/bench_json.sh                 # full rank patch (107 75 50 3)
#   scripts/bench_json.sh 48 32 20 3      # custom grid
#   BENCH_SMOKE=1 scripts/bench_json.sh   # tiny grid, seconds (CI smoke)
#
# Env: BUILD (build dir, default "build"), OUT (residency output path,
# default "BENCH_residency.json"), OUT_HETERO (hetero output path,
# default "BENCH_hetero.json"), OUT_FUSION (fusion output path, default
# "BENCH_fusion.json"), OUT_SERVICE (service output path, default
# "BENCH_service.json"), OUT_HYBRID (hybrid output path, default
# "BENCH_hybrid.json"), OUT_TUNER (tuner output path, default
# "BENCH_tuner.json").

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=${OUT:-BENCH_residency.json}
OUT_HETERO=${OUT_HETERO:-BENCH_hetero.json}
OUT_FUSION=${OUT_FUSION:-BENCH_fusion.json}
OUT_SERVICE=${OUT_SERVICE:-BENCH_service.json}
OUT_HYBRID=${OUT_HYBRID:-BENCH_hybrid.json}
OUT_TUNER=${OUT_TUNER:-BENCH_tuner.json}

# Stamp applied to every distilled point: schema version for the
# trajectory-point format itself, plus the machine fingerprint (the
# same fields tune::local_fingerprint records in tuned.json).
export BENCH_SCHEMA_VERSION=1
export BENCH_HW_THREADS="$(nproc)"
export BENCH_DEVICE_NAME="NVIDIA A100-SXM4-40GB (simulated)"

# Always (re)build — incremental, so this is a no-op when current, and
# it guarantees the trajectory point never comes from a stale binary.
if [ ! -d "${BUILD}" ]; then
  cmake -B "${BUILD}" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${BUILD}" -j "$(nproc)" \
  --target bench_residency bench_hetero bench_fusion bench_service \
  bench_hybrid bench_tuner

ARGS=("$@")
HETERO_ARGS=("$@")
# The service bench takes a stream size, not a grid: jobs per class.
SERVICE_ARGS=(8)
# The tuner takes the CONUS rank patch by default; the artifact lands
# in the build dir so repo root stays clean.
TUNER_ARGS=("artifact=${BUILD}/tuned.json")
if [ "${BENCH_SMOKE:-0}" = "1" ] && [ ${#ARGS[@]} -eq 0 ]; then
  ARGS=(24 16 10 3)
  # The hetero smoke needs a tall column (40 x 400 m reaches above the
  # 223.15 K coal gate) so the predicate split is genuinely two-sided.
  HETERO_ARGS=(16 12 40 1)
  SERVICE_ARGS=(3)
  # Tiny grid, pruned space, loose CV target: seconds, not minutes.
  TUNER_ARGS=(24 16 10 2 version=v1 keep=4 target_cv=0.5
              "artifact=${BUILD}/tuned.json")
fi

RAW=$(mktemp)
trap 'rm -f "${RAW}"' EXIT
# The bench's exit code carries the >=5x acceptance gate; capture it so
# a failed gate still distills its diagnostics before we propagate it.
rc=0
"${BUILD}/bench_residency" ${ARGS[@]+"${ARGS[@]}"} --benchmark_format=json \
  > "${RAW}" || rc=$?

python3 - "${RAW}" "${OUT}" <<'PY'
import json
import sys

raw = json.load(open(sys.argv[1]))
cells = {b["name"]: b for b in raw["benchmarks"]}


def pick(version, res):
    return cells["residency/%s/res=%s" % (version, res)]


def traffic(cell):
    return {
        "h2d_bytes_per_step": cell["h2d_bytes_per_step"],
        "d2h_bytes_per_step": cell["d2h_bytes_per_step"],
        "h2d_bytes_first_step": cell["h2d_bytes_first_step"],
        "d2h_bytes_first_step": cell["d2h_bytes_first_step"],
        "transfer_ms_per_step": cell["transfer_ms_per_step"],
        "kernel_ms_per_step": cell["kernel_ms_per_step"],
        "resident_mb": cell["resident_mb"],
    }


step = pick("v3-offload-collapse3", "step")
persist = pick("v3-offload-collapse3", "persist")
step_bytes = step["h2d_bytes_per_step"] + step["d2h_bytes_per_step"]
persist_bytes = persist["h2d_bytes_per_step"] + persist["d2h_bytes_per_step"]
reduction = step_bytes / max(persist_bytes, 1.0)

point = {
    "bench": "residency",
    "context": raw["context"],
    "v3_step": traffic(step),
    "v3_persist": traffic(persist),
    "v2_step": traffic(pick("v2-offload-collapse2", "step")),
    "v2_persist": traffic(pick("v2-offload-collapse2", "persist")),
    "steady_state_reduction_x": round(reduction, 1),
    "meets_5x_bar": reduction >= 5.0,
}
json.dump(point, open(sys.argv[2], "w"), indent=2)
print("wrote %s: steady-state step %.1f MB/step vs persist %.3f MB/step "
      "(%.0fx, 5x bar %s)" % (
          sys.argv[2], step_bytes / 1e6, persist_bytes / 1e6, reduction,
          "met" if reduction >= 5.0 else "NOT met"))
PY

# ---- heterogeneous dispatch point (exec=hetero) ----------------------
RAW_H=$(mktemp)
trap 'rm -f "${RAW}" "${RAW_H}"' EXIT
rc_h=0
"${BUILD}/bench_hetero" ${HETERO_ARGS[@]+"${HETERO_ARGS[@]}"} \
  --benchmark_format=json > "${RAW_H}" || rc_h=$?

python3 - "${RAW_H}" "${OUT_HETERO}" <<'PY'
import json
import sys

raw = json.load(open(sys.argv[1]))
cells = {b["name"]: b for b in raw["benchmarks"]}


def pick(version):
    return cells["hetero/%s" % version]


point = {
    "bench": "hetero",
    "context": raw["context"],
    "v2": pick("v2-offload-collapse2"),
    "v3": pick("v3-offload-collapse3"),
}
v3 = point["v3"]
point["split_fraction"] = v3["split_fraction"]
point["h2d_reduction_x"] = round(
    v3["full_h2d_bytes"] / max(v3["hetero_h2d_bytes"], 1.0), 2)
point["exact_shard_scaling"] = (
    point["v2"]["exact_shard_scaling"] and v3["exact_shard_scaling"])
json.dump(point, open(sys.argv[2], "w"), indent=2)
print("wrote %s: split %.0f%% of cells to the device shard, h2d %.1f MB "
      "vs full %.1f MB (%.2fx), exact shard scaling %s" % (
          sys.argv[2], 100.0 * v3["split_fraction"],
          v3["hetero_h2d_bytes"] / 1e6, v3["full_h2d_bytes"] / 1e6,
          point["h2d_reduction_x"],
          "yes" if point["exact_shard_scaling"] else "NO"))
PY

# ---- pass-fusion point (fuse=off vs fuse=auto) -----------------------
RAW_F=$(mktemp)
trap 'rm -f "${RAW}" "${RAW_H}" "${RAW_F}"' EXIT
rc_f=0
"${BUILD}/bench_fusion" ${ARGS[@]+"${ARGS[@]}"} --benchmark_format=json \
  > "${RAW_F}" || rc_f=$?

python3 - "${RAW_F}" "${OUT_FUSION}" <<'PY'
import json
import sys

raw = json.load(open(sys.argv[1]))
cells = {b["name"]: b for b in raw["benchmarks"]}


def pick(fuse, res):
    return cells["fusion/fuse=%s/res=%s" % (fuse, res)]


off_step = pick("off", "step")
auto_step = pick("auto", "step")
off_pers = pick("off", "persist")
auto_pers = pick("auto", "persist")
off_bytes = off_step["h2d_bytes_per_step"] + off_step["d2h_bytes_per_step"]
auto_bytes = auto_step["h2d_bytes_per_step"] + auto_step["d2h_bytes_per_step"]

point = {
    "bench": "fusion",
    "context": raw["context"],
    "off_step": off_step,
    "auto_step": auto_step,
    "off_persist": off_pers,
    "auto_persist": auto_pers,
    "fused_pair": auto_step["fused_pair"],
    "launches_saved_per_step": round(
        off_step["launches_per_step"] - auto_step["launches_per_step"], 1),
    "step_traffic_reduction_x": round(off_bytes / max(auto_bytes, 1.0), 2),
    "fewer_launches": (
        auto_step["launches_per_step"] < off_step["launches_per_step"]
        and auto_pers["launches_per_step"] < off_pers["launches_per_step"]),
    "less_step_traffic": auto_bytes < off_bytes,
}
json.dump(point, open(sys.argv[2], "w"), indent=2)
print("wrote %s: fused %s, launches %.1f -> %.1f per step, res=step "
      "traffic %.1f -> %.1f MB/step (%.2fx); gates %s" % (
          sys.argv[2], point["fused_pair"] or "(nothing!)",
          off_step["launches_per_step"], auto_step["launches_per_step"],
          off_bytes / 1e6, auto_bytes / 1e6,
          point["step_traffic_reduction_x"],
          "met" if point["fewer_launches"] and point["less_step_traffic"]
          else "NOT met"))
PY

# ---- forecast-service point (svc::Scheduler pool sweep) --------------
RAW_S=$(mktemp)
trap 'rm -f "${RAW}" "${RAW_H}" "${RAW_F}" "${RAW_S}"' EXIT
rc_s=0
"${BUILD}/bench_service" "${SERVICE_ARGS[@]}" --benchmark_format=json \
  > "${RAW_S}" || rc_s=$?

python3 - "${RAW_S}" "${OUT_SERVICE}" <<'PY'
import json
import sys

raw = json.load(open(sys.argv[1]))
pools = {b["name"]: b for b in raw["benchmarks"]}
one = pools["service/lanes=1"]
max_lanes = max(int(k.split("=")[1]) for k in pools)
widest = pools["service/lanes=%d" % max_lanes]

point = {
    "bench": "service",
    "context": raw["context"],
    "pools": [pools[k] for k in sorted(pools, key=lambda k:
                                       int(k.split("=")[1]))],
    "pool_parallelism_ok": all(
        p["pool_parallelism"] >= 0.5 * int(k.split("=")[1])
        for k, p in pools.items()),
    "wait_p50_shrinks": widest["wait_p50_s"] < one["wait_p50_s"],
    "fair_share_wait_ordered": (
        one["wait_mean_interactive_s"] <= one["wait_mean_ensemble_s"]
        <= one["wait_mean_batch_s"]),
    "batching_every_width": all(p["batches"] > 0 for p in pools.values()),
    "clean": all(p["failed"] == 0 and p["rejected"] == 0
                 and p["completed"] == p["jobs"] for p in pools.values()),
}
json.dump(point, open(sys.argv[2], "w"), indent=2)
gates = [point[g] for g in ("pool_parallelism_ok", "wait_p50_shrinks",
                            "fair_share_wait_ordered",
                            "batching_every_width", "clean")]
print("wrote %s: %d-lane pool parallelism %.2f, p50 wait %.3fs -> %.3fs, "
      "1-lane mean waits I/E/B %.3f/%.3f/%.3f s; gates %s" % (
          sys.argv[2], max_lanes, widest["pool_parallelism"],
          one["wait_p50_s"], widest["wait_p50_s"],
          one["wait_mean_interactive_s"], one["wait_mean_ensemble_s"],
          one["wait_mean_batch_s"],
          "met" if all(gates) else "NOT met"))
PY

# ---- hybrid microphysics point (phys=bulk/hybrid/bin) ----------------
RAW_Y=$(mktemp)
trap 'rm -f "${RAW}" "${RAW_H}" "${RAW_F}" "${RAW_S}" "${RAW_Y}"' EXIT
rc_y=0
"${BUILD}/bench_hybrid" ${ARGS[@]+"${ARGS[@]}"} --benchmark_format=json \
  > "${RAW_Y}" || rc_y=$?

python3 - "${RAW_Y}" "${OUT_HYBRID}" <<'PY'
import json
import sys

raw = json.load(open(sys.argv[1]))
cells = {b["name"]: b for b in raw["benchmarks"]}


def pick(phys):
    return cells["hybrid/phys=%s" % phys]


bulk = pick("bulk")
hyb = pick("hybrid")
bin_ = pick("bin")

point = {
    "bench": "hybrid",
    "context": raw["context"],
    "bulk": bulk,
    "hybrid": hyb,
    "bin": bin_,
    "bin_fraction": hyb["bin_fraction"],
    "hybrid_speedup_over_bin_x": round(
        hyb["cellsteps_per_s"] / max(bin_["cellsteps_per_s"], 1.0), 2),
    "bulk_bound_speedup_x": round(
        bulk["cellsteps_per_s"] / max(bin_["cellsteps_per_s"], 1.0), 2),
    "throughput_strictly_ordered": (
        bulk["cellsteps_per_s"] > hyb["cellsteps_per_s"]
        > bin_["cellsteps_per_s"]),
    "census_two_sided": 0.0 < hyb["bin_fraction"] < 1.0,
}
json.dump(point, open(sys.argv[2], "w"), indent=2)
print("wrote %s: throughput bulk %.0f / hybrid %.0f / bin %.0f "
      "cellsteps/s (hybrid %.2fx over bin at %.0f%% bin fidelity); "
      "gates %s" % (
          sys.argv[2], bulk["cellsteps_per_s"], hyb["cellsteps_per_s"],
          bin_["cellsteps_per_s"], point["hybrid_speedup_over_bin_x"],
          100.0 * hyb["bin_fraction"],
          "met" if point["throughput_strictly_ordered"]
          and point["census_two_sided"] else "NOT met"))
PY

# ---- autotuner point (tune= knob, tuned vs untuned) ------------------
RAW_T=$(mktemp)
trap 'rm -f "${RAW}" "${RAW_H}" "${RAW_F}" "${RAW_S}" "${RAW_T}"' EXIT
rc_t=0
"${BUILD}/bench_tuner" "${TUNER_ARGS[@]}" --benchmark_format=json \
  > "${RAW_T}" || rc_t=$?

python3 - "${RAW_T}" "${OUT_TUNER}" <<'PY'
import json
import sys

raw = json.load(open(sys.argv[1]))
cells = {b["name"]: b for b in raw["benchmarks"]}
untuned = cells["tuner/untuned"]
tuned = cells["tuner/tuned"]
winner = cells["tuner/winner"]

point = {
    "bench": "tuner",
    "context": raw["context"],
    "untuned": untuned,
    "tuned": tuned,
    "winner": winner,
    "speedup_x": winner["speedup"],
    "tuned_not_slower": (
        tuned["cellsteps_per_s"] * 1.02 >= untuned["cellsteps_per_s"]),
    "deciding_cv_ok": winner["deciding_cv"] <= 0.5,
    "bitwise_identical": winner["bitwise_identical"],
}
json.dump(point, open(sys.argv[2], "w"), indent=2)
print("wrote %s: winner '%s', tuned %.0f vs untuned %.0f cellsteps/s "
      "(%.2fx), deciding CV %.3f over %d measured runs; gates %s" % (
          sys.argv[2], winner["knobs"], tuned["cellsteps_per_s"],
          untuned["cellsteps_per_s"], winner["speedup"],
          winner["deciding_cv"], winner["measured_runs"],
          "met" if point["tuned_not_slower"] and point["deciding_cv_ok"]
          and point["bitwise_identical"] else "NOT met"))
PY

# ---- stamp every point with schema version + machine fingerprint -----
python3 - "${OUT}" "${OUT_HETERO}" "${OUT_FUSION}" "${OUT_SERVICE}" \
  "${OUT_HYBRID}" "${OUT_TUNER}" <<'PY'
import json
import os
import sys

stamp = {
    "schema_version": int(os.environ["BENCH_SCHEMA_VERSION"]),
    "machine": {
        "hw_threads": int(os.environ["BENCH_HW_THREADS"]),
        "device": os.environ["BENCH_DEVICE_NAME"],
    },
}
for path in sys.argv[1:]:
    point = json.load(open(path))
    point.update(stamp)
    json.dump(point, open(path, "w"), indent=2)
print("stamped %d points: schema v%d, %d hw threads, %s" % (
    len(sys.argv) - 1, stamp["schema_version"],
    stamp["machine"]["hw_threads"], stamp["machine"]["device"]))
PY

[ "${rc}" -ne 0 ] && exit "${rc}"
[ "${rc_h}" -ne 0 ] && exit "${rc_h}"
[ "${rc_f}" -ne 0 ] && exit "${rc_f}"
[ "${rc_s}" -ne 0 ] && exit "${rc_s}"
[ "${rc_y}" -ne 0 ] && exit "${rc_y}"
exit "${rc_t}"
