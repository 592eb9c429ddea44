#!/usr/bin/env bash
# Runs every bench_e* binary and emits BENCH_<date>.json — one JSON object
# mapping bench name to Google Benchmark's own JSON report — so PRs leave a
# machine-readable perf trajectory instead of an eyeballed bench_output.txt.
#
# Usage: bench/run_benches.sh [--check] [--filter <regex>] [build-dir] \
#                              [extra benchmark args...]
#   bench/run_benches.sh                  # uses ./build, full run
#   bench/run_benches.sh build --benchmark_min_time=0.05
#   bench/run_benches.sh --check build    # E15 regression gate (see below)
#   bench/run_benches.sh --filter 'e1[58]' build   # only matching benches
#
# --filter <regex> restricts which bench binaries run: in a full run it
# filters bench_names; in --check mode it filters which gates execute
# (a gate whose bench does not match is skipped WITH a printed notice,
# so a filtered check is visibly partial, never silently green).
#
# --check runs the regression gates and exits nonzero on any violation:
#   * E15 vs the committed bench/BENCH_e15_baseline.json: every baseline
#     row must be present, every current row must be in the baseline (a
#     new row means the baseline needs regenerating — a clear failure,
#     not a silent skip), invariant counters must hold exactly (version
#     == writes — read-only transactions never publish), Sharded rows
#     must carry the scaling_eff and vs_global_t1 derived columns, and
#     per-row ops_per_sec may not fall below baseline by more than
#     SDL_BENCH_TOLERANCE (default 0.5, i.e. a 50% band — bench machines
#     are noisy; the band catches collapses, not jitter). ALL
#     out-of-tolerance rows are listed, not just the first. Sharded rows
#     with 2..nproc threads must also hit SDL_E15_SCALING_GATE (default
#     0.25) parallel efficiency — on a single-core host that gate prints
#     an explicit `SKIPPED (nproc=1)` instead of a spurious verdict.
#   * E20 overload smoke: goodput at 2x saturation must stay >=
#     SDL_E20_GATE (default 0.7) of the peak-rate row — the graceful-
#     degradation plateau. SDL_E20_MS shortens the per-row window for CI.
#   * E13 wakeup-check ablation vs bench/BENCH_e13_baseline.json (same
#     two-direction row coverage + tolerance band as E15), plus two
#     self-relative gates on the largest guard-heavy shape: the
#     empty-delta wakeup check must be >= SDL_E13_GATE (default 2.0)
#     times faster than the full probe, and the compiled bytecode tier
#     must be >= SDL_E13_GATE times faster than the test reference
#     evaluator (tests/query/reference_eval.hpp).
#   * E5 dataspace primitives vs bench/BENCH_e5_baseline.json — the
#     zero-regression guard for the delta-capture hooks on the commit
#     path (tolerance band, both-direction row coverage).
#   * E21 replication vs bench/BENCH_e21_baseline.json (same band), plus
#     the overhead gate: follower rows must commit at >= 1 - SDL_E21_GATE
#     (default 0.10) of the 0-follower rate — WAL shipping stays off the
#     commit path. Needs cores for the followers: prints an explicit
#     `SKIPPED (nproc=1)` on single-core, where the slowdown measures CPU
#     time-sharing, not shipping. Lag/applied columns gate everywhere.
#   * Generic rule: a GATED bench binary that is built but has no
#     committed baseline fails the check outright — gates never silently
#     skip.
# A bench binary that exits nonzero or emits unparseable JSON is itself a
# clear FAIL, never a bare shell error.
set -euo pipefail

check_mode=0
filter=""
while [[ $# -gt 0 ]]; do
  case "${1}" in
    --check) check_mode=1; shift ;;
    --filter)
      filter="${2:?error: --filter needs a regex argument}"
      shift 2
      ;;
    *) break ;;
  esac
done

build_dir="${1:-build}"
shift || true

# Does this bench name survive the --filter? (No filter: everything does.)
want() {
  [[ -z "${filter}" ]] || [[ "$1" =~ ${filter} ]]
}
skip_gate() {
  echo "SKIPPED: $1 gate (excluded by --filter '${filter}')" >&2
}

if [[ ! -d "${build_dir}/bench" ]]; then
  echo "error: '${build_dir}/bench' not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

out="BENCH_$(date +%Y%m%d).json"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

if [[ ${check_mode} -eq 1 ]]; then
  script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  check_status=0
  if ! want bench_e15_read_mostly; then
    skip_gate bench_e15_read_mostly
  else
  baseline="${script_dir}/BENCH_e15_baseline.json"
  if [[ ! -f "${baseline}" ]]; then
    echo "error: ${baseline} not found — generate one with:" >&2
    echo "  ${build_dir}/bench/bench_e15_read_mostly --benchmark_format=json > bench/BENCH_e15_baseline.json" >&2
    exit 1
  fi
  bin="${build_dir}/bench/bench_e15_read_mostly"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built" >&2
    exit 1
  fi
  current="${tmpdir}/e15_current.json"
  echo "running bench_e15_read_mostly (check mode) ..." >&2
  # A bench binary dying must produce a diagnosable FAIL, not a bare
  # `set -e` abort with the JSON half-written.
  if ! "${bin}" --benchmark_format=json "$@" > "${current}"; then
    echo "FAIL: bench_e15_read_mostly exited nonzero — no comparison run" >&2
    check_status=1
  elif ! python3 - "${baseline}" "${current}" <<'PYCHECK'
import json, os, sys

def load(path, label):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: {label} ({path}) is not readable JSON: {e}")
        sys.exit(1)

base = load(sys.argv[1], "baseline")
cur = load(sys.argv[2], "current run")
tol = float(os.environ.get("SDL_BENCH_TOLERANCE", "0.5"))

def rows(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

base_rows, cur_rows = rows(base), rows(cur)
failures, notes = [], []
# Both directions: a baseline row the bench no longer emits is lost
# coverage; a current row absent from the baseline means the bench grew
# and the committed baseline must be regenerated (silently skipping it
# would leave the new row permanently ungated).
for name in sorted(set(cur_rows) - set(base_rows)):
    failures.append(
        f"{name}: row not in committed baseline — regenerate "
        "bench/BENCH_e15_baseline.json to cover it")
for name, brow in sorted(base_rows.items()):
    crow = cur_rows.get(name)
    if crow is None:
        failures.append(f"{name}: row missing from current run")
        continue
    if crow.get("error_occurred"):
        failures.append(f"{name}: {crow.get('error_message', 'bench error')}")
        continue
    # Hard invariant, not a perf band: read-only transactions never
    # publish, so the commit-version delta equals the write count.
    if crow.get("version") != crow.get("writes"):
        failures.append(
            f"{name}: version {crow.get('version')} != writes "
            f"{crow.get('writes')} (read path published)")
    if "Sharded" in name:
        for col in ("scaling_eff", "vs_global_t1"):
            if col not in crow:
                failures.append(f"{name}: derived column '{col}' missing")
    b_rate, c_rate = brow.get("ops_per_sec"), crow.get("ops_per_sec")
    if b_rate and c_rate:
        ratio = c_rate / b_rate
        if ratio < 1.0 - tol:
            failures.append(
                f"{name}: ops_per_sec fell to {ratio:.2f}x of baseline "
                f"({c_rate:.0f} vs {b_rate:.0f}, band {1.0 - tol:.2f})")
        elif ratio > 1.0 + tol:
            notes.append(
                f"{name}: {ratio:.2f}x faster than baseline — consider "
                "refreshing bench/BENCH_e15_baseline.json")

# Scaling gate: Sharded rows running 2..nproc threads must show at least
# SDL_E15_SCALING_GATE parallel efficiency (rate(T) / (T * rate(1))).
# On a single-core host no thread count in that range exists — threads
# time-share the one core, so parallel speedup is unmeasurable and the
# gate is SKIPPED with an explicit printed reason, never silently green
# (and never a spurious failure).
nproc = os.cpu_count() or 1
sgate = float(os.environ.get("SDL_E15_SCALING_GATE", "0.25"))
if nproc == 1:
    print("E15 scaling_eff gate: SKIPPED (nproc=1 — threads time-share "
          "one core, parallel efficiency is unmeasurable here)")
else:
    gated = 0
    for name, crow in sorted(cur_rows.items()):
        if "Sharded" not in name or "scaling_eff" not in crow:
            continue
        try:
            threads = int(name.split("/")[1])
        except (IndexError, ValueError):
            continue
        if threads < 2 or threads > nproc:
            continue
        gated += 1
        if crow["scaling_eff"] < sgate:
            failures.append(
                f"{name}: scaling_eff {crow['scaling_eff']:.2f} below gate "
                f"{sgate:.2f} (sharded engine stopped scaling)")
    print(f"E15 scaling_eff gate: {gated} Sharded rows checked against "
          f"{sgate:.2f} (nproc={nproc})")

for note in notes:
    print(f"note: {note}")
if failures:
    for f_ in failures:
        print(f"FAIL: {f_}")
    sys.exit(1)
print(f"E15 check passed: {len(base_rows)} rows within "
      f"±{int(tol * 100)}% of baseline, invariants hold")
PYCHECK
  then
    check_status=1
  fi
  fi  # want bench_e15_read_mostly

  # E20 overload smoke: the degradation curve must plateau — goodput at
  # 2x saturation stays within SDL_E20_GATE of the best row (self-
  # relative, so the gate is machine-speed independent).
  if ! want bench_e20_overload; then
    skip_gate bench_e20_overload
  else
  e20_bin="${build_dir}/bench/bench_e20_overload"
  if [[ ! -x "${e20_bin}" ]]; then
    echo "FAIL: ${e20_bin} not built — the overload gate cannot run" >&2
    check_status=1
  else
    e20_current="${tmpdir}/e20_current.json"
    echo "running bench_e20_overload (check mode) ..." >&2
    if ! "${e20_bin}" --benchmark_format=json "$@" > "${e20_current}"; then
      echo "FAIL: bench_e20_overload exited nonzero — no overload gate run" >&2
      check_status=1
    elif ! python3 - "${e20_current}" <<'PYE20'
import json, os, sys

try:
    with open(sys.argv[1]) as f:
        cur = json.load(f)
except (OSError, ValueError) as e:
    print(f"FAIL: E20 output is not readable JSON: {e}")
    sys.exit(1)
gate = float(os.environ.get("SDL_E20_GATE", "0.7"))

rows = {b["name"]: b for b in cur.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"}
failures = []
for name, row in sorted(rows.items()):
    if row.get("error_occurred"):
        failures.append(f"{name}: {row.get('error_message', 'bench error')}")
over = [r for n, r in rows.items() if "/200/" in n or n.endswith("/200")]
if not over and not failures:
    failures.append("E20: no 2x-saturation row in output")
peak = max((r.get("goodput_per_sec", 0.0) for r in rows.values()),
           default=0.0)
for row in over:
    ratio = row.get("goodput_vs_peak")
    if ratio is None:
        failures.append("E20: 2x row lacks goodput_vs_peak counter")
    elif ratio < gate:
        failures.append(
            f"E20: goodput at 2x saturation fell to {ratio:.2f}x of peak "
            f"({row.get('goodput_per_sec', 0.0):.0f}/s vs {peak:.0f}/s, "
            f"gate {gate:.2f}) — degradation curve is a cliff, not a plateau")
    if row.get("sheds_total", 0) <= 0:
        failures.append(
            "E20: 2x row shows zero admission sheds — the gate never "
            "engaged, so the plateau (if any) is untested")
if failures:
    for f_ in failures:
        print(f"FAIL: {f_}")
    sys.exit(1)
print(f"E20 check passed: goodput plateau at 2x saturation holds "
      f"(gate {gate:.2f}, peak {peak:.0f}/s)")
PYE20
    then
      check_status=1
    fi
  fi
  fi  # want bench_e20_overload

  # Baselined gates share one python body: two-direction row coverage
  # plus the SDL_BENCH_TOLERANCE band, exactly the E15 discipline. The
  # generic rule rides the loop: a gated binary that is built but has no
  # committed baseline is a FAIL, not a skip — a gate that silently
  # skips is indistinguishable from a gate that passes.
  run_baselined_gate() {
    local bench_name="$1" baseline_file="$2"
    shift 2  # remaining args pass through to the benchmark binary
    local bin="${build_dir}/bench/${bench_name}"
    if [[ ! -x "${bin}" ]]; then
      echo "FAIL: ${bin} not built — the ${bench_name} gate cannot run" >&2
      return 1
    fi
    if [[ ! -f "${baseline_file}" ]]; then
      echo "FAIL: ${bench_name} is built but ${baseline_file} is not" \
           "committed — generate it with:" >&2
      echo "  ${bin} --benchmark_format=json > ${baseline_file}" >&2
      return 1
    fi
    local current="${tmpdir}/${bench_name}_current.json"
    echo "running ${bench_name} (check mode) ..." >&2
    if ! "${bin}" --benchmark_format=json "$@" > "${current}"; then
      echo "FAIL: ${bench_name} exited nonzero — no comparison run" >&2
      return 1
    fi
    python3 - "${baseline_file}" "${current}" "${bench_name}" <<'PYBASE'
import json, os, sys

def load(path, label):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL: {label} ({path}) is not readable JSON: {e}")
        sys.exit(1)

base = load(sys.argv[1], "baseline")
cur = load(sys.argv[2], "current run")
bench = sys.argv[3]
tol = float(os.environ.get("SDL_BENCH_TOLERANCE", "0.5"))

def rows(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

base_rows, cur_rows = rows(base), rows(cur)
failures, notes = [], []
# The E13 columns are ablations: the signal is the self-relative ratio
# below, not absolute magnitude (the naive full-scan column is
# deliberately pathological and bimodal under cache pressure — banding
# it flakes). E5 is the zero-regression guard, so its band stays.
banded = bench != "bench_e13_planner"
for name in sorted(set(cur_rows) - set(base_rows)):
    failures.append(
        f"{name}: row not in committed baseline — regenerate "
        f"{sys.argv[1]} to cover it")
for name, brow in sorted(base_rows.items()):
    crow = cur_rows.get(name)
    if crow is None:
        failures.append(f"{name}: row missing from current run")
        continue
    if crow.get("error_occurred"):
        failures.append(f"{name}: {crow.get('error_message', 'bench error')}")
        continue
    b_t, c_t = brow.get("real_time"), crow.get("real_time")
    if banded and b_t and c_t:
        ratio = c_t / b_t
        if ratio > 1.0 + tol:
            failures.append(
                f"{name}: real_time grew to {ratio:.2f}x of baseline "
                f"({c_t:.2f} vs {b_t:.2f}, band {1.0 + tol:.2f})")
        elif ratio < 1.0 - tol:
            notes.append(
                f"{name}: {ratio:.2f}x faster than baseline — consider "
                f"refreshing {sys.argv[1]}")

if bench == "bench_e13_planner":
    # Self-relative incremental gate on the largest guard-heavy shape:
    # machine speed cancels out of the ratio.
    gate = float(os.environ.get("SDL_E13_GATE", "2.0"))
    full = cur_rows.get("BM_WakeupFullProbe/16384")
    empty = cur_rows.get("BM_WakeupIncrementalEmpty/16384")
    if full is None or empty is None:
        failures.append("E13: wakeup ablation rows missing — gate cannot run")
    else:
        speedup = full["real_time"] / max(empty["real_time"], 1e-9)
        if speedup < gate:
            failures.append(
                f"E13: incremental empty-delta wakeup check is only "
                f"{speedup:.1f}x faster than the full probe at 16384 "
                f"(gate {gate:.1f}x)")
        else:
            print(f"E13 wakeup gate: {speedup:.0f}x over full probe "
                  f"(gate {gate:.1f}x)")
    # Compiled-tier gate (ISSUE 10), same discipline: the bytecode match
    # program must beat the test reference evaluator by >= SDL_E13_GATE on the
    # largest guard-heavy shape. Self-relative, so machine speed cancels.
    interp = cur_rows.get("BM_GuardHeavyInterpreted/16384")
    comp = cur_rows.get("BM_GuardHeavyCompiled/16384")
    if interp is None or comp is None:
        failures.append("E13: compiler ablation rows missing — gate cannot run")
    else:
        speedup = interp["real_time"] / max(comp["real_time"], 1e-9)
        if speedup < gate:
            failures.append(
                f"E13: compiled guard-heavy evaluation is only "
                f"{speedup:.1f}x faster than the reference evaluator at 16384 "
                f"(gate {gate:.1f}x)")
        else:
            print(f"E13 compiler gate: {speedup:.0f}x over reference evaluator "
                  f"(gate {gate:.1f}x)")

if bench == "bench_e21_replication":
    # Replication overhead gate: follower rows must commit at >=
    # (1 - SDL_E21_GATE) of the 0-follower reference rate — WAL shipping
    # stays off the commit path. Only meaningful when followers have
    # their own cores: on a single-core host the follower apply threads
    # time-share the leader's core and the slowdown measures CPU
    # contention, not shipping overhead, so the vs_0f gate is SKIPPED
    # with an explicit printed reason. The lag/applied column checks and
    # the baseline real_time band above still hold on single-core.
    gate = float(os.environ.get("SDL_E21_GATE", "0.10"))
    nproc = os.cpu_count() or 1
    gated = 0
    for name, crow in sorted(cur_rows.items()):
        if crow.get("error_occurred"):
            continue
        for col in ("ops_per_sec", "lag_records", "lag_ms", "applied"):
            if col not in crow:
                failures.append(f"{name}: column '{col}' missing")
        try:
            followers = int(name.split("/")[1])
        except (IndexError, ValueError):
            failures.append(f"{name}: cannot parse follower count")
            continue
        if followers == 0:
            continue
        if "vs_0f" not in crow:
            failures.append(f"{name}: derived column 'vs_0f' missing")
            continue
        if crow.get("applied", 0) <= 0:
            failures.append(
                f"{name}: applied == 0 — replication never ran")
        if nproc <= followers:
            continue  # not enough cores to host the followers
        gated += 1
        if crow["vs_0f"] < 1.0 - gate:
            failures.append(
                f"{name}: leader rate fell to {crow['vs_0f']:.2f}x of the "
                f"0-follower row (gate {1.0 - gate:.2f}) — shipping is on "
                "the commit path")
    if nproc == 1:
        print("E21 overhead gate: SKIPPED (nproc=1 — follower apply "
              "threads time-share the leader's core; the slowdown is CPU "
              "contention, not shipping overhead)")
    else:
        print(f"E21 overhead gate: {gated} follower rows checked against "
              f"{1.0 - gate:.2f}x of the 0-follower rate (nproc={nproc})")

for note in notes:
    print(f"note: {note}")
if failures:
    for f_ in failures:
        print(f"FAIL: {f_}")
    sys.exit(1)
if banded:
    print(f"{bench} check passed: {len(base_rows)} rows within "
          f"±{int(tol * 100)}% of baseline")
else:
    print(f"{bench} check passed: {len(base_rows)} rows covered "
          f"(ratio-gated, no absolute band)")
PYBASE
  }

  script_dir="${script_dir:-$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)}"
  if want bench_e13_planner; then
    if ! run_baselined_gate bench_e13_planner \
        "${script_dir}/BENCH_e13_baseline.json" "$@"; then
      check_status=1
    fi
  else
    skip_gate bench_e13_planner
  fi
  if want bench_e5_dataspace; then
    if ! run_baselined_gate bench_e5_dataspace \
        "${script_dir}/BENCH_e5_baseline.json" "$@"; then
      check_status=1
    fi
  else
    skip_gate bench_e5_dataspace
  fi
  if want bench_e21_replication; then
    if ! run_baselined_gate bench_e21_replication \
        "${script_dir}/BENCH_e21_baseline.json" "$@"; then
      check_status=1
    fi
  else
    skip_gate bench_e21_replication
  fi

  exit ${check_status}
fi

# Explicit experiment order (a glob would sort bench_e10 before bench_e2
# and silently skip anything misnamed). Append new experiments here.
bench_names=(
  bench_e1_array_sum
  bench_e2_property_list
  bench_e3_sort_consensus
  bench_e4_region_label
  bench_e5_dataspace
  bench_e6_engine_ablation
  bench_e7_view_scope
  bench_e8_consensus_scale
  bench_e9_wakeup
  bench_e10_replication_scale
  bench_e11_society_scale
  bench_e12_vs_linda
  bench_e13_planner
  bench_e14_clocked_sim
  bench_e15_read_mostly
  bench_e16_fault_sweep
  bench_e17_sim_explore
  bench_e18_durability
  bench_e19_observability
  bench_e20_overload
  bench_e21_replication
)

benches=()
for name in "${bench_names[@]}"; do
  if ! want "${name}"; then
    echo "SKIPPED: ${name} (excluded by --filter '${filter}')" >&2
    continue
  fi
  bin="${build_dir}/bench/${name}"
  if [[ -x "${bin}" ]]; then
    benches+=("${bin}")
  else
    echo "warning: ${name} not built under ${build_dir}/bench — skipping" >&2
  fi
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "error: no bench binaries from the list under ${build_dir}/bench" >&2
  exit 1
fi

# Guard: a built bench binary missing from the list above means someone
# added an experiment without registering it here — warn loudly so the
# perf trajectory never silently loses coverage.
for bin in "${build_dir}"/bench/bench_e*; do
  [[ -x "${bin}" && -f "${bin}" ]] || continue
  name="$(basename "${bin}")"
  listed=0
  for known in "${bench_names[@]}"; do
    [[ "${name}" == "${known}" ]] && listed=1 && break
  done
  if [[ ${listed} -eq 0 ]]; then
    echo "warning: ${name} is built but NOT in bench_names — add it to" \
         "bench/run_benches.sh or it will never appear in BENCH_*.json" >&2
  fi
done

{
  printf '{\n'
  printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "host_nproc": %s,\n' "$(nproc)"
  printf '  "results": {\n'
  first=1
  for bench in "${benches[@]}"; do
    name="$(basename "${bench}")"
    echo "running ${name} ..." >&2
    json="${tmpdir}/${name}.json"
    # A failing bench must not wipe out the whole summary.
    if "${bench}" --benchmark_format=json "$@" > "${json}" 2>"${tmpdir}/${name}.err" \
        && [[ -s "${json}" ]]; then
      payload="$(cat "${json}")"
    else
      payload="{\"error\": \"bench exited nonzero or produced no output\"}"
      echo "warning: ${name} failed; see stderr below" >&2
      cat "${tmpdir}/${name}.err" >&2 || true
    fi
    if [[ ${first} -eq 0 ]]; then printf ',\n'; fi
    first=0
    printf '    "%s": %s' "${name}" "${payload}"
  done
  printf '\n  }\n}\n'
} > "${out}"

echo "wrote ${out}" >&2
