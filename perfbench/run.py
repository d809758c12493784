"""Benchmark for advbounds: whole certificate runs, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --baseline-table

Run from anywhere; the package is imported from ``src/`` next to this
directory, nothing is installed.  Every run is a closed loop with one client:
a pass is the workload's operations, executed one at a time in fresh worker
processes (``worker.py``; one for the certificates, one for the trial pairs),
so the package's caches start empty the way a CLI user meets them.  The
seed fixes the run's inputs once; every pass repeats them.  Passes repeat
while the next one is expected to end within ``--seconds``, and at least
``MIN_PASSES`` run untraced; ``wall_s`` is the median of the passes' times.
Threads are pinned to 1 (``ADVBOUNDS_THREADS`` and the BLAS/OpenMP
variables).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  A traced certify pass runs two fresh processes: the CLI
with spans around the stages certify_bounds calls (self times of the CLI and
of certify_bounds), and a staged re-execution of certify_bounds through the
public functions, which gives the per-stage times and work counts and must
reproduce the CLI's certificate byte for byte.  The last line of standard
output is the JSON result; the lines before it are a readable summary and the
run's provenance.

``--baseline-table`` prints the ROADMAP baseline table (ball points, stage
times at l = 2 and 4, search with its rep count, total) from staged runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

#: A run stops starting worker processes this long after it began, and kills
#: one still running then; the whole run must end within 180 s.
RUN_LIMIT_S = 170.0
#: Untraced passes a run makes even when they take longer than --seconds, so
#: that wall_s, their median, never rests on a single sample of a noisy host.
#: A traced pass runs each certificate two or three times already.
MIN_PASSES = 2
#: Import-only processes before every pass and after the last one, so that
#: setup_s is a median of many samples spread over the whole run.
SETUP_PROBES = 3

# Expected (argmax, k_plus_rounded, k_minus_rounded) per (d, n).  d = 3,
# n = 2, 3, 4: README table (argmax of n = 2 from the README library example,
# n = 3 from its certify example, n = 4 from reference.json).  n = 5, 10:
# the corrected values of README "Known deviations" -- the published 0.510 and
# 2.88 at (1, 1, 0) are wrong.  d = 4 and d = 2: the output at the commit that
# added this benchmark (as in reference.json).
EXPECTED = {
    (3, 2): ((9, 9, 9), "0.335", "0.126"),
    (3, 3): ((2, 1, 1), "0.323", "0.179"),
    (3, 4): ((2, 1, 0), "0.441", "0.253"),
    (3, 5): ((2, 1, 0), "0.657", "0.359"),
    (3, 10): ((2, 1, 0), "6.21", "2.03"),
    (4, 3): ((2, 1, 1, 1), "0.167", "0.0716"),
    (2, 2): ((2, 1), "0.527", "0.243"),
}

# Workloads: the (d, n, rho) certify cases of one pass, and whether the pass
# also computes trial-pair ratios.  The two search-* cases spend >90% in the
# sup K_m search, at different ball sizes and call counts (d = 3: 6,363 calls
# over 33,370 points; d = 4: 3,347 calls over 48,944 points), so a batching
# scheme tuned for d = 3 that hurts wide calls shows on search-d4n3.
# rows-witness is the rest of the table -- cheap searches dominated by
# remainder_extrema and extremize_Q, in seeded order -- plus the fields layer,
# which no certificate touches; it bypasses the search.
WORKLOADS = {
    "search-d3n2": {"cases": [(3, 2, 20.0)], "threads": True},
    "search-d4n3": {"cases": [(4, 3, 10.0)], "threads": True},
    "rows-witness": {
        "cases": [(3, 3, 10.0), (3, 4, 10.0), (3, 5, 10.0), (3, 10, 10.0),
                  (2, 2, 10.0)],
        "shuffle": True,
        "fields": True,
    },
}

# Trial pairs of a pass: this many seeded random divergence-free pairs per
# dimension, supported on all modes with |k|_inf <= FIELD_REACH, plus the two
# shipped witness pairs.  One d = 3 pair is 124 x 124 advect products.
FIELD_PAIRS = {3: 12, 2: 12}
FIELD_REACH = 2
FIELD_N = 2.0

BASELINE_CASES = [(3, 2, 20.0), (3, 3, 10.0), (3, 10, 10.0), (4, 3, 10.0)]


def case_key(case) -> str:
    d, n, rho = case
    return f"d={d} n={n} rho={rho:g}"


def _without_runtime(report) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "runtime_ms"},
                      indent=2)


# --------------------------------------------------------------------------
# inputs


def _random_field(rng, d):
    """One-sided coefficients of a random divergence-free field, |k|_inf <= R."""
    modes = []
    for k in product(range(-FIELD_REACH, FIELD_REACH + 1), repeat=d):
        if k <= (0,) * d:  # keep one of each +-k pair; drop k = 0
            continue
        c = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d)]
        kc = sum(ki * ci for ki, ci in zip(k, c)) / sum(ki * ki for ki in k)
        c = [ci - kc * ki for ci, ki in zip(c, k)]
        modes.append([list(k), [[ci.real, ci.imag] for ci in c]])
    return modes


def run_inputs(workload, rng):
    """Certify cases and trial pairs that every pass of a run repeats."""
    wl = WORKLOADS[workload]
    cases = list(wl["cases"])
    if wl.get("shuffle"):
        rng.shuffle(cases)
    pairs = []
    if wl.get("fields"):
        pairs = [{"d": d, "n": FIELD_N, "v": _random_field(rng, d),
                  "w": _random_field(rng, d)}
                 for d, count in FIELD_PAIRS.items() for _ in range(count)]
        pairs += [{"d": d, "n": FIELD_N, "shipped": True} for d in (2, 3)]
        rng.shuffle(pairs)
    return cases, pairs


# --------------------------------------------------------------------------
# worker processes


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("ADVBOUNDS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(task, deadline):
    """Run one worker to completion; returns (result, error)."""
    payload = json.dumps(task)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "run time limit reached"
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(spawned)],
            input=payload, capture_output=True, text=True, cwd=ROOT,
            env=worker_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"worker exit {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout), None


# --------------------------------------------------------------------------
# correctness


def check_certificate(op):
    """Problem with one CLI certificate, or None."""
    if "error" in op:
        return op["error"]
    rep = op["report"]
    d, n = rep["d"], int(rep["n"])
    argmax, k_plus_r, k_minus_r = EXPECTED[(d, n)]
    key = case_key(tuple(op["case"]))
    if tuple(rep["argmax"]) != argmax:
        return f"{key}: argmax {rep['argmax']} != {list(argmax)}"
    if (rep["k_plus_rounded"], rep["k_minus_rounded"]) != (k_plus_r, k_minus_r):
        return (f"{key}: rounded bounds {rep['k_plus_rounded']}/"
                f"{rep['k_minus_rounded']} != {k_plus_r}/{k_minus_r}")
    if not rep["k_minus"] <= rep["k_plus"]:
        return f"{key}: K_minus > K_plus"
    if not rep["sup_kk_lower"] <= rep["sup_kk_upper"]:
        return f"{key}: sup KK enclosure is inverted"
    if not op["asymptotic_bound"] <= rep["sup_km"]:
        return f"{key}: asymptotic bound exceeds sup K_m"
    return None


# --------------------------------------------------------------------------
# passes


class Pass:
    """Outcome of one pass: operations, their wall time, and layer metrics."""

    def __init__(self):
        self.attempted = 0
        self.problems = []
        self.wall = 0.0
        self.setups = []
        self.peak_rss_mb = 0.0
        self.excess = []
        self.layers = {}

    def absorb(self, result):
        self.setups.append(result["setup_s"])
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])


def run_certify(out, cases, trace, threads, references, deadline):
    """Certify `cases` in a fresh process (two when traced) into pass `out`."""
    out.attempted += len(cases)
    result, err = spawn({"mode": "cli", "cases": cases, "trace": trace}, deadline)
    if err:
        out.problems += [err] * len(cases)
        return
    out.absorb(result)
    cli_ops = result["ops"]
    problems = [check_certificate(op) for op in cli_ops]
    for op, problem in zip(cli_ops, problems):
        if problem is None:
            out.wall += op["seconds"]
            ref = references[case_key(tuple(op["case"]))]
            out.excess.append(op["report"]["k_plus"] / ref["k_plus"])

    if trace:
        staged, err = spawn({"mode": "staged", "cases": cases, "threads": threads},
                            deadline)
        if staged:
            out.absorb(staged)
        staged_ops = staged["ops"] if staged else [{"error": err}] * len(cases)
        for i, (op, st) in enumerate(zip(cli_ops, staged_ops)):
            if problems[i] is None and "error" in st:
                problems[i] = st["error"]
            elif problems[i] is None and (_without_runtime(st["report"])
                                          != _without_runtime(op["report"])):
                problems[i] = (f"{case_key(tuple(op['case']))}: staged "
                               f"certificate differs from certify_bounds")
        good = [(op, st) for op, st, problem in zip(cli_ops, staged_ops, problems)
                if problem is None]
        if good:
            out.layers.update(certify_layers(good, references))
    out.problems += [p for p in problems if p]


def certify_layers(pairs, references):
    total = Counter()
    calls = Counter()
    items = Counter()
    terms = 0
    for _, st in pairs:
        total.update(st["total"])
        calls.update(st["calls"])
        items.update(st["items"])
        terms += st["calls"].get("sums.K_m", 0) * st["margins"]["ball_points"]
    margins = [st["margins"] for _, st in pairs]
    search = total["certify.search_sup_Km"]
    km_s = search - total["lattice.enumerate_canonical"]
    certify_s = sum(op["certify_bounds_s"] for op, _ in pairs)
    speedups = [m["threads_speedup"] for m in margins if "threads_speedup" in m]
    drift = sum(
        _without_runtime(op["report"])
        != _without_runtime(references[case_key(tuple(op["case"]))])
        for op, _ in pairs
    )
    return {
        "lattice.enumerate_ball_s": total["lattice.enumerate_ball"],
        "lattice.ball_points": sum(m["ball_points"] for m in margins),
        "lattice.enumerate_canonical_s": total["lattice.enumerate_canonical"],
        "lattice.canonical_reps": items["lattice.enumerate_canonical"],
        "kernel.remainder_extrema_s": total["kernel.remainder_extrema"],
        "kernel.remainder_extrema_peak_mb": max(
            m["remainder_extrema_peak_mb"] for m in margins),
        "kernel.remainder_width_rel": max(m["remainder_width_rel"] for m in margins),
        "sums.build_Q_s": sum(v for k, v in total.items()
                              if k.startswith("sums.build_Q.")),
        "sums.extremize_Q_s": sum(v for k, v in total.items()
                                  if k.startswith("sums.extremize_Q.")),
        "sums.K_m_calls": calls["sums.K_m"],
        "sums.K_m_terms": terms,
        "sums.K_m_ns_per_term": km_s / terms * 1e9 if terms else 0.0,
        "certify.search_sup_Km_s": search,
        "certify.self_s": sum(op["certify_self_s"] for op, _ in pairs),
        "certify.gate_slack_rel": min(m["gate_slack_rel"] for m in margins),
        "certify.delta_rel": max(m["delta_rel"] for m in margins),
        "certify.json_drift": drift,
        "certify.threads_speedup": statistics.median(speedups) if speedups else 0.0,
        "tail.delta_K_s": total["tail.delta_K"],
        "cli.self_s": sum(op["cli_self_s"] for op, _ in pairs),
        "trace.overhead_rel": total["staged"] / certify_s - 1.0,
    }


def run_fields(out, ops, trace, deadline):
    """Compute the trial-pair ratios `ops` in a fresh process into pass `out`."""
    out.attempted += len(ops)
    result, err = spawn({"mode": "fields", "ops": ops, "trace": trace}, deadline)
    if err:
        out.problems += [err] * len(ops)
        return
    out.absorb(result)
    total = Counter()
    products = 0
    for op in result["ops"]:
        if "error" in op:
            out.problems.append(f"d={op['d']} pair: {op['error']}")
            continue
        out.wall += op["seconds"]
        out.excess.append(op["ratio_ref"] / op["ratio"])
        total.update(op["total"])
        products += op["products"]
    if trace:
        out.layers.update({
            "fields.advect_s": total["fields.advect"],
            "fields.leray_project_s": total["fields.leray_project"],
            "fields.sobolev_norm_s": total["fields.sobolev_norm"],
            "fields.advect_products": products,
        })


def run_workload(workload, seed, seconds, trace, references, spec):
    """One benchmark run; returns (result dict, summary lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(seed)
    wl = WORKLOADS[workload]
    setups = []

    def probe_setup():
        for _ in range(SETUP_PROBES):
            probe, err = spawn({"mode": "probe"}, deadline)
            if err:
                raise RuntimeError(f"set-up probe failed: {err}")
            setups.append(probe["setup_s"])

    cases, pairs = run_inputs(workload, rng)
    min_passes = 1 if trace else MIN_PASSES
    passes = []
    durations = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        probe_setup()
        p = Pass()
        if cases:
            run_certify(p, cases, trace, wl.get("threads", False), references,
                        deadline)
        if pairs:
            run_fields(p, pairs, trace, deadline)
        passes.append(p)
        durations.append(time.monotonic() - began)
        typical = statistics.median(durations)
        now = time.monotonic()
        if now + typical > deadline or (
                len(passes) >= min_passes and now - start + typical > seconds):
            break
    probe_setup()

    attempted = sum(p.attempted for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    failed = len(problems)
    end_to_end = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setups + [s for p in passes for s in p.setups]),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "passed_frac": (attempted - failed) / attempted,
        "k_plus_excess": max((x for p in passes for x in p.excess), default=0.0),
    }
    layer_names = [m["name"] for m in spec["per_layer"]]
    layers = {name: 0 for name in layer_names}
    traced = [p.layers for p in passes if p.layers]
    for name in layer_names:
        values = [lay[name] for lay in traced if name in lay]
        if values:
            layers[name] = statistics.median(values)

    group = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in group}
    lines = [f"workload {workload}: {len(passes)} pass(es), "
             f"{attempted} operations, {failed} failed; pass wall times "
             + ", ".join(f"{p.wall:.3f}" for p in passes) + " s"]
    lines += [f"  error: {msg}" for msg in problems[:5]]
    lines += [f"  {name:34s} {m['value']!r} {m['unit']}"
              for name, m in metrics.items()]
    if not trace:
        lines.append(f"  {'failed_frac':34s} {failed / attempted!r} 1")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


# --------------------------------------------------------------------------
# provenance and the baseline table


def provenance(seed):
    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def baseline_table():
    deadline = time.monotonic() + 3600.0
    rows = ["| case | ball pts | remainder_extrema | build_Q l=2/4 | "
            "extremize_Q l=2/4 | search (reps) | total |",
            "|---|---|---|---|---|---|---|"]

    def ms(x):
        return f"{x * 1000:.0f}"

    for case in BASELINE_CASES:
        result, err = spawn({"mode": "staged", "cases": [case], "threads": False},
                            deadline)
        op = result["ops"][0] if result else {"error": err}
        if "error" in op:
            raise RuntimeError(f"{case_key(case)}: {op['error']}")
        tot, m = op["total"], op["margins"]
        reps = op["items"]["lattice.enumerate_canonical"]
        rows.append(
            f"| {case_key(case)} | {m['ball_points']:,} | "
            f"{ms(tot['kernel.remainder_extrema'])} ms | "
            f"{ms(tot['sums.build_Q.l2'])} / {ms(tot['sums.build_Q.l4'])} ms | "
            f"{ms(tot['sums.extremize_Q.l2'])} / "
            f"{ms(tot['sums.extremize_Q.l4'])} ms | "
            f"{tot['certify.search_sup_Km']:.2f} s ({reps:,}) | "
            f"{tot['staged']:.2f} s |"
        )
    return rows


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline-table", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "advbounds" / "__init__.py").is_file():
        print(f"error: no advbounds package under {SRC}", file=sys.stderr)
        return 2
    if args.baseline_table:
        print("\n".join(baseline_table()))
        print(json.dumps({"provenance": provenance(None)}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), references, spec)
        print("\n".join(lines))
        results[name] = result
    print(json.dumps({"provenance": provenance(args.seed)}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
