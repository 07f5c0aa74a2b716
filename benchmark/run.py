#!/usr/bin/env python3
"""The gkeys benchmark: one command that builds gkeys_bench, runs the
workloads, checks their outputs and prints every metric with its unit.

  python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace 0|1]
      Runs one workload, or all of them one after another. With --trace 1
      it also writes benchmark/out/trace-<workload>.json (Chrome trace
      events, viewable in Perfetto), prints each layer's self time and
      reports the per-layer metrics instead of the end-to-end ones. The
      last line of stdout is one JSON object:
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

  python3 benchmark/run.py sweep --runs N --out FILE [--seconds S]
      A run set: every workload on seeds 1..N untraced, plus one traced
      run per workload on seed 42, saved as JSON.

  python3 benchmark/run.py compare A.json B.json
      For every workload and end-to-end metric, the ratio of B's median to
      A's against the metric's bound in BENCHMARK.json. Exits 1 on a
      regression.

Workloads, metrics and caveats: benchmark/README.md.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Seed-42 fingerprints (FNV-1a-64) of every workload's graph text and delta
# stream: numbers measured on other inputs are not comparable.
FINGERPRINTS = json.loads((BENCH / "fingerprints.json").read_text())
PINNED_SEED = 42
LAYERS = ("io", "graph", "plan", "engine", "ingest", "storage")
MAX_UNATTRIBUTED = 0.10
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds gkeys_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no gkeys sources next to {BENCH.name}/ "
                         f"(expected {ROOT / 'CMakeLists.txt'})")
    cmake_dir = BUILD / "cmake"
    try:
        if not (cmake_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(BENCH), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(cmake_dir), "--target", "gkeys_bench",
             "-j", "3"],
            check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}") from e
    return cmake_dir / "gkeys_bench"


def analyse_trace(path):
    """Self time per layer over the ops inside the timed window.

    A span's self time is its duration minus its children's; a layer's is
    the sum over its spans. The ops' own self time is gkeys_bench's glue
    between calls: the unattributed remainder.
    """
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    children = defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            children[e["args"]["parent"]] += e["dur"]
    window_ops = {e["args"]["op"] for e in events
                  if e["args"]["parent"] < 0 and e["args"]["window"]}
    op_total = sum(e["dur"] for e in events
                   if e["args"]["parent"] < 0 and e["args"]["window"])
    self_us = defaultdict(float)
    for e in events:
        if e["args"]["op"] in window_ops:
            own = max(0.0, e["dur"] - children[e["args"]["id"]])
            self_us[e["name"].split(".")[0]] += own
    table = {layer: self_us[layer] / 1e6 for layer in LAYERS}
    table["unattributed"] = self_us["op"] / 1e6
    metrics = {f"{layer}.self_fraction": self_us[layer] / op_total
               for layer in LAYERS}
    metrics["unattributed_fraction"] = self_us["op"] / op_total
    return table, op_total / 1e6, metrics


def run_workload(binary, name, seed, seconds, trace):
    """Runs one workload in its own process and checks what it reports."""
    trace_file = OUT / f"trace-{name}.json"
    cmd = [str(binary), f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}", f"--workdir={BUILD / 'work' / name}"]
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={trace_file}")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name}: gkeys_bench ran over {RUN_TIMEOUT_S} s") \
            from e
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: gkeys_bench printed nothing "
                         f"(exit {proc.returncode})")
    out = json.loads(lines[-1])
    errors = [] if out["ok"] else [out["error"]]
    if proc.returncode != 0 and out["ok"]:
        errors.append(f"gkeys_bench exited {proc.returncode}")
    if seed == PINNED_SEED and out["fingerprint"] != FINGERPRINTS[name]:
        errors.append(f"inputs differ from the pinned seed-{PINNED_SEED} "
                      f"inputs: {out['fingerprint']} vs {FINGERPRINTS[name]}")
    table = None
    if trace and out["ok"]:
        table, op_s, layer_metrics = analyse_trace(trace_file)
        out["per_layer"].update(layer_metrics)
        if layer_metrics["unattributed_fraction"] >= MAX_UNATTRIBUTED:
            errors.append(
                f"unattributed_fraction "
                f"{layer_metrics['unattributed_fraction']:.3f} is not "
                f"below {MAX_UNATTRIBUTED}")
        table["window_ops"] = op_s
    return {"workload": name, "seed": seed, "trace": bool(trace),
            "correct": not errors, "errors": errors,
            "attempted": out["attempted"], "failed": out["failed"],
            "end_to_end": out["end_to_end"], "per_layer": out["per_layer"],
            "info": out["info"], "self_time_s": table,
            "wall_s": time.monotonic() - start}


def reported(run):
    """The metrics BENCHMARK.json lists for this kind of run, with units."""
    specs = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
    values = run["per_layer"] if run["trace"] else run["end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and run["correct"]:
        raise BenchError(f"{run['workload']}: gkeys_bench did not report "
                         f"{', '.join(missing)}")
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in specs}


def print_run(run):
    name = run["workload"]
    sizes = ", ".join(f"{k}={v:g}" for k, v in sorted(run["info"].items()))
    print(f"== {name} (seed {run['seed']}; {sizes})")
    for metric, m in reported(run).items():
        print(f"  {name:<14} {metric:<36} {m['value']:>16.6g} {m['unit']}")
    if run["self_time_s"]:
        total = run["self_time_s"]["window_ops"]
        print(f"  self time over {total:.3f} s of timed ops:")
        for layer in (*LAYERS, "unattributed"):
            s = run["self_time_s"][layer]
            print(f"    {layer:<14} {s:>10.4f} s {100 * s / total:>6.1f} %")
    for e in run["errors"]:
        print(f"  ERROR {e}")


def main_run(argv):
    parser = argparse.ArgumentParser(
        description="Build and run the gkeys benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    binary = build()
    names = [args.workload] if args.workload else WORKLOADS
    runs = [run_workload(binary, n, args.seed, args.seconds, args.trace)
            for n in names]
    for run in runs:
        print_run(run)
    if args.workload:
        metrics = reported(runs[0])
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in runs for k, v in reported(r).items()}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def series(run_set, workload, metric):
    return [r["end_to_end"][metric] for r in run_set["runs"]
            if r["workload"] == workload and not r["trace"]]


def main_sweep(argv):
    parser = argparse.ArgumentParser(prog="run.py sweep")
    parser.add_argument("--runs", type=int, required=True,
                        help="untraced runs per workload, seeds 1..N")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    binary = build()
    runs = []
    for seed in range(1, args.runs + 1):
        for name in WORKLOADS:
            runs.append(run_workload(binary, name, seed, args.seconds, 0))
            print(f"{name} seed {seed}: "
                  f"{'ok' if runs[-1]['correct'] else runs[-1]['errors']}",
                  file=sys.stderr)
    for name in WORKLOADS:
        runs.append(run_workload(binary, name, PINNED_SEED, args.seconds, 1))
        print_run(runs[-1])
    run_set = {"run_seconds": args.seconds, "runs": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(run_set, indent=1) + "\n")

    print(f"{'workload':<14} {'metric':<26} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for name in WORKLOADS:
        for m in SPEC["end_to_end"]:
            values = series(run_set, name, m["name"])
            print(f"{name:<14} {m['name']:<26} "
                  f"{statistics.median(values):>12.6g} "
                  f"{spread(values):>8.4f} {m['bound']:>6}")
    correct = all(r["correct"] for r in runs)
    return 0 if correct else 1


def main_compare(argv):
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base", type=Path, help="run set of the parent")
    parser.add_argument("change", type=Path, help="run set of the change")
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    change = json.loads(args.change.read_text())

    failures = []
    for label, run_set in (("base", base), ("change", change)):
        if not all(r["correct"] for r in run_set["runs"]):
            failures.append(f"{label} run set has incorrect runs")
    print(f"{'workload':<14} {'metric':<26} {'base':>12} {'change':>12} "
          f"{'ratio':>7} {'bound':>6} {'spread':>7}  verdict")
    for name in WORKLOADS:
        for m in SPEC["end_to_end"]:
            a = series(base, name, m["name"])
            b = series(change, name, m["name"])
            med_a, med_b = statistics.median(a), statistics.median(b)
            lower = m["better"] == "lower"
            worse = (med_b - med_a) / med_a if lower else \
                (med_a - med_b) / med_a
            widest = max(spread(a), spread(b))
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            all_worse = (min(b) > max(a)) if lower else (max(b) < min(a))
            if widest > m["bound"] and not (all_better or all_worse):
                verdict = "unresolved (spread wider than bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                failures.append(f"{name} {m['name']}: {100 * worse:.1f}% "
                                f"worse, bound {100 * m['bound']:.0f}%")
            else:
                verdict = "better" if worse < 0 else "ok"
            print(f"{name:<14} {m['name']:<26} {med_a:>12.6g} "
                  f"{med_b:>12.6g} {med_b / med_a:>7.3f} {m['bound']:>6} "
                  f"{widest:>7.4f}  {verdict}")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


def main(argv):
    commands = {"sweep": main_sweep, "compare": main_compare}
    try:
        if argv and argv[0] in commands:
            return commands[argv[0]](argv[1:])
        return main_run(argv)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
