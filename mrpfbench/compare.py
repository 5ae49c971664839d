#!/usr/bin/env python3
"""Runs sets of benchmark runs and compares two sets.

  python3 mrpfbench/compare.py run DIR [--seeds 1-10] [--workloads grid,...] [--trace 0|1]
      Runs the command of BENCHMARK.json once per workload and seed, from
      the current directory (a checkout's root), and saves each result line
      as DIR/<workload>-<seed>-t<trace>.json.

  python3 mrpfbench/compare.py compare DIR_A [DIR_B]
      Prints, per workload and metric, each set's median and quartiles
      (statistics.quantiles, n=4), its spread (quartile distance over the
      median) and, with two sets, how much worse B's median is than A's,
      all against the metric's bound from BENCHMARK.json; then each set's
      share of failed operations.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(args):
    out = Path(args[0])
    opts = dict(zip(args[1::2], args[2::2]))
    bench = json.loads(BENCHMARK.read_text())
    workloads = opts.get("--workloads", ",".join(w["name"] for w in bench["workloads"])).split(",")
    trace = opts.get("--trace", "0")
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in seeds_of(opts.get("--seeds", "1-10")):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", trace]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            (out / f"{workload}-{seed}-t{trace}.json").write_text(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {lines[-1][:150]}", flush=True)


def load(directory):
    runs = {}
    for f in sorted(Path(directory).glob("*.json")):
        workload = f.stem.rsplit("-", 2)[0]
        runs.setdefault(workload, []).append(json.loads(f.read_text()))
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def compare(args):
    bench = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(d) for d in args]
    for workload in sorted(set().union(*sets)):
        print(f"\n== {workload}")
        print(f"{'metric':28} " + " ".join(
            f"{'median [q1, q3] spread':>40}" for _ in sets) + "   bound  verdict")
        names = sorted({n for s in sets for r in s.get(workload, []) for n in r["metrics"]})
        for name in names:
            m = metrics.get(name, {})
            bound = m.get("bound")
            cells, medians, verdict = [], [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s.get(workload, [])
                          if name in r["metrics"]]
                if len(values) < 2:
                    cells.append(f"{'(fewer than 2 runs)':>40}")
                    medians.append(None)
                    continue
                q1, q2, q3, spread = summary(values)
                medians.append(q2)
                cells.append(f"{q2:>12.6g} [{q1:.6g}, {q3:.6g}] {spread:6.1%}")
                if bound is not None and name != "setup_s" and spread > bound:
                    verdict.append("spread>bound")
            if bound is not None and len(medians) == 2 and None not in medians and medians[0]:
                worse = (medians[1] - medians[0]) / medians[0]
                if m.get("better") == "higher":
                    worse = -worse
                verdict.append(f"worse {worse:+.1%}" + (" REGRESSION" if worse > bound else ""))
            print(f"{name:28} " + " ".join(cells)
                  + (f"  {bound:6.3f}" if bound is not None else "       -") + "  " + " ".join(verdict))
        for label, s in zip("AB", sets):
            rs = s.get(workload, [])
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            correct = all(r["correct"] for r in rs)
            print(f"set {label}: {len(rs)} runs, {failed}/{attempted} failed, correct={correct}")


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run_set(sys.argv[2:])
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "compare":
        compare(sys.argv[2:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
