#!/usr/bin/env python3
"""Perf-regression gate over the bench trajectory.

Dispatches on the fresh report's shape.

``bench == "summary"`` (the default) compares a freshly generated
``BENCH_summary.json`` against the committed baseline
``ci/bench_baseline.json`` and fails (exit 1) when the synthesis quality
regressed:

* any ``reduction_pct`` entry DROPS by more than 0.5 percentage points
  (these are "how much smaller than the reference" numbers — bigger is
  better), or
* ``adders_per_tap_w16`` RISES by more than 2 % relative (smaller is
  better).

Wall-clock fields (``jobs``, ``elapsed_ms``) are ignored: the gate guards
quality, not machine speed.

A benchmark result line (the last line of ``bash mrpfbench/run.sh
--workload serve-zipf ... --trace 0``: an object with ``correct``,
``failed`` and ``metrics`` and no ``bench`` field) is gated against the
baseline's ``serve`` section — exact hardware counts, a throughput floor
and latency ceilings generous enough for noisy CI runners:

* ``correct`` is true and ``failed`` is 0: every response was a 200
  that matched offline synthesis,
* ``adders_total`` and ``depth_total`` equal the baseline's counts,
* ``throughput_per_s`` is at least ``min_throughput_per_s``, and
* ``latency_ms.p50`` and ``latency_ms.p90`` stay at or below their
  ceilings.

``bench == "sim"`` gates a fresh ``BENCH_sim.json`` (from ``bench_sim``)
against the baseline's ``sim`` section:

* ``speedup_compiled_vs_tree`` stays at or above
  ``min_speedup_compiled_vs_tree`` (a floor well under the committed
  number, to absorb CI-runner noise),
* ``speedup_compiled_vs_vsim`` stays at or above
  ``min_speedup_compiled_vs_vsim``, and
* at least ``min_equivalence_checks`` bit-exactness cross-checks backed
  the published rates.

The summary path additionally gates the exact-solver optimality-gap
sweep against the baseline's ``gap`` section (hand-maintained limits):

* every ``optimality_gap`` row satisfies ``exact_adders <=
  greedy_adders`` (the branch-and-bound search is seeded with the
  greedy incumbent, so exact can never be worse — a violation means the
  solver or its realization is broken),
* ``gap.mean_gap_pct`` stays at or below ``max_mean_gap_pct`` and
  ``gap.max_gap_pct`` at or below ``max_max_gap_pct``,
* at least ``min_proven_optimal`` filters report ``proven_optimal``,
  over at least ``min_filters`` filters.

To accept an intentional quality change, refresh the summary metrics in
the baseline in the same commit and say why; the ``serve``, ``sim`` and
``gap`` sections are hand-maintained ceilings/floors, so carry them over
rather than plain-``cp``-ing:

    python3 -c "
    import json
    with open('ci/bench_baseline.json') as f: old = json.load(f)
    with open('BENCH_summary.json') as f: new = json.load(f)
    new['serve'] = old['serve']
    new['sim'] = old['sim']
    new['gap'] = old['gap']
    with open('ci/bench_baseline.json', 'w') as f: json.dump(new, f)
    "

Usage: check_bench_regression.py <fresh.json> [<baseline.json>]
"""

import json
import sys

REDUCTION_DROP_PP = 0.5     # max tolerated drop, percentage points
ADDERS_PER_TAP_RISE = 0.02  # max tolerated relative rise


def load(path):
    with open(path) as f:
        return json.load(f)


def check_serve(fresh, baseline):
    """Gates a serve-zipf result line against baseline["serve"]."""
    limits = baseline.get("serve")
    if not limits:
        print("baseline has no `serve` section — cannot gate a serve result")
        return 1

    def metric(name):
        value = fresh["metrics"].get(name, {}).get("value")
        return value if isinstance(value, (int, float)) else None

    checks = [
        ("correct", fresh.get("correct"), "is", True),
        ("failed", fresh.get("failed"), "==", 0),
        ("adders_total", metric("adders_total"), "==", limits["adders_total"]),
        ("depth_total", metric("depth_total"), "==", limits["depth_total"]),
        (
            "throughput_per_s",
            metric("throughput_per_s"),
            ">=",
            limits["min_throughput_per_s"],
        ),
        ("latency_ms.p50", metric("latency_ms.p50"), "<=", limits["max_latency_ms_p50"]),
        ("latency_ms.p90", metric("latency_ms.p90"), "<=", limits["max_latency_ms_p90"]),
    ]
    failures = []
    for name, value, cmp, bound in checks:
        if cmp == "is":
            ok = value is bound
        elif value is None:
            ok = False
        elif cmp == "==":
            ok = value == bound
        elif cmp == ">=":
            ok = value >= bound
        else:
            ok = value <= bound
        status = "ok" if ok else "REGRESSED"
        if not ok:
            failures.append(f"{name}: {value} ({cmp} {bound} required)")
        print(f"  {name:<18} {value!s:>12}  ({cmp} {bound}) {status}")

    if failures:
        print(f"\nSERVE PERF GATE FAILED — {len(failures)} problem(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nserve perf gate passed: {len(checks)} check(s)")
    return 0


def check_sim(fresh, baseline):
    """Gates a BENCH_sim.json against baseline["sim"] speedup floors."""
    limits = baseline.get("sim")
    if not limits:
        print("baseline has no `sim` section — cannot gate a sim report")
        return 1

    failures = []
    checked = 0

    for field, floor_key in [
        ("speedup_compiled_vs_tree", "min_speedup_compiled_vs_tree"),
        ("speedup_compiled_vs_vsim", "min_speedup_compiled_vs_vsim"),
        ("equivalence_checks", "min_equivalence_checks"),
    ]:
        floor = limits[floor_key]
        value = fresh.get(field, 0)
        checked += 1
        status = "ok"
        if not isinstance(value, (int, float)) or value < floor:
            status = "REGRESSED"
            failures.append(f"{field}: {value} (floor {floor})")
        print(f"  {field:<28} {value:>12} (floor {floor}) {status}")

    if checked == 0:
        print("sim gate checked nothing — baseline or fresh report is malformed")
        return 1
    if failures:
        print(f"\nSIM PERF GATE FAILED — {len(failures)} problem(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nsim perf gate passed: {checked} metric(s) above floors")
    return 0


def check_gap(fresh, baseline, failures):
    """Gates the optimality-gap sweep against baseline["gap"] limits.

    Returns the number of checks performed (0 when the baseline has no
    ``gap`` section, which keeps pre-gap baselines working).
    """
    limits = baseline.get("gap")
    if not limits:
        return 0

    checked = 0
    rows = fresh.get("optimality_gap", [])
    stats = fresh.get("gap", {})

    checked += 1
    if len(rows) < limits["min_filters"]:
        failures.append(
            f"optimality_gap covers {len(rows)} filter(s), "
            f"floor {limits['min_filters']}"
        )
    print(f"  gap.filters{'':>24} {len(rows):>6}  (floor {limits['min_filters']})")

    for row in rows:
        checked += 1
        greedy, exact = row.get("greedy_adders"), row.get("exact_adders")
        status = "ok"
        if not isinstance(exact, int) or not isinstance(greedy, int) or exact > greedy:
            status = "REGRESSED"
            failures.append(
                f"optimality_gap example {row.get('example')}: exact_adders "
                f"{exact} exceeds greedy_adders {greedy} — the search is "
                f"seeded with the greedy incumbent, so this cannot happen "
                f"in a correct solver"
            )
        print(
            f"  gap.example {row.get('example'):>2}  greedy {greedy:>3} "
            f"exact {exact!s:>4}  {status}"
        )

    for field, limit_key, cmp in [
        ("mean_gap_pct", "max_mean_gap_pct", "<="),
        ("max_gap_pct", "max_max_gap_pct", "<="),
        ("proven_optimal_filters", "min_proven_optimal", ">="),
    ]:
        bound = limits[limit_key]
        value = stats.get(field)
        checked += 1
        ok = isinstance(value, (int, float)) and (
            value <= bound if cmp == "<=" else value >= bound
        )
        status = "ok" if ok else "REGRESSED"
        if not ok:
            failures.append(f"gap.{field}: {value} ({cmp} {bound} required)")
        print(f"  gap.{field:<30} {value!s:>8}  ({cmp} {bound}) {status}")

    return checked


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    fresh_path = argv[1]
    baseline_path = argv[2] if len(argv) > 2 else "ci/bench_baseline.json"
    fresh = load(fresh_path)
    baseline = load(baseline_path)

    if "bench" not in fresh and "metrics" in fresh:
        return check_serve(fresh, baseline)
    if fresh.get("bench") == "sim":
        return check_sim(fresh, baseline)

    failures = []
    checked = 0

    base_red = baseline.get("reduction_pct", {})
    fresh_red = fresh.get("reduction_pct", {})
    missing = sorted(set(base_red) - set(fresh_red))
    if missing:
        failures.append(f"reduction_pct keys vanished from the fresh report: {missing}")
    for key in sorted(set(base_red) & set(fresh_red)):
        old, new = base_red[key], fresh_red[key]
        checked += 1
        delta = new - old
        status = "ok"
        if delta < -REDUCTION_DROP_PP:
            status = "REGRESSED"
            failures.append(
                f"reduction_pct.{key}: {old:.3f} -> {new:.3f} "
                f"({delta:+.3f} pp, tolerance -{REDUCTION_DROP_PP} pp)"
            )
        print(f"  reduction_pct.{key:<28} {old:9.3f} -> {new:9.3f}  ({delta:+.3f} pp) {status}")

    if "adders_per_tap_w16" in baseline:
        old = baseline["adders_per_tap_w16"]
        new = fresh.get("adders_per_tap_w16")
        checked += 1
        if new is None:
            failures.append("adders_per_tap_w16 vanished from the fresh report")
        else:
            rise = (new - old) / old if old else 0.0
            status = "ok"
            if rise > ADDERS_PER_TAP_RISE:
                status = "REGRESSED"
                failures.append(
                    f"adders_per_tap_w16: {old:.6f} -> {new:.6f} "
                    f"({rise:+.2%}, tolerance +{ADDERS_PER_TAP_RISE:.0%})"
                )
            print(f"  adders_per_tap_w16{'':>13} {old:9.6f} -> {new:9.6f}  ({rise:+.2%}) {status}")

    checked += check_gap(fresh, baseline, failures)

    if checked == 0:
        print("gate checked nothing — baseline or fresh report is malformed")
        return 1
    if failures:
        print(f"\nPERF GATE FAILED — {len(failures)} regression(s):")
        for f in failures:
            print(f"  - {f}")
        print(
            "\nIf this change is intentional, refresh the baseline in the same\n"
            "commit, carrying over the hand-maintained serve/sim/gap sections\n"
            "(see the module docstring for the recipe)."
        )
        return 1
    print(f"\nperf gate passed: {checked} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
