"""``python3 -m bench compare BEFORE.json AFTER.json``

Compares two results files written by ``bench run``, one row per (workload,
metric), against the regression bound fixed in ``BENCHMARK.json`` (or, for
the metrics only some workloads have, in ``runner.SCOPED_METRICS``).  Each
side may hold several runs of a workload (seeds or repeats); medians are
compared and the run-to-run spread decides whether the comparison means
anything:

- ``REGRESSION``: the median got worse by more than the bound, and either
  the spread is within the bound or every run after is worse than every run
  before;
- ``unresolved``: the spread on either side exceeds the bound, so "no
  worse" cannot be claimed -- unless every run after beats every run before;
- ``ok`` otherwise.

Per-layer metrics have no bound and are listed with their change only.  A
changed ``workload_digest`` means the two sides did not measure the same
inputs, which voids the comparison.  Exit code 1 on a regression or voided
comparison, else 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench import runner

Key = Tuple[str, str]  # (workload, mode)

#: Runs per side from which "every run after beats every run before" may
#: override a spread wider than the bound.
DECISIVE_RUNS = 4


def load_runs(path: Path) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def values_by_metric(runs: List[dict]) -> Dict[Key, Dict[str, List[float]]]:
    grouped: Dict[Key, Dict[str, List[float]]] = {}
    for run in runs:
        metrics = grouped.setdefault((run["workload"], run["mode"]), {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return grouped


def spread_of(values: List[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median; None for a single run.

    Interquartile distance from four runs up (``statistics.quantiles`` as
    the contract computes it), the full range for two or three.
    """
    center = statistics.median(values)
    if len(values) < 2 or center == 0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(center)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(center)


def worsening(before: float, after: float, better: str) -> float:
    """How much worse *after* is, as a share of *before* (negative = better)."""
    worse = after - before if better == "lower" else before - after
    if before == 0:
        return 0.0 if worse == 0 else float("inf") if worse > 0 else float("-inf")
    return worse / abs(before)


def larger_spread(before: List[float], after: List[float]) -> Optional[float]:
    spreads = [s for s in (spread_of(before), spread_of(after)) if s is not None]
    return max(spreads) if spreads else None


def verdict(before: List[float], after: List[float], worse: float,
            spread: Optional[float], better: str, bound: float) -> str:
    if spread is None or spread <= bound:
        return "REGRESSION" if worse > bound else "ok"
    if min(len(before), len(after)) < DECISIVE_RUNS:
        return "unresolved"  # too few runs for "every run better / worse" to mean much
    if better == "lower":
        all_better, all_worse = max(after) < min(before), min(after) > max(before)
    else:
        all_better, all_worse = min(after) > max(before), max(after) < min(before)
    if all_worse and worse > bound:
        return "REGRESSION"
    return "ok" if all_better else "unresolved"


def digest_notes(before: List[dict], after: List[dict]) -> Tuple[List[str], bool]:
    """Digest changes between runs of the same (workload, mode, seed)."""
    notes: List[str] = []
    voided = False
    index = {(run["workload"], run["mode"], run["seed"]): run for run in before}
    for run in after:
        twin = index.get((run["workload"], run["mode"], run["seed"]))
        if twin is None:
            continue
        label = f"{run['workload']} [{run['mode']}, seed {run['seed']}]"
        if twin["workload_digest"] != run["workload_digest"] or twin["sizes"] != run["sizes"]:
            notes.append(f"{label}: inputs differ (workload_digest or sizes) -- comparison void")
            voided = True
        elif twin["sim_digest"] != run["sim_digest"]:
            notes.append(f"{label}: sim_digest changed -- simulated behaviour is not the same")
    return notes, voided


def main(before_path: Path, after_path: Path) -> int:
    table = runner.metric_table(runner.load_manifest())
    before_runs, after_runs = load_runs(before_path), load_runs(after_path)
    before, after = values_by_metric(before_runs), values_by_metric(after_runs)
    regressions = unresolved = 0
    print(f"{'workload':<14} {'metric':<38} {'before':>12} {'after':>12} {'worse by':>9} "
          f"{'spread':>8} {'bound':>7}  verdict")
    for key in sorted(set(before) & set(after)):
        workload, mode = key
        for name in before[key]:
            if name not in after[key]:
                continue
            spec = table[name]
            a, b = before[key][name], after[key][name]
            if "bound" not in spec and not any(a) and not any(b):
                continue  # a layer this workload does not touch
            worse = worsening(statistics.median(a), statistics.median(b), spec["better"])
            spread = larger_spread(a, b)
            if "bound" in spec:
                word = verdict(a, b, worse, spread, spec["better"], spec["bound"])
                bound = f"{spec['bound']:.1%}"
            else:
                word = bound = "-"  # per-layer: no bound, change only
            regressions += word == "REGRESSION"
            unresolved += word == "unresolved"
            shown_spread = "n=1" if spread is None else f"{spread:.1%}"
            print(f"{workload:<14} {name:<38} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse:>+9.1%} {shown_spread:>8} {bound:>7}  {word}")
    notes, voided = digest_notes(before_runs, after_runs)
    for note in notes:
        print(f"# {note}")
    print(f"# {regressions} regressions, {unresolved} unresolved, "
          f"{'comparison void' if voided else 'same inputs'}")
    return 1 if regressions or voided else 0
