"""``python3 -m bench selftest``: the benchmark checking itself.

Not part of the repository's test suite (this PR may add no test there);
run it after editing anything under ``bench/``.  It checks that

- span self times add up to the enclosing region's duration, exactly;
- installing and restoring the wrappers leaves every attribute as found;
- a target wrapped where nobody looks it up -- a function another module
  imported by value, a method ``SaladLeaf`` already bound to an instance --
  is reported as never called instead of reading as 0 s;
- a target whose code is gone makes its metrics absent, not an error;
- ``BENCHMARK.json`` and the benchmark's own tables agree and stay within
  the limits of the benchmark contract.
"""

from __future__ import annotations

import importlib
import random
import re
from typing import Callable, List

from bench import layers, runner, trace, workloads
from bench.workloads.base import Recorder

_MISSING = object()


class FakeClock:
    """A clock that advances only when told to, so sums are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def check_self_times_add_up() -> List[str]:
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def leaf_work() -> None:
        clock.advance(2.0)

    inner = tracer.wrap(leaf_work, "inner", "layer.inner")

    def outer_work() -> None:
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(0.5)

    outer = tracer.wrap(outer_work, "outer", "layer.outer", coarse=True)
    with tracer.region("phase", "timed"):
        clock.advance(0.25)  # the benchmark's own time: unattributed
        with tracer.span("wave", op=0):
            outer()
        outer()
    region = tracer.regions[0]
    attributed = sum(delta[layers.SELF] for delta in region["layers"].values())
    problems = []
    if region["duration_s"] != 11.25:
        problems.append(f"region duration {region['duration_s']} != 11.25")
    if attributed + region["self_s"] != region["duration_s"]:
        problems.append(f"self times {attributed} + {region['self_s']} != {region['duration_s']}")
    if region["self_s"] != 0.25:
        problems.append(f"unattributed {region['self_s']} != 0.25")
    if tracer.by_key()["layer.outer"][layers.SELF] != 3.0:
        problems.append("outer self time is not its duration minus its children")
    wave = next(span for span in tracer.spans if span[0] == "wave")
    first_outer = next(span for span in tracer.spans if span[0] == "outer")
    if tracer.spans[first_outer[3]] is not wave or first_outer[4] != 0:
        problems.append("a coarse span does not carry its parent and operation id")
    return problems


def _attribute(target: trace.Target):
    try:
        holder = importlib.import_module(target.module)
        if target.owner is not None:
            holder = getattr(holder, target.owner)
    except (ImportError, AttributeError):
        return _MISSING
    return vars(holder).get(target.attr, _MISSING)


def check_restore() -> List[str]:
    before = [_attribute(target) for target in trace.TARGETS]
    installation = trace.install(trace.Tracer())
    replaced = sum(_attribute(t) is not b for t, b in zip(installation.installed, before))
    installation.restore()
    after = [_attribute(target) for target in trace.TARGETS]
    problems = [
        f"{target.name} not restored"
        for target, old, new in zip(trace.TARGETS, before, after)
        if old is not new
    ]
    if not replaced:
        problems.append("install() replaced nothing")
    return problems


def _tiny_dfc_pass() -> None:
    from repro.experiments.dfc_run import DfcConfig
    from repro.farsite.dfc_pipeline import DfcPipeline
    from repro.workload import generator

    corpus = generator.generate_corpus(
        generator.CorpusSpec(machines=8, mean_files_per_machine=4, max_file_size=4096), seed=1
    )
    pipeline = DfcPipeline(corpus, DfcConfig(replication_factor=1, seed=1))
    pipeline.execute()
    pipeline.close_stores()


def check_never_called() -> List[str]:
    problems = []

    # A function the pipeline imported by value, wrapped in its defining module.
    by_value = trace.Target("repro.workload.content", None, "synthetic_content",
                            "workload.content", expect=("dfc-corpus",))
    right = trace.Target("repro.farsite.dfc_pipeline", None, "synthetic_content",
                         "workload.content", expect=("dfc-corpus",))
    installation = trace.install(trace.Tracer(), [by_value, right])
    try:
        _tiny_dfc_pass()
    finally:
        installation.restore()
    if installation.never_called("dfc-corpus") != [by_value.name]:
        problems.append("by-value import not detected: "
                        f"never_called = {installation.never_called('dfc-corpus')}")

    # A method SaladLeaf binds to an instance attribute when it is constructed,
    # wrapped only after the leaves exist.
    from bench import gen
    from bench.workloads import saladkit

    swapped = trace.Target("repro.salad.leaf", "SaladLeaf", "_store_record",
                           "salad.leaf.store", expect=("salad-insert",))
    for wrap_first in (True, False):
        tracer = trace.Tracer()
        installation = trace.install(tracer, [swapped]) if wrap_first else None
        salad = saladkit.new_salad()
        try:
            salad.build(16)
            if installation is None:
                installation = trace.install(tracer, [swapped])
            plan = gen.plan_wave(random.Random(1), 16, 2, 0)
            salad.insert_records(saladkit.materialize(plan, salad.alive_identifiers(), 1))
        finally:
            installation.restore()
            salad.shutdown()
        silent = installation.never_called("salad-insert")
        if wrap_first and silent:
            problems.append("wrapping before construction saw no _store_record call")
        if not wrap_first and silent != [swapped.name]:
            problems.append("method swapped at construction not detected as never called")
    return problems


def check_absent() -> List[str]:
    gone = trace.Target("repro.no_such_module", "Thing", "run", "sim.events.run")
    tracer = trace.Tracer()
    installation = trace.install(tracer, [gone])
    installation.restore()
    _, absent = layers.derive(Recorder(tracer), tracer, installation)
    if absent != ["sim.events.events", "sim.events.self_s"]:
        return [f"a missing module should make exactly its metrics absent, got {absent}"]
    return []


def check_manifest() -> List[str]:
    manifest = runner.load_manifest()
    problems = []
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    if sorted(manifest) != ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]:
        problems.append(f"unexpected keys: {sorted(manifest)}")
    if [w["name"] for w in manifest["workloads"]] != list(workloads.MODULES):
        problems.append("workloads differ from bench.workloads.MODULES")
    if [m["name"] for m in manifest["per_layer"]] != list(layers.DERIVATIONS):
        problems.append("per_layer names differ from bench.layers.DERIVATIONS")
    gated = [m["name"] for m in manifest["end_to_end"]]
    if "setup_s" not in gated:
        problems.append("setup_s is not an end-to-end metric")
    if set(gated) & set(runner.SCOPED_METRICS):
        problems.append("a scoped metric is also in BENCHMARK.json")
    names = [w["name"] for w in manifest["workloads"]] + gated + list(layers.DERIVATIONS)
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    problems += [f"bad name {name!r}" for name in names if not name_ok.match(name)]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        if not unit_ok.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r} on {metric['name']}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"bad direction on {metric['name']}")
    problems += [f"bound of {m['name']} outside [0, 0.25]" for m in manifest["end_to_end"]
                 if not 0 <= m["bound"] <= 0.25]
    problems += [f"why of {w['name']} too long or multi-line" for w in manifest["workloads"]
                 if len(w["why"]) > 200 or "\n" in w["why"]]
    if not (len(manifest["end_to_end"]) <= 16 and len(manifest["per_layer"]) <= 128):
        problems.append("too many metrics")
    return problems


CHECKS: List[Callable[[], List[str]]] = [
    check_self_times_add_up, check_restore, check_never_called, check_absent, check_manifest,
]


def main() -> int:
    failed = 0
    for check in CHECKS:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {check.__name__}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0
