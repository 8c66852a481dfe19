"""Running the benchmark: one child process per (workload, mode, seed).

The parent generates nothing and measures nothing.  It starts each
(workload, mode) in a fresh child, one after another, so the child's peak
RSS and the program's process-wide caches (the keystream LRU, the class-level
``FarsiteClient._file_counter``) start clean, then checks, prints and stores
what the children report.

Mode ``plain`` runs with tracing off and yields the end-to-end metrics; mode
``traced`` re-runs the same inputs with :mod:`bench.trace` installed and
yields the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
WORK = ROOT / "bench" / ".work"

#: Set-ups per plain run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A child that runs longer than this is killed (the contract allows 180 s a run).
CHILD_TIMEOUT_S = 170.0
#: Children hash str and bytes keys identically on every run: per-process hash
#: randomization reshuffles every fingerprint-keyed dict and moves the
#: microsecond-scale lookups by a tenth for no reason a later change could fix.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

#: End-to-end metrics that only some workloads have.  ``BENCHMARK.json`` can
#: gate only what every workload reports, so these are printed, stored and
#: compared by ``bench compare`` under the bounds given here instead.
SCOPED_METRICS = {
    "inserts_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10},
    "recovered_fraction": {"unit": "share", "better": "higher", "bound": 0.0},
    "joins_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10},
    "churn_ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10},
    "corpus_mb_per_s": {"unit": "MB/s", "better": "higher", "bound": 0.10},
    "stored_bytes_per_user_byte": {"unit": "ratio", "better": "lower", "bound": 0.005},
    "write_mb_per_s": {"unit": "MB/s", "better": "higher", "bound": 0.10},
    "read_mb_per_s": {"unit": "MB/s", "better": "higher", "bound": 0.10},
    "write_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.10},
    "read_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.10},
    "failed_ops_share": {"unit": "share", "better": "lower", "bound": 0.0},
}


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_table(manifest: dict) -> Dict[str, dict]:
    """Every metric the benchmark knows: name -> unit, direction, bound."""
    table = {metric["name"]: metric for metric in manifest["end_to_end"]}
    table.update(SCOPED_METRICS)
    table.update({metric["name"]: metric for metric in manifest["per_layer"]})
    return table


# -- the child --------------------------------------------------------------------


def run_child(workload: str, mode: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Run one (workload, mode) in this process and return its report."""
    from bench import gen, layers, trace, workloads
    from bench.workloads.base import Recorder, median

    module = workloads.load(workload)
    sizes = module.sizes(seconds, smoke)
    traced = mode == "traced"
    tracer = trace.Tracer() if traced else None
    # Wrappers go in before any engine object exists: SaladLeaf binds some of
    # its methods to instance attributes when it is constructed.
    installation = trace.install(tracer) if traced else None
    rec = Recorder(tracer)
    workdir = WORK / f"{workload}-{os.getpid()}"
    state = None
    started = time.perf_counter()
    try:
        setup_s: List[float] = []
        for _ in range(1 if traced or smoke else SETUP_REPEATS):
            if state is not None:
                module.discard(state)
                state = None
            with rec.region("setup", kind="setup") as watch:
                state = module.setup(seed, sizes, workdir)
            setup_s.append(watch.elapsed)
        rec.metrics["setup_s"] = median(setup_s)
        module.measure(state, rec)
        workload_digest = state.digest.value()
    finally:
        if state is not None:
            module.discard(state)
        if installation is not None:
            installation.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload, "mode": mode, "seed": seed, "seconds": seconds,
        "smoke": smoke, "sizes": sizes, "timed_s": rec.timed_s,
        "sim_digest": gen.digest_of(rec.sim), "workload_digest": workload_digest,
    }
    if traced:
        silent = installation.never_called(workload)
        rec.check(int(not silent), 1, f"wrapped but never called: {', '.join(silent)}")
        if hasattr(module, "after_trace"):
            module.after_trace(state, rec)  # probes that must run unwrapped
        layers.bench_layer(rec, tracer)
        rec.layer["bench.sim_digest"] = report["sim_digest"]
        rec.layer["bench.workload_digest"] = workload_digest
        report["metrics"], report["absent"] = layers.derive(rec, tracer, installation)
        RESULTS.mkdir(parents=True, exist_ok=True)
        with open(RESULTS / f"trace-{workload}.json", "w") as handle:
            json.dump({**report, **tracer.to_json()}, handle)
    else:
        rec.metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rec.metrics["failed_ops_share"] = rec.failed / rec.attempted
        report["metrics"] = rec.metrics
    report.update(attempted=rec.attempted, failed=rec.failed, failures=rec.failures,
                  wall_s=time.perf_counter() - started)
    return report


# -- the parent -------------------------------------------------------------------


def spawn_child(workload: str, mode: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Run one child to completion and parse the report on its last line."""
    command = [sys.executable, "-m", "bench", "child", "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--seconds", repr(seconds)]
    if smoke:
        command.append("--smoke")
    # subprocess.run waits for the child and kills it on timeout, so no
    # process outlives this call.
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, env=CHILD_ENV)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}/{mode} child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "platform": platform.platform()}


def run(workloads: Iterable[str], modes: Iterable[str], seeds: Iterable[int],
        seconds: float, smoke: bool, out: Optional[Path]) -> int:
    """Run every (seed, workload, mode), print every metric, store one JSON.

    Returns the process exit code: 0 only if every output check passed.
    """
    manifest = load_manifest()
    table = metric_table(manifest)
    modes = list(modes)
    runs: List[dict] = []
    for seed in seeds:
        for workload in workloads:
            by_mode = {mode: spawn_child(workload, mode, seed, seconds, smoke) for mode in modes}
            plain, traced = by_mode.get("plain"), by_mode.get("traced")
            if plain and traced:
                # Same inputs, tracing on and off: the wall ratio *is* the overhead.
                traced["metrics"]["bench.trace_overhead_share"] = (
                    traced["timed_s"] / plain["timed_s"] - 1.0
                )
                same = int(plain["sim_digest"] == traced["sim_digest"]
                           and plain["workload_digest"] == traced["workload_digest"])
                traced["attempted"] += 1
                traced["failed"] += 1 - same
                if not same:
                    traced["failures"].append("traced run diverged from the plain run")
            for report in by_mode.values():
                runs.append(report)
                print_report(report, table)
    target = out or RESULTS / "last-run.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as handle:
        json.dump({"host": host_facts(), "runs": runs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(report["failed"] for report in runs)
    print(f"# {len(runs)} runs, {failed} failed checks, results in "
          f"{os.path.relpath(target, os.getcwd())}")
    if len(runs) == 1:
        print(contract_line(runs[0], manifest))
    return 1 if failed else 0


def print_report(report: dict, table: Dict[str, dict]) -> None:
    head = f"{report['workload']} [{report['mode']}, seed {report['seed']}]"
    print(f"# {head}: {report['attempted']} outputs checked, {report['failed']} failed, "
          f"{report['wall_s']:.1f} s wall")
    for failure in report["failures"]:
        print(f"#   FAILED {failure}")
    absent = set(report.get("absent", ()))
    for name, value in report["metrics"].items():
        shown = ("absent" if name in absent
                 else str(int(value)) if table[name]["unit"] == "hash" else f"{value:.6g}")
        print(f"{report['workload']:<14} {name:<38} {shown:>16} {table[name]['unit']}")


def contract_line(report: dict, manifest: dict) -> str:
    """The one-line result the benchmark contract asks for."""
    section = "per_layer" if report["mode"] == "traced" else "end_to_end"
    metrics = {
        metric["name"]: {"value": report["metrics"][metric["name"]], "unit": metric["unit"]}
        for metric in manifest[section]
    }
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})
