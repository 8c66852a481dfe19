"""salad-durable: the same engine on the paged write-ahead-log store.

The only workload where ``salad.storage`` dominates and where the working
set (over a thousand records per leaf) exceeds the store's own 512-record
cache.  It adds a crash of a quarter of the leaves with recovery from disk,
and a read phase beside the writes.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List

from repro.sim.failure import CrashRecoveryHarness

from bench import gen
from bench.workloads import saladkit
from bench.workloads.base import Recorder, lower_quartile, median, per_second

NAME = "salad-durable"
CRASH_SHARE = 0.25


def sizes(seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"leaves": 16, "per_leaf": 50, "waves": 2, "lookups": 2000}
    return {
        "leaves": 64,
        "per_leaf": 100,
        "waves": max(2, round(0.5 * seconds)),
        "lookups": int(2000 * seconds),
    }


@dataclass
class State:
    sizes: dict
    seed: int
    salad: object
    waves: List[saladkit.Batches]
    digest: gen.Digest
    db_dir: Path


def setup(seed: int, sizes: dict, workdir: Path) -> State:
    rng = random.Random(seed)
    digest = gen.Digest()
    plans = saladkit.plan_waves(rng, sizes["leaves"], sizes["per_leaf"], sizes["waves"], digest)
    db_dir = workdir / "db"
    salad = saladkit.new_salad(db_backend="wal-paged", db_dir=str(db_dir))
    salad.build(sizes["leaves"])
    identifiers = salad.alive_identifiers()
    waves = [saladkit.materialize(plan, identifiers, seed) for plan in plans]
    return State(sizes, seed, salad, waves, digest, db_dir)


def measure(state: State, rec: Recorder) -> None:
    salad, sizes = state.salad, state.sizes
    wave_s = saladkit.insert_waves(salad, state.waves, rec)
    per_wave = sizes["leaves"] * sizes["per_leaf"]
    rec.metrics["inserts_per_s"] = per_second(per_wave, median(wave_s))
    rec.metrics["work_per_s"] = per_second(per_wave, lower_quartile(wave_s))

    rng = random.Random(state.seed + 1)
    victims = rng.sample(list(salad.leaves.values()), round(CRASH_SHARE * len(salad.leaves)))
    harness = CrashRecoveryHarness()
    with rec.region("recover"):
        harness.crash(victims)
        with rec.timer("rejoin") as reopen:
            report = harness.rejoin()
    # Every wave was settled (flushed) before the crash, so nothing may be lost.
    rec.check(report.records_recovered, report.records_before,
              "settled records readable after crash + reopen")
    rec.metrics["recovered_fraction"] = report.recovered_fraction
    rec.sim["records_recovered"] = report.records_recovered
    rec.layer["salad.storage.reopen_s"] = reopen.elapsed

    saladkit.check_network(salad, rec)
    pairs = saladkit.stored_pairs(salad, rec)
    saladkit.lookup_phase(salad, pairs, rng, sizes["lookups"], rec)
    saladkit.audit_matches(salad, state.waves, rec)
    saladkit.salad_layer_facts(salad, wave_s, rec)
    for leaf in salad.leaves.values():
        leaf.database.flush()
    disk = sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(state.db_dir)
        for name in names
    )
    rec.layer["salad.storage.disk_bytes_per_record"] = disk / len(pairs)


def discard(state: State) -> None:
    state.salad.shutdown()
    shutil.rmtree(state.db_dir, ignore_errors=True)  # the next set-up starts from no files
