"""salad-insert: the paper's core loop (Fig. 4) against the in-memory store."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List

from bench import gen, layers
from bench.workloads import saladkit
from bench.workloads.base import Recorder, lower_quartile, median, per_second

NAME = "salad-insert"


def sizes(seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"leaves": 256, "per_leaf": 5, "waves": 2, "lookups": 2000}
    return {
        "leaves": 1024,
        "per_leaf": 5,
        "waves": max(2, round(0.7 * seconds)),
        "lookups": int(2000 * seconds),
    }


@dataclass
class State:
    sizes: dict
    seed: int
    salad: object
    waves: List[saladkit.Batches]
    digest: gen.Digest


def setup(seed: int, sizes: dict, workdir: Path) -> State:
    rng = random.Random(seed)
    digest = gen.Digest()
    plans = saladkit.plan_waves(rng, sizes["leaves"], sizes["per_leaf"], sizes["waves"], digest)
    salad = saladkit.new_salad()
    salad.build(sizes["leaves"])
    identifiers = salad.alive_identifiers()
    waves = [saladkit.materialize(plan, identifiers, seed) for plan in plans]
    return State(sizes, seed, salad, waves, digest)


def measure(state: State, rec: Recorder) -> None:
    salad, sizes = state.salad, state.sizes
    wave_s = saladkit.insert_waves(salad, state.waves, rec)
    per_wave = sizes["leaves"] * sizes["per_leaf"]
    rec.metrics["inserts_per_s"] = per_second(per_wave, median(wave_s))
    rec.metrics["work_per_s"] = per_second(per_wave, lower_quartile(wave_s))
    saladkit.check_network(salad, rec)
    pairs = saladkit.stored_pairs(salad, rec)
    saladkit.lookup_phase(salad, pairs, random.Random(state.seed + 1), sizes["lookups"], rec)
    saladkit.audit_matches(salad, state.waves, rec)
    saladkit.salad_layer_facts(salad, wave_s, rec)


def after_trace(state: State, rec: Recorder) -> None:
    """Runs once the wrappers are restored, so forked shard workers carry none."""
    layers.sharded_probe(state.seed, state.sizes["leaves"] // 4, rec)


def discard(state: State) -> None:
    state.salad.shutdown()
