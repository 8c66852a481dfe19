"""salad-growth: the SALAD layers exercised as membership writes.

Joins (Fig. 5), width recalculation (Fig. 6), clean departures and one
refresh round (section 4.5) instead of record inserts; storage and crypto
are bypassed.  A two-records-per-leaf probe wave at the end shows whether the
grown, churned and partly crashed SALAD still finds duplicates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

from repro.salad.maintenance import RefreshDriver

from bench import gen
from bench.workloads import saladkit
from bench.workloads.base import Recorder, lower_quartile, per_second

NAME = "salad-growth"
CRASH_FRACTION = 0.02
PROBE_PER_LEAF = 2
JOIN_CHUNK = 32


def sizes(seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"start": 64, "stages": [128, 256], "churn": 8, "lookups": 2000}
    # Join cost grows with the SALAD, so the ladder's top rung sets the run
    # time: ~10 s to 2,048 leaves and ~35 s to 4,096 on the baseline host.
    top = 4096 if seconds >= 40 else 2048 if seconds >= 10 else 1024 if seconds >= 4 else 512
    return {
        "start": 256,
        "stages": [stage for stage in (512, 1024, 2048, 4096) if stage <= top],
        "churn": min(128, max(8, int(12.8 * seconds))),
        "lookups": int(2000 * seconds),
    }


@dataclass
class State:
    sizes: dict
    seed: int
    salad: object
    digest: gen.Digest
    start_build_s: float


def setup(seed: int, sizes: dict, workdir: Path) -> State:
    digest = gen.Digest()
    digest.add(sizes["start"], sizes["stages"], sizes["churn"])
    salad = saladkit.new_salad()
    started = time.perf_counter()
    salad.build(sizes["start"])
    return State(sizes, seed, salad, digest, time.perf_counter() - started)


def measure(state: State, rec: Recorder) -> None:
    salad, sizes = state.salad, state.sizes
    # Who departs and who crashes belongs to the scenario, like the engine
    # seed: it shapes the SALAD the probe measures.  --seed picks the probe.
    scenario = random.Random(saladkit.ENGINE_SEED)
    rng = random.Random(state.seed)
    rec.layer[f"salad.join.joins_per_s_at_{sizes['start']}"] = per_second(
        sizes["start"], state.start_build_s
    )

    joins = 0
    grow_s = undisturbed_s = 0.0
    with rec.region("grow"):
        for stage in sizes["stages"]:
            with rec.timer("stage", op=stage) as watch:
                joined, undisturbed = _grow_to(salad, stage)
            rec.layer[f"salad.join.joins_per_s_at_{stage}"] = per_second(joined, watch.elapsed)
            joins += joined
            grow_s += watch.elapsed
            undisturbed_s += undisturbed
    rec.metrics["joins_per_s"] = per_second(joins, grow_s)
    rec.metrics["work_per_s"] = per_second(joins, undisturbed_s)

    churn = sizes["churn"]
    with rec.region("churn") as phase:
        for identifier in scenario.sample(salad.alive_identifiers(), churn):
            salad.depart_leaf(identifier)
        for _ in range(churn):
            salad.add_leaf()
    rec.metrics["churn_ops_per_s"] = per_second(2 * churn, phase.elapsed)

    with rec.region("refresh") as phase:
        crashed = salad.crash_fraction(CRASH_FRACTION, scenario)
        stats = RefreshDriver(salad).run_rounds(1)
    rec.sim.update(crashed=crashed, refreshes_sent=stats.refreshes_sent,
                   entries_flushed=stats.entries_flushed)
    rec.layer["salad.maintenance.refresh_round_s"] = phase.elapsed
    rec.layer["salad.maintenance.entries_flushed"] = stats.entries_flushed

    identifiers = salad.alive_identifiers()
    plan = gen.plan_wave(rng, len(identifiers), PROBE_PER_LEAF, first_content_id=0)
    state.digest.add(plan)
    probe = saladkit.materialize(plan, identifiers, state.seed)
    wave_s = saladkit.insert_waves(salad, [probe], rec)

    saladkit.check_network(salad, rec)
    pairs = saladkit.stored_pairs(salad, rec)
    saladkit.lookup_phase(salad, pairs, rng, sizes["lookups"], rec)
    saladkit.audit_matches(salad, [probe], rec)
    saladkit.salad_layer_facts(salad, wave_s, rec)


def _grow_to(salad, stage: int) -> Tuple[int, float]:
    """Join leaves up to *stage*; returns (joins, seconds had no chunk been disturbed).

    A join costs what its messages cost, and the messages per join swing with
    the SALAD's width changes, so joins are not alike -- but the seconds per
    message of ``JOIN_CHUNK`` consecutive joins are, within one stage.  The
    undisturbed time of the stage is its message count times the lower
    quartile of its chunks' seconds per message.
    """
    joined = 0
    stage_messages = 0
    per_message: List[float] = []
    while salad.alive_count() < stage:
        sent = salad.message_counters()[0]
        started = time.perf_counter()
        for _ in range(min(JOIN_CHUNK, stage - salad.alive_count())):
            salad.add_leaf()
            joined += 1
        elapsed = time.perf_counter() - started
        messages = salad.message_counters()[0] - sent
        stage_messages += messages
        per_message.append(elapsed / messages)
    return joined, stage_messages * lower_quartile(per_message)


def discard(state: State) -> None:
    state.salad.shutdown()
