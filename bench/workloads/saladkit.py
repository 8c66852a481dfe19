"""Helpers shared by the three SALAD workloads.

Everything goes through the public surface: ``Salad`` / ``SaladConfig``
(fields dimensions, target_redundancy, seed, notify_limit, db_backend,
db_dir), ``SaladRecord``, ``Fingerprint`` and the leaves' ``database``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.fingerprint import Fingerprint
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig

from bench import gen
from bench.workloads.base import Recorder, per_second, percentile

#: Seed of the program's own random choices (leaf identifiers, bootstrap
#: picks, user keys, replica placement).  It is part of the configuration
#: being measured, not of the inputs: a SALAD's shape -- widths, cell
#: occupancy, hence messages per record and recall -- moves by a tenth
#: between engine seeds, which would drown the run-to-run comparison the
#: benchmark exists for.  ``--seed`` drives every generated input instead.
ENGINE_SEED = 1

Batches = Dict[int, List[SaladRecord]]


def new_salad(**store) -> Salad:
    """The engine every SALAD workload measures: D=2, Lambda=2.0, capped MATCHes."""
    return Salad(
        SaladConfig(dimensions=2, target_redundancy=2.0, seed=ENGINE_SEED, notify_limit=4,
                    **store)
    )


def materialize(
    plan: Sequence[Sequence[gen.PlannedRecord]], identifiers: Sequence[int], seed: int
) -> Batches:
    """Turn a leaf-indexed plan into ``{leaf identifier: [SaladRecord]}``."""
    fingerprints: Dict[int, Fingerprint] = {}
    batches: Batches = {}
    for identifier, planned in zip(identifiers, plan):
        records = []
        for content_id, size in planned:
            fingerprint = fingerprints.get(content_id)
            if fingerprint is None:
                fingerprint = fingerprints[content_id] = Fingerprint(
                    size=size, content_digest=gen.content_digest(seed, content_id)
                )
            records.append(SaladRecord(fingerprint=fingerprint, location=identifier))
        batches[identifier] = records
    return batches


def plan_waves(
    rng: random.Random, leaves: int, per_leaf: int, waves: int, digest: gen.Digest
) -> List[List[List[gen.PlannedRecord]]]:
    """Plans for *waves* waves, each drawing from its own content-id range."""
    stride = gen.contents_per_wave(leaves, per_leaf)
    plans = []
    for wave in range(waves):
        plan = gen.plan_wave(rng, leaves, per_leaf, first_content_id=wave * stride)
        digest.add(wave, plan)
        plans.append(plan)
    return plans


def insert_waves(salad: Salad, waves: Sequence[Batches], rec: Recorder) -> List[float]:
    """The timed write phase: one settled ``insert_records`` per wave."""
    wave_s: List[float] = []
    sent_before = salad.message_counters()[0]
    inserted = expected = 0
    with rec.region("write"):
        for index, batches in enumerate(waves):
            with rec.timer("wave", op=index) as watch:
                inserted += salad.insert_records(batches)
            wave_s.append(watch.elapsed)
            expected += sum(len(records) for records in batches.values())
    rec.check(inserted, expected, "records accepted by insert_records")
    rec.sim["insert_messages"] = salad.message_counters()[0] - sent_before
    rec.sim["records_inserted"] = inserted
    rec.metrics["messages_per_record"] = rec.sim["insert_messages"] / inserted
    return wave_s


def audit_matches(salad: Salad, waves: Iterable[Batches], rec: Recorder) -> None:
    """``match_recall`` and ``reclaimed_fraction`` from the MATCH notifications.

    A record is a duplicate when another machine inserted the same
    fingerprint; it is recalled when its machine received at least one MATCH
    for it.  Reclaimed bytes follow the relocation rule: every machine named
    in a MATCH for a fingerprint joins that fingerprint's group, and a group
    of n copies gives back n - 1 of them.
    """
    holders: Dict[Fingerprint, set] = {}
    logical = 0
    for batches in waves:
        for identifier, records in batches.items():
            for record in records:
                holders.setdefault(record.fingerprint, set()).add(identifier)
                logical += record.fingerprint.size
    notified = set()
    grouped: Dict[Fingerprint, set] = {}
    matches = salad.collected_matches()
    for machine, payload in matches:
        notified.add((machine, payload.fingerprint))
        members = grouped.setdefault(payload.fingerprint, set())
        members.add(machine)
        members.add(payload.other_machine)
    duplicates = recalled = reclaimed = 0
    for fingerprint, machines in holders.items():
        if len(machines) < 2:
            continue
        duplicates += len(machines)
        recalled += sum(1 for machine in machines if (machine, fingerprint) in notified)
        group = grouped.get(fingerprint, set()) & machines
        if len(group) > 1:
            reclaimed += fingerprint.size * (len(group) - 1)
    rec.sim.update(matches=len(matches), duplicates=duplicates, recalled=recalled,
                   reclaimed_bytes=reclaimed, logical_bytes=logical)
    rec.metrics["match_recall"] = recalled / duplicates
    rec.metrics["reclaimed_fraction"] = reclaimed / logical


def stored_pairs(salad: Salad, rec: Recorder) -> List[Tuple[int, Fingerprint, int]]:
    """``(leaf, fingerprint, location)`` for every stored record, checked.

    Output check: no leaf stores the same (fingerprint, location) twice.
    """
    pairs = []
    leaves = clean = 0
    for identifier, stored in salad.stored_records().items():
        leaves += 1
        clean += len(set(stored)) == len(stored)
        pairs.extend((identifier, fingerprint, location) for fingerprint, location in stored)
    rec.check(clean, leaves, "leaves with no record stored twice")
    rec.sim["stored_records"] = len(pairs)
    return pairs


def lookup_phase(
    salad: Salad, pairs: Sequence[Tuple[int, Fingerprint, int]], rng: random.Random,
    count: int, rec: Recorder,
) -> None:
    """The timed read phase: ``locations()`` on the leaf that stores the record.

    Output check: every lookup names the machine that inserted the record.
    A single in-memory probe takes about a microsecond and is bound by cache
    misses, which no two runs share, so the phase yields a per-layer rate and
    no end-to-end latency.
    """
    sample = rng.choices(pairs, k=count)
    leaves = salad.leaves
    found = 0
    with rec.region("read") as phase:
        for identifier, fingerprint, location in sample:
            found += location in leaves[identifier].database.locations(fingerprint)
    rec.check(found, count, "lookups naming the inserting machine")
    rec.layer["salad.storage.lookups_per_s"] = per_second(count, phase.elapsed)


def check_network(salad: Salad, rec: Recorder) -> None:
    """Output check: every message sent was delivered or dropped."""
    sent, delivered, dropped = salad.message_counters()
    rec.check(int(sent == delivered + dropped), 1, "sent = delivered + dropped")
    rec.sim.update(sent=sent, delivered=delivered, dropped=dropped)


def salad_layer_facts(salad: Salad, wave_s: Sequence[float], rec: Recorder) -> None:
    """Per-layer values read off the engine (outside every timed region)."""
    tables = salad.leaf_table_sizes()
    rec.sim["table_entries"] = sum(tables)
    rec.layer["salad.leaf.table_mean"] = sum(tables) / len(tables)
    if wave_s:
        rec.layer["salad.salad.wave_s_p75"] = percentile(wave_s, 0.75)
    if rec.tracer is not None:
        rec.harvest(salad.collect_metrics)
