"""dfc-corpus: bytes of corpus in, bytes reclaimed out.

Each pass drives a fresh ``DfcPipeline`` at replication factor 3 through
its four public phases (``load_hosts``, ``discover``, ``relocate``,
``report`` -- what ``execute()`` runs, called one by one so the message
counters can be read between them).  Content materialization, SIS hashing,
placement and relocation dominate; the SALAD layers are a minority share, so
a SALAD speed-up should move this workload far less than ``salad-insert``.

The corpus *shape* -- machines, file sizes, which machines share a content
-- comes from the repository's calibrated generator at one pinned seed,
because its heavy-tailed sizes move the byte total by a quarter from seed to
seed.  ``--seed`` then reassigns the file lists to machines and renumbers
every content held by fewer than ``WIDELY_SHARED`` machines (new bytes, new
fingerprints, new SALAD cells), so the byte total and the ideal reclaim are
the same for every seed while no two seeds hand the program the same input.
The widely shared contents keep their identity, as operating-system files do
from one deployment to the next: each sends dozens of records to a single
cell, and letting the seed pick that cell moves messages per record by a
tenth on a 96-leaf SALAD.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.experiments.dfc_run import DfcConfig
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.workload import corpus as corpus_model
from repro.workload import generator

from bench import gen
from bench.workloads import saladkit
from bench.workloads.base import Recorder, lower_quartile, median, per_second

NAME = "dfc-corpus"
SHAPE_SEED = 0
CONFIG = DfcConfig(replication_factor=3, seed=saladkit.ENGINE_SEED)
#: Contents on at least this many machines keep their identity across seeds.
WIDELY_SHARED = 8


def sizes(seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"machines": 24, "files": 10, "max_file_size": 64 << 10, "passes": 1}
    return {
        "machines": 96,
        "files": 40,
        "max_file_size": 64 << 10,
        "passes": max(3, round(0.3 * seconds)),
    }


@dataclass
class State:
    sizes: dict
    seed: int
    corpus: corpus_model.Corpus
    digest: gen.Digest


def setup(seed: int, sizes: dict, workdir: Path) -> State:
    # Looked up through the module so the traced run's wrapper is the one called.
    shape = generator.generate_corpus(
        generator.CorpusSpec(
            machines=sizes["machines"],
            mean_files_per_machine=sizes["files"],
            max_file_size=sizes["max_file_size"],
        ),
        seed=SHAPE_SEED,
    )
    rng = random.Random(seed)
    order = list(range(len(shape.machines)))
    rng.shuffle(order)
    renumber = {
        content_id: content_id if len(machines) >= WIDELY_SHARED else seed * 10**9 + content_id
        for content_id, (_, machines) in shape.content_instances().items()
    }
    digest = gen.Digest()
    scans = []
    for index, source in enumerate(order):
        files = [
            corpus_model.FileStat(content_id=renumber[stat.content_id], size=stat.size)
            for stat in shape.machines[source].files
        ]
        digest.add(index, [(stat.content_id, stat.size) for stat in files])
        scans.append(corpus_model.MachineScan(machine_index=index, files=files))
    return State(sizes, seed, corpus_model.Corpus(machines=scans), digest)


def measure(state: State, rec: Recorder) -> None:
    corpus = state.corpus
    user_bytes = corpus.total_bytes
    pass_s: List[float] = []
    sound = messages = records = 0
    pipeline = None
    with rec.region("write"):
        for index in range(state.sizes["passes"]):
            if pipeline is not None:
                pipeline.close_stores()
            with rec.timer("pass", op=index) as watch:
                pipeline = DfcPipeline(corpus, CONFIG)
                pipeline.load_hosts()
                sent_before = pipeline.run.salad.message_counters()[0]
                records += pipeline.discover()
                messages += pipeline.run.salad.message_counters()[0] - sent_before
                plan = pipeline.relocate()
                report = pipeline.report(plan)
            pass_s.append(watch.elapsed)
            sound += report.physically_reclaimed >= report.predicted_reclaimed
    rec.check(sound, len(pass_s), "passes with physical reclaim >= predicted")
    rec.metrics["corpus_mb_per_s"] = per_second(user_bytes / 1e6, median(pass_s))
    rec.metrics["work_per_s"] = per_second(corpus.total_files, lower_quartile(pass_s))
    rec.metrics["messages_per_record"] = messages / records
    rec.sim.update(insert_messages=messages, records_inserted=records)

    _read_back(pipeline, rec)
    saladkit.check_network(pipeline.run.salad, rec)
    published = {
        pipeline.run.leaf_of_machine[scan.machine_index]:
            pipeline.run.records_for_machine(scan.machine_index)
        for scan in corpus.machines
    }
    saladkit.audit_matches(pipeline.run.salad, [published], rec)
    physical = report.total_bytes - report.physically_reclaimed
    rec.metrics["reclaimed_fraction"] = report.reclaimed_fraction
    rec.metrics["stored_bytes_per_user_byte"] = physical / user_bytes
    rec.sim.update(
        user_bytes=user_bytes, logical_bytes=report.total_bytes, physical_bytes=physical,
        predicted_reclaimed=report.predicted_reclaimed, migrations=report.migrations,
        copies=report.copies, bytes_moved=report.bytes_moved,
    )
    rec.layer["farsite.relocation.migrations"] = report.migrations
    rec.layer["farsite.relocation.bytes_moved"] = report.bytes_moved
    if rec.tracer is not None:
        rec.harvest(pipeline.collect_metrics)
    pipeline.close_stores()


def _read_back(pipeline: DfcPipeline, rec: Recorder) -> None:
    """The read phase: every replica of every file, straight from its host's SIS.

    Output check: each replica has its file's size and the same bytes as
    every other replica of that content.
    """
    reference: Dict[object, bytes] = {}
    hosts = pipeline.hosts
    reads = intact = 0
    with rec.region("read"):
        for file_id, (fingerprint, replica_hosts) in pipeline.replicas.items():
            for host in replica_hosts:
                blob = hosts[host].sis.read(file_id)
                reads += 1
                intact += (
                    len(blob) == fingerprint.size
                    and reference.setdefault(fingerprint, blob) == blob
                )
    rec.check(intact, reads, "replicas readable with their content's bytes")


def discard(state: State) -> None:
    """Nothing outlives a setup: the corpus holds no resources."""
