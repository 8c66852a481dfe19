"""client-rw: the Farsite client write and read path.

The only workload that exercises convergent encryption (AES-CTR, RSA key
wrapping), the directory-group quorum and SIS coalescing under real bytes.
Half of each size class is drawn Zipf from eight hot contents, which hit the
16-entry keystream cache and coalesce in the SIS; the other half is unique
and bypasses both.  Every plaintext is generated before the clock starts.

The hot plaintexts are the same for every seed, as widely installed files
are: each ends up on most machines and so sends some sixty records to one
SALAD cell, and letting the seed pick those sixteen cells moves messages per
record by a seventh.  ``--seed`` draws the unique plaintexts, who writes and
reads what, and the order of operations.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.farsite.node import FarsiteDeployment
from repro.salad.records import SaladRecord

from bench import gen
from bench.workloads import saladkit
from bench.workloads.base import Recorder, lower_quartile, median, per_second, percentile

NAME = "client-rw"
SMALL = 16 << 10
LARGE = 256 << 10
HOT_CONTENTS = 8
REGIONS = 16


def sizes(seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"machines": 16, "users": 4, "small": 80, "large": 8}
    return {
        "machines": 64,
        "users": 8,
        "small": max(16, int(80 * seconds)),
        "large": max(2, int(8 * seconds)),
    }


@dataclass
class Op:
    path: str
    writer: int
    reader: int
    data: bytes
    hot: int  # index of the hot content, or -1 for a unique plaintext


@dataclass
class State:
    sizes: dict
    seed: int
    deployment: FarsiteDeployment
    users: list
    clients: list
    ops: List[Op]
    digest: gen.Digest


def _plan_ops(rng: random.Random, sizes: dict, digest: gen.Digest) -> List[Op]:
    installed = random.Random(saladkit.ENGINE_SEED)
    drafts: List[Tuple[bytes, int]] = []
    for size, count, first_hot in ((SMALL, sizes["small"], 0), (LARGE, sizes["large"], HOT_CONTENTS)):
        hot = [installed.randbytes(size) for _ in range(HOT_CONTENTS)]
        shared = count // 2
        drafts += [(hot[i], first_hot + i) for i in gen.zipf_indices(rng, shared, HOT_CONTENTS)]
        drafts += [(rng.randbytes(size), -1) for _ in range(count - shared)]
    rng.shuffle(drafts)
    users = sizes["users"]
    ops = []
    for index, (data, hot) in enumerate(drafts):
        writer = rng.randrange(users)
        reader = (writer + 1 + rng.randrange(users - 1)) % users
        ops.append(Op(f"/vol{index % REGIONS}/file{index:05d}", writer, reader, data, hot))
        digest.add(ops[-1].path, writer, reader, hot, hashlib.sha1(data).digest())
    return ops


def setup(seed: int, sizes: dict, workdir: Path) -> State:
    deployment = FarsiteDeployment(sizes["machines"], seed=saladkit.ENGINE_SEED)
    users = [deployment.create_user(f"user{index}") for index in range(sizes["users"])]
    clients = [deployment.client_for(user) for user in users]
    digest = gen.Digest()
    ops = _plan_ops(random.Random(seed), sizes, digest)
    return State(sizes, seed, deployment, users, clients, ops, digest)


def measure(state: State, rec: Recorder) -> None:
    deployment, ops = state.deployment, state.ops
    clients, users = state.clients, state.users

    write_s: List[float] = []
    receipts = []
    with rec.region("write") as write_phase:
        for index, op in enumerate(ops):
            with rec.timer("write", op=index) as watch:
                receipts.append(
                    clients[op.writer].write_file(op.path, op.data, readers=[users[op.reader].name])
                )
            write_s.append(watch.elapsed)
    user_bytes = sum(len(op.data) for op in ops)
    small_writes = [s for s, op in zip(write_s, ops) if len(op.data) == SMALL]
    rec.metrics["write_mb_per_s"] = per_second(user_bytes / 1e6, write_phase.elapsed)
    # Writes are alike within a (size, hot or unique) class, not across classes.
    classes: Dict[Tuple[int, bool], List[float]] = {}
    for seconds, op in zip(write_s, ops):
        classes.setdefault((len(op.data), op.hot >= 0), []).append(seconds)
    undisturbed = sum(len(times) * lower_quartile(times) for times in classes.values())
    rec.metrics["work_per_s"] = per_second(len(ops), undisturbed)
    rec.metrics["write_ms_p50"] = median(small_writes) * 1e3
    rec.layer["farsite.client.write_ms_p99"] = percentile(small_writes, 0.99) * 1e3

    _check_convergence(deployment, ops, receipts, rec)

    # Who holds which fingerprint *before* relocation moves replicas around.
    published = {
        identifier: [SaladRecord(fingerprint, identifier) for fingerprint in node.host.fingerprints()]
        for identifier, node in deployment.nodes.items()
    }
    sent_before = deployment.salad.message_counters()[0]
    with rec.region("cycle"):
        report = deployment.run_dfc_cycle()
    insert_messages = deployment.salad.message_counters()[0] - sent_before
    rec.metrics["messages_per_record"] = insert_messages / report.records_published
    rec.sim.update(insert_messages=insert_messages, records_inserted=report.records_published)

    order = list(range(len(ops)))
    random.Random(state.seed + 1).shuffle(order)
    read_s: Dict[int, float] = {}
    intact = 0
    with rec.region("read") as read_phase:
        for index in order:
            op = ops[index]
            client = clients[op.reader if index % 2 else op.writer]
            with rec.timer("read", op=index) as watch:
                try:
                    intact += client.read_file(op.path) == op.data
                except Exception as error:  # a raising read is a failed read
                    rec.failures.append(f"read_file({op.path}) raised {error!r}")
            read_s[index] = watch.elapsed
    rec.check(intact, len(ops), "read_file returning the written bytes")
    small_reads = [read_s[i] for i, op in enumerate(ops) if len(op.data) == SMALL]
    rec.metrics["read_mb_per_s"] = per_second(user_bytes / 1e6, read_phase.elapsed)
    rec.metrics["read_ms_p50"] = median(small_reads) * 1e3
    rec.layer["farsite.client.read_ms_p99"] = percentile(small_reads, 0.99) * 1e3

    saladkit.check_network(deployment.salad, rec)
    saladkit.audit_matches(deployment.salad, [published], rec)
    rec.metrics["reclaimed_fraction"] = report.reclaimed_bytes / report.logical_bytes
    rec.metrics["stored_bytes_per_user_byte"] = report.physical_bytes / user_bytes
    rec.sim.update(
        user_bytes=user_bytes, logical_bytes=report.logical_bytes,
        physical_bytes=report.physical_bytes, duplicate_groups=report.duplicate_groups,
        migrations=report.migrations, bytes_moved=report.bytes_moved,
    )
    rec.layer["farsite.relocation.migrations"] = report.migrations
    rec.layer["farsite.relocation.bytes_moved"] = report.bytes_moved
    if rec.tracer is not None:
        rec.harvest(deployment.salad.collect_metrics, *_module_collectors())


def _check_convergence(deployment, ops, receipts, rec: Recorder) -> None:
    """Output check: two users writing one plaintext store identical ciphertext data."""
    first: Dict[int, Tuple[int, bytes]] = {}
    pairs = same = 0
    for op, receipt in zip(ops, receipts):
        if op.hot < 0:
            continue
        host = deployment.nodes[receipt.replica_hosts[0]].host
        data = host.fetch_replica(receipt.file_id).data
        if op.hot not in first:
            first[op.hot] = (op.writer, data)
        elif first[op.hot][0] != op.writer:
            pairs += 1
            same += first[op.hot][1] == data
    rec.check(same, pairs, "hot plaintexts encrypting to identical ciphertext data")


def _module_collectors() -> list:
    """Module-level ``collect_metrics`` hooks, skipping any that are gone."""
    collectors = []
    for module in ("repro.crypto.modes", "repro.core.fingerprint"):
        try:
            collectors.append(importlib.import_module(module).collect_metrics)
        except (ImportError, AttributeError):
            pass
    return collectors


def discard(state: State) -> None:
    state.deployment.salad.shutdown()
