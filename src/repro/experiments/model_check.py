"""Analytic-model validation: Eqs. 13, 14, and 17 vs. Monte-Carlo.

Not a numbered figure, but the paper's formulas are quantitative claims; this
experiment measures each against the simulation:

- Eq. 13: mean leaf-table size T;
- Eq. 14: record loss probability P_loss = 1 - (1 - e^-lambda)^D;
- Eq. 17: messages per join fan-out M = D * lambda^(1-1/D) * L^(1/D).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.analysis.reporting import render_kv
from repro.core.fingerprint import synthetic_fingerprint
from repro.experiments.scales import ExperimentScale
from repro.salad.model import (
    expected_leaf_table_size,
    join_message_count,
    loss_probability,
)
from repro.salad.records import SaladRecord
from repro.salad.salad import RunSettings, Salad


@dataclass
class ModelCheckResult:
    system_size: int
    target_redundancy: float
    measured_table_mean: float
    predicted_table_mean: float
    measured_loss: float
    predicted_loss: float
    measured_join_messages: float
    predicted_join_messages: float

    def render(self) -> str:
        return render_kv(
            f"Analytic model vs. simulation (L={self.system_size}, "
            f"Lambda={self.target_redundancy})",
            {
                "leaf table mean (Eq. 13)": (
                    f"measured {self.measured_table_mean:.1f}, "
                    f"predicted {self.predicted_table_mean:.1f}"
                ),
                "record loss (Eq. 14)": (
                    f"measured {self.measured_loss:.3f}, "
                    f"predicted {self.predicted_loss:.3f}"
                ),
                "join messages (Eq. 17)": (
                    f"measured {self.measured_join_messages:.0f}, "
                    f"predicted {self.predicted_join_messages:.0f}"
                ),
            },
        )


def run(
    scale: ExperimentScale,
    target_redundancy: float = 2.0,
    record_count: int = 3000,
    seed: int = 0,
    settings: RunSettings = RunSettings(),
) -> ModelCheckResult:
    system_size = scale.machines
    salad = Salad(settings.config(target_redundancy=target_redundancy, seed=seed))

    # Grow the SALAD, measuring join-message traffic over the last half of
    # the growth (Eq. 17 counts join forwards only and is asymptotic in L).
    def join_messages() -> int:
        return salad.network.sent_by_kind.get("join", 0)

    half = system_size // 2
    salad.build(half)
    messages_before = join_messages()
    salad.build(system_size)
    join_traffic = (join_messages() - messages_before) / (system_size - half)

    # Insert unique records and measure the lost fraction (Eq. 14).
    rng = random.Random(seed + 1)
    leaves = salad.alive_leaves()
    per_leaf: Dict[int, list] = {}
    records = []
    for i in range(record_count):
        leaf = rng.choice(leaves)
        record = SaladRecord(synthetic_fingerprint(4096 + i, 10_000_000 + i), leaf.identifier)
        records.append(record)
        per_leaf.setdefault(leaf.identifier, []).append(record)
    salad.insert_records(per_leaf)
    stored = set()
    for leaf in leaves:
        for record in leaf.database.records():
            stored.add((record.fingerprint, record.location))
    lost = sum(
        1 for record in records if (record.fingerprint, record.location) not in stored
    )

    table_sizes = salad.leaf_table_sizes()
    salad.shutdown()
    return ModelCheckResult(
        system_size=system_size,
        target_redundancy=target_redundancy,
        measured_table_mean=sum(table_sizes) / len(table_sizes),
        predicted_table_mean=expected_leaf_table_size(system_size, target_redundancy, 2),
        measured_loss=lost / len(records),
        predicted_loss=loss_probability(target_redundancy, 2, system_size),
        measured_join_messages=join_traffic,
        predicted_join_messages=join_message_count(system_size, target_redundancy, 2),
    )
