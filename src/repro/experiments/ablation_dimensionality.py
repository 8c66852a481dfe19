"""Ablation: the SALAD dimensionality trade-off (sections 4.3 and 4.7).

The paper's guidance: "not only does increasing a SALAD's dimensionality
increase the loss probability for a given redundancy factor (Eq. 14), but
also it increases the susceptibility of the system to attack.  We therefore
suggest constructing a SALAD with a dimensionality no higher than that
needed to achieve leaf tables of a manageably small size."

This ablation sweeps D and measures the three sides of the trade:

- mean leaf table size (falls with D: O(D * lambda^(1-1/D) * L^(1/D)));
- record loss probability (rises with D: ~ D * e^-lambda);
- record insertion traffic (routing takes up to D hops).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import render_table
from repro.core.fingerprint import synthetic_fingerprint
from repro.experiments.scales import ExperimentScale
from repro.salad.model import expected_leaf_table_size, loss_probability
from repro.salad.records import SaladRecord
from repro.salad.salad import RunSettings, Salad


@dataclass
class DimensionalityResult:
    dimensions: Tuple[int, ...]
    system_size: int
    target_redundancy: float
    mean_leaf_table: Dict[int, float]
    predicted_leaf_table: Dict[int, float]
    measured_loss: Dict[int, float]
    predicted_loss: Dict[int, float]
    record_messages: Dict[int, float]

    def render(self) -> str:
        series = {
            "leaf table": [self.mean_leaf_table[d] for d in self.dimensions],
            "table (Eq.13)": [self.predicted_leaf_table[d] for d in self.dimensions],
            "loss": [round(self.measured_loss[d], 3) for d in self.dimensions],
            "loss (Eq.14)": [round(self.predicted_loss[d], 3) for d in self.dimensions],
            "msgs/record": [round(self.record_messages[d], 1) for d in self.dimensions],
        }
        return render_table(
            f"Ablation: dimensionality trade-off (L={self.system_size}, "
            f"Lambda={self.target_redundancy})",
            "D",
            self.dimensions,
            series,
            x_formatter=str,
            value_formatter=lambda v: f"{v:,.3g}",
        )


def run(
    scale: ExperimentScale,
    dimensions: Sequence[int] = (1, 2, 3),
    target_redundancy: float = 2.5,
    record_count: int = 1500,
    seed: int = 0,
    settings: RunSettings = RunSettings(),
) -> DimensionalityResult:
    system_size = scale.machines
    mean_table: Dict[int, float] = {}
    predicted_table: Dict[int, float] = {}
    measured_loss: Dict[int, float] = {}
    predicted_loss: Dict[int, float] = {}
    record_messages: Dict[int, float] = {}

    for d in dimensions:
        salad = Salad(
            settings.config(target_redundancy=target_redundancy, dimensions=d, seed=seed)
        )
        salad.build(system_size)
        sizes = salad.leaf_table_sizes()
        mean_table[d] = sum(sizes) / len(sizes)
        predicted_table[d] = expected_leaf_table_size(system_size, target_redundancy, d)
        predicted_loss[d] = loss_probability(target_redundancy, d, system_size)

        rng = random.Random(seed + 1)
        leaves = salad.alive_leaves()
        records: List[SaladRecord] = []
        batches: Dict[int, List[SaladRecord]] = {}
        for i in range(record_count):
            leaf = rng.choice(leaves)
            record = SaladRecord(
                synthetic_fingerprint(4096 + i, 50_000_000 * d + i), leaf.identifier
            )
            records.append(record)
            batches.setdefault(leaf.identifier, []).append(record)
        before = salad.messages_carried()
        salad.insert_records(batches)
        record_messages[d] = (salad.messages_carried() - before) / record_count

        stored = set()
        for leaf in leaves:
            for record in leaf.database.records():
                stored.add((record.fingerprint, record.location))
        lost = sum(
            1 for r in records if (r.fingerprint, r.location) not in stored
        )
        measured_loss[d] = lost / record_count
        salad.shutdown()

    return DimensionalityResult(
        dimensions=tuple(dimensions),
        system_size=system_size,
        target_redundancy=target_redundancy,
        mean_leaf_table=mean_table,
        predicted_leaf_table=predicted_table,
        measured_loss=measured_loss,
        predicted_loss=predicted_loss,
        record_messages=record_messages,
    )
