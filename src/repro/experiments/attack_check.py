"""Attack-resilience validation (section 4.7, Eq. 20).

m sybil leaves choose identifiers vector-aligned with a victim, inflating
its leaf table and therefore its system-size estimate; the victim picks an
oversized cell-ID width and its records become lossier.  Eq. 20 predicts the
victim's effective record redundancy:

    lambda' = lambda * (1 - m/L)^D

This experiment mounts the attack and measures lambda' (the mean number of
leaves actually storing the victim's records), comparing it with both the
unattacked redundancy and the Eq. 20 prediction -- demonstrating the paper's
point that the attack is "fairly weak": it degrades redundancy but cannot
capture a fingerprint range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.analysis.reporting import render_kv
from repro.core.fingerprint import synthetic_fingerprint
from repro.experiments.scales import ExperimentScale
from repro.salad.attack import craft_attack_identifiers, measure_record_redundancy
from repro.salad.model import actual_redundancy, attacked_redundancy
from repro.salad.records import SaladRecord
from repro.salad.salad import RunSettings, Salad


@dataclass
class AttackCheckResult:
    system_size: int
    sybil_count: int
    baseline_redundancy: float
    attacked_measured: float
    attacked_predicted: float
    victim_width_before: int
    victim_width_after: int

    def render(self) -> str:
        return render_kv(
            f"Section 4.7 sybil attack (L={self.system_size}, m={self.sybil_count})",
            {
                "victim width before/after": (
                    f"{self.victim_width_before} -> {self.victim_width_after}"
                ),
                "baseline record redundancy": f"{self.baseline_redundancy:.2f}",
                "attacked redundancy (measured)": f"{self.attacked_measured:.2f}",
                "attacked redundancy (Eq. 20)": f"{self.attacked_predicted:.2f}",
            },
        )


def _victim_records(salad: Salad, victim_id: int, count: int, tag: int) -> List[SaladRecord]:
    return [
        SaladRecord(synthetic_fingerprint(8192 + i, tag + i), victim_id)
        for i in range(count)
    ]


def run(
    scale: ExperimentScale,
    sybil_fraction: float = 0.3,
    record_count: int = 400,
    seed: int = 0,
    settings: RunSettings = RunSettings(),
) -> AttackCheckResult:
    system_size = max(scale.machines, 64)
    salad = Salad(settings.config(target_redundancy=2.5, seed=seed))
    salad.build(system_size)
    rng = random.Random(seed + 7)
    victim = salad.alive_leaves()[0]
    width_before = victim.width

    # Baseline: victim inserts records before any attack.
    baseline_records = _victim_records(salad, victim.identifier, record_count, 20_000_000)
    salad.insert_records({victim.identifier: baseline_records})
    baseline = measure_record_redundancy(salad, baseline_records)

    # Attack: m sybils vector-aligned with the victim join the SALAD, then
    # provide no service (they inflate the victim's leaf table and estimate
    # of L while silently dropping every record sent to them -- the worst
    # case of section 4.7).
    sybil_count = int(round(system_size * sybil_fraction))
    sybil_ids = craft_attack_identifiers(
        victim.identifier, victim.width, salad.config.dimensions, sybil_count, rng
    )
    sybil_leaves = []
    for sybil_id in sybil_ids:
        if sybil_id not in salad.leaves:
            sybil_leaves.append(salad.add_leaf(identifier=sybil_id))
    for sybil in sybil_leaves:
        sybil.fail()  # stale table entries remain until refresh timeout

    # Victim inserts fresh records under its inflated width.
    attacked_records = _victim_records(salad, victim.identifier, record_count, 30_000_000)
    salad.insert_records({victim.identifier: attacked_records})
    attacked = measure_record_redundancy(salad, attacked_records)
    salad.shutdown()

    total = len(salad.leaves)
    predicted = attacked_redundancy(
        actual_redundancy(total, salad.config.target_redundancy),
        sybil_count,
        total,
        salad.config.dimensions,
    )
    return AttackCheckResult(
        system_size=system_size,
        sybil_count=sybil_count,
        baseline_redundancy=baseline,
        attacked_measured=attacked,
        attacked_predicted=predicted,
        victim_width_before=width_before,
        victim_width_after=victim.width,
    )
