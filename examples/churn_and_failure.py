#!/usr/bin/env python
"""Churn and failure: SALAD maintenance under an unreliable substrate.

Exercises the maintenance protocols of paper sections 4.4-4.6:

1. leaves join incrementally (Fig. 5 protocol) and the system re-estimates
   its size, stepping the cell-ID width W;
2. leaves depart cleanly (departure messages) and by silent crash (their
   entries time out via refresh);
3. duplicate discovery keeps working while machines are down half the time
   (the Fig. 8 duty-cycle failure model).

Run:  python examples/churn_and_failure.py
"""

import random

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad import Salad, SaladConfig
from repro.salad.records import SaladRecord


def main() -> None:
    salad = Salad(SaladConfig(target_redundancy=2.5, dimensions=2, seed=3))
    rng = random.Random(9)

    print("phase 1: growth (section 4.4 joins)")
    for target in (10, 40, 120):
        salad.build(target)
        sizes = salad.leaf_table_sizes()
        print(
            f"  L={len(salad.alive_leaves()):4d}  widths={salad.width_distribution()}"
            f"  mean leaf table={sum(sizes) / len(sizes):.1f}"
        )

    print("\nphase 2: departures (section 4.5)")
    leaves = salad.alive_leaves()
    for leaf in rng.sample(leaves, 15):
        leaf.depart_cleanly()
    salad.network.run()
    print(f"  15 leaves departed cleanly; alive={len(salad.alive_leaves())}")

    # Silent crashes: stale entries are flushed by refresh timeout.
    crashed = rng.sample(salad.alive_leaves(), 10)
    for leaf in crashed:
        leaf.fail()
    # Everyone sends a refresh round; dead leaves answer nothing.
    for leaf in salad.alive_leaves():
        leaf.send_refreshes()
    salad.network.run()
    flushed = 0
    for leaf in salad.alive_leaves():
        flushed += leaf.flush_stale_entries(timeout=0.5)
    print(f"  10 leaves crashed silently; {flushed} stale table entries flushed")

    print("\nphase 3: duplicate discovery at 50% machine downtime (Fig. 8 model)")
    salad.set_loss_probability(0.5)
    survivors = salad.alive_leaves()
    groups = 40
    copies_per_group = 6
    expected_pairs = 0
    batches = {}
    for g in range(groups):
        fingerprint = synthetic_fingerprint(64_000 + g, 500_000 + g)
        holders = rng.sample(survivors, copies_per_group)
        expected_pairs += copies_per_group - 1
        for leaf in holders:
            batches.setdefault(leaf.identifier, []).append(
                SaladRecord(fingerprint, leaf.identifier)
            )
    salad.insert_records(batches)

    discovered = {(p.fingerprint, m, p.other_machine) for m, p in salad.collected_matches()}
    found_groups = {fp for fp, _, _ in discovered}
    print(f"  {groups} duplicate groups x {copies_per_group} copies inserted")
    print(f"  groups with at least one discovered duplicate: {len(found_groups)}/{groups}")
    print("  -> even at 50% downtime, most duplicates are still found;")
    print("     redundancy (Lambda) absorbs the loss, exactly the paper's point.")


if __name__ == "__main__":
    main()
