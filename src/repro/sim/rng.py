"""Deterministic, stream-split randomness for simulations.

Every stochastic component (workload generation, identifier assignment,
failure injection, message jitter) draws from its own named stream derived
from one master seed, so adding randomness to one component never perturbs
another -- a standard requirement for credible systems simulation.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequence:
    """Derives independent named random streams from a master seed.

    >>> seeds = SeedSequence(42)
    >>> a = seeds.stream("workload")
    >>> b = seeds.stream("failures")
    >>> a.random() != b.random()
    True
    >>> seeds.stream("workload").random() == SeedSequence(42).stream("workload").random()
    True
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed

    def derive(self, name: str) -> int:
        """A 128-bit integer seed for the named stream."""
        digest = hashlib.sha256(f"{self.master_seed}/{name}".encode()).digest()
        return int.from_bytes(digest[:16], "big")

    def stream(self, name: str) -> random.Random:
        """A fresh ``random.Random`` for the named stream."""
        return random.Random(self.derive(name))
