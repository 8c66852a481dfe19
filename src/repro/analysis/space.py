"""Space accounting: from SALAD match notifications to reclaimed bytes.

The DFC pipeline reclaims space by coalescing files whose identicality SALAD
*discovered*.  A duplicate notification tells machine ``l`` that machine
``k`` holds a file with fingerprint ``f``; the relocation subsystem then
co-locates those replicas and the Single-Instance Store coalesces them.
Space accounting therefore works on the *transitive closure* of discovered
pairs: for each content, the connected components of the discovery graph can
each be coalesced into a single stored copy, so a component of size c
reclaims ``(c - 1) * size`` bytes.  Copies SALAD never matched (lossiness,
failures, thresholds, database eviction) remain separate files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.core.fingerprint import Fingerprint
from repro.salad.protocol import MatchPayload
from repro.workload.corpus import Corpus


def _root(parent: Dict[int, int], node: int) -> int:
    """Root of *node* in a flat union-find forest (a node absent from
    *parent* is its own root), halving the path on the way up."""
    up = parent.get(node, node)
    while up != node:
        grand = parent.get(up, up)
        parent[node] = grand
        node = grand
        up = parent.get(node, node)
    return node


def reclaimed_bytes_from_matches(
    matches: Iterable[Tuple[int, MatchPayload]],
    min_size: int = 0,
) -> int:
    """Bytes reclaimable from discovered duplicate pairs.

    *matches* are ``(receiving_machine, payload)`` pairs as collected by
    :meth:`repro.salad.salad.Salad.collected_matches`.  Pairs whose file size
    is below *min_size* are ignored (the Fig. 7 threshold).

    For each fingerprint, machines linked by at least one notification form
    coalescible components; a component of c machines stores one copy
    instead of c.  Summed over a fingerprint's components, c - 1 is the
    number of unions that joined two components, so each such union
    reclaims one file size and no component is ever listed.
    """
    forests: Dict[Fingerprint, Dict[int, int]] = {}
    reclaimed = 0
    for machine, payload in matches:
        fingerprint = payload.fingerprint
        size = fingerprint.size
        if size < min_size:
            continue
        parent = forests.get(fingerprint)
        if parent is None:
            parent = forests[fingerprint] = {}
        a = _root(parent, machine)
        b = _root(parent, payload.other_machine)
        if a != b:
            parent[a] = b
            reclaimed += size
    return reclaimed


@dataclass
class SpaceAccounting:
    """Consumed-space bookkeeping for one corpus (the Figs. 7/8/13 y-axis)."""

    corpus: Corpus
    total_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.total_bytes = self.corpus.total_bytes

    def ideal_consumed_bytes(self, min_size: int = 0) -> int:
        """Space after *perfect* coalescing of files >= min_size.

        This is the "ideal" curve of Fig. 7.
        """
        return self.total_bytes - self.corpus.ideal_reclaimable_bytes(min_size)

    def consumed_bytes(
        self,
        matches: Iterable[Tuple[int, MatchPayload]],
        min_size: int = 0,
    ) -> int:
        """Space after coalescing what the (lossy) DFC actually discovered."""
        return self.total_bytes - reclaimed_bytes_from_matches(matches, min_size)

    def reclaimed_fraction(
        self,
        matches: Iterable[Tuple[int, MatchPayload]],
        min_size: int = 0,
    ) -> float:
        """Fraction of all consumed space reclaimed (paper quotes 38%/46%)."""
        if self.total_bytes == 0:
            return 0.0
        return reclaimed_bytes_from_matches(matches, min_size) / self.total_bytes
