"""Reference union-find: disjoint sets with explicit components.

The shipped space accounting (``repro.analysis.space``) only counts the
unions that join two components; this class lists the components
themselves, so the property suites can check that count against them.
"""

from __future__ import annotations

from typing import Dict, Hashable, List


class UnionFind:
    """Disjoint sets over arbitrary hashable items (path halving + rank)."""

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}

    def find(self, item: Hashable) -> Hashable:
        parent = self._parent
        if item not in parent:
            parent[item] = item
            self._rank[item] = 0
            return item
        while parent[item] != item:
            parent[item] = parent[parent[item]]  # path halving
            item = parent[item]
        return item

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def components(self) -> Dict[Hashable, List[Hashable]]:
        out: Dict[Hashable, List[Hashable]] = {}
        for item in self._parent:
            out.setdefault(self.find(item), []).append(item)
        return out


def reclaimed_bytes_by_components(matches, min_size: int = 0) -> int:
    """Reference for ``reclaimed_bytes_from_matches``: one forest per
    fingerprint, then (|component| - 1) * size summed over its components."""
    forest: Dict[Hashable, UnionFind] = {}
    for machine, payload in matches:
        if payload.fingerprint.size < min_size:
            continue
        forest.setdefault(payload.fingerprint, UnionFind()).union(
            machine, payload.other_machine
        )
    return sum(
        (len(members) - 1) * fingerprint.size
        for fingerprint, uf in forest.items()
        for members in uf.components().values()
    )
