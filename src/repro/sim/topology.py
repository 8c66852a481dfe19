"""Network topology: sites, racks, and WAN links with latency classes.

The paper's section 2 deployment is a corporate LAN/WAN of desktops, not a
flat fabric: machines sit in racks on switched LAN segments, sites connect
over much slower WAN links.  :class:`Topology` models that as a two-level
hierarchy -- *sites* each holding *racks* -- with three link classes:

``rack``
    both endpoints in the same rack (same switch),
``lan``
    same site, different racks (across the site backbone),
``wan``
    different sites (over an inter-site trunk).

Each class has an integer latency in *ticks* of a common ``quantum``
(virtual-time units), so every per-pair delay is an exact multiple of the
quantum and delivery windows can be identified by integer tick.  Integer
windows matter: accumulating heterogeneous float delays (``now + delay``
per hop) drifts by ulps and can split one logical delivery window into two
scheduler buckets; ``tick * quantum`` is a single multiplication and cannot.

Placement is deterministic: a machine's (site, rack) is derived by hashing
its identifier, so the same machine lands on the same site in every run.
The hash deliberately mixes *all* identifier bits -- placement must stay
independent of the low bits, which SALAD uses for cell geometry.

Links are *named* (``rack:2.1``, ``lan:0``, ``wan:1-3``) so partitions can
be expressed as topology cuts: :meth:`repro.sim.network.Network.cut` severs
a named link set and heals each link independently, composing with the flat
label partitions that remain the degenerate one-site case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer over an identifier of any width.

    Identifiers are 160-bit hashes; fold them to 64 bits first, then run
    the standard finalizer so every output bit depends on every input bit.
    """
    x = (value ^ (value >> 64) ^ (value >> 128)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class LinkClass:
    """One latency/bandwidth class of links (rack, lan, or wan)."""

    name: str
    latency_ticks: int
    bandwidth: str  # descriptive class label ("switched-100M", "T1", ...)

    def __post_init__(self) -> None:
        if self.latency_ticks < 1:
            raise ValueError(
                f"link class {self.name!r} needs latency_ticks >= 1, "
                f"got {self.latency_ticks}"
            )


class Topology:
    """Two-level site/rack topology with per-class integer-tick latencies.

    The default (``sites=1, racks_per_site=1``) is the degenerate one-site
    topology: every pair shares one rack link of ``rack_ticks * quantum``
    delay, which with the defaults equals the flat fabric's ``latency=1.0``
    -- traces under it are bit-identical to running without a topology.
    """

    def __init__(
        self,
        sites: int = 1,
        racks_per_site: int = 1,
        quantum: float = 1.0,
        rack_ticks: int = 1,
        lan_ticks: int = 2,
        wan_ticks: int = 10,
        name: str = "custom",
        rack_bandwidth: str = "switched-100M",
        lan_bandwidth: str = "backbone-1G",
        wan_bandwidth: str = "T1",
    ):
        if sites < 1:
            raise ValueError(f"need at least one site, got {sites}")
        if racks_per_site < 1:
            raise ValueError(f"need at least one rack per site, got {racks_per_site}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.sites = sites
        self.racks_per_site = racks_per_site
        self.quantum = quantum
        self.name = name
        self.rack_class = LinkClass("rack", rack_ticks, rack_bandwidth)
        self.lan_class = LinkClass("lan", lan_ticks, lan_bandwidth)
        self.wan_class = LinkClass("wan", wan_ticks, wan_bandwidth)
        self._classes = {
            "rack": self.rack_class,
            "lan": self.lan_class,
            "wan": self.wan_class,
        }
        self._placement: Dict[int, Tuple[int, int]] = {}

    # -- placement -----------------------------------------------------------

    def place(self, identifier: int) -> Tuple[int, int]:
        """Deterministic (site, rack) placement of a machine identifier."""
        placed = self._placement.get(identifier)
        if placed is None:
            mixed = _mix64(identifier)
            site = mixed % self.sites
            rack = (mixed // self.sites) % self.racks_per_site
            placed = self._placement[identifier] = (site, rack)
        return placed

    # -- links ---------------------------------------------------------------

    def link(self, a: int, b: int) -> Tuple[str, LinkClass]:
        """The (link name, link class) connecting machines *a* and *b*."""
        site_a, rack_a = self.place(a)
        site_b, rack_b = self.place(b)
        if site_a != site_b:
            lo, hi = (site_a, site_b) if site_a < site_b else (site_b, site_a)
            return f"wan:{lo}-{hi}", self.wan_class
        if rack_a != rack_b:
            return f"lan:{site_a}", self.lan_class
        return f"rack:{site_a}.{rack_a}", self.rack_class

    def delay_ticks(self, a: int, b: int) -> int:
        """Per-pair delivery delay in quantum ticks."""
        return self.link(a, b)[1].latency_ticks

    def delay(self, a: int, b: int) -> float:
        """Per-pair delivery delay in virtual-time units."""
        return self.delay_ticks(a, b) * self.quantum

    def classes(self) -> Dict[str, LinkClass]:
        """All three link classes by name (rack/lan/wan)."""
        return dict(self._classes)

    def link_names(self) -> List[str]:
        """Every named link in the topology (for cut validation/iteration)."""
        names: List[str] = []
        for site in range(self.sites):
            for rack in range(self.racks_per_site):
                names.append(f"rack:{site}.{rack}")
            if self.racks_per_site > 1:
                names.append(f"lan:{site}")
        for lo in range(self.sites):
            for hi in range(lo + 1, self.sites):
                names.append(f"wan:{lo}-{hi}")
        return names

    def wan_links(self, site: Optional[int] = None) -> List[str]:
        """WAN link names, optionally only those touching *site*."""
        links = []
        for lo in range(self.sites):
            for hi in range(lo + 1, self.sites):
                if site is None or site in (lo, hi):
                    links.append(f"wan:{lo}-{hi}")
        return links

    def validate_links(self, names: Iterable[str]) -> None:
        """Raise ValueError if any name is not a link of this topology."""
        known = set(self.link_names())
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(
                f"unknown topology links {unknown!r}; known links are "
                f"{sorted(known)!r}"
            )

    # -- description ---------------------------------------------------------

    def describe(self) -> str:
        return (
            f"{self.name}(sites={self.sites}, racks={self.racks_per_site}, "
            f"ticks rack/lan/wan={self.rack_class.latency_ticks}/"
            f"{self.lan_class.latency_ticks}/{self.wan_class.latency_ticks}, "
            f"quantum={self.quantum})"
        )

    def __repr__(self) -> str:
        return f"<Topology {self.describe()}>"


def one_site(latency: float = 1.0) -> Topology:
    """The degenerate topology: one site, one rack, every pair *latency*.

    Trace-identical to the flat fabric with the same global latency.
    """
    return Topology(
        sites=1,
        racks_per_site=1,
        quantum=latency,
        rack_ticks=1,
        lan_ticks=1,
        wan_ticks=1,
        name="one-site",
    )


_PRESETS = {
    "one-site": lambda: one_site(),
    # A single-building campus: eight racks over one backbone.
    "campus": lambda: Topology(
        sites=1, racks_per_site=8, rack_ticks=1, lan_ticks=2, name="campus"
    ),
    # The paper section 2 corporate deployment: a few sites of desktop
    # LANs joined by WAN trunks an order of magnitude slower.
    "corporate": lambda: Topology(
        sites=4,
        racks_per_site=4,
        rack_ticks=1,
        lan_ticks=2,
        wan_ticks=10,
        name="corporate",
    ),
}

_SPEC_KEYS = {"sites", "racks", "rack", "lan", "wan", "quantum"}


def parse_topology(spec: Optional[str]) -> Optional[Topology]:
    """Parse a CLI topology spec into a :class:`Topology` (or None).

    Accepted forms::

        None / "" / "none" / "flat"    -> None (the flat fabric)
        "one-site" | "campus" | "corporate"  -> preset
        "sites=4,racks=2,rack=1,lan=2,wan=10,quantum=0.5"  -> custom
        "corporate,wan=20"             -> preset with overrides

    Keys: sites, racks (per site), rack/lan/wan (latency ticks), quantum.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec or spec.lower() in ("none", "flat"):
        return None
    parts = [part.strip() for part in spec.split(",") if part.strip()]
    overrides: Dict[str, float] = {}
    preset: Optional[str] = None
    for index, part in enumerate(parts):
        if "=" not in part:
            if index != 0:
                raise ValueError(
                    f"topology preset name must come first in {spec!r}"
                )
            if part not in _PRESETS:
                raise ValueError(
                    f"unknown topology preset {part!r}; presets: "
                    f"{sorted(_PRESETS)}"
                )
            preset = part
            continue
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ValueError(
                f"unknown topology key {key!r} in {spec!r}; keys: "
                f"{sorted(_SPEC_KEYS)}"
            )
        try:
            overrides[key] = float(raw) if key == "quantum" else int(raw)
        except ValueError:
            raise ValueError(f"bad value for topology key {key!r}: {raw!r}")
    if preset is not None and not overrides:
        return _PRESETS[preset]()
    base = _PRESETS[preset]() if preset is not None else Topology(name="custom")
    return Topology(
        sites=int(overrides.get("sites", base.sites)),
        racks_per_site=int(overrides.get("racks", base.racks_per_site)),
        quantum=float(overrides.get("quantum", base.quantum)),
        rack_ticks=int(overrides.get("rack", base.rack_class.latency_ticks)),
        lan_ticks=int(overrides.get("lan", base.lan_class.latency_ticks)),
        wan_ticks=int(overrides.get("wan", base.wan_class.latency_ticks)),
        name=preset or "custom",
        rack_bandwidth=base.rack_class.bandwidth,
        lan_bandwidth=base.lan_class.bandwidth,
        wan_bandwidth=base.wan_class.bandwidth,
    )


def topology_presets() -> List[str]:
    """Names accepted by :func:`parse_topology` as presets."""
    return sorted(_PRESETS)
