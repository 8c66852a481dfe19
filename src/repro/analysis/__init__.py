"""Analysis utilities: space accounting and report rendering.

- :mod:`repro.analysis.space` -- consumed/reclaimed space computation from
  SALAD match notifications (the y-axis of Figs. 7, 8, and 13).
- :mod:`repro.analysis.reporting` -- fixed-width tables of each figure's
  series.
"""

from repro.analysis.space import SpaceAccounting, reclaimed_bytes_from_matches

__all__ = ["SpaceAccounting", "reclaimed_bytes_from_matches"]
