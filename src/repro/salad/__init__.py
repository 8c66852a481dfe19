"""SALAD: a Self-Arranging, Lossy, Associative Database (paper section 4).

SALAD stores `(fingerprint, location)` records for every file in the system,
partitioned statistically among all machines ("leaves") with no central
coordination.  Leaves and records share a cell-ID address space derived from
the low bits of their 20-byte identifiers; records are stored redundantly on
every leaf of the cell-aligned cell; cells form a D-dimensional hypercube
routed in at most D hops.

Module map:

- :mod:`repro.salad.ids` -- cell-IDs and coordinate extraction (Eqs. 6-10).
- :mod:`repro.salad.records` -- fingerprint records.
- :mod:`repro.salad.database` -- per-leaf in-memory record store with the
  Fig. 13 size-limit eviction policy.
- :mod:`repro.salad.storage` -- the RecordStore backend contract plus the
  durable append-log (WAL) store with crash recovery, which keeps its
  records resident up to a byte budget and pages them from the log past it.
- :mod:`repro.salad.leaf` -- the leaf state machine (leaf table, record
  insertion per Fig. 4, join handling per Fig. 5, width recalc per Fig. 6).
- :mod:`repro.salad.width` -- the Fig. 6 cell-ID width procedure.
- :mod:`repro.salad.model` -- the paper's analytic formulas (Eqs. 5-20).
- :mod:`repro.salad.attack` -- the section 4.7 targeted-attack model.
- :mod:`repro.salad.salad` -- whole-system orchestration over the simulator,
  configured by :class:`SaladConfig` alone (:class:`RunSettings` carries the
  fields a CLI run sets for every engine).
"""

from repro.salad.ids import cell_id, cell_id_width, coordinate, coordinate_width, coordinates
from repro.salad.database import RecordDatabase
from repro.salad.leaf import SaladLeaf
from repro.salad.records import SaladRecord
from repro.salad.salad import RunSettings, Salad, SaladConfig
from repro.salad.storage import (
    BACKENDS,
    RecordStore,
    WalRecordStore,
    make_record_store,
)

__all__ = [
    "RecordDatabase",
    "BACKENDS",
    "RecordStore",
    "WalRecordStore",
    "make_record_store",
    "RunSettings",
    "Salad",
    "SaladConfig",
    "SaladLeaf",
    "SaladRecord",
    "cell_id",
    "cell_id_width",
    "coordinate",
    "coordinate_width",
    "coordinates",
]
