"""The record store's modes, for the suites that run in every one.

A test id names the mode.  ``memory`` is the in-memory backend.  The durable
store runs ``wal`` at its default budget (resident at test sizes),
``wal-paged`` at budget 0 (paged from its first record) and ``wal-crossing``
at a budget of two records (resident, then paged from the third live record
on).
"""

from pathlib import Path

from repro.salad import storage
from repro.salad.database import RecordDatabase

BUDGETS = {"wal": None, "wal-paged": 0, "wal-crossing": 2 * storage.RECORD_BYTES}
DURABLE = tuple(BUDGETS)
MODES = ("memory",) + DURABLE


def open_store(mode, db_dir, capacity=None, name="store"):
    """A store of *mode* named *name* under *db_dir*; reopens an existing one."""
    if mode == "memory":
        return RecordDatabase(capacity=capacity)
    return storage.WalRecordStore(
        Path(db_dir) / f"{name}.wal", capacity=capacity, budget_bytes=BUDGETS[mode]
    )


def engine_budget(monkeypatch, mode):
    """Run every durable store an engine opens from now on in *mode*."""
    if BUDGETS[mode] is not None:
        monkeypatch.setattr(storage, "DEFAULT_BUDGET_BYTES", BUDGETS[mode])
