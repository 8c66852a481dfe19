"""The five workloads, by the names ``BENCHMARK.json`` gives them.

A workload is a module with ``NAME``, ``sizes(seconds, smoke)``,
``setup(seed, sizes, workdir)`` returning a state whose ``digest`` hashes
the generated inputs, ``measure(state, recorder)`` and ``discard(state)``.
Modules are imported on demand: each pulls in the program under test.
"""

from __future__ import annotations

import importlib
from types import ModuleType

MODULES = {
    "salad-insert": "bench.workloads.salad_insert",
    "salad-durable": "bench.workloads.salad_durable",
    "salad-growth": "bench.workloads.salad_growth",
    "dfc-corpus": "bench.workloads.dfc_corpus",
    "client-rw": "bench.workloads.client_rw",
}


def load(name: str) -> ModuleType:
    return importlib.import_module(MODULES[name])
