"""The repo benchmark: five workloads measured from outside the program.

Run from the repository root::

    python3 -m bench run                 # every workload, plain + traced
    python3 -m bench run --smoke         # the same at ~1/20 size
    python3 -m bench compare A.json B.json
    python3 -m bench selftest

``BENCHMARK.json`` at the repository root is the contract this package is
written to; ``bench/README.md`` explains every metric and workload.
"""
