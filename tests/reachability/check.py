"""Reachability gate: every function in ``src/repro`` is entered by some caller.

Runs the repository's entry points (below) with the probe in ``hook/`` on
``PYTHONPATH``, then walks ``src/repro`` with :mod:`ast` and lists every
function definition that no run entered.  Dunder methods, abstract stubs
and the allowlist are exempt.  Exits non-zero, naming each function, when
anything is left.  From the repository root::

    python -m tests.reachability.check

The probe triples the runs' wall time: the whole gate takes about 100 s
on 2 vCPUs.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook" / "sitecustomize.py"

#: Code reached only by tests, kept because a test oracle, the benchmark or
#: an open ROADMAP item owns it.  Each entry names modules, classes or
#: functions (dotted, from ``repro``); everything defined inside them is
#: exempt.  Keep it short: an entry that loses its owner is deleted with
#: the code it names.
ALLOWLIST: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("repro.salad.storage._OffsetIndex", "repro.salad.storage._key64",
      "repro.salad.storage._decode_insert", "repro.salad.storage._remove_frame",
      *(f"repro.salad.storage.WalRecordStore.{name}" for name in (
          "resident_bytes", "_record_at", "_cache_put", "_matches", "_find",
          "_insert_paged", "_admit", "_drop_location", "_start_paging",
          "_page_out", "compact"))),
     "the paged store layout and its compaction: ROADMAP item 8 decides their fate"),
    (("repro.salad.storage.RecordStore.insert_many",),
     "a batch insert the bench tracer wraps and benchmarks/record_trajectory.py times"),
    (("repro.core.security_model", "repro.crypto.random_oracle",
      "repro.core.convergent.verify_convergent"),
     "the section 3.1 security model: ROADMAP item 17"),
    (("repro.salad.model.expected_leaf_table_size_exact_width",
      "repro.salad.model.fingerprint_collision_probability"),
     "the exact-width T and the collision probability: ROADMAP item 9's rows"),
    (("repro.workload.generator.paper_scale_spec",),
     "the paper-scale corpus: ROADMAP item 8's ladder"),
    (("repro.sim.network.Network.partition", "repro.sim.network.Network.heal_partition",
      "repro.sim.network.Network._partitioned"),
     "the partition fault model: ROADMAP item 9 drives it"),
    (("repro.farsite.client.FarsiteClient.delete_file", "repro.farsite.namespace.Namespace.remove",
      "repro.farsite.directory_group.DirectoryGroup.delete",
      "repro.salad.database.RecordDatabase.remove_location",
      "repro.salad.storage.WalRecordStore.remove_location"),
     "the delete path: ROADMAP item 2's stale-records rider and item 1B's versioned arm"),
    (("repro.core.convergent.ConvergentCiphertext.add_reader",
      "repro.core.convergent.ConvergentCiphertext.metadata_bytes",
      "repro.core.convergent.reencrypt_key_for", "repro.farsite.file_host.FileHost.add_reader_key"),
     "section 3's reader grant and its per-reader key space; the client integrity "
     "tests forge key entries through it"),
    (("repro.sim.tracer._matching_prefix", "repro.salad.records.SaladRecord.routing_id"),
     "the record-progress invariant's arithmetic: it runs only when every leaf "
     "has one width, which tests force; a runtime harvest reports it skipped"),
    (("repro.farsite.node.FarsiteDeployment.collect_metrics",),
     "the deployment's relocation counters: ROADMAP item 18; the bench's client-rw "
     "harvest reads only the SALAD's (CHANGES.md FOUND)"),
)


def defined_functions(source: Path) -> Dict[Tuple[str, int], str]:
    """``(file, first line) -> dotted name`` of every non-exempt function.

    A decorated function's code starts at its first decorator.  Dunder
    methods and ``abc.abstractmethod`` stubs are left out.
    """
    found: Dict[Tuple[str, int], str] = {}
    for path in sorted((source / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(source).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, module, os.path.realpath(path), found)
    return found


def _walk(node: ast.AST, prefix: str, filename: str, found: Dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _walk(child, f"{prefix}.{child.name}", filename, found)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            dunder = child.name.startswith("__") and child.name.endswith("__")
            if not dunder and not _is_abstract(child):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(filename, first)] = name
            _walk(child, name, filename, found)
        else:
            _walk(child, prefix, filename, found)


def _is_abstract(function: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in function.decorator_list
    )


def unreached(
    functions: Dict[Tuple[str, int], str],
    entered: Set[Tuple[str, int]],
    allowlist: Iterable[str],
) -> List[str]:
    """Names of the functions nothing entered and no allowlist entry covers."""
    allowed = tuple(allowlist)
    return sorted(
        name
        for where, name in functions.items()
        if where not in entered
        and not any(name == entry or name.startswith(entry + ".") for entry in allowed)
    )


def read_entered(directory: Path) -> Set[Tuple[str, int]]:
    """Every ``(file, first line)`` the probe's per-process files name."""
    entered: Set[Tuple[str, int]] = set()
    for path in directory.glob("entered-*.txt"):
        for line in path.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            entered.add((os.path.realpath(filename), int(first)))
    return entered


def entry_points(out: Path) -> List[Sequence[str]]:
    """The commands that run ``src/`` outside pytest, one process tree each."""
    python = sys.executable
    runner = [python, "-m", "repro.experiments.runner", "--scale", "small", "--workers", "1"]
    flagship = [python, "-m", "repro.experiments.flagship", "--smoke", "--db-backend", "wal"]
    return [
        *([python, str(example)] for example in sorted((ROOT / "examples").glob("*.py"))),
        runner,
        [*runner, "--only", "fig07", "fig13", "fig-tradeoff", "--db-backend", "wal",
         "--json", str(out / "durable.json")],
        [*runner, "--only", "fig-topology", "--topology", "corporate",
         "--traffic", "rate=12,waves=9,contents=64"],
        [*runner, "--only", "fig-tradeoff", "--replication-factor", "3",
         "--metrics-out", str(out / "tradeoff.json")],
        [python, "-m", "repro.obs", str(out / "tradeoff.json")],
        [*runner, "--only", "fig07", "fig-topology", "--topology", "one-site",
         "--trace-sample-rate", "0.05", "--trace-invariants",
         "--trace-out", str(out / "trace.json"), "--metrics-out", str(out / "traced.json")],
        [python, "-m", "bench", "selftest"],
        [python, "-m", "bench", "run", "--smoke", "--out", str(out / "bench.json")],
        [*flagship, "--metrics-out", str(out / "flagship.json")],
        [*flagship, "--trace-sample-rate", "0.01", "--trace-out", str(out / "flagship-trace.json"),
         "--flight-recorder", str(out / "flight.jsonl"),
         "--metrics-out", str(out / "flagship-traced.json")],
        [python, "-m", "repro.obs", "tail", str(out / "flight.jsonl")],
        [python, "-m", "repro.workload", "generate", "--machines", "8", "--files", "10",
         "-o", str(out / "corpus.json.gz")],
        [python, "-m", "repro.workload", "stats", str(out / "corpus.json.gz")],
        [python, "-m", "repro.workload", "scan", "examples", "-o", str(out / "scan.json")],
        [python, "benchmarks/record_trajectory.py", "--smoke", "--output",
         str(out / "trajectory.json"), "--metrics-out", str(out / "trajectory-metrics.json")],
    ]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook, out = Path(scratch) / "hook", Path(scratch) / "out"
        hook.mkdir()
        out.mkdir()
        shutil.copy(HOOK, hook / "sitecustomize.py")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(SOURCE)])}
        for command in entry_points(out):
            print("==", " ".join(command[1:]), flush=True)
            done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"entry point failed with code {done.returncode}", file=sys.stderr)
                return 2
        entered = read_entered(hook)
    allowed = [name for names, _ in ALLOWLIST for name in names]
    missing = unreached(defined_functions(SOURCE), entered, allowed)
    for name in missing:
        print(f"never entered: {name}", file=sys.stderr)
    print(f"{len(missing)} function(s) entered by no entry point", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
