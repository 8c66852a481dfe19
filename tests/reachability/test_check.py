"""The reachability gate's logic, on a throwaway ``repro`` package.

The gate itself (``python -m tests.reachability.check``) runs every entry
point under the probe and takes minutes; these tests run the same probe
and checker over a few lines of code in a temporary tree.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from tests.reachability import check

DEMO = '''
import abc
import functools


def entered():
    return 1


def never_entered():
    return 2


def _decorator(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


@_decorator
def decorated():
    return 3


class Thing(abc.ABC):
    def __repr__(self):
        return "thing"

    @abc.abstractmethod
    def stub(self): ...

    def unused_method(self):
        return 4


class Owned:
    def kept_for_an_owner(self):
        return 5
'''


def _run_probe(tmp_path: Path, script: str):
    """Run *script* with the probe armed; return (definitions, entered)."""
    source = tmp_path / "src"
    (source / "repro").mkdir(parents=True)
    (source / "repro" / "__init__.py").write_text("")
    (source / "repro" / "demo.py").write_text(DEMO)
    hook = tmp_path / "hook"
    hook.mkdir()
    shutil.copy(check.HOOK, hook / "sitecustomize.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(source)])}
    subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, check=True)
    return check.defined_functions(source), check.read_entered(hook)


def test_gate_reports_only_what_nothing_entered(tmp_path):
    functions, entered = _run_probe(
        tmp_path, "from repro import demo\ndemo.entered()\ndemo.decorated()\n"
    )
    missing = check.unreached(functions, entered, ["repro.demo.Owned"])
    # A decorated function's code starts at its first decorator, so the
    # call through the wrapper counts.  Dunder methods and abstract stubs
    # are exempt, and so is everything inside an allowlisted class.
    assert missing == ["repro.demo.Thing.unused_method", "repro.demo.never_entered"]


def test_an_allowlisted_module_exempts_all_it_defines(tmp_path):
    functions, entered = _run_probe(tmp_path, "import repro.demo\n")
    assert check.unreached(functions, entered, ["repro.demo"]) == []
    assert "repro.demo.never_entered" in check.unreached(functions, entered, [])


def test_allowlist_is_short_and_every_entry_names_code():
    assert len(check.ALLOWLIST) <= 10
    functions = set(check.defined_functions(check.SOURCE).values())
    for names, reason in check.ALLOWLIST:
        assert reason
        for name in names:
            module = Path(check.SOURCE, *name.split(".")).with_suffix(".py")
            assert module.exists() or any(
                f == name or f.startswith(name + ".") for f in functions
            ), f"allowlist entry {name!r} names no code"
