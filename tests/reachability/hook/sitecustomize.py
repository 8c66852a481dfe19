"""Reachability probe: record every ``repro`` function a process enters.

Python imports ``sitecustomize`` at start-up from the first directory of
``sys.path`` that holds one, so putting this directory on ``PYTHONPATH``
arms the probe in every interpreter that inherits the environment (bench's
per-workload children included).  A profile function collects the code
objects that start running; at exit the process writes their
``file<TAB>first line`` to ``entered-<pid>.txt`` beside this module.
``tests/reachability/check.py`` copies the module into a scratch directory,
runs the entry points with it on the path and reads the files back.
"""

import atexit
import os
import sys
import threading

_entered = set()


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def _write():
    sys.setprofile(None)
    marker = f"{os.sep}repro{os.sep}"
    lines = sorted(
        {f"{code.co_filename}\t{code.co_firstlineno}\n" for code in _entered
         if marker in code.co_filename}
    )
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, f"entered-{os.getpid()}.txt"), "w") as handle:
        handle.writelines(lines)


atexit.register(_write)
threading.setprofile(_profile)
sys.setprofile(_profile)
