"""Every ``repro`` module imports cleanly as the first import of the
package.

A circular import only shows when a module of the cycle is imported
*first* (e.g. ``import repro.exec`` on a fresh interpreter), which the
rest of the suite never does: it imports ``repro.core`` and friends in
whatever order its files happen to load.  One subprocess probes every
module; before each import it drops every ``repro`` module from
``sys.modules``, so each import starts from a package-fresh state.
"""

import json
import os
import pkgutil
import subprocess
import sys

import repro

_PROBE = """
import importlib, json, sys
failed = {}
for name in sys.argv[1:]:
    for mod in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[mod]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(failed))
"""


def test_every_module_imports_first():
    modules = sorted(
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    assert "repro.exec.engine" in modules
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, "repro", *modules],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    failed = json.loads(out.stdout.strip().splitlines()[-1])
    assert failed == {}
