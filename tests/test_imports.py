"""What a fresh process loads when it imports part of ``stare``.

The package root re-exports nothing, so ``import stare`` costs no numpy and
no stage module, and each name has one import path: its module's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str):
    """Run ``code`` in a fresh interpreter that imports this ``stare``; return
    the JSON it prints."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = ("import json, sys; print(json.dumps(sorted(name for name in sys.modules "
           "if name == 'numpy' or name.startswith(('numpy.', 'stare.')))))")


def test_package_root_loads_no_numpy_and_no_submodule():
    assert _run("import stare; " + _LOADED) == []


@pytest.mark.parametrize("module", ["stare.ted", "stare.trees"])
def test_tree_modules_load_no_numpy(module):
    loaded = _run(f"import {module}; " + _LOADED)
    assert module in loaded
    assert not [name for name in loaded if name.split(".")[0] == "numpy"]


def test_ted_names_the_module_after_the_cli_is_imported():
    assert _run("import json, types; import stare.cli; import stare.ted as m; "
                "print(json.dumps([isinstance(m, types.ModuleType), m.__name__, "
                "m.ted.__module__, callable(m.ted)]))") == [True, "stare.ted", "stare.ted", True]
