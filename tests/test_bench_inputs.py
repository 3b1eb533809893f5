"""Each benchmark workload's set-up at seed 0 writes the bytes that
``perfbench/pins.json`` pins: ``perfbench/run.py`` makes the same comparison
before it times anything and stops on a mismatch. So a change to an input
generator (``fixtures.generate``, ``sqlbank``, ``build_vocab``,
``init_params`` or ``save_params``) fails here, not in the benchmark."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run as bench  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("name", sorted(workload.SETUPS))
def test_setup_at_seed_0_writes_the_pinned_inputs(tmp_path, name):
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))[name]
    workload.SETUPS[name](tmp_path / "inputs", bench.DEFAULT_SEED)
    assert bench.input_hashes(tmp_path / "inputs") == pins
