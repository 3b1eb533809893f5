"""One artifact writer that never leaves a partial file, one JSON type rule."""

import os
from pathlib import Path

import numpy as np
import pytest

from stare import cli, encoder as enc, fixtures, mli, retrieval
from stare.artifacts import (atomic_write, fields, fits, read_jsonl, write_header_blob,
                             write_json)
from stare.bucketing import LshIndex, minhash
from stare.corpus import Record, save_corpus
from stare.mining import ContrastiveGroup, save_groups


def test_atomic_write_keeps_old_bytes_when_the_block_raises(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"old bytes")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("new")
            raise RuntimeError("stage killed")
    assert path.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("binary,data", [(False, "a,b\r\nc\né"), (True, b"\x00\r\n\xff")])
def test_atomic_write_keeps_bytes(tmp_path, binary, data):
    path = tmp_path / "out"
    with atomic_write(path, binary=binary) as fh:
        fh.write(data)
    assert path.read_bytes() == (data if binary else data.encode("utf-8"))
    assert list(tmp_path.iterdir()) == [path]


def test_header_blob_holds_each_array_as_c_order_float64(tmp_path):
    arrays = [np.arange(3.0), np.arange(6).reshape(2, 3).T, np.ones((2, 1, 3)), np.empty((0, 4))]
    path = tmp_path / "blob.bin"
    write_header_blob(path, {"format_version": 1},
                      [(str(i), arr, arr.shape) for i, arr in enumerate(arrays)])
    assert path.read_bytes() == b'{"format_version": 1}\n' + b"".join(
        np.asarray(arr, np.float64).tobytes() for arr in arrays)


def _groups(d: Path):
    return lambda: save_groups([ContrastiveGroup("a", "p", ["h"], [], 0.5),
                                ContrastiveGroup("b", "q", [], [], 1.0)], d / "target")


def _unserializable_groups(d: Path):
    """The second group fails to serialize after the first was written."""
    return lambda: save_groups([ContrastiveGroup("a", "p", ["h"], [], 0.5),
                                ContrastiveGroup("b", "q", [], [], object())], d / "target")


def _lsh(d: Path):
    index = LshIndex(num_hashes=16, tau=0.5, seed=1)
    index.insert("r0", minhash({"a", "b"}, 16, 1))
    return lambda: index.save(d / "target")


def _params(d: Path):
    cfg = enc.EncoderConfig(vocab=enc.build_vocab(["a b"]), d=8, layers=2, heads=2, max_len=8)
    return lambda: enc.save_params(d / "target", enc.init_params(cfg), cfg)


def _index(d: Path):
    index = retrieval.RetrievalIndex(["r0"], np.ones((1, 4)) / 2,
                                     {"params_sha256": "ab", "injection": None})
    return lambda: retrieval.save_index(index, d / "target")


def _direction(d: Path):
    direction = enc.InjectionDirection(u=np.ones(4) / 2, layer=1, lam=1.0, prop="POS")
    return lambda: mli.save_direction(direction, d / "target", "ab")


def _sweep_report(d: Path):
    result = mli.SweepResult(best=None, best_score=0.5, baseline_score=0.5,
                             rows=[mli.SweepRow("", 0, 0.0, 0.5)])
    return lambda: mli.write_sweep_report(result, d / "target")


def _bucket(d: Path):
    fixtures.write_fixture(d / "fixture", fixtures.FixtureSpec(per_cluster=4, dev_per_cluster=1))
    return lambda: cli.main(["bucket", "--config", str(d / "fixture" / "config.json"),
                             "--out", str(d / "out")])


# Each writer: the files it would replace, and a setup returning the write.
_WRITERS = {
    "write_json": (["target"], lambda d: lambda: write_json(d / "target", {"a": 1})),
    "save_groups": (["target"], _groups),
    "save_groups_unserializable": (["target"], _unserializable_groups),
    "save_corpus": (["target"], lambda d: lambda: save_corpus(
        [Record("r0", "hi", "[IN:X ]")], d / "target")),
    "LshIndex.save": (["target"], _lsh),
    "save_params": (["target"], _params),
    "save_index": (["target"], _index),
    "save_direction": (["target"], _direction),
    "write_sweep_report": (["target"], _sweep_report),
    "write_fixture": (["train.jsonl", "config.json"], lambda d: lambda: fixtures.write_fixture(
        d, fixtures.FixtureSpec(per_cluster=2, dev_per_cluster=1))),
    "bucket": (["out/config_used.json", "out/lsh_index.json"], _bucket),
}


def _snapshot(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", list(_WRITERS))
def test_failed_write_leaves_the_target_unchanged(tmp_path, monkeypatch, name):
    targets, setup = _WRITERS[name]
    write = setup(tmp_path)
    for target in targets:
        (tmp_path / target).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / target).write_bytes(b"old bytes\n")
    before = _snapshot(tmp_path)

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    try:
        assert write() == cli.EXIT_DATA  # only the CLI returns; the others raise
    except (OSError, TypeError):
        pass
    assert _snapshot(tmp_path) == before


def test_stages_leave_no_temp_files(pipeline_runs):
    for run in pipeline_runs[1:]:
        assert not list(run.glob("*.tmp*"))


@pytest.mark.parametrize("value,hint,expected", [
    (1, float, True), (1.5, float, True), (True, float, False), (True, int, False),
    (True, bool, True), (1.0, int, False), ("1", int, False), (None, str | None, True),
    (7, str | int, True), (False, str | int, False), ({}, dict | None, True),
    (["a"], list[str], True), ("ab", list[str], False), (["a", 1], list[str], False),
    ([1, 2.5], list[float], True), ([True], list[float], False),
    (float("nan"), float, False), (float("inf"), float, False), (float("-inf"), float, False),
    (float("nan"), float | None, False), ([0.5, float("nan")], list[float], False),
    (10 ** 400, float, True)])
def test_fits(value, hint, expected):
    assert fits(value, hint) is expected


def test_fields_names_where_and_key():
    hints = {"id": str, "n": int}
    assert fields("f:3", {"n": 2, "id": "a", "extra": None}, hints) == ["a", 2]
    with pytest.raises(ValueError, match=r"^f:3: expected a JSON object"):
        fields("f:3", ["a", 2], hints)
    with pytest.raises(ValueError, match=r"^f:3: lacks key 'n'"):
        fields("f:3", {"id": "a"}, hints)
    with pytest.raises(ValueError, match=r"^f:3: 'n' must be int, got True"):
        fields("f:3", {"id": "a", "n": True}, hints)


def test_read_jsonl_names_the_bad_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n{"b": \n', encoding="utf-8")
    rows = read_jsonl(path)
    assert next(rows) == (f"{path}:1", {"a": 1})
    assert next(rows) == (f"{path}:3", [2])
    with pytest.raises(ValueError, match=r"rows\.jsonl:4: invalid JSON"):
        next(rows)
