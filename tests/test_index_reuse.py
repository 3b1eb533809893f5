"""``eval`` saves the trained indexes; ``retrieve`` uses the one for its
injection only when ``retrieval.index_mismatch`` finds no field in which it
differs from the bank, params and injection in use. A stale saved index is
rebuilt in memory, and the INFO log names the field."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from stare import cli, encoder, mli, retrieval
from stare.corpus import Corpus, Record, load_corpus

QUERY = "hey remind me to pack boxes thanks"
INDEX_FILES = ("index_trained.bin", "index_trained_mli.bin")


@pytest.fixture
def run(pipeline_runs, tmp_path):
    """Private copies of the fixture inputs and of one finished run."""
    fix_dir, run_a, _ = pipeline_runs
    shutil.copytree(fix_dir, tmp_path / "fixture")
    shutil.copytree(run_a, tmp_path / "run")
    return tmp_path / "fixture", tmp_path / "run"


@pytest.fixture
def build_calls(monkeypatch):
    """The arguments of every ``retrieval.build_index`` call."""
    calls = []
    real = retrieval.build_index

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(retrieval, "build_index", spy)
    return calls


def _retrieve(run, *extra: str) -> tuple[int, str]:
    fix, out = run
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["retrieve", "--config", str(fix / "config.json"), "--out", str(out),
                         "--query", QUERY, "--k", "5", "--format", "json", *extra])
    return code, buf.getvalue()


def test_eval_saves_the_indexes_it_ranks_with(pipeline_runs):
    """Two seed-0 runs write byte-identical index files, each equal to the
    index ``build_index`` gives for its run's bank, params and injection."""
    fix_dir, run_a, run_b = pipeline_runs
    bank = load_corpus(fix_dir / "train.jsonl", "bracketed")
    params, cfg = encoder.load_params(run_a / "encoder.params")
    injection = mli.load_direction(run_a / "direction.json")
    assert injection is not None
    for name, inj in zip(INDEX_FILES, (None, injection)):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
        saved = retrieval.load_index(run_a / name)
        built = retrieval.build_index(bank, params, cfg, inj)
        assert retrieval.index_mismatch(saved, bank, params, cfg, inj) is None
        assert saved.provenance == built.provenance
        assert np.array_equal(saved.embeddings, built.embeddings)


@pytest.mark.parametrize("use_direction", [False, True])
def test_matching_index_is_loaded_not_built(run, build_calls, use_direction):
    extra = ["--use-direction"] if use_direction else []
    saved = _retrieve(run, *extra)
    assert not build_calls
    for name in INDEX_FILES:
        (run[1] / name).unlink()
    rebuilt = _retrieve(run, *extra)
    assert len(build_calls) == 1
    assert saved == rebuilt
    assert saved[0] == 0 and json.loads(saved[1])


@pytest.mark.parametrize("use_direction", [False, True])
def test_retrieve_hashes_the_params_once(run, monkeypatch, use_direction):
    """A loaded index is checked against the params and a built one holds
    their digest, so ranking the query takes no second hash."""
    fingerprint = encoder.params_fingerprint
    calls = []

    def counting(params):
        calls.append(1)
        return fingerprint(params)

    monkeypatch.setattr(encoder, "params_fingerprint", counting)
    extra = ["--use-direction"] if use_direction else []

    def hashes() -> int:
        calls.clear()
        assert _retrieve(run, *extra)[0] == 0
        return len(calls)

    saved = hashes()
    for name in INDEX_FILES:
        (run[1] / name).unlink()
    assert (saved, hashes()) == (1, 1)


def _retrain(fix: Path, out: Path) -> None:
    """Other params under the same config, as a rerun of ``train`` would
    write, and ``direction.json`` fitted to them, as a rerun of ``mli``
    keeping its pick would write."""
    params, cfg = encoder.load_params(out / "encoder.params")
    params = {name: arr.copy() for name, arr in params.items()}
    params["tok_emb"][1:] *= 1.01
    encoder.save_params(out / "encoder.params", params, cfg)
    mli.save_direction(mli.load_direction(out / "direction.json"), out / "direction.json",
                       encoder.params_fingerprint(params))


def _new_direction(fix: Path, out: Path) -> None:
    path = out / "direction.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["lambda"] = payload["lambda"] / 2
    path.write_text(json.dumps(payload), encoding="utf-8")


def _edit_utterance(fix: Path, out: Path) -> None:
    """The first record of the bank now reads as the query, under its old id."""
    path = fix / "train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "utterance": QUERY}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


# change -> (how, the field index_mismatch names, whether it stales the plain index)
CHANGES = {"params": (_retrain, "params_sha256", True),
           "direction": (_new_direction, "injection", False),
           "utterance": (_edit_utterance, "inputs_sha256", True)}


@pytest.mark.parametrize("use_direction", [False, True])
@pytest.mark.parametrize("change", list(CHANGES))
def test_stale_index_is_rebuilt(run, build_calls, caplog, change, use_direction):
    caplog.set_level(logging.INFO, logger="stare")
    how, field, stales_plain = CHANGES[change]
    how(*run)
    stale = use_direction or stales_plain
    path = run[1] / INDEX_FILES[use_direction]
    extra = ["--use-direction"] if use_direction else []

    code, stdout = _retrieve(run, *extra)
    assert code == 0
    assert len(build_calls) == stale
    assert (f"{path}: its {field} differs" in caplog.text) == stale

    for name in INDEX_FILES:
        (run[1] / name).unlink()
    assert _retrieve(run, *extra) == (0, stdout)


def test_index_mismatch_names_the_first_field():
    bank = Corpus([Record("a", "call ravi", "[IN:C ]"), Record("b", "pack boxes", "[IN:P ]")],
                  "bracketed")
    cfg = encoder.EncoderConfig(vocab=encoder.build_vocab(["call ravi", "pack boxes"]),
                                d=8, layers=2, heads=2, max_len=8, seed=0)
    params = encoder.init_params(cfg)
    other_params = encoder.init_params(dataclasses.replace(cfg, seed=1))
    injection = encoder.InjectionDirection(u=np.eye(8)[0], layer=1, lam=1.0, prop="POS")
    index = retrieval.build_index(bank, params, cfg)
    edited = Corpus([bank.get("a"), Record("b", "pack ravi", "[IN:P ]")], "bracketed")
    assert retrieval.index_mismatch(index, bank, params, cfg) is None
    assert retrieval.index_mismatch(index, Corpus([bank.get("a")], "bracketed"),
                                    other_params, cfg, injection) == "ids"
    assert retrieval.index_mismatch(index, edited, other_params, cfg, injection) \
        == "inputs_sha256"
    truncating = dataclasses.replace(cfg, max_len=1)
    assert retrieval.index_mismatch(index, bank, params, truncating) == "inputs_sha256"
    assert retrieval.index_mismatch(index, bank, other_params, cfg, injection) \
        == "params_sha256"
    assert retrieval.index_mismatch(index, bank, params, cfg, injection) == "injection"


@pytest.mark.parametrize("field", ["params_sha256", "injection"])
def test_dense_ranker_names_the_field_index_mismatch_names(field):
    bank = Corpus([Record("a", "call ravi", "[IN:C ]"), Record("b", "pack boxes", "[IN:P ]")],
                  "bracketed")
    cfg = encoder.EncoderConfig(vocab=encoder.build_vocab(["call ravi", "pack boxes"]),
                                d=8, layers=2, heads=2, max_len=8, seed=0)
    params = encoder.init_params(cfg)
    injection = encoder.InjectionDirection(u=np.eye(8)[0], layer=1, lam=1.0, prop="POS")
    index = retrieval.build_index(bank, params, cfg)
    if field == "params_sha256":
        params = encoder.init_params(dataclasses.replace(cfg, seed=1))
    assert retrieval.index_mismatch(index, bank, params, cfg, injection) == field
    with pytest.raises(ValueError, match=f"^the query's {field} differs from the index's$"):
        retrieval.make_dense_ranker(index, params, cfg, injection)


def test_version_1_index_refused(run, caplog):
    path = run[1] / "index_trained.bin"
    line, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(line)
    del header["provenance"]["inputs_sha256"]
    path.write_bytes(json.dumps({**header, "format_version": 1}).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match="not a version 2 file"):
        retrieval.load_index(path)
    assert _retrieve(run)[0] == 2
    assert f"{path}: not a version 2 file" in caplog.text
