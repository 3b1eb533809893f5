"""One table of corrupted inputs: every stage that reads the input fails as a
data error (exit 2) that names the file, without a traceback, and leaves the
run directory byte-unchanged. Below the table: a failed stage keeps the old
``config_used.json``, ``mine`` refuses an LSH index built under another
``bucketing`` section, a malformed ``encoder.params`` config or record parse,
a missing ``direction.json`` under ``--use-direction``, ``mli`` that reads no
``dev.jsonl`` and refuses a bank of ``mli.k`` records,
the non-finite rule, a ``train`` or ``mli`` killed mid-run, and the reader of
``stare.artifacts`` that the table rests on."""

from __future__ import annotations

import ast
import builtins
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stare import bucketing, cli, encoder, mining, mli, retrieval
from stare.artifacts import read_json, read_lines, write_json
from stare.corpus import Corpus, Record
from stare.trees import ParseError

QUERY = "hey call ravi thanks"


def _truncate(data: bytes) -> bytes:
    """Cut in the middle of the line that holds the file's midpoint, so the
    result is malformed rather than a shorter valid file."""
    half = len(data) // 2
    start = data.rfind(b"\n", 0, half) + 1
    end = data.find(b"\n", half)
    return data[:(start + (len(data) if end < 0 else end)) // 2]


def _flip_blob_byte(data: bytes) -> bytes:
    out = bytearray(data)
    out[-len(out) // 4] ^= 0x01
    return bytes(out)


def _duplicate_first_line(data: bytes) -> bytes:
    return data + data[:data.index(b"\n") + 1]


def _nan(pattern: bytes):
    return lambda data: re.sub(pattern, rb"\1NaN", data, count=1)


def _nan_blob(data: bytes) -> bytes:
    """The first float64 after the header line set to NaN: ``tok_emb[0, 0]``
    (the UNK row) of ``encoder.params``, the first row's first value of an index."""
    start = data.index(b"\n") + 1
    return data[:start] + np.float64(np.nan).tobytes() + data[start + 8:]


CORRUPTIONS = {"truncated": _truncate, "empty": lambda data: b"", "list": lambda data: b"[]",
               "not_utf8": lambda data: b"\xff" + data}
STAGES = ("bucket", "mine", "train", "mli", "eval", "retrieve")

# input -> (directory, stages that read it, extra corruptions)
INPUTS = {
    "config.json": ("fixture", STAGES, {}),
    "train.jsonl": ("fixture", STAGES, {"duplicate_line": _duplicate_first_line}),
    "dev.jsonl": ("fixture", ("eval",), {"duplicate_line": _duplicate_first_line}),
    "pos.tsv": ("fixture", ("mli",), {}),
    "lsh_index.json": ("run", ("mine",), {"nan": _nan(rb'("tau": )[-+.\deE]+')}),
    "pairs.jsonl": ("run", ("train",), {"nan": _nan(rb'("positive_sim": )[-+.\deE]+')}),
    "encoder.params": ("run", ("mli", "eval", "retrieve"), {"flipped_blob": _flip_blob_byte,
                                                              "nan_blob": _nan_blob}),
    "direction.json": ("run", ("eval", "retrieve"), {"nan": _nan(rb'("u": \[)[^,\]]+')}),
}

BLOB_XFAIL = pytest.mark.xfail(strict=True, reason=(
    "a flipped blob byte loads as other weights until encoder.params carries its "
    "sha256 in the header (ROADMAP item 3)"))


def _cases():
    for name, (_, stages, extra) in INPUTS.items():
        for corruption in [*CORRUPTIONS, *extra]:
            for stage in stages:
                if corruption == "flipped_blob" and stage == "mli":
                    continue  # the same silent load as under eval, at the cost of a sweep
                marks = [BLOB_XFAIL] if corruption == "flipped_blob" else []
                yield pytest.param(name, corruption, stage, marks=marks,
                                   id=f"{name}-{corruption}-{stage}")


def _snapshot(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def copied_run(pipeline_runs, tmp_path):
    """A private copy of the fixture inputs and of one finished run, removed
    afterwards so the table does not keep a 1.8 MB run per case on disk."""
    fix_dir, run_a, _ = pipeline_runs
    root = tmp_path.resolve()
    dirs = {"fixture": root / "fixture", "run": root / "run"}
    shutil.copytree(fix_dir, dirs["fixture"])
    shutil.copytree(run_a, dirs["run"])
    yield dirs
    shutil.rmtree(root, ignore_errors=True)


def _child_env() -> dict[str, str]:
    """The environment of a child process that imports this ``stare``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _argv(stage: str, dirs: dict[str, Path]) -> list[str]:
    argv = [stage, "--config", str(dirs["fixture"] / "config.json"), "--out", str(dirs["run"])]
    if stage == "retrieve":
        argv += ["--query", QUERY, "--k", "3", "--use-direction"]
    return argv


@pytest.mark.parametrize("name,corruption,stage", list(_cases()))
def test_corrupt_input_is_a_named_data_error(copied_run, caplog, capsys,
                                             name, corruption, stage):
    where, _, extra = INPUTS[name]
    path = copied_run[where] / name
    data = path.read_bytes()
    damaged = {**CORRUPTIONS, **extra}[corruption](data)
    assert damaged != data
    path.write_bytes(damaged)
    before = _snapshot(copied_run["run"])

    code = cli.main(_argv(stage, copied_run))

    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert str(path) in caplog.text
    assert "Traceback" not in caplog.text + err
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("replacement", ["other_fixture", *CORRUPTIONS, *INPUTS["dev.jsonl"][2]])
def test_mli_reads_no_dev(copied_run, tmp_path, replacement):
    """``mli`` selects its injection leave-one-out over the bank, so another
    fixture's ``dev.jsonl``, or a corrupt one, leaves its artifacts
    byte-identical: only ``eval`` reads ``dev``."""
    path = copied_run["fixture"] / "dev.jsonl"
    if replacement == "other_fixture":
        assert cli.main(["fixture-gen", "--out", str(tmp_path / "other"), "--seed", "1"]) == 0
        damaged = (tmp_path / "other" / "dev.jsonl").read_bytes()
    else:
        damaged = {**CORRUPTIONS, **INPUTS["dev.jsonl"][2]}[replacement](path.read_bytes())
    assert damaged != path.read_bytes()
    path.write_bytes(damaged)
    names = ("mli_grid.csv", "direction.json")
    before = {name: (copied_run["run"] / name).read_bytes() for name in names}

    assert cli.main(_argv("mli", copied_run)) == cli.EXIT_OK
    assert {name: (copied_run["run"] / name).read_bytes() for name in names} == before


def test_mli_bank_of_k_records_is_a_data_error(copied_run, caplog, capsys):
    """Left out, each of k bank records has k - 1 others to retrieve from, so
    ``mli`` on a bank of exactly ``mli.k`` records is exit 2 with ``_head``'s
    message, and the run directory is unchanged."""
    k = read_json(copied_run["fixture"] / "config.json")["mli"]["k"]
    path = copied_run["fixture"] / "train.jsonl"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:k]),
                    encoding="utf-8")
    before = _snapshot(copied_run["run"])

    code = cli.main(_argv("mli", copied_run))

    assert code == cli.EXIT_DATA
    assert f"k={k} exceeds {k - 1} available records" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("corruption", [*CORRUPTIONS, "nan_blob"])
@pytest.mark.parametrize("name", ["index_trained.bin", "index_trained_mli.bin"])
def test_corrupt_saved_index_is_a_named_data_error(copied_run, caplog, capsys, name,
                                                   corruption):
    """``retrieve`` reads the index ``eval`` saved for its injection; an
    unreadable one is exit 2 naming it, not a silent rebuild."""
    path = copied_run["run"] / name
    path.write_bytes({**CORRUPTIONS, "nan_blob": _nan_blob}[corruption](path.read_bytes()))
    before = _snapshot(copied_run["run"])
    argv = _argv("retrieve", copied_run)
    if name == "index_trained.bin":
        argv.remove("--use-direction")

    code = cli.main(argv)

    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert str(path) in caplog.text
    assert "Traceback" not in caplog.text + err
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("stage,where,name,damage", [
    ("train", "run", "pairs.jsonl", Path.unlink),
    ("mli", "fixture", "pos.tsv", lambda path: path.write_bytes(_truncate(path.read_bytes())))],
    ids=["train-no_pairs", "mli-truncated_pos"])
def test_failed_stage_keeps_config_used(copied_run, caplog, monkeypatch, stage, where, name,
                                        damage):
    """``config_used.json`` records the config of the last stage that
    succeeded: a stage that fails on its inputs does not rewrite it, even
    under an override that would change it."""
    damage(copied_run[where] / name)
    monkeypatch.setenv("STARE_MINING_N_HARD", "1")
    path = copied_run["run"] / "config_used.json"
    old = path.read_bytes()
    assert cli.main(_argv(stage, copied_run)) == cli.EXIT_DATA
    assert name in caplog.text
    assert path.read_bytes() == old
    assert cli.main(_argv("bucket", copied_run)) == cli.EXIT_OK
    assert read_json(path)["mining"]["n_hard"] == 1


@pytest.mark.parametrize("key,value,built", [("seed", "8", "7"), ("tau", "0.6", "0.5"),
                                             ("num_hashes", "64", "128")])
def test_mine_refuses_index_of_other_bucketing(copied_run, caplog, monkeypatch, key, value,
                                                built):
    """``mine`` reads ``lsh_index.json`` only under the ``bucketing`` section
    that built it: another is exit 2 naming the key and both values, and
    ``pairs.jsonl`` and ``config_used.json`` keep their bytes."""
    monkeypatch.setenv(f"STARE_BUCKETING_{key.upper()}", value)
    before = _snapshot(copied_run["run"])
    assert cli.main(_argv("mine", copied_run)) == cli.EXIT_DATA
    assert (f"built with bucketing.{key} = {built}, but the config has {value}; "
            "rerun 'bucket'") in caplog.text
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("records", ["kept", "none"])
def test_mine_refuses_index_of_other_p_before_building_it(copied_run, records):
    """A header ``P`` of 10**12, with its records or with none, is refused as
    another ``bucketing.num_hashes`` before the index is built (building it
    would take hours): exit 2 in a child within the timeout, and the run
    directory keeps its bytes."""
    path = copied_run["run"] / "lsh_index.json"
    payload = read_json(path)
    payload["P"] = 10**12
    if records == "none":
        payload["records"] = []
    path.write_text(json.dumps(payload), encoding="utf-8")
    before = _snapshot(copied_run["run"])
    proc = subprocess.run([sys.executable, "-m", "stare.cli", *_argv("mine", copied_run)],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_DATA
    assert (f"{path}: built with bucketing.num_hashes = {10**12}, but the config has 128; "
            "rerun 'bucket'") in proc.stderr
    assert _snapshot(copied_run["run"]) == before


def test_stages_refuse_params_of_other_encoder_settings(copied_run, caplog, capsys,
                                                       monkeypatch):
    """``mli``, ``eval`` and ``retrieve`` run ``encoder.params`` only under the
    ``encoder`` section that trained it: another is exit 2 naming the key and
    both values, and the run directory keeps its bytes."""
    monkeypatch.setenv("STARE_ENCODER_SEED", "9")
    before = _snapshot(copied_run["run"])
    for stage in ("mli", "eval", "retrieve"):
        caplog.clear()
        assert cli.main(_argv(stage, copied_run)) == cli.EXIT_DATA
        assert (f"{copied_run['run'] / 'encoder.params'}: built with encoder.seed = 1, "
                "but the config has 9; rerun 'train'") in caplog.text
    assert capsys.readouterr().out == ""
    assert _snapshot(copied_run["run"]) == before


def _last_vocab_id(value):
    return lambda config: {**config, "vocab": {**config["vocab"],
                                               list(config["vocab"])[-1]: value(config)}}


@pytest.mark.parametrize("edit,message", [
    (lambda config: {**config, "d": float(config["d"])}, "config: 'd' must be int, got "),
    (lambda config: {**config, "vocab": list(config["vocab"])},
     "config: 'vocab' must be dict[str, int], got ["),
    (_last_vocab_id(lambda config: "3"), "config: 'vocab' must be dict[str, int], got {"),
    (_last_vocab_id(lambda config: len(config["vocab"]) + 5),
     "bad encoder config (vocab ids must be exactly 0 .. len(vocab) - 1)"),
    (lambda config: {**config, "layers": True}, "config: 'layers' must be int, got True")],
    ids=["float_d", "vocab_list", "vocab_id_str", "vocab_id_out_of_range", "bool_layers"])
def test_malformed_params_config_is_a_named_data_error(copied_run, caplog, capsys, edit,
                                                       message):
    """The ``config`` of the ``encoder.params`` header is read by the one
    field rule (``artifacts.fields``), and its vocab ids must be exactly
    0 .. len(vocab) - 1: a wrong type or id is exit 2 naming the file and
    the key, not a traceback."""
    path = copied_run["run"] / "encoder.params"
    data = path.read_bytes()
    end = data.index(b"\n")
    header = json.loads(data[:end])
    header["config"] = edit(header["config"])
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + data[end:])
    before = _snapshot(copied_run["run"])

    code = cli.main(_argv("retrieve", copied_run))

    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert f"{path}: {message}" in caplog.text
    assert "Traceback" not in caplog.text + err
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("name,stage", [("train.jsonl", "bucket"), ("train.jsonl", "mine"),
                                        ("dev.jsonl", "eval")])
def test_malformed_parse_names_its_record(copied_run, caplog, capsys, name, stage):
    """A parse that does not parse is exit 2 naming its record, whichever
    stage parses it first: ``bucket`` sketches the train parses, ``mine``
    compares them, and ``eval`` compares each dev parse with its hits."""
    path = copied_run["fixture"] / name
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    broken = records[7]
    cut = broken["parse"].rindex("]")
    broken["parse"] = broken["parse"][:cut] + broken["parse"][cut + 1:]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    before = _snapshot(copied_run["run"])

    code = cli.main(_argv(stage, copied_run))

    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert f"record {broken['id']!r}: unclosed '['" in caplog.text
    assert "Traceback" not in caplog.text + err
    assert _snapshot(copied_run["run"]) == before


def test_parse_error_named_by_corpus_keeps_its_type_and_offset():
    bank = Corpus([Record("ok", "u", "[A x ]"), Record("bad", "u", "[A [B x ]")], "bracketed")
    with pytest.raises(ParseError, match=r"^record 'bad': unclosed '\[' \(at offset 0\)$") as err:
        bank.tree("bad")
    assert err.value.position == 0
    assert bank.tree("ok").label == "A"


def test_use_direction_needs_direction_json(copied_run, caplog, capsys):
    """Without ``direction.json`` there is no injection to apply: exit 2
    naming the file. A baseline file applies none: the plain hits."""
    run = copied_run["run"]
    argv = [*_argv("retrieve", copied_run), "--format", "json"]
    plain = [arg for arg in argv if arg != "--use-direction"]
    assert cli.main(plain) == cli.EXIT_OK
    expected = capsys.readouterr().out
    (run / "direction.json").unlink()
    (run / "index_trained_mli.bin").unlink(missing_ok=True)
    before = _snapshot(run)

    assert cli.main(argv) == cli.EXIT_DATA
    assert f"missing {run / 'direction.json'}; run 'mli' first" in caplog.text
    assert _snapshot(run) == before

    params, _ = encoder.load_params(run / "encoder.params")
    mli.save_direction(None, run / "direction.json", encoder.params_fingerprint(params))
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == expected


def test_direction_fitted_to_other_params_refused(copied_run, caplog, capsys, monkeypatch):
    """After a re-``train``, ``direction.json`` names params that are no
    longer in use: ``eval`` and ``retrieve --use-direction`` exit 2 and
    change nothing, until ``mli`` runs again."""
    monkeypatch.setenv("STARE_TRAINING_EPOCHS", "1")
    assert cli.main(_argv("train", copied_run)) == cli.EXIT_OK
    before = _snapshot(copied_run["run"])
    for stage in ("eval", "retrieve"):
        caplog.clear()
        assert cli.main(_argv(stage, copied_run)) == cli.EXIT_DATA
        assert f"{copied_run['run'] / 'direction.json'}: fitted to params" in caplog.text
        assert "rerun 'mli'" in caplog.text
    assert capsys.readouterr().out == ""
    assert _snapshot(copied_run["run"]) == before
    assert cli.main(_argv("mli", copied_run)) == cli.EXIT_OK
    assert cli.main(_argv("retrieve", copied_run)) == cli.EXIT_OK


def test_float_error_in_a_stage_is_a_numeric_failure(copied_run, caplog, capsys, monkeypatch):
    """A NaN made inside a stage raises there (exit 3) instead of reaching
    the output: an infinite LayerNorm bias makes inf - inf in the next
    matmul. ``load_params`` refuses an infinity in the file (the table's
    ``nan_blob`` case), so the bias is planted after loading."""
    params, cfg = encoder.load_params(copied_run["run"] / "encoder.params")
    planted = {name: np.array(value) for name, value in params.items()}
    planted["layers.0.ln1.b"][0] = np.inf
    monkeypatch.setattr(encoder, "load_params", lambda path: (planted, cfg))
    before = _snapshot(copied_run["run"])
    argv = _argv("retrieve", copied_run)
    argv.remove("--use-direction")
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert "numeric failure: invalid value" in caplog.text
    assert capsys.readouterr().out == ""
    assert _snapshot(copied_run["run"]) == before


def test_mli_with_no_scored_cell_refused(copied_run, caplog):
    """One label per label corpus leaves every probe degenerate, so no
    injected cell scores: ``mli`` exits 2 naming the count and the first
    failure, and ``mli_grid.csv`` and ``direction.json`` keep their bytes."""
    for name in ("pos.tsv", "deps.tsv", "pt.tsv"):
        path = copied_run["fixture"] / name
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        label = rows[0][1]
        path.write_text("".join(f"{row[0]}\t{label}\n" if len(row) == 2 else "\n"
                                for row in rows), encoding="utf-8")
    before = _snapshot(copied_run["run"])
    assert cli.main(_argv("mli", copied_run)) == cli.EXIT_DATA
    assert re.search(r"no injected cell scored: all \d+ sweep rows failed; the first, POS "
                     r"layer \d+: probe training needs at least 2 distinct labels", caplog.text)
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("error,code,logged", [
    (ValueError("bad value"), cli.EXIT_DATA, "bad value"),
    (ParseError("bad parse", 3), cli.EXIT_DATA, "bad parse (at offset 3)"),
    (OSError("bad file"), cli.EXIT_DATA, "bad file"),
    (FloatingPointError("overflow"), cli.EXIT_NUMERIC, "numeric failure: overflow"),
    (ZeroDivisionError("division"), cli.EXIT_NUMERIC, "numeric failure: division"),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_stage_error_maps_to_exit_code(pipeline_runs, tmp_path, caplog, monkeypatch, error,
                                       code, logged):
    """``cli.main`` maps each error a stage raises to its exit code, logs
    its message and releases the lock."""
    def fail(*args):
        raise error

    monkeypatch.setitem(cli._STAGES, "bucket", fail)
    config = pipeline_runs[0] / "config.json"
    assert cli.main(["bucket", "--config", str(config), "--out", str(tmp_path)]) == code
    assert caplog.records[-1].getMessage() == logged
    assert not (tmp_path / ".lock").exists()


@pytest.mark.parametrize("error,code", [
    (ValueError("shapes (2,) and (3,) not aligned"), cli.EXIT_DATA),
    (FloatingPointError("overflow"), cli.EXIT_NUMERIC),
], ids=["ValueError", "FloatingPointError"])
def test_verbose_logs_the_traceback(pipeline_runs, tmp_path, caplog, monkeypatch, error,
                                    code):
    """Under ``-v`` the error is logged with its traceback, so a ``ValueError``
    that numpy raises can be told apart from a data error; the message and
    the exit code stay those of a run without ``-v``."""
    def fail(*args):
        raise error

    monkeypatch.setitem(cli._STAGES, "bucket", fail)
    config = pipeline_runs[0] / "config.json"
    argv = ["bucket", "--config", str(config), "--out", str(tmp_path)]
    assert cli.main(argv) == code
    assert "Traceback" not in caplog.text
    caplog.clear()
    assert cli.main(["-v", *argv]) == code
    assert "Traceback (most recent call last)" in caplog.text
    assert "in fail" in caplog.text
    assert str(error) in caplog.records[-1].getMessage()


def _exception_classes_nothing_needs() -> list[str]:
    """Each exception class of ``src/stare`` that no ``except`` outside
    ``cli.main`` names and that defines no method, as ``module.Class``."""
    classes: dict[tuple[str, str], ast.ClassDef] = {}
    caught: set[tuple[str, str]] = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        modules: dict[str, str] = {}  # alias -> module, from ``from . import x as alias``
        names: dict[str, tuple[str, str]] = {}  # from ``from .x import Name``
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)

        def qualify(node) -> tuple[str, str]:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                return modules.get(node.value.id, node.value.id), node.attr
            return names.get(node.id, (module, node.id))

        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = [qualify(base) for base in node.bases
                         if isinstance(base, (ast.Name, ast.Attribute))]
                builtin = [getattr(builtins, name, None) for _, name in bases]
                if any(base in classes for base in bases) or any(
                        isinstance(b, type) and issubclass(b, BaseException) for b in builtin):
                    classes[module, node.name] = node
            if module == "cli" and getattr(node, "name", None) == "main":
                continue
            for handler in ast.walk(node):
                if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                             else [handler.type])
                    caught.update(qualify(t) for t in types)
    return [f"{module}.{name}" for (module, name), node in classes.items()
            if (module, name) not in caught
            and not any(isinstance(item, ast.FunctionDef) for item in node.body)]


def test_every_exception_class_is_caught_or_has_code():
    """An exception class is worth its lines only if some handler other than
    ``cli.main``'s exit-code mapping tells it apart from its base, or it
    carries code; else the raise site raises the base with the same message."""
    assert _exception_classes_nothing_needs() == []


def test_non_finite_override_refused(copied_run, caplog, monkeypatch):
    monkeypatch.setenv("STARE_TRAINING_LR", "NaN")
    before = _snapshot(copied_run["run"])
    assert cli.main(_argv("train", copied_run)) == cli.EXIT_DATA
    assert "training.lr" in caplog.text
    assert _snapshot(copied_run["run"]) == before


@pytest.mark.parametrize("key,value", [("properties", '["POS", "POS"]'), ("layers", "[2, 2]"),
                                       ("lambdas", "[1.0, 0.5, 1]"), ("properties", "[]"),
                                       ("layers", "[]"), ("lambdas", "[]")])
def test_repeated_grid_entry_refused(copied_run, caplog, monkeypatch, key, value):
    """A repeated sweep cell would be scored and written twice, and an empty
    list sweeps nothing (``mli.layers: null`` means the default layers)."""
    monkeypatch.setenv(f"STARE_MLI_{key.upper()}", value)
    before = _snapshot(copied_run["run"])
    assert cli.main(_argv("mli", copied_run)) == cli.EXIT_DATA
    assert f"mli.{key}" in caplog.text
    assert _snapshot(copied_run["run"]) == before


def test_unknown_excluded_id_refused(copied_run, caplog, capsys, monkeypatch):
    """``retrieve --exclude`` of an id that is not in the bank names the id
    and the bank, before the params are read."""
    monkeypatch.setattr(encoder, "load_params", lambda path: pytest.fail("params read"))
    before = _snapshot(copied_run["run"])
    assert cli.main([*_argv("retrieve", copied_run), "--exclude", "ghost"]) == cli.EXIT_DATA
    assert (f"--exclude 'ghost': no such record in the bank "
            f"{copied_run['fixture'] / 'train.jsonl'}") in caplog.text
    assert capsys.readouterr().out == ""
    assert _snapshot(copied_run["run"]) == before


def test_non_finite_metric_is_a_numeric_failure(copied_run, caplog, monkeypatch):
    """A NaN never reaches an artifact: the write fails with exit 3 and
    ``eval_metrics.json`` keeps its old bytes."""
    monkeypatch.setattr(retrieval, "evaluate", lambda *args: {"score": math.nan})
    path = copied_run["run"] / "eval_metrics.json"
    old = path.read_bytes()
    assert cli.main(_argv("eval", copied_run)) == cli.EXIT_NUMERIC
    assert str(path) in caplog.text
    assert path.read_bytes() == old
    assert not list(copied_run["run"].glob("*.tmp*"))


# Each file a killed ``train`` or ``mli`` can find under its final name, and its loader.
LOADERS = {"bucket_report.json": read_json, "mining_report.json": read_json,
           "config_used.json": read_json,
           "lsh_index.json": lambda path: bucketing.LshIndex.load(
               path, read_json(path.with_name("config_used.json"))["bucketing"]),
           "pairs.jsonl": mining.load_groups, "encoder.params": encoder.load_params,
           "loss_curve.csv": lambda path: list(read_lines(path)),
           "mli_grid.csv": lambda path: list(read_lines(path)),
           "direction.json": mli.read_direction}


def _stage(stage: str, config: Path, out: Path, pause: str | None = None) -> subprocess.Popen:
    """``stare <stage>`` in a child process; with ``pause``, through
    ``paused_stage.py``, which holds its first artifact write there."""
    launcher = ([str(Path(__file__).with_name("paused_stage.py")), pause] if pause
                else ["-m", "stare.cli"])
    return subprocess.Popen(
        [sys.executable, *launcher, stage, "--config", str(config), "--out", str(out)],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)


@pytest.fixture
def spawned():
    """Child processes that a test starts; any still running at its end is killed."""
    procs: list[subprocess.Popen] = []
    yield procs
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()


@pytest.mark.parametrize("stage,written", [("train", ["encoder.params"]),
                                           ("mli", ["mli_grid.csv", "direction.json"])],
                         ids=["train-encoder.params", "mli-mli_grid.csv"])
def test_killed_stage_leaves_loadable_artifacts_and_a_stale_lock(tmp_path, caplog, spawned,
                                                                 stage, written):
    """SIGKILL ``stage`` before it writes anything, then inside the write of
    its first artifact (``written[0]``): every file under its final name
    still loads, a rerun names the stale lock (exit 2), and once the lock is
    removed the rerun writes the files an uninterrupted run writes."""
    fix, run, ref = tmp_path / "fixture", tmp_path / "run", tmp_path / "ref"
    assert cli.main(["fixture-gen", "--out", str(fix), "--per-cluster", "4"]) == cli.EXIT_OK
    config, lock, target = fix / "config.json", run / ".lock", run / written[0]
    for upstream in STAGES[:STAGES.index(stage)]:
        assert cli.main([upstream, "--config", str(config), "--out", str(run)]) == cli.EXIT_OK
    shutil.copytree(run, ref)

    for pause in ("open", "first_chunk"):
        spawned.append(proc := _stage(stage, config, run, pause))
        assert select.select([proc.stdout], [], [], 300)[0], f"{stage} never paused"
        assert proc.stdout.readline() == f"paused {target}\n"
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
        assert not any((run / name).exists() for name in written)
        assert (run / f"{target.name}.tmp{proc.pid}").exists() == (pause == "first_chunk")
        for path in run.iterdir():
            if path.name != ".lock" and ".tmp" not in path.name:
                LOADERS[path.name](path)
        caplog.clear()
        assert cli.main([stage, "--config", str(config), "--out", str(run)]) == cli.EXIT_DATA
        assert f"stale lock left by PID {proc.pid}; remove {lock}" in caplog.text
        lock.unlink()

    for out in (run, ref):
        spawned.append(proc := _stage(stage, config, out))
        assert proc.wait(timeout=600) == cli.EXIT_OK
    for name in written:
        assert (run / name).read_bytes() == (ref / name).read_bytes()
        LOADERS[name](run / name)
    assert not list(run.glob("*.tmp*"))


def test_locked_stage_removes_temp_files_of_dead_pids(tmp_path):
    """A stage holding the lock removes ``<name>.tmp<pid>`` files whose PID
    is not running, and leaves every other file alone."""
    done = subprocess.Popen([sys.executable, "-c", ""])
    done.wait()
    kept = [f"b.json.tmp{os.getpid()}", "c.tmp", "d.tmpx1", "e.tmp12x"]
    for name in [f"a.json.tmp{done.pid}", *kept]:
        (tmp_path / name).write_text("")
    with cli._locked_out_dir(tmp_path):
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([".lock", *kept])


def test_read_lines_splits_as_text_mode_open(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes("a\tB\r\nc\x0bd\re\u2028f\n\n\r\ng".encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        expected = list(fh)
    assert [line for _, line in read_lines(path)] == expected
    assert [where for where, _ in read_lines(path)] == [
        f"{path}:{n}" for n in range(1, len(expected) + 1)]


@pytest.mark.parametrize("data,message", [
    (b"\xff{}", "not UTF-8"), (b'{"a": ', "invalid JSON"), (b"[]", "not a version 1 file"),
    (b'{"format_version": 2}', "not a version 1 file")])
def test_read_json_names_the_file_once(tmp_path, data, message):
    path = tmp_path / "x.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}") as info:
        read_json(path, version=1)
    assert str(info.value).count(str(path)) == 1


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text("old")
    with pytest.raises(FloatingPointError, match="metrics.json"):
        write_json(path, {"score": [1.0, math.inf]})
    assert path.read_text() == "old"
    assert sorted(tmp_path.iterdir()) == [path]
