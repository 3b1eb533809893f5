"""Every schema in the config table: unknown keys, wrong types, required paths."""

import json
import re

import pytest

from stare.artifacts import fits
from stare.config import _SCHEMAS, _keys, load_config

# JSON values of every kind; each key is given every one its type refuses.
_VALUES = [None, True, 3, 1.5, "x", [1], ["x"], {"a": "x"}]
_MISSING = object()


def _load(root, name: str, given: dict, env: dict | None = None):
    """``load_config`` of a small valid config whose schema ``name`` (a section,
    or "mli.probe") is ``given``; a ``corpus`` given replaces the valid one."""
    (root / "train.jsonl").write_text('{"id": "r0", "utterance": "hi", "parse": "[IN:X ]"}\n')
    (root / "dev.jsonl").write_text('{"id": "d0", "utterance": "hi", "parse": "[IN:X ]"}\n')
    raw = {"corpus": {"train": "train.jsonl", "dev": "dev.jsonl"}}
    section, _, key = name.partition(".")
    raw[section] = {key: given} if key else given
    path = root / "config.json"
    path.write_text(json.dumps(raw))
    return load_config(path, env=env or {})


@pytest.mark.parametrize("name", list(_SCHEMAS))
def test_unknown_key_names_it(tmp_path, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)}\.bogus: unknown key"):
        _load(tmp_path, name, {"bogus": 1})


@pytest.mark.parametrize("name,key", [(name, key) for name in _SCHEMAS for key in _keys(name)])
def test_wrong_type_names_key(tmp_path, name, key):
    hint = _keys(name)[key][0]
    wrong = [value for value in _VALUES if not fits(value, hint)]
    assert wrong
    for value in wrong:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}\.{key}: "):
            _load(tmp_path, name, {key: value})


@pytest.mark.parametrize("key", ["train", "dev"])
@pytest.mark.parametrize("value", [_MISSING, None, "", 3], ids=["missing", "null", "empty", "int"])
def test_corpus_path_required(tmp_path, key, value):
    given = {"train": "train.jsonl", "dev": "dev.jsonl"}
    if value is _MISSING:
        del given[key]
    else:
        given[key] = value
    with pytest.raises(ValueError, match=rf"^corpus\.{key}: "):
        _load(tmp_path, "corpus", given)


def test_defaults_are_fresh_per_load(tmp_path):
    first = _load(tmp_path, "mli", {}).mli
    first["properties"].append("X")
    first["lambdas"].clear()
    first["label_corpora"]["POS"] = "pos.tsv"
    second = _load(tmp_path, "mli", {}).mli
    assert second["properties"] == ["POS", "DEPS", "PT"]
    assert len(second["lambdas"]) == 9 and second["label_corpora"] == {}


def test_probe_overridden_whole_from_env(tmp_path):
    config = _load(tmp_path, "mli", {}, env={"STARE_MLI_PROBE": '{"epochs": 50}'})
    assert config.mli["probe"] == {"epochs": 50, "lr": 0.5, "l2": 1e-4}
    with pytest.raises(ValueError, match=r"^mli\.probe_epochs: unknown key"):
        _load(tmp_path, "mli", {}, env={"STARE_MLI_PROBE_EPOCHS": "50"})
