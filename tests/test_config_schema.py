"""The section dataclasses as config schema, read-only retrieve, loud loaders."""

import json
import logging
from pathlib import Path

import pytest

from stare import cli, encoder as enc, mli, retrieval
from stare.config import load_config
from stare.corpus import Corpus, Record, load_corpus, save_corpus
from stare.mli import ProbeConfig
from stare.ted import sim_struct

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BANK = [Record("r0", "remind me to pack boxes", "[IN:REMIND [SL:TODO pack boxes ] ]"),
        Record("r1", "call ravi now", "[IN:CALL [SL:CONTACT ravi ] ]"),
        Record("r2", "remind me to call mom", "[IN:REMIND [SL:TODO call mom ] ]"),
        Record("r3", "what is the weather", "[IN:GET_WEATHER ]")]


def _write_config(root: Path, **sections) -> Path:
    save_corpus(BANK, root / "train.jsonl")
    save_corpus(BANK[:2], root / "dev.jsonl")
    raw = {"corpus": {"train": "train.jsonl", "dev": "dev.jsonl", "dialect": "bracketed"},
           "encoder": {"d": 16, "layers": 2, "heads": 2, "max_len": 16, "seed": 0}}
    for name, values in sections.items():
        raw.setdefault(name, {}).update(values)
    path = root / "config.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def run_dir(tmp_path):
    """A config with prompt.k = 2 and an out dir holding untrained params."""
    config = _write_config(tmp_path, prompt={"task_name": "T", "k": 2})
    vocab = enc.build_vocab([rec.utterance for rec in BANK])
    cfg = enc.EncoderConfig(vocab=vocab, **load_config(config, env={}).encoder)
    out = tmp_path / "out"
    out.mkdir()
    enc.save_params(out / "encoder.params", enc.init_params(cfg), cfg)
    return config, out


def _write_direction(out: Path, **payload) -> None:
    """``out/direction.json`` as ``save_direction`` writes it for the params
    in ``out``, with the keys of ``payload`` in place of the defaults."""
    params, _ = enc.load_params(out / "encoder.params")
    (out / "direction.json").write_text(json.dumps(
        {"format_version": 2, "params_sha256": enc.params_fingerprint(params), "property": "POS",
         "layer": 1, "lambda": 1.0, "u": [0.25] * 16, **payload}))


def _retrieve(config: Path, out: Path, *extra: str) -> int:
    return cli.main(["retrieve", "--config", str(config), "--out", str(out),
                     "--query", "remind me to pack", *extra])


class TestStrictness:
    @pytest.mark.parametrize("section,key", [
        ("training", "epochs"), ("training", "batch"), ("mining", "n_hard"),
        ("encoder", "d"), ("bucketing", "num_hashes")])
    @pytest.mark.parametrize("value", [1.5, 64.0])
    def test_int_field_rejects_float(self, tmp_path, section, key, value):
        config = _write_config(tmp_path, **{section: {key: value}})
        with pytest.raises(ValueError, match=rf"^{section}\.{key}: "):
            load_config(config, env={})
        assert cli.main(["bucket", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 2

    def test_bool_field_rejects_string(self, tmp_path):
        config = _write_config(tmp_path, mining={"anonymize": "yes"})
        with pytest.raises(ValueError, match=r"^mining\.anonymize: "):
            load_config(config, env={})

    @pytest.mark.parametrize("section,key", [
        ("bucketing", "tua"), ("mli", "lamdbas"), ("retrieval", "kk"), ("corpus", "tarin")])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        config = _write_config(tmp_path, **{section: {key: 1}})
        with pytest.raises(ValueError, match=rf"^{section}\.{key}: unknown key"):
            load_config(config, env={})

    def test_unknown_env_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^bucketing\.tua: "):
            load_config(_write_config(tmp_path), env={"STARE_BUCKETING_TUA": "0.4"})

    def test_partial_probe_gets_dataclass_defaults(self, tmp_path):
        config = load_config(_write_config(tmp_path, mli={"probe": {"epochs": 50}}), env={})
        assert config.mli["probe"] == {"epochs": 50, "lr": 0.5, "l2": 1e-4}
        assert ProbeConfig(**config.mli["probe"]) == ProbeConfig(epochs=50)

    @pytest.mark.parametrize("section,key,value", [
        ("encoder", "d", 0), ("encoder", "max_len", 0), ("training", "weight_decay", -1),
        ("mining", "n_rand", -1), ("prompt", "template", "bogus"), ("mli.probe", "lr", 0)])
    def test_dataclass_range_error_names_key(self, tmp_path, section, key, value):
        if section == "mli.probe":
            config = _write_config(tmp_path, mli={"probe": {key: value}})
        else:
            config = _write_config(tmp_path, **{section: {key: value}})
        with pytest.raises(ValueError, match=rf"^{section}\.{key}: "):
            load_config(config, env={})

    def test_missing_schema_names_key(self, tmp_path):
        config = _write_config(tmp_path, prompt={"template": "sql_schema"})
        with pytest.raises(ValueError, match=r"^prompt\.schema_text: "):
            load_config(config, env={})

    def test_seeds_default_to_dataclass_zero(self, tmp_path):
        config = load_config(_write_config(tmp_path), env={})
        assert [config.bucketing["seed"], config.mining["seed"], config.training["seed"]] \
            == [0, 0, 0]


class TestRetrieve:
    def test_k_defaults_to_prompt_k(self, run_dir, capsys):
        config, out = run_dir
        assert _retrieve(config, out, "--format", "json") == 0
        assert len(json.loads(capsys.readouterr().out)) == 2
        assert _retrieve(config, out, "--format", "prompt") == 0
        prompt = capsys.readouterr().out
        assert "Example 2" in prompt and "Example 3" not in prompt

    def test_writes_nothing_to_run_dir(self, run_dir, monkeypatch, capsys):
        config, out = run_dir
        recorded = b'{"recorded": "by a stage"}'
        (out / "config_used.json").write_bytes(recorded)
        before = sorted(p.name for p in out.iterdir())
        monkeypatch.setenv("STARE_RETRIEVAL_K", "9")
        assert _retrieve(config, out) == 0
        assert (out / "config_used.json").read_bytes() == recorded
        assert sorted(p.name for p in out.iterdir()) == before

    def test_runs_while_locked(self, run_dir, capsys):
        config, out = run_dir
        (out / ".lock").touch()
        assert _retrieve(config, out) == 0
        assert (out / ".lock").exists()


class TestLoaders:
    def test_foreign_index_header(self, run_dir, caplog):
        config, out = run_dir
        with pytest.raises(ValueError, match="encoder.params"):
            retrieval.load_index(out / "encoder.params")
        (out / "index_trained.bin").write_bytes((out / "encoder.params").read_bytes())
        assert _retrieve(config, out) == 2
        assert "index_trained.bin" in caplog.text

    def test_truncated_index(self, run_dir, caplog):
        """An index 8 bytes short or one byte long is refused naming its file."""
        config, out = run_dir
        params, cfg = enc.load_params(out / "encoder.params")
        path = out / "index_trained.bin"
        retrieval.save_index(retrieval.build_index(Corpus(BANK, "bracketed"), params, cfg), path)
        data = path.read_bytes()
        for damaged in (data[:-8], data + b"\0"):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match="index_trained.bin"):
                retrieval.load_index(path)
            assert _retrieve(config, out) == 2
            assert "index_trained.bin" in caplog.text

    @pytest.mark.parametrize("cut", [lambda b: b[:300], lambda b: b[:-8], lambda b: b + b"\0"],
                             ids=["300", "-8", "+1"])
    def test_truncated_params(self, run_dir, cut):
        config, out = run_dir
        path = out / "encoder.params"
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ValueError, match="encoder.params"):
            enc.load_params(path)
        assert _retrieve(config, out) == 2

    def test_loaded_arrays_read_only(self, run_dir):
        """Each loaded array is a read-only view of the file's bytes, aligned
        (an array at an odd address slowed serve's queries by about 5%)."""
        _, out = run_dir
        params, cfg = enc.load_params(out / "encoder.params")
        path = out / "index_trained.bin"
        retrieval.save_index(retrieval.build_index(Corpus(BANK, "bracketed"), params, cfg), path)
        for arr in [*params.values(), retrieval.load_index(path).embeddings]:
            assert arr.flags.aligned
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    @pytest.mark.parametrize("fmt", ["json", "prompt"])
    def test_index_of_another_bank(self, run_dir, caplog, capsys, fmt):
        """A saved index of other ids is rebuilt from the bank, so only bank
        ids are printed and each prompt exemplar is a bank record."""
        caplog.set_level(logging.INFO, logger="stare")
        config, out = run_dir
        params, cfg = enc.load_params(out / "encoder.params")
        other = Corpus([Record("z0", "remind me to pack boxes", BANK[0].parse),
                        Record("z1", "call ravi now", BANK[1].parse)], "bracketed")
        path = out / "index_trained.bin"
        retrieval.save_index(retrieval.build_index(other, params, cfg), path)
        assert _retrieve(config, out, "--format", fmt) == 0
        assert f"{path}: its ids differs" in caplog.text
        printed = capsys.readouterr().out
        if fmt == "json":
            hits = json.loads(printed)
            assert len(hits) == 2 and {hit["id"] for hit in hits} <= {rec.id for rec in BANK}
        else:
            assert "Example 2" in printed

    def test_direction_missing_key(self, run_dir, capsys):
        config, out = run_dir
        path = out / "direction.json"
        path.write_text(json.dumps({"format_version": 2, "params_sha256": "ab",
                                    "property": "POS"}))
        with pytest.raises(ValueError, match="direction.json.*'u'"):
            mli.load_direction(path)
        assert _retrieve(config, out, "--use-direction") == 2

    @pytest.mark.parametrize("damage", [lambda b: b[: len(b) // 2], lambda b: b"\xff" + b],
                             ids=["truncated", "not_utf8"])
    def test_unreadable_direction_named(self, run_dir, caplog, damage):
        config, out = run_dir
        path = out / "direction.json"
        _write_direction(out)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match="direction.json"):
            mli.load_direction(path)
        assert _retrieve(config, out, "--use-direction") == 2
        assert "direction.json" in caplog.text

    def test_direction_wrong_type(self, run_dir, caplog):
        config, out = run_dir
        _write_direction(out, **{"lambda": None, "u": [0.0] * 16})
        assert _retrieve(config, out, "--use-direction") == 2
        assert "direction.json" in caplog.text and "lambda" in caplog.text

    @pytest.mark.parametrize("provenance", [
        None, {"injection": None}, {"params_sha256": 7, "injection": None},
        {"params_sha256": "ab"}, {"params_sha256": "ab", "injection": "POS"}])
    def test_index_provenance_checked(self, run_dir, caplog, provenance):
        config, out = run_dir
        params, cfg = enc.load_params(out / "encoder.params")
        index = retrieval.build_index(Corpus(BANK, "bracketed"), params, cfg)
        path = out / "index_trained.bin"
        retrieval.save_index(retrieval.RetrievalIndex(index.ids, index.embeddings, provenance),
                             path)
        with pytest.raises(ValueError, match="index_trained.bin"):
            retrieval.load_index(path)
        assert _retrieve(config, out) == 2
        assert "index_trained.bin" in caplog.text

    @pytest.mark.parametrize("header", [{"n": True}, {"ids": [7]}, {"n": 0, "d": -5, "ids": []},
                                        {"n": 2, "d": 0, "ids": ["a", "b"]}])
    def test_index_header_types_checked(self, run_dir, caplog, header):
        """A header that ``save_index`` never writes is refused naming the
        file: a key of the wrong type, ``d`` < 0, or ``d`` = 0 < ``n``. The
        last two come with the empty blob that their n × d sizes."""
        config, out = run_dir
        params, cfg = enc.load_params(out / "encoder.params")
        path = out / "index_trained.bin"
        retrieval.save_index(retrieval.build_index(Corpus(BANK[:1], "bracketed"), params, cfg),
                             path)
        line, _, blob = path.read_bytes().partition(b"\n")
        blob = b"" if "d" in header else blob
        path.write_bytes(json.dumps({**json.loads(line), **header}).encode() + b"\n" + blob)
        with pytest.raises(ValueError, match="index_trained.bin"):
            retrieval.load_index(path)
        assert _retrieve(config, out) == 2
        assert "index_trained.bin" in caplog.text

    @pytest.mark.parametrize("stage", ["retrieve", "eval"])
    @pytest.mark.parametrize("change", [{"u": [0.2] * 5}, {"layer": 9}])
    def test_direction_checked_against_params(self, run_dir, caplog, stage, change):
        config, out = run_dir
        _write_direction(out, **change)
        code = (_retrieve(config, out, "--use-direction") if stage == "retrieve" else
                cli.main(["eval", "--config", str(config), "--out", str(out)]))
        assert code == 2
        assert "direction.json" in caplog.text

    @pytest.mark.parametrize("change", [{"utterance": None}, {"utterance": ["a"]},
                                        {"id": True}])
    def test_corpus_field_types_checked(self, tmp_path, change):
        path = tmp_path / "train.jsonl"
        path.write_text(json.dumps({"id": "r0", "utterance": "hi", "parse": "[IN:X ]",
                                    **change}) + "\n")
        with pytest.raises(ValueError, match="train.jsonl:1"):
            load_corpus(path, "bracketed")

    def test_round_trip_unchanged(self, run_dir):
        _, out = run_dir
        path = out / "encoder.params"
        params, cfg = enc.load_params(path)
        again = path.parent / "again.params"
        enc.save_params(again, params, cfg)
        assert again.read_bytes() == path.read_bytes()



class TestTrainPairs:
    """``train`` refuses a pairs file that does not fit the train corpus."""

    @staticmethod
    def _train(tmp_path: Path, group: dict) -> int:
        config = _write_config(tmp_path, training={"epochs": 1, "batch": 1})
        out = tmp_path / "out"
        out.mkdir()
        record = {"anchor": "r0", "positive": "r2", "hard_negatives": ["r1"],
                  "random_negatives": ["r3"], "positive_sim": 0.8, "flags": []}
        (out / "pairs.jsonl").write_text(json.dumps({**record, **group}) + "\n",
                                         encoding="utf-8")
        return cli.main(["train", "--config", str(config), "--out", str(out)])

    def test_unknown_id_is_data_error(self, tmp_path, caplog):
        assert self._train(tmp_path, {"random_negatives": ["r3", "zz_999"]}) == 2
        assert "pairs.jsonl" in caplog.text and "'zz_999'" in caplog.text
        assert not (tmp_path / "out" / "encoder.params").exists()

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_empty_pairs_is_data_error(self, tmp_path, caplog, epochs):
        config = _write_config(tmp_path, training={"epochs": epochs})
        out = tmp_path / "out"
        out.mkdir()
        (out / "pairs.jsonl").write_text("\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert "pairs.jsonl" in caplog.text
        assert not (out / "encoder.params").exists()

    def test_string_valued_id_list_is_data_error(self, tmp_path, caplog):
        assert self._train(tmp_path, {"hard_negatives": "r1"}) == 2
        assert "pairs.jsonl:1" in caplog.text and "hard_negatives" in caplog.text


# Every shipped config resolves to these sections, as before the dataclasses
# became the schema; only corpus, retrieval and prompt differ between them.
_SHARED = {
    "bucketing": {"num_hashes": 128, "seed": 7, "tau": 0.5},
    "encoder": {"d": 64, "heads": 4, "layers": 4, "max_len": 64, "seed": 1},
    "mining": {"anonymize": False, "n_hard": 3, "n_rand": 2, "seed": 13},
    "mli": {"k": 5, "label_corpora": {}, "lambdas": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0],
            "layers": None, "probe": {"epochs": 300, "l2": 0.0001, "lr": 0.5},
            "properties": ["POS", "DEPS", "PT"]},
    "training": {"batch": 1, "epochs": 3, "lr": 0.001, "seed": 2, "temperature": 0.07,
                 "weight_decay": 0.01},
}
_SPIDER_SCHEMA = ('CREATE TABLE IF NOT EXISTS "employee" ( "eid" text, "name" text, '
                  '"salary" text, PRIMARY KEY ("eid") );')
_SHIPPED = {
    "mtop": ("bracketed", 20, {"k": 20, "schema_text": None, "task_name": "MTop",
                               "template": "conversational"}),
    "smcalflow": ("sexpr", 5, {"k": 5, "schema_text": None, "task_name": "SMCalFlow",
                               "template": "conversational"}),
    "spider": ("sql_skeleton", 5, {"k": 5, "schema_text": _SPIDER_SCHEMA,
                                   "task_name": "Spider", "template": "sql_schema"}),
    "treedst": ("sexpr", 10, {"k": 10, "schema_text": None, "task_name": "TreeDST",
                              "template": "conversational"}),
}


def test_shipped_configs_resolve_as_before(tmp_path):
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(_SHIPPED)
    (tmp_path / "train.jsonl").write_text("")
    (tmp_path / "dev.jsonl").write_text("")
    for name, (dialect, retrieval_k, prompt) in _SHIPPED.items():
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        raw["corpus"].update(train="train.jsonl", dev="dev.jsonl")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        resolved = load_config(path, env={}).to_dict()
        expected = {**_SHARED, "retrieval": {"k": retrieval_k}, "prompt": prompt,
                    "corpus": {"train": "train.jsonl", "dev": "dev.jsonl",
                               "dialect": dialect}}
        assert resolved == expected, name


@pytest.fixture(scope="module")
def generated_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    assert cli.main(["fixture-gen", "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
def test_shipped_config_loads_unedited(generated_fixture, path):
    """Each starter config loads as shipped, its corpus paths set through the
    environment, so a schema change cannot break one silently."""
    train, dev = generated_fixture / "train.jsonl", generated_fixture / "dev.jsonl"
    config = load_config(path, env={"STARE_CORPUS_TRAIN": str(train),
                                    "STARE_CORPUS_DEV": str(dev)})
    assert (config.path(config.corpus["train"]), config.path(config.corpus["dev"])) == (train, dev)
    assert config.corpus["dialect"] == _SHIPPED[path.stem][0]


class TestOneMetric:
    def test_mean_sim_at_k_by_hand(self):
        bank = Corpus(BANK, "bracketed")
        queries = Corpus([Record("q0", "q", BANK[0].parse), Record("q1", "q", BANK[3].parse)],
                         "bracketed")
        golds = retrieval.gold_ids(queries, bank)
        hits = [[("r0", 0.9), ("r1", 0.5)], [("r3", 0.7), ("r2", 0.1)]]
        per_query = [[1.0, sim_struct(queries.tree("q0"), bank.tree("r1"))],
                     [1.0, sim_struct(queries.tree("q1"), bank.tree("r2"))]]
        expected = sum(sum(q) / 2 for q in per_query) / 2
        assert retrieval.mean_sim_at_k(golds, hits, bank) == pytest.approx(expected, abs=1e-15)

    def test_sweep_baseline_equals_evaluate(self, sweep_result, dev_queries, bank,
                                            trained_params, enc_cfg):
        index = retrieval.build_index(bank, trained_params, enc_cfg)
        rank = retrieval.make_dense_ranker(index, trained_params, enc_cfg)
        metrics = retrieval.evaluate(rank, dev_queries, bank, k=5)
        assert metrics["mean_sim_struct_at_k"] == sweep_result.baseline_score
