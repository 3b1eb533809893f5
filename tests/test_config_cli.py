import base64
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stare import cli
from stare.config import apply_env_overrides, load_config
from stare.fixtures import FixtureSpec, write_fixture


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg_fixture")
    write_fixture(root, FixtureSpec(seed=0))
    return root


class TestConfig:
    def test_load_with_defaults(self, fixture_dir):
        config = load_config(fixture_dir / "config.json", env={})
        assert config.bucketing["num_hashes"] == 128
        assert config.training["temperature"] == 0.07
        assert config.path(config.corpus["train"]).exists()

    def test_env_override(self, fixture_dir):
        config = load_config(fixture_dir / "config.json",
                             env={"STARE_BUCKETING_TAU": "0.4",
                                  "STARE_RETRIEVAL_K": "3"})
        assert config.bucketing["tau"] == 0.4
        assert config.retrieval["k"] == 3

    def test_env_override_parsing(self):
        sections = apply_env_overrides({"mining": {}},
                                       {"STARE_MINING_ANONYMIZE": "true",
                                        "STARE_MINING_SEED": "9",
                                        "STARE_CORPUS_DIALECT": "sexpr",
                                        "IGNORED": "x"})
        assert sections["mining"] == {"anonymize": True, "seed": 9}
        assert sections["corpus"] == {"dialect": "sexpr"}

    def test_missing_file_rejected(self, fixture_dir, tmp_path):
        raw = json.loads((fixture_dir / "config.json").read_text())
        raw["corpus"]["train"] = "nope.jsonl"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=r"^corpus\.train: "):
            load_config(path, env={})

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"bogus": {}}')
        with pytest.raises(ValueError, match=r"^unknown config sections: \['bogus'\]$"):
            load_config(path, env={})

    @pytest.mark.parametrize("env_key,bad,field", [
        ("STARE_BUCKETING_TAU", "1.5", "bucketing.tau"),
        ("STARE_BUCKETING_TAU", "0", "bucketing.tau"),
        ("STARE_BUCKETING_NUM_HASHES", "1", "bucketing.num_hashes"),
        ("STARE_TRAINING_TEMPERATURE", "0", "training.temperature"),
        ("STARE_TRAINING_EPOCHS", "4", "training.epochs"),
        ("STARE_TRAINING_LR", "0", "training.lr"),
        ("STARE_RETRIEVAL_K", "0", "retrieval.k"),
        ("STARE_ENCODER_HEADS", "7", "encoder.heads"),
        ("STARE_ENCODER_LAYERS", "1", "encoder.layers"),
        ("STARE_MINING_N_HARD", "-1", "mining.n_hard"),
        ("STARE_PROMPT_K", "0", "prompt.k"),
    ])
    def test_out_of_range_named(self, fixture_dir, env_key, bad, field):
        with pytest.raises(ValueError, match=f"^{re.escape(field)}: "):
            load_config(fixture_dir / "config.json", env={env_key: bad})

    @pytest.mark.parametrize("env_key,bad,field", [
        ("STARE_MLI_LAYERS", "3", "mli.layers"),
        ("STARE_MLI_PROPERTIES", "POS", "mli.properties"),
        ("STARE_MLI_LAMBDAS", "1.0", "mli.lambdas"),
        ("STARE_MLI_LABEL_CORPORA", '["x"]', "mli.label_corpora"),
        ("STARE_MLI_LABEL_CORPORA", '{"POS": 3}', "mli.label_corpora"),
    ])
    def test_mli_container_types_named(self, fixture_dir, tmp_path, monkeypatch, caplog,
                                       env_key, bad, field):
        with pytest.raises(ValueError, match=f"^{re.escape(field)}: "):
            load_config(fixture_dir / "config.json", env={env_key: bad})
        monkeypatch.setenv(env_key, bad)
        assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                         "--out", str(tmp_path / "out")]) == 2
        assert field in caplog.text

    @settings(max_examples=40, derandomize=True)
    @given(st.sampled_from(["bucketing.tau", "training.temperature", "training.lr",
                            "retrieval.k", "mli.k", "training.epochs"]),
           st.floats(allow_nan=False, allow_infinity=False, min_value=-100,
                     max_value=100))
    def test_numeric_mutations(self, field, value):
        # Mutated configs must either validate or fail naming the field.
        import tempfile
        from pathlib import Path

        root = Path(tempfile.mkdtemp())
        write_fixture(root, FixtureSpec(seed=1, per_cluster=2, dev_per_cluster=1))
        raw = json.loads((root / "config.json").read_text())
        section, key = field.split(".")
        raw[section][key] = value
        path = root / "mutated.json"
        path.write_text(json.dumps(raw))
        try:
            load_config(path, env={})
        except ValueError as exc:
            assert field in str(exc)


class TestCliBasics:
    def test_ted_subcommand(self, capsys):
        code = cli.main(["ted", "--a", "[A [B x ] ]", "--b", "[A [B y ] ]",
                         "--dialect", "bracketed"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ted"] == 1.0
        assert payload["sim_struct"] == pytest.approx(1 - 1 / 3)

    def test_ted_parse_error_exits_2(self):
        assert cli.main(["ted", "--a", "[A", "--b", "[B ]"]) == 2

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["retrieve", "--config", "x.json"])  # missing required flags
        assert err.value.code == 1

    @pytest.mark.parametrize("argv, flag", [
        (["retrieve", "--query", "q", "--k", "0"], "--k"),
        (["retrieve", "--query", "q", "--k", "-1"], "--k"),
        (["fixture-gen", "--per-cluster", "0"], "--per-cluster"),
        (["fixture-gen", "--per-cluster", "-3"], "--per-cluster"),
        (["fixture-gen", "--dev-per-cluster", "0"], "--dev-per-cluster"),
        (["fixture-gen", "--seed", "-1"], "--seed"),
        (["fixture-gen", "--seed", "one"], "--seed"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, argv, flag, tmp_path, capsys):
        """Exit 1 naming the flag, before any file is read or written: the
        retrieve config does not exist, which would be exit 2 if read."""
        out = tmp_path / "out"
        if argv[0] == "retrieve":
            argv = [*argv, "--config", str(tmp_path / "none.json")]
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--out", str(out)])
        assert err.value.code == 1
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_fixture_gen_seed_0_writes_the_pinned_bytes(self, tmp_path):
        """``fixture-gen --seed 0`` writes the six inputs whose sha256 the
        benchmark's demo-pipeline workload pins in ``perfbench/pins.json``."""
        pins_path = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"
        pins = json.loads(pins_path.read_text(encoding="utf-8"))["demo-pipeline"]
        assert cli.main(["fixture-gen", "--out", str(tmp_path), "--seed", "0"]) == 0
        names = ("train.jsonl", "dev.jsonl", "pos.tsv", "deps.tsv", "pt.tsv", "config.json")
        assert {name: _hash(tmp_path / name) for name in names} == \
            {name: pins[name] for name in names}

    def test_unknown_format_exits_1(self, fixture_dir, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["retrieve", "--config", str(fixture_dir / "config.json"),
                      "--out", str(tmp_path), "--query", "q", "--format", "bogus"])
        assert err.value.code == 1

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["bucket", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "out")]) == 2

    def test_missing_index_exits_2(self, fixture_dir, tmp_path):
        assert cli.main(["mine", "--config", str(fixture_dir / "config.json"),
                         "--out", str(tmp_path / "fresh")]) == 2

    def test_lock_file_rejects_concurrent(self, fixture_dir, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 2

    def test_lock_records_its_pid(self, fixture_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        seen = []
        monkeypatch.setitem(cli._STAGES, "bucket",
                            lambda config, corpus, out: seen.append((out / ".lock").read_text()) or 0)
        assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 0
        assert seen == [str(os.getpid())]
        assert not (out / ".lock").exists()

    def test_lock_of_exited_pid_is_named_stale(self, fixture_dir, tmp_path, caplog):
        proc = subprocess.Popen([sys.executable, "-c", ""])
        assert proc.wait(timeout=60) == 0
        out = tmp_path / "locked"
        out.mkdir()
        lock = out / ".lock"
        lock.write_text(str(proc.pid))
        assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 2
        assert f"stale lock left by PID {proc.pid}; remove {lock}" in caplog.text
        assert lock.read_text() == str(proc.pid)
        assert sorted(p.name for p in out.iterdir()) == [".lock"]

    @pytest.mark.parametrize("owner", ["", "self"])
    def test_lock_of_live_or_unnamed_owner(self, fixture_dir, tmp_path, caplog, owner):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()) if owner else "")
        assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 2
        assert f"output directory {out} is locked by another run" in caplog.text
        assert "stale lock" not in caplog.text

    def test_empty_corpus_is_error(self, tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "config.json").write_text(json.dumps(
            {"corpus": {"train": "empty.jsonl", "dev": "empty.jsonl",
                        "dialect": "bracketed"}}))
        assert cli.main(["bucket", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "out")]) == 2

    def test_corrupt_pairs_file_exits_2(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "pairs.jsonl").write_text('{"anchor": "only"}\n')
        assert cli.main(["train", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 2

    def test_missing_label_corpus_exits_2(self, pipeline_runs, tmp_path):
        import shutil

        fix_dir, run_a, _ = pipeline_runs
        raw = json.loads((fix_dir / "config.json").read_text())
        raw["mli"]["label_corpora"] = {}
        raw["corpus"]["train"] = str(fix_dir / "train.jsonl")
        raw["corpus"]["dev"] = str(fix_dir / "dev.jsonl")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(run_a / "encoder.params", out / "encoder.params")
        assert cli.main(["mli", "--config", str(cfg_path), "--out", str(out)]) == 2

    def test_numeric_failure_exits_3(self, fixture_dir, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise FloatingPointError("synthetic overflow at group g0")

        monkeypatch.setattr("stare.cli.encoder.train", explode)
        out = tmp_path / "out"
        assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 0
        assert cli.main(["mine", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 0
        assert cli.main(["train", "--config", str(fixture_dir / "config.json"),
                         "--out", str(out)]) == 3

    def test_zero_epoch_train_equals_init(self, fixture_dir, tmp_path):
        from stare import encoder as enc_mod

        out = tmp_path / "out"
        env_cfg = str(fixture_dir / "config.json")
        assert cli.main(["bucket", "--config", env_cfg, "--out", str(out)]) == 0
        assert cli.main(["mine", "--config", env_cfg, "--out", str(out)]) == 0
        import os

        os.environ["STARE_TRAINING_EPOCHS"] = "0"
        try:
            assert cli.main(["train", "--config", env_cfg, "--out", str(out)]) == 0
        finally:
            del os.environ["STARE_TRAINING_EPOCHS"]
        params, cfg = enc_mod.load_params(out / "encoder.params")
        init = enc_mod.init_params(cfg)
        import numpy as np

        assert all(np.array_equal(params[k], init[k]) for k in params)
        assert (out / "loss_curve.csv").read_text() == "epoch,mean_loss\n"


def _hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _int_values(text):
    return np.frombuffer(base64.b64decode(text), "<u8").tolist()


def _b64_prefix(text, nbytes):
    return base64.b64encode(base64.b64decode(text)[:nbytes]).decode("ascii")


def _corrupt_signature(make):
    """A corruption that sets record 0's signature to ``make(signature)``."""
    return lambda records: records[0].__setitem__(1, make(records[0][1]))


# Each way an lsh_index.json's records can be malformed, applied in place.
_CORRUPTIONS = {
    "not_an_id_list_pair": lambda records: records.__setitem__(0, 7),
    "not_base64": _corrupt_signature(lambda text: "*" + text),
    "signature_as_int_list": _corrupt_signature(_int_values),
    "wrong_byte_count": _corrupt_signature(lambda text: _b64_prefix(text, -1)),
    "wrong_length": _corrupt_signature(lambda text: _b64_prefix(text, -8)),
    "duplicate_id": lambda records: records[1].__setitem__(0, records[0][0]),
}


@pytest.fixture(scope="module")
def bucketed(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bucketed")
    assert cli.main(["bucket", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out)]) == 0
    return (out / "lsh_index.json").read_text(encoding="utf-8")


def _mine_with_index(fixture_dir, tmp_path, payload):
    out = tmp_path / "out"
    out.mkdir()
    (out / "lsh_index.json").write_text(json.dumps(payload, sort_keys=True),
                                        encoding="utf-8")
    code = cli.main(["mine", "--config", str(fixture_dir / "config.json"),
                     "--out", str(out)])
    assert not (out / "pairs.jsonl").exists()
    return code


@pytest.mark.parametrize("case", list(_CORRUPTIONS))
def test_mine_refuses_bad_lsh_index(fixture_dir, bucketed, tmp_path, caplog, case):
    payload = json.loads(bucketed)
    _CORRUPTIONS[case](payload["records"])
    assert _mine_with_index(fixture_dir, tmp_path, payload) == 2
    assert "lsh_index.json" in caplog.text and "record " in caplog.text


def test_mine_refuses_version_1_lsh_index(fixture_dir, bucketed, tmp_path, caplog):
    """The earlier format, with each signature as a list of integers."""
    payload = json.loads(bucketed)
    payload["format_version"] = 1
    payload["records"] = [[rid, _int_values(text)] for rid, text in payload["records"]]
    assert _mine_with_index(fixture_dir, tmp_path, payload) == 2
    assert "lsh_index.json" in caplog.text and "not a version 3 file" in caplog.text


def test_mine_refuses_version_2_lsh_index(fixture_dir, bucketed, tmp_path, caplog):
    """The earlier header, which also held the band geometry ``b`` and ``r``."""
    payload = {**json.loads(bucketed), "format_version": 2, "b": 32, "r": 4}
    assert _mine_with_index(fixture_dir, tmp_path, payload) == 2
    assert "lsh_index.json" in caplog.text and "not a version 3 file" in caplog.text


def test_mine_refuses_index_of_other_ids(fixture_dir, bucketed, tmp_path, caplog):
    """An index bucketed from a corpus without its last record: the error
    names both the index and the corpus."""
    payload = json.loads(bucketed)
    payload["records"].pop()
    assert _mine_with_index(fixture_dir, tmp_path, payload) == 2
    assert "lsh_index.json" in caplog.text and "train.jsonl" in caplog.text


class TestPipeline:
    def test_stage_artifacts_exist(self, pipeline_runs):
        _, run_a, _ = pipeline_runs
        for name in ("lsh_index.json", "bucket_report.json", "pairs.jsonl",
                     "mining_report.json", "encoder.params", "loss_curve.csv",
                     "mli_grid.csv", "direction.json", "eval_metrics.json",
                     "config_used.json"):
            assert (run_a / name).exists(), name

    def test_mining_report_contents(self, pipeline_runs):
        _, run_a, _ = pipeline_runs
        report = json.loads((run_a / "mining_report.json").read_text())
        assert report["anchors"] == 100
        assert report["skipped_empty_pool"] == 0
        assert 0.5 <= report["mean_positive_sim"] <= 1.0

    def test_reports_match_golden_files(self, pipeline_runs):
        from pathlib import Path

        golden_dir = Path(__file__).parent / "data" / "golden"
        _, run_a, _ = pipeline_runs
        for name in ("bucket_report.json", "mining_report.json"):
            produced = json.loads((run_a / name).read_text())
            golden = json.loads((golden_dir / name).read_text())
            assert produced == golden, name
        assert ((run_a / "pairs.jsonl").read_bytes()
                == (golden_dir / "pairs.jsonl").read_bytes())

    def test_eval_ordering(self, pipeline_runs):
        _, run_a, _ = pipeline_runs
        payload = json.loads((run_a / "eval_metrics.json").read_text())
        metrics = payload["metrics"]
        trained = metrics["trained"]["mean_sim_struct_at_k"]
        untrained = metrics["untrained"]["mean_sim_struct_at_k"]
        with_mli = metrics["trained_mli"]["mean_sim_struct_at_k"]
        assert trained > untrained
        assert with_mli >= trained

    def test_rerun_reproduces_artifact_hashes(self, pipeline_runs):
        _, run_a, run_b = pipeline_runs
        for name in ("lsh_index.json", "bucket_report.json", "pairs.jsonl",
                     "mining_report.json", "encoder.params", "loss_curve.csv",
                     "mli_grid.csv", "direction.json", "eval_metrics.json"):
            assert _hash(run_a / name) == _hash(run_b / name), name

    def test_retrieve_json(self, pipeline_runs, capsys):
        fix_dir, run_a, _ = pipeline_runs
        code = cli.main(["retrieve", "--config", str(fix_dir / "config.json"),
                         "--out", str(run_a), "--query",
                         "hey remind me to pack boxes thanks", "--k", "3",
                         "--format", "json"])
        assert code == 0
        hits = json.loads(capsys.readouterr().out)
        assert len(hits) == 3
        assert all(set(h) == {"id", "score"} for h in hits)

    def test_retrieve_prompt(self, pipeline_runs, capsys):
        fix_dir, run_a, _ = pipeline_runs
        code = cli.main(["retrieve", "--config", str(fix_dir / "config.json"),
                         "--out", str(run_a), "--query", "hey call ravi thanks",
                         "--k", "2", "--format", "prompt"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Below are examples of converting user utterances")
        assert out.rstrip("\n").endswith("Parse:")
        assert "Example 1" in out and "Example 2" in out

    def test_retrieve_excludes(self, pipeline_runs, capsys):
        fix_dir, run_a, _ = pipeline_runs
        code = cli.main(["retrieve", "--config", str(fix_dir / "config.json"),
                         "--out", str(run_a), "--query",
                         "hey remind me to pack boxes thanks", "--k", "2",
                         "--exclude", "c0_000", "--format", "json"])
        assert code == 0
        hits = json.loads(capsys.readouterr().out)
        assert all(h["id"] != "c0_000" for h in hits)

    def test_retrieve_with_direction(self, pipeline_runs, capsys):
        fix_dir, run_a, _ = pipeline_runs
        code = cli.main(["retrieve", "--config", str(fix_dir / "config.json"),
                         "--out", str(run_a), "--query", "hey call ravi thanks",
                         "--k", "2", "--format", "json", "--use-direction"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == 2

    def test_retrieve_prompt_reproduces_shipped_fixture(self, tmp_path, capsys):
        # A one-record bank whose sole exemplar is the golden prompt's;
        # the CLI must render that prompt byte-for-byte (plus one newline
        # from print).
        from pathlib import Path

        from stare import encoder as enc_mod
        from stare.corpus import Record, save_corpus

        bank = [Record("w0", "Whats weather forecast for tomorrow?",
                       "[IN:GET_WEATHER [SL:DATE_TIME for tomorrow]]")]
        save_corpus(bank, tmp_path / "train.jsonl")
        save_corpus(bank, tmp_path / "dev.jsonl")
        (tmp_path / "config.json").write_text(json.dumps({
            "corpus": {"train": "train.jsonl", "dev": "dev.jsonl",
                       "dialect": "bracketed"},
            "encoder": {"d": 16, "layers": 2, "heads": 2, "max_len": 16, "seed": 0},
            "prompt": {"task_name": "MTop", "k": 1, "template": "conversational"},
        }))
        vocab = enc_mod.build_vocab([bank[0].utterance])
        cfg = enc_mod.EncoderConfig(vocab=vocab, d=16, layers=2, heads=2,
                                    max_len=16, seed=0)
        out = tmp_path / "out"
        out.mkdir()
        enc_mod.save_params(out / "encoder.params", enc_mod.init_params(cfg), cfg)
        code = cli.main(["retrieve", "--config", str(tmp_path / "config.json"),
                         "--out", str(out), "--query", "Will it be sunny on Friday?",
                         "--k", "1", "--format", "prompt"])
        assert code == 0
        expected = (Path(__file__).parent / "data" / "prompt_conversational_k1.txt").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected + b"\n"

    def test_mli_grid_lambda_zero_matches_baseline(self, pipeline_runs):
        import csv

        _, run_a, _ = pipeline_runs
        with open(run_a / "mli_grid.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        baseline = float(rows[0]["score"])
        assert rows[0]["property"] == ""
        for row in rows[1:]:
            if row["property"] and float(row["lambda"]) == 0.0 and not row["error"]:
                assert float(row["score"]) == baseline
