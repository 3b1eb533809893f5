"""Shared fixtures: the planted-cluster corpus and one trained pipeline."""

from __future__ import annotations

import pytest

from stare import bucketing, encoder, fixtures, mining, mli
from stare.corpus import Corpus


@pytest.fixture(scope="session")
def fixture_data():
    return fixtures.generate(fixtures.FixtureSpec(seed=0))


@pytest.fixture(scope="session")
def bank(fixture_data):
    return Corpus(fixture_data.train, "bracketed")


@pytest.fixture(scope="session")
def dev_queries(fixture_data):
    return Corpus(fixture_data.dev, "bracketed")


@pytest.fixture(scope="session")
def lsh_index(bank):
    index = bucketing.LshIndex(num_hashes=128, tau=0.5, seed=7)
    for rec in bank:
        feats = bucketing.extract_features(rec.parse, bank.dialect)
        index.insert(rec.id, bucketing.minhash(feats, 128, 7))
    return index


@pytest.fixture(scope="session")
def mined(bank, lsh_index):
    return mining.mine_all(bank, lsh_index, mining.MiningConfig())


@pytest.fixture(scope="session")
def enc_cfg(bank):
    vocab = encoder.build_vocab([rec.utterance for rec in bank])
    return encoder.EncoderConfig(vocab=vocab, d=64, layers=4, heads=4, max_len=64, seed=1)


@pytest.fixture(scope="session")
def init_params(enc_cfg):
    return encoder.init_params(enc_cfg)


@pytest.fixture(scope="session")
def trained(bank, mined, enc_cfg):
    groups, _ = mined
    tcfg = encoder.TrainConfig(epochs=3, lr=3e-4, weight_decay=0.01, batch=5,
                               temperature=0.07, seed=2)
    params, curve = encoder.train(groups, bank, enc_cfg, tcfg)
    return params, curve


@pytest.fixture(scope="session")
def trained_params(trained):
    return trained[0]


@pytest.fixture(scope="session")
def label_corpora(fixture_data, tmp_path_factory):
    root = tmp_path_factory.mktemp("labels")
    out = {}
    for prop, fname in (("POS", "pos.tsv"), ("DEPS", "deps.tsv"), ("PT", "pt.tsv")):
        path = root / fname
        fixtures.write_token_label_file(fixture_data.tagged, path, prop)
        out[prop] = mli.load_token_label_corpus(path, prop)
    return out


@pytest.fixture(scope="session")
def sweep_result(bank, trained_params, enc_cfg, label_corpora):
    grid = mli.SweepGrid(layers=[2, 3, 4], properties=["POS", "DEPS", "PT"],
                         lambdas=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    return mli.sweep(bank, trained_params, enc_cfg, label_corpora, grid, k=5)


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """Two identical end-to-end CLI runs on a generated fixture."""
    from stare import cli

    root = tmp_path_factory.mktemp("pipeline")
    fix_dir = root / "fixture"
    assert cli.main(["fixture-gen", "--out", str(fix_dir), "--seed", "0"]) == 0
    config = str(fix_dir / "config.json")
    out_dirs = []
    for name in ("run_a", "run_b"):
        out = root / name
        for stage in ("bucket", "mine", "train", "mli", "eval"):
            code = cli.main([stage, "--config", config, "--out", str(out)])
            assert code == 0, f"{stage} failed in {name}"
        out_dirs.append(out)
    return fix_dir, out_dirs[0], out_dirs[1]
