import csv
import json
import tracemalloc

import numpy as np
import pytest

from stare import encoder as enc
from stare import mli
from stare.corpus import Corpus, Record
from stare.ted import sim_struct

from oracles import jacobi_svd_top_right, reference_probe_loss_and_grads, reference_sweep


@pytest.fixture(scope="module")
def probe_cfg():
    return mli.ProbeConfig(epochs=200, lr=0.5, l2=1e-4)


class TestLabelCorpus:
    def test_default_label_sets(self):
        pos = mli.default_label_set("POS")
        deps = mli.default_label_set("DEPS")
        pt = mli.default_label_set("PT")
        assert "NOUN" in pos and len(pos) == 17
        assert "NSUBJ" in deps and "ROOT" in deps and len(deps) == 25
        assert "NP" in pt and len(pt) == 27

    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("hello\tNOUN\nworld\tNOUN\n\n!\tPUNCT\n", encoding="utf-8")
        corpus = mli.load_token_label_corpus(path, "POS")
        assert corpus.sentences == [(["hello", "world"], ["NOUN", "NOUN"]),
                                    (["!"], ["PUNCT"])]

    def test_unknown_label_named(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("hello\tBOGUS\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"labels\.tsv:1: label 'BOGUS' not in the POS set$"):
            mli.load_token_label_corpus(path, "POS")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^token/label length mismatch: 2 vs 1$"):
            mli.TokenLabelCorpus([(["a", "b"], ["NOUN"])], ["NOUN"])

    def test_empty_sentence(self):
        with pytest.raises(ValueError, match="^token-label corpus contains an empty sentence$"):
            mli.TokenLabelCorpus([([], [])], ["NOUN"])

    def test_malformed_line_numbered(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("token-without-tab\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            mli.load_token_label_corpus(path, "POS")


class TestCollectStates:
    def _cfg(self):
        vocab = enc.build_vocab(["alpha beta gamma delta epsilon"])
        return enc.EncoderConfig(vocab=vocab, d=8, layers=3, heads=2, max_len=4, seed=2)

    def test_row_count(self):
        cfg = self._cfg()
        params = enc.init_params(cfg)
        corpus = mli.TokenLabelCorpus(
            [(["alpha", "beta", "gamma"], ["NOUN", "VERB", "NOUN"])],
            ["NOUN", "VERB"])
        X, y = mli.collect_states(corpus, params, cfg, layers=[2])
        assert list(X) == [2] and X[2].shape == (3, cfg.d)
        assert list(y) == [0, 1, 0]

    def test_deterministic(self):
        cfg = self._cfg()
        params = enc.init_params(cfg)
        corpus = mli.TokenLabelCorpus([(["alpha", "beta"], ["NOUN", "VERB"])],
                                      ["NOUN", "VERB"])
        X1, _ = mli.collect_states(corpus, params, cfg, [1])
        X2, _ = mli.collect_states(corpus, params, cfg, [1])
        assert np.array_equal(X1[1], X2[1])

    def test_truncation_consistent(self):
        cfg = self._cfg()  # max_len 4
        params = enc.init_params(cfg)
        tokens = ["alpha", "beta", "gamma", "delta", "epsilon"]
        corpus = mli.TokenLabelCorpus([(tokens, ["NOUN"] * 5)], ["NOUN", "VERB"])
        X, y = mli.collect_states(corpus, params, cfg, [1])
        assert X[1].shape[0] == 4 == len(y)

    def test_layer_bounds(self):
        cfg = self._cfg()
        params = enc.init_params(cfg)
        corpus = mli.TokenLabelCorpus([(["alpha"], ["NOUN"])], ["NOUN", "VERB"])
        for layers in ([0], [1, 4]):
            with pytest.raises(ValueError, match=rf"^layer {layers[-1]} outside \[1, 3\]$"):
                mli.collect_states(corpus, params, cfg, layers)

    def test_rows_equal_per_sentence_forward(self):
        cfg = self._cfg()
        params = enc.init_params(cfg)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        sentences = [(words[i % 3 : i % 3 + n], [("NOUN", "VERB")[j % 2] for j in range(n)])
                     for i, n in enumerate([2, 1, 3, 2, 5, 1, 2, 3, 4, 2])]
        corpus = mli.TokenLabelCorpus(sentences, ["NOUN", "VERB"])
        X, y = mli.collect_states(corpus, params, cfg, [3, 1])  # one forward, both layers
        assert list(X) == [3, 1]
        for layer in (1, 3):
            want_x, want_y = [], []
            for tokens, labels in sentences:
                ids = enc.ids_for_tokens(tokens, cfg)
                want_x.append(enc.forward_ids(ids, params, cfg)[layer])
                want_y += [labels[j] == "VERB" for j in range(len(ids))]
            assert np.array_equal(X[layer], np.vstack(want_x))
            assert list(y) == want_y

    def test_peak_memory_near_output(self):
        """The layer arrays are filled as chunks arrive: nothing else of the
        size of the output is held (stacking per-sentence rows needs about 2x)."""
        words = [f"w{i}" for i in range(50)]
        cfg = enc.EncoderConfig(vocab=enc.build_vocab([" ".join(words)]), d=64, layers=2,
                                heads=2, max_len=8, seed=0)
        params = enc.init_params(cfg)
        rng = np.random.default_rng(0)
        sentences = []
        for n in rng.integers(1, 9, 1000):
            sentences.append(([words[j] for j in rng.integers(0, 50, n)],
                              [("NOUN", "VERB")[j % 2] for j in range(n)]))
        corpus = mli.TokenLabelCorpus(sentences, ["NOUN", "VERB"])
        tracemalloc.start()
        try:
            X, y = mli.collect_states(corpus, params, cfg, [1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(x.nbytes for x in X.values()) + y.nbytes
        assert len(y) > 4000
        assert peak < 1.5 * returned


def _accuracy(W, b, X, y):
    """The share of rows whose highest-scoring label is their own."""
    return float(np.mean(np.argmax(X @ W.T + b, axis=1) == y))


class TestTrainProbe:
    def test_separable_blobs(self, probe_cfg):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.standard_normal((60, 8)) * 0.1 + [4, 0, 0, 0, 0, 0, 0, 0],
                       rng.standard_normal((60, 8)) * 0.1 - [4, 0, 0, 0, 0, 0, 0, 0]])
        y = np.array([0] * 60 + [1] * 60)
        W, b = mli.train_probe(X, y, n_labels=2, config=probe_cfg)
        assert _accuracy(W, b, X, y) >= 0.99

    def test_chance_level_on_random_labels(self, probe_cfg):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((400, 8))
        y = rng.integers(0, 4, size=400)
        W, b = mli.train_probe(X, y, 4, probe_cfg)
        assert abs(_accuracy(W, b, X, y) - 0.25) <= 0.1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 8))
        y = rng.integers(0, 3, size=30)
        W = rng.standard_normal((3, 8)) * 0.5
        b = rng.standard_normal(3) * 0.1
        _, dW, db = mli.probe_loss_and_grads(W, b, X, y, l2=1e-3)
        eps = 1e-5
        worst = 0.0
        for arr, grad in ((W, dW), (b, db)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = mli.probe_loss_and_grads(W, b, X, y, 1e-3)[0]
                flat[idx] = orig - eps
                lm = mli.probe_loss_and_grads(W, b, X, y, 1e-3)[0]
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(gflat[idx] - fd) / max(1e-8, abs(gflat[idx]) + abs(fd)))
        assert worst <= 1e-4

    @pytest.mark.parametrize("n, d, k, scale, l2", [(30, 8, 3, 0.5, 1e-3), (1, 4, 2, 0.0, 0.0),
                                                    (257, 16, 27, 40.0, 1e-4)])
    def test_in_place_equals_reference(self, n, d, k, scale, l2):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, d))
        y = rng.integers(0, k, size=n)
        W = rng.standard_normal((k, d)) * scale
        b = rng.standard_normal(k) * scale
        inputs = [a.copy() for a in (W, b, X, y)]
        loss, dW, db = mli.probe_loss_and_grads(W, b, X, y, l2)
        want_loss, want_dW, want_db = reference_probe_loss_and_grads(W, b, X, y, l2)
        assert loss == want_loss
        assert np.array_equal(dW, want_dW) and np.array_equal(db, want_db)
        assert all(np.array_equal(a, c) for a, c in zip((W, b, X, y), inputs))

    def test_loss_curve_monotone(self, probe_cfg, monkeypatch):
        """Descent: a step is kept only if it does not raise the loss, so the
        fit returned has the lowest loss of every one evaluated."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 6))
        y = rng.integers(0, 3, size=100)
        loss_and_grads = mli.probe_loss_and_grads
        losses = []

        def recording(*args):
            out = loss_and_grads(*args)
            losses.append(out[0])
            return out

        monkeypatch.setattr(mli, "probe_loss_and_grads", recording)
        W, b = mli.train_probe(X, y, 3, probe_cfg)
        monkeypatch.undo()
        loss = mli.probe_loss_and_grads(W, b, X, y, probe_cfg.l2)[0]
        assert len(losses) > probe_cfg.epochs
        assert loss == min(losses) <= losses[0]

    def test_degenerate_labels(self, probe_cfg):
        X = np.ones((10, 4))
        y = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match="^probe training needs at least 2 distinct labels$"):
            mli.train_probe(X, y, 2, probe_cfg)


class TestExtractDirection:
    def test_rank_one(self):
        v = np.array([0.0, 3.0, -4.0, 0.0])
        W = np.zeros((3, 4))
        W[1] = v
        u = mli.extract_direction(W)
        expected = v / np.linalg.norm(v)
        if expected[np.flatnonzero(expected)[0]] < 0:
            expected = -expected
        assert np.abs(u - expected).max() <= 1e-9

    def test_diagonal(self):
        W = np.zeros((2, 5))
        W[0, 0], W[1, 1] = 3.0, 1.0
        u = mli.extract_direction(W)
        assert abs(u[0] - 1.0) <= 1e-9
        assert np.abs(u[1:]).max() <= 1e-9

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k, d = int(rng.integers(2, 12)), int(rng.integers(4, 40))
            W = rng.standard_normal((k, d))
            u = mli.extract_direction(W)
            oracle = jacobi_svd_top_right(W)
            assert abs(float(u @ oracle)) >= 0.999

    def test_unit_norm_and_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = rng.standard_normal((4, 9))
            u = mli.extract_direction(W)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-9
            assert u[np.flatnonzero(u)[0]] > 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((5, 12))
        u1 = mli.extract_direction(W)
        u2 = mli.extract_direction(2.5 * W)
        assert np.allclose(u1, u2, atol=1e-9)

    def test_zero_matrix(self):
        with pytest.raises(ValueError, match="^probe weight matrix is all zeros$"):
            mli.extract_direction(np.zeros((3, 4)))

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-6])
    def test_narrow_gap(self, gap):
        rng = np.random.default_rng(10)
        left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        W = left @ np.diag([1.0, 1.0 - gap, 0.5]) @ right.T
        u = mli.extract_direction(W)
        assert abs(float(u @ right[:, 0])) >= 1 - 1e-12


def test_jacobi_oracle_self_check():
    rng = np.random.default_rng(8)
    for _ in range(10):
        W = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(3, 20))))
        _, _, vt = np.linalg.svd(W)
        assert abs(float(jacobi_svd_top_right(W) @ vt[0])) >= 0.999999


class TestSweep:
    def _setup(self, layers=2):
        records = [Record(f"r{i}", f"token{i} alpha beta", f"[A{i % 2} x{i} ]")
                   for i in range(8)]
        bank = Corpus(records, "bracketed")
        vocab = enc.build_vocab([r.utterance for r in records])
        cfg = enc.EncoderConfig(vocab=vocab, d=8, layers=layers, heads=2, max_len=8, seed=0)
        params = enc.init_params(cfg)
        sentences = [([f"token{i}", "alpha", "beta"], ["NOUN", "VERB", "NOUN"])
                     for i in range(8)]
        corpora = {"POS": mli.TokenLabelCorpus(sentences, ["NOUN", "VERB"])}
        return bank, params, cfg, corpora

    def test_lambda_zero_rows_equal_baseline(self):
        bank, params, cfg, corpora = self._setup()
        grid = mli.SweepGrid(layers=[1, 2], properties=["POS"], lambdas=[0.0])
        result = mli.sweep(bank, params, cfg, corpora, grid, k=2)
        assert result.best is None
        assert result.best_score == result.baseline_score
        for row in result.rows:
            if row.prop:
                assert row.score == result.baseline_score

    def test_baseline_always_first_row(self):
        bank, params, cfg, corpora = self._setup()
        grid = mli.SweepGrid(layers=[1], properties=["POS"], lambdas=[1.0])
        result = mli.sweep(bank, params, cfg, corpora, grid, k=2)
        assert result.rows[0].prop == ""
        assert result.rows[0].score == result.baseline_score
        assert result.best_score >= result.baseline_score

    def test_missing_label_corpus_recorded_not_fatal(self):
        bank, params, cfg, corpora = self._setup()
        grid = mli.SweepGrid(layers=[1], properties=["POS", "PT"], lambdas=[1.0])
        result = mli.sweep(bank, params, cfg, corpora, grid, k=2)
        errors = [row for row in result.rows if row.error]
        assert any(row.prop == "PT" for row in errors)

    @pytest.mark.parametrize("layers", [2, 4])
    def test_resumed_embeddings_equal_injected_forward(self, layers):
        bank, params, cfg, _ = self._setup(layers)
        texts = [rec.utterance for rec in bank]
        states = [enc.forward(text, params, cfg) for text in texts]
        u = np.random.default_rng(3).standard_normal(cfg.d)
        u /= np.linalg.norm(u)
        for layer in range(1, layers + 1):
            for lam in (0.0, *mli.DEFAULT_LAMBDAS):
                injection = enc.InjectionDirection(u=u, layer=layer, lam=lam)
                for text, layer_states in zip(texts, states):
                    assert np.array_equal(
                        mli.resumed_embedding(layer_states, injection, params, cfg),
                        enc.embed(text, params, cfg, injection)), (layer, lam, text)

    def test_rows_equal_reference_sweep(self):
        bank, params, cfg, corpora = self._setup()
        # Layer 3 is out of range and PT has no corpus: both give error rows.
        grid = mli.SweepGrid(layers=[1, 2, 3], properties=["POS", "PT"],
                             lambdas=[0.0, 0.5, 2.0, 6.0])
        _assert_same_sweep(mli.sweep(bank, params, cfg, corpora, grid, k=2),
                           reference_sweep(bank, params, cfg, corpora, grid, k=2))

    def test_forward_calls_do_not_grow_with_lambdas(self, monkeypatch):
        bank, params, cfg, corpora = self._setup()
        forward_batch = enc.forward_batch
        calls = []  # one entry per sequence forwarded from layer 0

        def counting(id_lists, *args, **kwargs):
            calls.extend([1] * len(id_lists))
            return forward_batch(id_lists, *args, **kwargs)

        monkeypatch.setattr(enc, "forward_batch", counting)
        counts = []
        for lambdas in ([1.0], [0.5, 1.0, 2.0, 4.0, 6.0]):
            calls.clear()
            grid = mli.SweepGrid(layers=[1, 2], properties=["POS"], lambdas=lambdas)
            mli.sweep(bank, params, cfg, corpora, grid, k=2)
            counts.append(len(calls))
        # per bank record the baseline's index row and query, and the prefix
        # states; one forward per probe sentence
        assert counts == [3 * len(bank) + len(corpora["POS"].sentences)] * 2

    def test_one_label_forward_per_distinct_text(self, monkeypatch):
        """Label corpora with equal tokens share one forward, and each keeps
        its own labels: the rows equal the reference sweep's."""
        bank, params, cfg, corpora = self._setup()
        sentences = corpora["POS"].sentences
        corpora["DEPS"] = mli.TokenLabelCorpus(
            [(tokens, ["A", "B", "B"] if i % 2 else ["B", "A", "A"])
             for i, (tokens, _) in enumerate(sentences)], ["A", "B"])
        corpora["PT"] = mli.TokenLabelCorpus(
            [(tokens[::-1], labels) for tokens, labels in sentences], ["NOUN", "VERB"])
        forward_batch = enc.forward_batch
        calls = []

        def counting(id_lists, *args, **kwargs):
            calls.extend([1] * len(id_lists))
            return forward_batch(id_lists, *args, **kwargs)

        grid = mli.SweepGrid(layers=[1, 2], properties=["POS", "DEPS", "PT"],
                             lambdas=[1.0, 3.0])
        with monkeypatch.context() as patched:
            patched.setattr(enc, "forward_batch", counting)
            result = mli.sweep(bank, params, cfg, corpora, grid, k=2)
        # POS and DEPS share a text; PT reverses each sentence
        assert len(calls) == 3 * len(bank) + 2 * len(sentences)
        _assert_same_sweep(result, reference_sweep(bank, params, cfg, corpora, grid, k=2))

    @pytest.mark.parametrize("name", ["train_probe", "resumed_embedding"])
    def test_programming_error_is_not_an_error_row(self, monkeypatch, name):
        """Only data errors (ValueError, ArithmeticError) become error rows."""
        bank, params, cfg, corpora = self._setup()

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(mli, name, broken)
        grid = mli.SweepGrid(layers=[1], properties=["POS"], lambdas=[1.0])
        with pytest.raises(TypeError, match="bug"):
            mli.sweep(bank, params, cfg, corpora, grid, k=2)

    def test_chunks_keep_only_grid_layers(self, monkeypatch):
        """A cell resumes from the kept states of its grid layer; no other
        layer of a bank chunk, layer 0 included, is held."""
        bank, params, cfg, corpora = self._setup(layers=4)
        resumed_embedding = mli.resumed_embedding
        seen = []

        def capturing(states, *args):
            seen.append(states)
            return resumed_embedding(states, *args)

        monkeypatch.setattr(mli, "resumed_embedding", capturing)
        grid = mli.SweepGrid(layers=[2, 3, 6], properties=["POS"], lambdas=[1.0])
        mli.sweep(bank, params, cfg, corpora, grid, k=2)
        assert seen
        for states in seen:
            assert len(states) == cfg.layers + 1
            assert [layer for layer, x in enumerate(states) if x is not None] == [2, 3]

    def test_baseline_leaves_each_record_out(self):
        """Twin records share an utterance, so each record's own row ties with
        its twin's for nearest. Left out, it retrieves its twin at k = 1, and
        the baseline is the mean of the twins' similarities, not 1.0."""
        parses = ["[A x ]", "[A [B y ] ]", "[C x y z ]", "[C x ]", "[D [E [F w ] ] ]", "[D w ]"]
        bank = Corpus([Record(f"r{i}", f"twin{i // 2} alpha", parse)
                       for i, parse in enumerate(parses)], "bracketed")
        corpora = self._setup()[3]
        cfg = enc.EncoderConfig(vocab=enc.build_vocab([r.utterance for r in bank]), d=8,
                                layers=2, heads=2, max_len=8, seed=0)
        params = enc.init_params(cfg)
        grid = mli.SweepGrid(layers=[1], properties=["POS"], lambdas=[0.0])
        result = mli.sweep(bank, params, cfg, corpora, grid, k=1)
        twins = [sim_struct(bank.tree(f"r{i}"), bank.tree(f"r{i + 1}")) for i in (0, 2, 4)]
        assert max(twins) < 1.0
        assert result.baseline_score == pytest.approx(sum(twins) / 3, abs=1e-15)
        assert [row.score for row in result.rows] == [result.baseline_score] * 2

    def test_default_layers(self):
        assert mli.default_sweep_layers(4) == [2, 3, 4]
        assert mli.default_sweep_layers(12) == [4, 8, 12]


def _assert_same_sweep(got, want):
    def rows(result):
        return [(r.prop, r.layer, r.lam, repr(r.score), r.error) for r in result.rows]

    assert rows(got) == rows(want)
    assert (got.best_score, got.baseline_score) == (want.best_score, want.baseline_score)
    assert (got.best is None) == (want.best is None)
    if got.best is not None:
        assert (got.best.prop, got.best.layer, got.best.lam) == \
            (want.best.prop, want.best.layer, want.best.lam)
        assert np.array_equal(got.best.u, want.best.u)


def test_fixture_sweep_equals_reference(bank, trained_params, enc_cfg, label_corpora):
    grid = mli.SweepGrid(layers=[2, 3, 4], properties=["POS"], lambdas=[0.0, 1.0, 5.0])
    args = (bank, trained_params, enc_cfg, label_corpora, grid)
    _assert_same_sweep(mli.sweep(*args, k=5), reference_sweep(*args, k=5))


def test_fixture_lambda_zero_rows_score_the_baseline(bank, trained_params, enc_cfg,
                                                     label_corpora, monkeypatch, tmp_path):
    """A lam = 0 cell is scored like every other cell, resumed from the kept
    states plus 0*u, and ``mli_grid.csv`` gets the baseline's score bit for bit."""
    resumed_embedding = mli.resumed_embedding
    cells = set()

    def recording(states, injection, *args):
        cells.add((injection.prop, injection.layer, injection.lam))
        return resumed_embedding(states, injection, *args)

    monkeypatch.setattr(mli, "resumed_embedding", recording)
    grid = mli.SweepGrid(layers=[2, 3, 4], properties=["POS", "DEPS"], lambdas=[0.0])
    result = mli.sweep(bank, trained_params, enc_cfg, label_corpora, grid, k=5)
    assert cells == {(prop, layer, 0.0) for prop in grid.properties for layer in grid.layers}
    path = tmp_path / "mli_grid.csv"
    mli.write_sweep_report(result, path)
    baseline, *rows = csv.DictReader(path.open())
    assert baseline["property"] == "" and len(rows) == 6
    for row in rows:
        assert row["error"] == "" and float(row["lambda"]) == 0.0
        assert float(row["score"]).hex() == float(baseline["score"]).hex() \
            == result.baseline_score.hex()


# A direction.json as ``save_direction`` writes it.
_PARAMS_SHA256 = "0123456789abcdef" * 4
_SAVED_DIRECTION = {"format_version": 2, "params_sha256": _PARAMS_SHA256, "property": "POS",
                    "layer": 2, "lambda": 5.0, "u": [0.6, 0.8], "on_grid_edge": False}


class TestDirectionPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        direction = enc.InjectionDirection(u=u, layer=3, lam=2.5, prop="DEPS")
        path = tmp_path / "direction.json"
        mli.save_direction(direction, path, _PARAMS_SHA256)
        loaded, params_sha256 = mli.read_direction(path)
        assert np.array_equal(loaded.u, u)
        assert (loaded.layer, loaded.lam, loaded.prop) == (3, 2.5, "DEPS")
        assert params_sha256 == _PARAMS_SHA256
        assert np.array_equal(mli.load_direction(path).u, u)

    def test_baseline_records_its_params(self, tmp_path):
        path = tmp_path / "direction.json"
        mli.save_direction(None, path, _PARAMS_SHA256)
        assert json.loads(path.read_text()) == {"format_version": 2, "baseline": True,
                                                "params_sha256": _PARAMS_SHA256}
        assert mli.read_direction(path) == (None, _PARAMS_SHA256)

    def test_saved_keys(self, tmp_path):
        direction = enc.InjectionDirection(u=np.array([0.6, 0.8]), layer=2, lam=5.0,
                                           prop="POS")
        path = tmp_path / "direction.json"
        mli.save_direction(direction, path, _PARAMS_SHA256)
        assert json.loads(path.read_text()) == _SAVED_DIRECTION

    @pytest.mark.parametrize("edge", [True, False, None])
    def test_on_grid_edge_is_recorded_and_ignored(self, tmp_path, edge):
        """``on_grid_edge`` is written with a pick; reading ignores it, and a
        file without it (``None`` here) reads as before."""
        direction = enc.InjectionDirection(u=np.array([0.6, 0.8]), layer=2, lam=5.0,
                                           prop="POS")
        path = tmp_path / "direction.json"
        mli.save_direction(direction, path, _PARAMS_SHA256, on_grid_edge=bool(edge))
        payload = json.loads(path.read_text())
        assert payload["on_grid_edge"] is bool(edge)
        if edge is None:
            del payload["on_grid_edge"]
            path.write_text(json.dumps(payload))
        loaded, params_sha256 = mli.read_direction(path)
        assert (loaded.layer, loaded.lam, loaded.prop, params_sha256) == \
            (2, 5.0, "POS", _PARAMS_SHA256)

    def test_reads_file_with_converged_key(self, tmp_path):
        path = tmp_path / "direction.json"
        path.write_text(json.dumps({**_SAVED_DIRECTION, "converged": True}))
        loaded = mli.load_direction(path)
        assert np.array_equal(loaded.u, [0.6, 0.8])
        assert (loaded.layer, loaded.lam, loaded.prop) == (2, 5.0, "POS")

    @pytest.mark.parametrize("payload", [
        [], {"format_version": 2},
        {"format_version": 2, "params_sha256": _PARAMS_SHA256, "property": "POS"},
        {**_SAVED_DIRECTION, "lambda": None}, {**_SAVED_DIRECTION, "lambda": True},
        {**_SAVED_DIRECTION, "layer": [2]}, {**_SAVED_DIRECTION, "layer": 2.7},
        {**_SAVED_DIRECTION, "layer": True}, {**_SAVED_DIRECTION, "property": 3},
        {**_SAVED_DIRECTION, "u": ["a"]}, {**_SAVED_DIRECTION, "u": 0.6},
        {**_SAVED_DIRECTION, "u": [0.6, False]},
        {**_SAVED_DIRECTION, "format_version": 1},
        {k: v for k, v in _SAVED_DIRECTION.items() if k != "params_sha256"},
        {**_SAVED_DIRECTION, "params_sha256": 7}])
    def test_malformed_file_named(self, tmp_path, payload):
        path = tmp_path / "direction.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="direction.json"):
            mli.load_direction(path)


def test_fixture_sweep_rise_then_decline(sweep_result):
    """At least one property curve improves on its baseline then falls back."""
    from collections import defaultdict

    curves = defaultdict(list)
    for row in sweep_result.rows:
        if row.prop and not row.error:
            curves[(row.prop, row.layer)].append((row.lam, row.score))
    baseline = sweep_result.baseline_score
    found = False
    for values in curves.values():
        values.sort()
        scores = [s for _, s in values]
        peak = max(scores)
        peak_idx = scores.index(peak)
        if peak > baseline and min(scores[peak_idx:]) < peak:
            found = True
            break
    assert found


def test_fixture_probes_beat_chance(trained_params, enc_cfg, label_corpora):
    """Each probe of the fixture sweep's grid (layers 2-4 of every property,
    the default probe config) beats chance."""
    for prop, corpus in label_corpora.items():
        X, y = mli.collect_states(corpus, trained_params, enc_cfg, [2, 3, 4])
        chance = 1.0 / len(corpus.label_set)
        for layer, states in X.items():
            W, b = mli.train_probe(states, y, len(corpus.label_set))
            assert _accuracy(W, b, states, y) > chance + 0.2, (prop, layer)
