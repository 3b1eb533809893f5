import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stare import encoder as enc
from stare.corpus import Corpus, Record
from stare.mining import ContrastiveGroup

from oracles import infonce_loss, mean_group_loss, reference_group_loss_and_grads


@pytest.fixture(scope="module")
def small_cfg():
    vocab = enc.build_vocab([
        "remind me to pack boxes", "play golden hour now", "call ravi and mia",
        "how cold is oslo in spring", "start a timer !",
    ])
    return enc.EncoderConfig(vocab=vocab, d=8, layers=2, heads=2, max_len=16, seed=3)


@pytest.fixture(scope="module")
def small_params(small_cfg):
    return enc.init_params(small_cfg)


class TestTokenize:
    def test_punctuation_split(self):
        vocab = enc.build_vocab(["Remind me!"])
        ids = enc.tokenize("Remind me!", vocab)
        assert ids == [vocab["remind"], vocab["me"], vocab["!"]]

    def test_unknown_maps_to_unk(self, small_cfg):
        ids = enc.tokenize("zzz-unseen", small_cfg.vocab)
        assert enc.UNK_ID in ids

    def test_truncation(self, small_cfg):
        text = " ".join(["word"] * 100)
        assert len(enc.tokenize(text, small_cfg.vocab, max_len=64)) == 64

    def test_empty_rejected(self, small_cfg):
        with pytest.raises(enc.EmptyInput):
            enc.tokenize("   ", small_cfg.vocab)

    def test_vocab_reserves_unk(self):
        vocab = enc.build_vocab(["a b c"])
        assert vocab[enc.UNK_TOKEN] == enc.UNK_ID == 0


class TestForward:
    def test_determinism(self, small_cfg, small_params):
        h1 = enc.forward("remind me to pack boxes", small_params, small_cfg)
        h2 = enc.forward("remind me to pack boxes", small_params, small_cfg)
        assert all(np.array_equal(a, b) for a, b in zip(h1, h2))

    def test_layer_count_and_shapes(self, small_cfg, small_params):
        hidden = enc.forward("remind me", small_params, small_cfg)
        assert len(hidden) == small_cfg.layers + 1
        assert all(layer.shape == (2, small_cfg.d) for layer in hidden)
        assert all(np.isfinite(layer).all() for layer in hidden)

    def test_zero_lambda_bit_identical(self, small_cfg, small_params):
        u = np.full(small_cfg.d, 0.5)
        base = enc.forward("call ravi", small_params, small_cfg)
        injected = enc.forward("call ravi", small_params, small_cfg,
                               enc.InjectionDirection(u=u, layer=1, lam=0.0))
        assert all(np.array_equal(a, b) for a, b in zip(base, injected))

    def test_injection_shifts_exactly(self, small_cfg, small_params):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(small_cfg.d)
        u /= np.linalg.norm(u)
        lam = 1.5
        base = enc.forward("call ravi and mia", small_params, small_cfg)
        injected = enc.forward("call ravi and mia", small_params, small_cfg,
                               enc.InjectionDirection(u=u, layer=1, lam=lam))
        assert np.array_equal(injected[0], base[0])
        assert np.array_equal(injected[1], base[1] + lam * u)
        assert not np.array_equal(injected[2], base[2])

    def test_injection_at_last_layer_moves_embedding(self, small_cfg, small_params):
        u = np.zeros(small_cfg.d)
        u[0] = 1.0
        lam = 2.0
        base = enc.embed("play golden hour", small_params, small_cfg)
        injected = enc.embed("play golden hour", small_params, small_cfg,
                             enc.InjectionDirection(u=u, layer=small_cfg.layers, lam=lam))
        assert np.allclose(injected, base + lam * u)

    def test_injection_validation(self, small_cfg, small_params):
        with pytest.raises(enc.LayerOutOfRange):
            enc.forward("call ravi", small_params, small_cfg,
                        enc.InjectionDirection(u=np.ones(small_cfg.d), layer=5, lam=1.0))
        with pytest.raises(enc.DimensionMismatch):
            enc.forward("call ravi", small_params, small_cfg,
                        enc.InjectionDirection(u=np.ones(3), layer=1, lam=1.0))


    def test_gelu_cube_matches_power_formula(self):
        x = np.linspace(-10.0, 10.0, 200001)
        t = np.tanh(enc._GELU_C * (x + enc._GELU_A * x ** 3))
        y, t_got = enc._gelu_forward(x)
        assert np.max(np.abs(t_got - t)) <= 1e-12
        assert np.max(np.abs(y - 0.5 * x * (1.0 + t))) <= 1e-12

    def test_run_blocks_resumes_forward(self, small_cfg, small_params):
        hidden = enc.forward("call ravi and mia", small_params, small_cfg)
        for first in range(small_cfg.layers + 1):
            resumed = enc.run_blocks(hidden[first], small_params, small_cfg, first)
            assert len(resumed) == small_cfg.layers + 1 - first
            assert all(np.array_equal(a, b) for a, b in zip(resumed, hidden[first:]))


class TestForwardBatch:
    def test_length_chunks(self):
        lengths = [3, 5, 3, 3, 5, 64, 70, 3]
        assert enc.length_chunks(lengths, max_tokens=6) == [[0, 2], [3, 7], [1], [4], [5], [6]]
        assert enc.length_chunks(lengths, max_tokens=sum(lengths)) == \
            [[0, 2, 3, 7], [1, 4], [5], [6]]
        assert enc.length_chunks([]) == []

    def test_states_equal_one_sequence_run(self, small_cfg, small_params):
        rng = np.random.default_rng(4)
        vocab_size = len(small_cfg.vocab)
        # lengths 1..max_len+3 (the last ones truncate) and 40 sequences of
        # length 2, more than one CHUNK_TOKENS chunk holds
        id_lists = [list(rng.integers(0, vocab_size, size=n))
                    for n in [*range(1, small_cfg.max_len + 4), *[2] * 40]]
        u = rng.standard_normal(small_cfg.d)
        for injection in (None, enc.InjectionDirection(u=u, layer=1, lam=2.0)):
            seen = []
            for positions, states, cache in enc.forward_batch(id_lists, small_params,
                                                              small_cfg, injection):
                assert cache is None
                assert len(positions) * states[0].shape[1] <= enc.CHUNK_TOKENS
                for b, pos in enumerate(positions):
                    ids = id_lists[pos][: small_cfg.max_len]  # one (tokens, d) sequence
                    x = small_params["tok_emb"][ids] + small_params["pos_emb"][: len(ids)]
                    want = enc.run_blocks(x, small_params, small_cfg, 0, injection)
                    assert all(np.array_equal(got[b], w) for got, w in zip(states, want)), pos
                seen += positions
            assert sorted(seen) == list(range(len(id_lists)))
            assert len({len(p) for p, _, _ in enc.forward_batch(
                id_lists, small_params, small_cfg)}) > 1

    def test_empty_sequence_rejected(self, small_cfg, small_params):
        with pytest.raises(enc.EmptyInput):
            list(enc.forward_batch([[1], []], small_params, small_cfg))


class TestEmbed:
    def test_single_token_equals_state(self, small_cfg, small_params):
        hidden = enc.forward("ravi", small_params, small_cfg)
        embedding = enc.embed("ravi", small_params, small_cfg)
        assert np.array_equal(embedding, hidden[-1][0])

    def test_mean_pooling_linearity(self, small_cfg, small_params):
        hidden = enc.forward("how cold is oslo", small_params, small_cfg)
        embedding = enc.embed("how cold is oslo", small_params, small_cfg)
        assert np.array_equal(embedding, hidden[-1].mean(axis=0))

    def test_order_sensitivity(self, small_cfg, small_params):
        a = enc.embed("pack boxes", small_params, small_cfg)
        b = enc.embed("boxes pack", small_params, small_cfg)
        assert not np.allclose(a, b)

    def test_repeatable(self, small_cfg, small_params):
        a = enc.embed("call mia", small_params, small_cfg)
        b = enc.embed("call mia", small_params, small_cfg)
        assert np.array_equal(a, b)


class TestInfoNce:
    def test_zero_negatives_zero_loss(self):
        rng = np.random.default_rng(1)
        a, p = rng.standard_normal(8), rng.standard_normal(8)
        assert infonce_loss(a, p, [], temperature=0.07) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_equal_similarities_log_k_plus_one(self, k):
        anchor = np.zeros(6)
        anchor[0] = 1.0
        same = np.zeros(6)
        same[1] = 1.0  # cos(anchor, same) == 0 for positive and all negatives
        loss = infonce_loss(anchor, same, [same.copy() for _ in range(k)], 0.07)
        assert loss == pytest.approx(math.log(k + 1), abs=1e-9)

    def test_opposed_negative_tiny_loss(self):
        anchor = np.array([1.0, 0.0])
        positive = np.array([2.0, 0.0])    # cos = 1
        negative = np.array([-3.0, 0.0])   # cos = -1
        loss = infonce_loss(anchor, positive, [negative], 0.07)
        assert loss == pytest.approx(math.log1p(math.exp(-2 / 0.07)), rel=1e-12)
        assert loss < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(enc.ZeroVector):
            infonce_loss(np.zeros(4), np.ones(4), [], 0.07)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            infonce_loss(np.ones(4), np.ones(4), [], 0.0)

    def test_lower_loss_when_positive_closer(self):
        anchor = np.array([1.0, 0.0])
        negative = np.array([0.0, 1.0])
        far = infonce_loss(anchor, np.array([0.2, 1.0]), [negative], 0.07)
        near = infonce_loss(anchor, np.array([1.0, 0.1]), [negative], 0.07)
        assert near < far

    def test_nonnegative_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vecs = rng.standard_normal((4, 8))
            loss = infonce_loss(vecs[0], vecs[1], [vecs[2], vecs[3]], 0.5)
            assert loss >= 0.0

    @settings(max_examples=100, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_monotone_in_positive_cosine(self, seed, frac_a, frac_b):
        # Rotating the positive toward the anchor (negatives fixed) cannot
        # increase the loss.
        rng = np.random.default_rng(seed)
        anchor = rng.standard_normal(8)
        anchor /= np.linalg.norm(anchor)
        orth = rng.standard_normal(8)
        orth -= (orth @ anchor) * anchor
        orth /= np.linalg.norm(orth)
        negatives = [rng.standard_normal(8) for _ in range(3)]

        def positive_at(theta):
            return np.cos(theta) * anchor + np.sin(theta) * orth

        lo, hi = sorted([frac_a, frac_b])
        closer = infonce_loss(anchor, positive_at(lo * np.pi), negatives, 0.07)
        farther = infonce_loss(anchor, positive_at(hi * np.pi), negatives, 0.07)
        assert closer <= farther + 1e-12


def test_gradients_match_finite_differences(small_cfg, small_params):
    texts = ["remind me to pack boxes", "remind me to pack", "play golden hour",
             "call ravi and mia", "how cold is oslo", "start a timer",
             "call mia"]
    params = {k: v.copy() for k, v in small_params.items()}
    grads = enc.zerolike_params(params)
    enc.step_loss_and_grads([texts], params, small_cfg, 0.07, grads)

    def loss_of():
        embs = [enc.embed(t, params, small_cfg) for t in texts]
        return infonce_loss(embs[0], embs[1], embs[2:], 0.07)

    eps = 1e-4
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        # spot-check a sample of coordinates per tensor; the acceptance
        # suite covers every coordinate
        idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_of()
            flat[idx] = orig - eps
            lm = loss_of()
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name].reshape(-1)[idx]
            worst = max(worst, abs(an - fd) / max(1e-6, abs(an) + abs(fd)))
    assert worst <= 1e-3


MIXED_GROUPS = [
    ["remind me to pack boxes", "remind me to pack", "play golden hour",
     "call ravi and mia", "how cold is oslo", "start a timer", "call mia"],
    ["call mia", "call ravi", "play golden hour now", "how cold is oslo in spring",
     "start a timer !", "pack boxes", "mia"],
]


@pytest.mark.parametrize("texts", MIXED_GROUPS)
def test_grouped_grads_match_batch_of_one(small_cfg, small_params, texts):
    grads = enc.zerolike_params(small_params)
    want = enc.zerolike_params(small_params)
    loss = enc.step_loss_and_grads([texts], small_params, small_cfg, 0.07, grads)
    assert loss == reference_group_loss_and_grads(texts, small_params, small_cfg, 0.07, want)
    for name in grads:
        assert np.max(np.abs(grads[name] - want[name])) <= 1e-12, name


@pytest.mark.parametrize("groups", [
    MIXED_GROUPS,  # "call mia" is in both groups
    [["call mia", "call ravi", "call mia", "pack boxes", "call mia", "mia"],  # anchor repeated
     MIXED_GROUPS[1], ["mia", "call mia", "start a timer", "start a timer"]],
])
def test_step_grads_match_sum_of_batch_of_one(small_cfg, small_params, groups):
    grads = enc.zerolike_params(small_params)
    want = enc.zerolike_params(small_params)
    want_loss = 0.0
    for texts in groups:
        want_loss += reference_group_loss_and_grads(texts, small_params, small_cfg, 0.07, want)
    assert enc.step_loss_and_grads(groups, small_params, small_cfg, 0.07, grads) == want_loss
    for name in grads:
        assert np.max(np.abs(grads[name] - want[name])) <= 1e-12, name


class TestTrain:
    def _toy(self):
        records = [Record("a1", "red apple fruit", "[A x ]"),
                   Record("a2", "green apple fruit", "[A y ]"),
                   Record("b1", "loud drum music", "[B x ]"),
                   Record("b2", "soft drum music", "[B y ]")]
        corpus = Corpus(records, "bracketed")
        groups = [ContrastiveGroup("a1", "a2", ["b1"], ["b2"], 0.9),
                  ContrastiveGroup("b1", "b2", ["a1"], ["a2"], 0.9)]
        vocab = enc.build_vocab([r.utterance for r in records])
        cfg = enc.EncoderConfig(vocab=vocab, d=16, layers=2, heads=2, max_len=8, seed=0)
        return corpus, groups, cfg

    def test_zero_epochs_unchanged(self):
        corpus, groups, cfg = self._toy()
        params, curve = enc.train(groups, corpus, cfg,
                                  enc.TrainConfig(epochs=0, lr=1e-3))
        init = enc.init_params(cfg)
        assert curve == []
        assert all(np.array_equal(params[k], init[k]) for k in params)

    def test_deterministic(self):
        corpus, groups, cfg = self._toy()
        tcfg = enc.TrainConfig(epochs=2, lr=1e-3, seed=0)
        p1, c1 = enc.train(groups, corpus, cfg, tcfg)
        p2, c2 = enc.train(groups, corpus, cfg, tcfg)
        assert c1 == c2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_loss_decreases_on_toy(self):
        corpus, groups, cfg = self._toy()
        initial = mean_group_loss(groups, corpus, enc.init_params(cfg), cfg, 0.07)
        params, _ = enc.train(groups, corpus, cfg,
                              enc.TrainConfig(epochs=3, lr=3e-4, batch=1))
        final = mean_group_loss(groups, corpus, params, cfg, 0.07)
        assert final < initial

    def test_nonfinite_loss_names_group(self, monkeypatch):
        corpus, groups, cfg = self._toy()
        params = enc.init_params(cfg)
        params["tok_emb"][:] = np.nan
        monkeypatch.setattr(enc, "init_params", lambda cfg: params)
        with pytest.raises(enc.NonFiniteLoss, match="a1"):
            enc.train(groups, corpus, cfg, enc.TrainConfig(epochs=1))

    def test_one_backward_per_step_and_length_chunk(self, monkeypatch):
        corpus, _, cfg = self._toy()
        corpus = Corpus(list(corpus) + [Record("c1", "drum", "[B z ]"),
                                        Record("c2", "a red apple fruit", "[A z ]")],
                        "bracketed")
        groups = [ContrastiveGroup("a1", "a2", ["b1", "c1"], ["c2"], 0.9),
                  ContrastiveGroup("b1", "b2", ["a1"], ["a2", "c2"], 0.9),
                  ContrastiveGroup("c1", "b2", ["c2"], [], 0.9)]
        backward_ids, calls = enc.backward_ids, []

        def counting(d_final, cache, *args):
            calls.append(cache["ids"].shape)
            return backward_ids(d_final, cache, *args)

        monkeypatch.setattr(enc, "backward_ids", counting)
        enc.train(groups, corpus, cfg, enc.TrainConfig(epochs=2, batch=2))
        # Steps: groups 1+2 share a1, a2, b1 and c2 (6 distinct texts of
        # lengths 3, 1, 4); group 3 alone (3 texts of lengths 1, 3, 4).
        steps = [{text for group in groups[i : i + 2] for text in enc.group_texts(group, corpus)}
                 for i in (0, 2)]
        lengths = [[len(enc.tokenize(text, cfg.vocab, cfg.max_len)) for text in step]
                   for step in steps]
        chunks = sum(len(enc.length_chunks(step)) for step in lengths)
        assert len(calls) == 2 * chunks == 2 * (3 + 3)
        assert sum(batch for batch, _ in calls) == 2 * sum(map(len, steps)) == 2 * (6 + 3)

    def test_epoch_cap(self):
        with pytest.raises(ValueError):
            enc.TrainConfig(epochs=4)


class TestPersistence:
    def test_round_trip_bit_exact(self, small_cfg, small_params, tmp_path):
        path = tmp_path / "enc.params"
        enc.save_params(path, small_params, small_cfg)
        loaded, cfg = enc.load_params(path)
        assert cfg.to_dict() == small_cfg.to_dict()
        assert set(loaded) == set(small_params)
        assert all(np.array_equal(loaded[k], small_params[k]) for k in loaded)

    def test_save_deterministic(self, small_cfg, small_params, tmp_path):
        p1, p2 = tmp_path / "a.params", tmp_path / "b.params"
        enc.save_params(p1, small_params, small_cfg)
        enc.save_params(p2, small_params, small_cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_misshaped_array_leaves_file_untouched(self, small_cfg, small_params, tmp_path):
        path = tmp_path / "enc.params"
        enc.save_params(path, small_params, small_cfg)
        before = path.read_bytes()
        bad = dict(small_params)
        bad["layers.1.b2"] = np.zeros(small_cfg.d + 1)  # the last array written
        with pytest.raises(enc.DimensionMismatch, match="layers.1.b2"):
            enc.save_params(path, bad, small_cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["enc.params"]

    def test_fingerprint_tracks_values(self, small_cfg, small_params):
        fp1 = enc.params_fingerprint(small_params)
        mutated = {k: v.copy() for k, v in small_params.items()}
        mutated["tok_emb"][0, 0] += 1e-9
        assert enc.params_fingerprint(mutated) != fp1
        assert enc.params_fingerprint(small_params) == fp1


def test_config_validation():
    vocab = {"<unk>": 0, "a": 1}
    with pytest.raises(ValueError):
        enc.EncoderConfig(vocab=vocab, d=10, heads=4)
    with pytest.raises(ValueError):
        enc.EncoderConfig(vocab=vocab, layers=1)
