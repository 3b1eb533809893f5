import json

import numpy as np
import pytest

from stare.bucketing import (DuplicateId, EmptyFeatureSet, LshIndex,
                             SignatureLengthMismatch, exact_jaccard, extract_features,
                             lsh_params, minhash, signature_agreement, _feature_hash,
                             _hash_family)
from stare.trees import UnbalancedBrackets


class TestExtractFeatures:
    def test_bracketed(self):
        feats = extract_features("[IN:GET_WEATHER [SL:DATE_TIME for tomorrow ] ]",
                                 "bracketed")
        assert feats == {"IN:GET_WEATHER", "SL:DATE_TIME", "for", "tomorrow"}

    def test_sql(self):
        feats = extract_features("SELECT count(*) FROM t", "sql_skeleton")
        assert feats == {"SELECT", "FROM", "count", "t", "*"}

    def test_sql_drops_literals_and_operators(self):
        feats = extract_features("SELECT a FROM t WHERE x = 3", "sql_skeleton")
        assert feats == {"SELECT", "FROM", "WHERE", "a", "t", "x"}

    def test_sexpr_heads_and_terminals(self):
        feats = extract_features('(Yield (Find :obj "Westin Hotel"))', "sexpr")
        assert feats == {"Yield", "Find", ":obj", "westin", "hotel"}

    def test_digit_runs_normalized(self):
        feats = extract_features("[IN:T set timer for 25 minutes ]", "bracketed")
        assert "<d>" in feats and "25" not in feats

    def test_deterministic(self):
        src = "[IN:X [SL:A me ] tell Angie ]"
        assert extract_features(src, "bracketed") == extract_features(src, "bracketed")

    def test_propagates_parser_errors(self):
        with pytest.raises(UnbalancedBrackets):
            extract_features("[IN:X oops", "bracketed")


class TestExactJaccard:
    def test_half(self):
        assert exact_jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_identity(self):
        assert exact_jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert exact_jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert exact_jaccard(set(), set()) == 1.0


class TestMinhash:
    def test_deterministic(self):
        feats = frozenset({"alpha", "beta", "gamma"})
        assert np.array_equal(minhash(feats, 64, 9), minhash(feats, 64, 9))

    def test_seed_changes_signature(self):
        feats = frozenset({"alpha", "beta"})
        assert not np.array_equal(minhash(feats, 64, 1), minhash(feats, 64, 2))

    def test_singleton_equals_hash_family(self):
        feats = frozenset({"only"})
        sig = minhash(feats, 32, 5)
        a, b = _hash_family(32, 5)
        expected = a * np.uint64(_feature_hash("only")) + b
        assert np.array_equal(sig, expected)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFeatureSet):
            minhash(frozenset(), 16, 0)

    def test_agreement_estimates_jaccard(self):
        rng = np.random.default_rng(42)
        universe = [f"tok{i}" for i in range(400)]
        hits = 0
        trials = 300
        for _ in range(trials):
            base = sorted(rng.choice(universe, size=int(rng.integers(10, 60)),
                                     replace=False))
            other = {tok for tok in base if rng.random() > 0.35}
            other.update(rng.choice(universe, size=int(rng.integers(0, 25)),
                                    replace=False))
            if not other:
                other = {"tok0"}
            fa, fb = frozenset(base), frozenset(other)
            est = signature_agreement(minhash(fa, 128, 7), minhash(fb, 128, 7))
            if abs(est - exact_jaccard(fa, fb)) <= 0.1:
                hits += 1
        assert hits / trials >= 0.95


class TestLshParams:
    def test_matches_exhaustive_scan(self):
        # Independent re-derivation over every divisor of P.
        for tau in (0.2, 0.5, 0.8):
            for num in (64, 128, 96):
                best = min(((abs((1 / b) ** (1 / (num // b)) - tau), -(num // b), b)
                            for b in range(1, num + 1) if num % b == 0))
                assert lsh_params(tau, num) == (best[2], num // best[2])

    def test_default_operating_point(self):
        assert lsh_params(0.5, 128) == (32, 4)

    def test_threshold_monotone_in_tau(self):
        _, r_hi = lsh_params(0.9, 128)
        _, r_lo = lsh_params(0.1, 128)
        assert r_hi >= r_lo

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            lsh_params(0.0, 128)
        with pytest.raises(ValueError):
            lsh_params(0.5, 1)


class TestLshIndex:
    def _sig(self, tokens, index):
        return minhash(frozenset(tokens), index.num_hashes, index.seed)

    def test_self_collision(self):
        index = LshIndex(num_hashes=32, tau=0.5, seed=3)
        sig = self._sig({"a", "b", "c"}, index)
        index.insert("x", sig)
        assert "x" in index.query(sig)

    def test_identical_signatures_share_all_bands(self):
        index = LshIndex(num_hashes=32, tau=0.5, seed=3)
        sig = self._sig({"a", "b"}, index)
        index.insert("x", sig)
        index.insert("y", sig.copy())
        for band in index.buckets:
            members = [ids for ids in band.values() if "x" in ids]
            assert members and all("y" in ids for ids in members)

    def test_size_and_duplicate(self):
        index = LshIndex(num_hashes=16, tau=0.5, seed=0)
        for i in range(5):
            index.insert(f"r{i}", self._sig({f"tok{i}", "shared"}, index))
        assert len(index) == 5
        with pytest.raises(DuplicateId):
            index.insert("r0", self._sig({"tok0", "shared"}, index))

    def test_signature_length_mismatch(self):
        index = LshIndex(num_hashes=16, tau=0.5, seed=0)
        with pytest.raises(SignatureLengthMismatch):
            index.insert("x", np.zeros(8, dtype=np.uint64))
        with pytest.raises(SignatureLengthMismatch):
            index.query(np.zeros(8, dtype=np.uint64))

    def test_exclude(self):
        index = LshIndex(num_hashes=16, tau=0.5, seed=0)
        sig = self._sig({"a"}, index)
        index.insert("x", sig)
        assert index.query(sig, exclude="x") == set()

    def test_disjoint_sets_do_not_collide(self):
        index = LshIndex(num_hashes=128, tau=0.5, seed=11)
        index.insert("x", self._sig({f"left{i}" for i in range(20)}, index))
        pool = index.query(self._sig({f"right{i}" for i in range(20)}, index))
        assert pool == set()

    def test_persistence_round_trip(self, tmp_path):
        index = LshIndex(num_hashes=64, tau=0.4, seed=5)
        sigs = {}
        for i in range(10):
            sig = self._sig({f"tok{i}", f"tok{i+1}", "common"}, index)
            sigs[f"r{i}"] = sig
            index.insert(f"r{i}", sig)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = LshIndex.load(path)
        assert loaded.bands == index.bands and loaded.rows == index.rows
        for rid, sig in sigs.items():
            assert np.array_equal(loaded.signatures[rid], sig)  # bit-exact
            assert loaded.query(sig) == index.query(sig)

    @pytest.mark.parametrize("key", ["P", "b", "r", "tau", "seed", "records"])
    def test_load_names_missing_key(self, tmp_path, key):
        path = tmp_path / "lsh_index.json"
        LshIndex(num_hashes=32, tau=0.5, seed=2).save(path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"lsh_index.json.*'{key}'"):
            LshIndex.load(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "lsh_index.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="lsh_index.json"):
            LshIndex.load(path)

    def test_save_is_deterministic(self, tmp_path):
        def build():
            index = LshIndex(num_hashes=32, tau=0.5, seed=2)
            for i in range(6):
                index.insert(f"r{i}", self._sig({f"t{i}", "c"}, index))
            return index

        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build().save(p1)
        build().save(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_recall_and_pool_size_on_synthetic_sets():
    # Families of overlapping feature sets; exact Jaccard is the oracle.
    rng = np.random.default_rng(99)
    sets = []
    for family in range(50):
        base = [f"f{family}_{i}" for i in range(20)]
        for _ in range(10):
            variant = {x for x in base if rng.random() > 0.15}
            variant |= {f"f{family}_x{rng.integers(1000)}" for _ in range(2)}
            sets.append(frozenset(variant))
    index = LshIndex(num_hashes=128, tau=0.5, seed=13)
    sigs = [minhash(s, 128, 13) for s in sets]
    for i, sig in enumerate(sigs):
        index.insert(f"s{i}", sig)
    eligible = collide = 0
    for i in range(len(sets)):
        pool = index.query(sigs[i], exclude=f"s{i}")
        for j in range(i + 1, len(sets)):
            if exact_jaccard(sets[i], sets[j]) >= 0.6:
                eligible += 1
                collide += f"s{j}" in pool
    assert eligible > 100
    assert collide / eligible >= 0.9
