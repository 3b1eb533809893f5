import base64
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stare import bucketing, fixtures
from stare.bucketing import (LshIndex, extract_features, lsh_params, minhash, _feature_hash,
                             _hash_family)
from stare.config import load_config
from stare.trees import ParseError

from oracles import (exact_jaccard, reference_lsh_params, reference_lsh_query,
                     signature_agreement)


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
        with pytest.raises(ParseError, match=r"^unclosed '\['"):
            extract_features("[IN:X oops", "bracketed")
        for parse, message, position in [('(Find "x', "unterminated string literal", 6),
                                         ("()", "'()' has no head atom", 0),
                                         ("(a b", "unclosed '('", 0)]:
            with pytest.raises(ParseError) as err:
                extract_features(parse, "sexpr")
            assert str(err.value) == f"{message} (at offset {position})"
            assert err.value.position == position


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
        with pytest.raises(ValueError, match="^cannot sketch an empty feature set$"):
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

    def test_equals_every_b_reference(self):
        """The divisors from a sqrt(P) scan, visited in ascending order, give
        the (b, r) of trying every b <= P, ties included."""
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            for num in range(2, 5001):
                assert lsh_params(tau, num) == reference_lsh_params(tau, num), (tau, num)
        for num in (999_983, 3_603_600, 10_000_000):  # a prime, 360 divisors, 64 divisors
            assert lsh_params(0.5, num) == reference_lsh_params(0.5, num), num
        for tau, num, want in ((0.75, 2, (1, 2)), (0.6, 5, (1, 5)), (0.11, 50, (25, 2))):
            assert lsh_params(tau, num) == reference_lsh_params(tau, num) == want  # a tie

    def test_default_operating_point(self):
        assert lsh_params(0.5, 128) == (32, 4)

    def test_threshold_monotone_in_tau(self):
        _, r_hi = lsh_params(0.9, 128)
        _, r_lo = lsh_params(0.1, 128)
        assert r_hi >= r_lo

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match=r"^tau must be in \(0, 1\)$"):
            lsh_params(0.0, 128)
        with pytest.raises(ValueError, match="^num_hashes must be >= 2$"):
            lsh_params(0.5, 1)


# The bucketing settings of the small index the loader tests save.
SETTINGS = {"num_hashes": 32, "tau": 0.5, "seed": 2}


def _settings(index: LshIndex) -> dict:
    return {"num_hashes": index.num_hashes, "tau": index.tau, "seed": index.seed}


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
        index.insert("z", self._sig({"c", "d"}, index))
        assert [ids for ids, _ in index.pools()] == [["x", "y"], ["z"]]
        assert index.query(sig) == next(index.pools())[1] == {"x", "y"}
        for band in range(index.bands):  # equal in every band, each band on its own
            rows = slice(band * index.rows, (band + 1) * index.rows)
            probe = np.zeros(index.num_hashes, dtype=np.uint64)
            probe[rows] = sig[rows]
            assert {"x", "y"} <= index.query(probe)

    def test_size_and_duplicate(self):
        index = LshIndex(num_hashes=16, tau=0.5, seed=0)
        for i in range(5):
            index.insert(f"r{i}", self._sig({f"tok{i}", "shared"}, index))
        assert len(index) == 5
        with pytest.raises(ValueError, match="duplicate id 'r0'"):
            index.insert("r0", self._sig({"tok0", "shared"}, index))

    def test_signature_length_mismatch(self):
        index = LshIndex(num_hashes=16, tau=0.5, seed=0)
        message = r"^signature length \(8,\) does not match index P=16$"
        with pytest.raises(ValueError, match=message):
            index.insert("x", np.zeros(8, dtype=np.uint64))
        with pytest.raises(ValueError, match=message):
            index.query(np.zeros(8, dtype=np.uint64))

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
        loaded = LshIndex.load(path, _settings(index))
        assert loaded.bands == index.bands and loaded.rows == index.rows
        for rid, sig in sigs.items():
            assert np.array_equal(loaded.signatures[rid], sig)  # bit-exact
            assert loaded.query(sig) == index.query(sig)

    @pytest.mark.parametrize("key", ["P", "tau", "seed", "records"])
    def test_load_names_missing_key(self, tmp_path, key):
        path = tmp_path / "lsh_index.json"
        LshIndex(num_hashes=32, tau=0.5, seed=2).save(path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"lsh_index.json.*'{key}'"):
            LshIndex.load(path, SETTINGS)

    @pytest.mark.parametrize("key,value", [("P", "32"), ("seed", None), ("tau", "0.5")])
    def test_load_rejects_bad_header_value(self, tmp_path, key, value):
        path = tmp_path / "lsh_index.json"
        LshIndex(num_hashes=32, tau=0.5, seed=2).save(path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="lsh_index.json"):
            LshIndex.load(path, SETTINGS)

    @pytest.mark.parametrize("key,setting,value", [("P", "num_hashes", 10**12),
                                                   ("tau", "tau", 0.25), ("seed", "seed", 3)])
    def test_load_refuses_other_settings_before_building(self, tmp_path, monkeypatch, key,
                                                         setting, value):
        """A header that differs from the settings is refused before
        ``lsh_params`` runs, so a huge ``P`` costs nothing."""
        path = tmp_path / "lsh_index.json"
        LshIndex(num_hashes=32, tau=0.5, seed=2).save(path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        monkeypatch.setattr(bucketing, "lsh_params", pytest.fail)
        message = (f"{path}: built with bucketing.{setting} = {value!r}, but the config has "
                   f"{SETTINGS[setting]!r}; rerun 'bucket'")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LshIndex.load(path, SETTINGS)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "lsh_index.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="lsh_index.json"):
            LshIndex.load(path, SETTINGS)

    def test_load_rejects_records_not_a_list(self, tmp_path):
        path = tmp_path / "lsh_index.json"
        LshIndex(num_hashes=32, tau=0.5, seed=2).save(path)
        payload = json.loads(path.read_text())
        payload["records"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="lsh_index.json.*records"):
            LshIndex.load(path, SETTINGS)

    @pytest.mark.parametrize("mangle", [lambda b: b[:-1], lambda b: b + b" {}",
                                        lambda b: b[:40], lambda b: b"\xff" + b])
    def test_load_rejects_malformed_text(self, tmp_path, mangle):
        path = tmp_path / "lsh_index.json"
        index = LshIndex(num_hashes=32, tau=0.5, seed=2)
        index.insert("r0", self._sig({"a", "b"}, index))
        index.save(path)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(ValueError, match="lsh_index.json"):
            LshIndex.load(path, SETTINGS)

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
        pool = index.query(sigs[i]) - {f"s{i}"}
        for j in range(i + 1, len(sets)):
            if exact_jaccard(sets[i], sets[j]) >= 0.6:
                eligible += 1
                collide += f"s{j}" in pool
    assert eligible > 100
    assert collide / eligible >= 0.9


# ---------------------------------------------------------------------------
# persistence format and band keys against the one-shot and blake2b references
# ---------------------------------------------------------------------------

def _payload(index):
    """Format 4: one ``[[id, ...], base64]`` record per distinct signature, in
    first-insertion order, each id under its first signature."""
    records: dict[bytes, list] = {}
    for rid, sig in index.signatures.items():
        raw = struct.pack(f"<{len(sig)}Q", *map(int, sig))
        records.setdefault(raw, [[], base64.b64encode(raw).decode("ascii")])[0].append(rid)
    return {"format_version": 4, "P": index.num_hashes, "tau": index.tau, "seed": index.seed,
            "records": list(records.values())}


def _assert_same_index(loaded, index):
    assert (loaded.num_hashes, loaded.tau, loaded.seed, loaded.bands, loaded.rows) == (
        index.num_hashes, index.tau, index.seed, index.bands, index.rows)
    assert sorted(loaded.signatures) == sorted(index.signatures)
    for rid, sig in index.signatures.items():
        assert loaded.signatures[rid].dtype == np.uint64
        assert np.array_equal(loaded.signatures[rid], sig)
    pools = list(index.pools())  # ids, in order, and unions; a loaded index lists ids by pool
    assert list(loaded.pools()) == pools
    assert list(loaded.signatures) == [rid for ids, _ in pools for rid in ids]
    assert loaded.buckets == index.buckets


def _check_save_and_load(index, path):
    index.save(path)
    assert path.read_bytes() == json.dumps(_payload(index), sort_keys=True).encode("utf-8")
    _assert_same_index(LshIndex.load(path, _settings(index)), index)
    payload = _payload(index)
    records_first = {"records": payload.pop("records"), **payload}
    path.write_text(json.dumps(records_first, indent=1), encoding="utf-8")
    _assert_same_index(LshIndex.load(path, _settings(index)), index)


def test_save_and_load_fixture_index(lsh_index, tmp_path):
    assert len(list(lsh_index.pools())) < len(lsh_index)  # the fixture repeats signatures
    _check_save_and_load(lsh_index, tmp_path / "lsh_index.json")


def test_save_and_load_empty_index(tmp_path):
    _check_save_and_load(LshIndex(num_hashes=16, tau=0.5, seed=1), tmp_path / "empty.json")


_AWKWARD_IDS = st.lists(
    st.one_of(st.text(alphabet=st.sampled_from(['"', "\\", "é", "☃", "\n", ",", " ", "]", "a"]),
                      max_size=6),
              st.sampled_from(['", "', "]]", '"]], ["', "\\\"", "\u2028"])),
    unique=True, max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ids=_AWKWARD_IDS, values=st.lists(st.integers(0, 2**64 - 1), min_size=8, max_size=8))
def test_save_and_load_awkward_ids(tmp_path_factory, ids, values):
    index = LshIndex(num_hashes=8, tau=0.5, seed=3)
    for i, rid in enumerate(ids):
        index.insert(rid, np.roll(np.array(values, dtype=np.uint64), i))
    _check_save_and_load(index, tmp_path_factory.mktemp("ids") / "index.json")


@st.composite
def _planted_signatures(draw):
    """Signatures over a tiny value range, with some bands copied between them."""
    n = draw(st.integers(1, 8))
    sigs = [np.array(draw(st.lists(st.integers(0, 3), min_size=12, max_size=12)),
                     dtype=np.uint64) for _ in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        band = draw(st.integers(0, 5))  # P=12, tau=0.5 gives 6 bands of 2 rows
        sigs[dst][2 * band:2 * band + 2] = sigs[src][2 * band:2 * band + 2]
    probe = np.array(draw(st.lists(st.sampled_from([0, 1, 2, 3, 2**63, 2**64 - 1]),
                                   min_size=12, max_size=12)), dtype=np.uint64)
    return sigs, probe


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_planted_signatures())
def test_query_equals_blake2b_reference(case):
    sigs, probe = case
    index = LshIndex(num_hashes=12, tau=0.5, seed=0)
    for i, sig in enumerate(sigs):
        index.insert(f"s{i}", sig)
    for i, sig in enumerate(sigs):
        assert index.query(sig) == reference_lsh_query(index, sig)
    assert index.query(probe) == reference_lsh_query(index, probe)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_planted_signatures(), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                       max_size=6))
def test_pools_partition_ids_by_signature(case, copies):
    """``pools`` yields each distinct signature once, in first-insertion
    order, with the ids that share it and its ``query`` union."""
    sigs, _ = case
    for src, dst in copies:  # whole signatures repeated under other ids
        sigs[dst % len(sigs)] = sigs[src % len(sigs)].copy()
    index = LshIndex(num_hashes=12, tau=0.5, seed=0)
    for i, sig in enumerate(sigs):
        index.insert(f"s{i}", sig)
    expected: dict[bytes, list[str]] = {}
    for i, sig in enumerate(sigs):
        expected.setdefault(sig.tobytes(), []).append(f"s{i}")

    pools = list(index.pools())

    assert [ids for ids, _ in pools] == list(expected.values())
    for ids, union in pools:
        sig = index.signatures[ids[0]]
        assert union == index.query(sig) == reference_lsh_query(index, sig)


def test_bucket_report_pool_sizes_equal_per_record_queries(pipeline_runs):
    """``bucket`` sizes each record's pool from its signature's one union;
    the report holds the sizes that one query per record gives."""
    fix_dir, run, _ = pipeline_runs
    index = LshIndex.load(run / "lsh_index.json", load_config(fix_dir / "config.json").bucketing)
    sizes = [len(index.query(sig) - {rid}) for rid, sig in index.signatures.items()]
    report = json.loads((run / "bucket_report.json").read_text(encoding="utf-8"))
    assert len(list(index.pools())) < len(index)  # the fixture repeats signatures
    assert report["pool_size_histogram"] == {str(n): sizes.count(n) for n in set(sizes)}
    assert report["mean_pool_size"] == float(np.mean(sizes))


def test_save_and_load_memory(tmp_path):
    """On the fixture bank at N = 2,000 (139 distinct signatures), saving holds
    one record at a time and loading holds the file's text, then one array
    per distinct signature."""
    bank = fixtures.generate(fixtures.FixtureSpec(per_cluster=400, seed=0)).train
    index = LshIndex(num_hashes=128, tau=0.5, seed=7)
    for rec in bank:
        index.insert(rec.id, minhash(extract_features(rec.parse, "bracketed"), 128, 7))
    path = tmp_path / "lsh_index.json"
    tracemalloc.start()
    try:
        index.save(path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        loaded = LshIndex.load(path, _settings(index))
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_peak < 1_000_000
    assert load_peak < 1_500_000
    _assert_same_index(loaded, index)


def test_loaded_index_of_distinct_signatures_memory(tmp_path):
    """2,000 random signatures, no two alike and no band shared: the loaded
    index holds at most the 14.65 MB that one entry per record held."""
    rng = np.random.default_rng(0)
    index = LshIndex(num_hashes=128, tau=0.5, seed=0)
    for i in range(2000):
        index.insert(f"r{i}", rng.integers(0, 2**64, size=128, dtype=np.uint64))
    path = tmp_path / "lsh_index.json"
    index.save(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = LshIndex.load(path, _settings(index))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(list(loaded.pools())) == len(loaded) == 2000
    assert held <= 14_650_000
