import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stare import bucketing, fixtures
from stare.corpus import Corpus, Record
from stare.mining import (ContrastiveGroup, IndexCorpusMismatch, MiningConfig, Pool, load_groups,
                          mine_all, mine_group, save_groups)
from stare.ted import sim_struct
from stare.trees import parse

from oracles import label_pattern, reference_mine_group, ted_bruteforce

# The package re-exports a function named ``ted``; this is the module.
ted_module = importlib.import_module("stare.ted")
trees_module = importlib.import_module("stare.trees")


def _corpus(parses, dialect="bracketed", anonymize=False):
    return Corpus([Record(f"r{i}", f"utterance {i}", p) for i, p in enumerate(parses)],
                  dialect, anonymize)


# Six tiny parses (every tree is within the brute-force oracle's reach).
SIX = [
    "[F [X p ] ]",            # r0 (anchor)
    "[F [X p ] ]",            # r1: identical to r0
    "[F [X q ] ]",            # r2: one relabel away
    "[F p q ]",               # r3: different shape, shared labels
    "[G [Y a ] ]",            # r4: same shape, disjoint labels
    "[H b ]",                 # r5: small and disjoint
]


def _oracle_sim(corpus, a, b):
    ta, tb = corpus.tree(a), corpus.tree(b)
    raw = 1.0 - ted_bruteforce(ta, tb) / max(ta.size, tb.size)
    return max(0.0, min(1.0, raw))


class TestMineGroup:
    def test_matches_bruteforce_ranking(self):
        corpus = _corpus(SIX)
        pool = {"r1", "r2", "r3", "r4"}
        group = mine_group("r0", Pool(corpus, pool | {"r0"}), corpus,
                           MiningConfig(n_hard=2, n_rand=1, seed=4))
        sims = {rid: _oracle_sim(corpus, "r0", rid) for rid in pool}
        expected_positive = min((rid for rid in pool
                                 if sims[rid] == max(sims.values())),
                                key=corpus.index_of.get)
        assert group.positive_id == expected_positive == "r1"
        assert group.positive_sim == sims["r1"] == 1.0
        ranked_low = sorted((rid for rid in pool if rid != group.positive_id),
                            key=lambda r: (sims[r], corpus.index_of[r]))
        assert group.hard_negative_ids == ranked_low[:2] == ["r4", "r3"]
        assert group.random_negative_ids == ["r5"]
        assert not group.flags

    def test_pool_of_one_flagged_short(self):
        corpus = _corpus(SIX[:3])
        group = mine_group("r0", Pool(corpus, {"r0", "r2"}), corpus,
                           MiningConfig(n_hard=3, n_rand=0, seed=0))
        assert group.positive_id == "r2"
        assert group.hard_negative_ids == []
        assert "short_hard_negatives" in group.flags

    def test_identical_parse_wins(self):
        corpus = _corpus(SIX)
        group = mine_group("r0", Pool(corpus, {"r0", "r1", "r2", "r3"}), corpus,
                           MiningConfig(seed=0))
        assert group.positive_id == "r1"
        assert group.positive_sim == 1.0

    def test_empty_pool_skipped(self):
        corpus = _corpus(SIX)
        assert mine_group("r0", Pool(corpus, {"r0"}), corpus, MiningConfig()) is None

    def test_corpus_too_small_flags_random(self):
        corpus = _corpus(SIX[:4])
        group = mine_group("r0", Pool(corpus, {"r0", "r1", "r2", "r3"}), corpus,
                           MiningConfig(n_hard=1, n_rand=2, seed=0))
        assert group.random_negative_ids == []
        assert "short_random_negatives" in group.flags

    def test_unknown_ids(self):
        corpus = _corpus(SIX[:2])
        with pytest.raises(ValueError, match="^missing$"):
            mine_group("missing", Pool(corpus, {"r1"}), corpus, MiningConfig())
        with pytest.raises(ValueError, match="^ghost$"):
            mine_group("r0", Pool(corpus, {"r0", "ghost"}), corpus, MiningConfig())

    def test_anchor_outside_its_pool_is_unknown(self):
        corpus = _corpus(SIX)
        with pytest.raises(ValueError, match="^r0$"):
            mine_group("r0", Pool(corpus, {"r1", "r2"}), corpus, MiningConfig())

    def test_deterministic_random_negatives(self):
        corpus = _corpus(SIX)
        cfg = MiningConfig(n_hard=1, n_rand=2, seed=42)
        g1 = mine_group("r0", Pool(corpus, {"r0", "r1", "r2"}), corpus, cfg)
        g2 = mine_group("r0", Pool(corpus, {"r0", "r1", "r2"}), corpus, cfg)
        assert g1.random_negative_ids == g2.random_negative_ids
        assert set(g1.random_negative_ids) <= {"r3", "r4", "r5"}

    def test_anchor_never_in_own_group(self):
        corpus = _corpus(SIX)
        group = mine_group("r0", Pool(corpus, {"r0", "r1", "r2", "r3", "r4"}), corpus,
                           MiningConfig(n_hard=2, n_rand=2, seed=1))
        ids = [group.positive_id] + group.negative_ids()
        assert "r0" not in ids
        assert group.positive_id not in group.negative_ids()


def _index_for(corpus, num_hashes=64, tau=0.5, seed=3):
    index = bucketing.LshIndex(num_hashes=num_hashes, tau=tau, seed=seed)
    for rec in corpus:
        feats = bucketing.extract_features(rec.parse, corpus.dialect)
        index.insert(rec.id, bucketing.minhash(feats, num_hashes, seed))
    return index


class TestMineAll:
    def test_disjoint_corpus_all_skipped(self):
        corpus = _corpus(["[A1 x1 ]", "[B2 y2 ]", "[C3 z3 ]"])
        groups, report = mine_all(corpus, _index_for(corpus), MiningConfig())
        assert groups == []
        assert report.skipped_empty_pool == 3
        assert report.anchors == 3

    def test_identical_corpus_all_perfect(self):
        corpus = _corpus(["[A [B x ] ]"] * 4)
        groups, report = mine_all(corpus, _index_for(corpus), MiningConfig(n_rand=0))
        assert len(groups) == 4
        assert all(g.positive_sim == 1.0 for g in groups)
        assert report.mean_positive_sim == 1.0

    def test_index_corpus_mismatch(self):
        corpus = _corpus(SIX)
        other = _corpus(SIX[:3])
        with pytest.raises(IndexCorpusMismatch):
            mine_all(corpus, _index_for(other), MiningConfig())

    def test_planted_clusters_positive_in_cluster(self, bank, lsh_index, mined):
        def cluster_of(rid):  # fixture ids are c<k>_<i>
            return rid.split("_")[-2]

        groups, report = mined
        assert report.anchors == len(bank)
        assert report.skipped_empty_pool == 0
        for group in groups:
            assert cluster_of(group.positive_id) == cluster_of(group.anchor_id)
            for rid in group.random_negative_ids:
                pool = lsh_index.query(lsh_index.signatures[group.anchor_id]) - {group.anchor_id}
                assert rid not in pool

    def test_positive_sim_dominates_hard_negatives(self, bank, mined):
        from stare.ted import sim_struct

        groups, _ = mined
        for group in groups[::7]:
            anchor_tree = bank.tree(group.anchor_id)
            for rid in group.hard_negative_ids:
                assert group.positive_sim >= sim_struct(anchor_tree, bank.tree(rid))

    def test_determinism(self, bank, lsh_index):
        cfg = MiningConfig(n_hard=3, n_rand=2, seed=13)
        first, _ = mine_all(bank, lsh_index, cfg)
        second, _ = mine_all(bank, lsh_index, cfg)
        assert first == second


class TestPersistence:
    def test_round_trip(self, tmp_path):
        groups = [ContrastiveGroup("a", "p", ["h1", "h2"], ["n1"], 0.75, []),
                  ContrastiveGroup("b", "q", [], [], 1.0, ["short_hard_negatives"])]
        path = tmp_path / "pairs.jsonl"
        save_groups(groups, path)
        assert load_groups(path) == groups

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"anchor": "a"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="1"):
            load_groups(path)

    @pytest.mark.parametrize("field,value", [
        ("anchor", 7), ("positive", ["r1"]), ("hard_negatives", "c0_011"),
        ("random_negatives", ["r1", 2]), ("hard_negatives", None),
        ("positive_sim", "0.5"), ("positive_sim", True), ("flags", "ab"), ("flags", {"x": 1})])
    def test_rejects_non_string_ids(self, tmp_path, field, value):
        record = {"anchor": "r0", "positive": "r1", "hard_negatives": ["r2"],
                  "random_negatives": [], "positive_sim": 1.0, "flags": []}
        record[field] = value
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"pairs\.jsonl:2: .*{field}"):
            load_groups(path)


# ---------------------------------------------------------------------------
# equivalence with the brute-force reference, and one TED per distinct pair
# ---------------------------------------------------------------------------

# Few shapes and leaves, so random corpora repeat trees, and anonymizing
# merges trees that differ only in their leaves.
_PALETTE = ["[F [X p ] ]", "[F [X q ] ]", "[F p q ]", "[G [Y a ] ]", "[H b ]", "[F [X p ] r ]"]


@st.composite
def _mining_case(draw):
    n = draw(st.integers(1, 9))
    corpus_parses = [draw(st.sampled_from(_PALETTE)) for _ in range(n)]
    ids = [f"r{i}" for i in range(n)]
    anchor = draw(st.sampled_from(ids))
    mode = draw(st.sampled_from(["subset", "subset_with_anchor", "all_others", "empty"]))
    others = [rid for rid in ids if rid != anchor]
    if mode == "all_others":
        pool = set(others)
    elif mode == "empty":
        pool = set()
    else:
        pool = set(draw(st.lists(st.sampled_from(others), unique=True))) if others else set()
        if mode == "subset_with_anchor":
            pool.add(anchor)
    cfg = MiningConfig(n_hard=draw(st.integers(0, 4)), n_rand=draw(st.integers(0, 12)),
                       seed=draw(st.integers(0, 2**31)), anonymize=draw(st.booleans()))
    return corpus_parses, anchor, pool, cfg


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mining_case())
def test_mine_group_equals_reference(case):
    parses, anchor, pool, cfg = case
    corpus, fresh = (_corpus(parses, anonymize=cfg.anonymize),
                     _corpus(parses, anonymize=cfg.anonymize))
    # Warm the table with every other anchor first, so hits are exercised.
    for rec in corpus:
        if rec.id != anchor:
            mine_group(rec.id, Pool(corpus, set(corpus.ids())), corpus, cfg)
    # A pool holds its anchor, which is never its own candidate.
    others = pool - {anchor}
    group = mine_group(anchor, Pool(corpus, others | {anchor}), corpus, cfg)
    assert group == reference_mine_group(anchor, others, fresh, cfg)


@pytest.mark.parametrize("anonymize", [False, True])
@pytest.mark.parametrize("pool,n_rand,flag", [
    ({"r0", "r1", "r2"}, 2, None),                          # pool contains the anchor
    ({"r1", "r2", "r3", "r4", "r5"}, 1, "short_random_negatives"),  # nothing outside
    ({"r1"}, 9, "short_random_negatives"),                  # n_rand > outside set
])
def test_edge_pools_equal_reference(pool, n_rand, flag, anonymize):
    cfg = MiningConfig(n_hard=2, n_rand=n_rand, seed=5, anonymize=anonymize)
    corpus = _corpus(SIX, anonymize=anonymize)
    group = mine_group("r0", Pool(corpus, pool | {"r0"}), corpus, cfg)
    # A pool holds its anchor, which is never its own candidate.
    others = pool - {"r0"}
    assert group == reference_mine_group("r0", others, _corpus(SIX, anonymize=anonymize), cfg)
    assert (flag in group.flags) if flag else "short_random_negatives" not in group.flags


def test_mine_all_one_ted_per_distinct_label_pattern(fixture_data, lsh_index, mined,
                                                      monkeypatch):
    bank = Corpus(fixture_data.train, "bracketed")  # a fresh, empty table
    compared = {frozenset((bank.tree(rec.id), bank.tree(pid)))
                for rec in bank
                for pid in lsh_index.query(lsh_index.signatures[rec.id]) - {rec.id}}
    real, calls = ted_module.ted, []
    monkeypatch.setattr(ted_module, "ted",
                        lambda a, b, *rest: calls.append((a, b)) or real(a, b, *rest))
    groups, report = mine_all(bank, lsh_index, MiningConfig())
    patterns = {label_pattern(pair, bank.intern) for pair in compared}
    assert len(patterns) < len(compared)  # the fixture repeats label patterns
    assert len(calls) == len(patterns)
    assert {label_pattern(pair, bank.intern) for pair in calls} == patterns
    assert (groups, report) == mined


def test_pattern_memo_equals_direct_sim_struct_at_scale(monkeypatch):
    """On the fixture bank at N = 2,000, every similarity the table serves,
    nearly all of them from another pair's TED, equals ``sim_struct`` of the
    pair, bit for bit."""
    bank = Corpus(fixtures.generate(fixtures.FixtureSpec(per_cluster=400, seed=0)).train,
                  "bracketed")
    index = _index_for(bank)
    real_sim, served = Corpus.sim, {}
    monkeypatch.setattr(Corpus, "sim", lambda self, a, b: served.setdefault(
        (a, b), real_sim(self, a, b)))
    real_ted, calls = ted_module.ted, []
    monkeypatch.setattr(ted_module, "ted",
                        lambda a, b, *rest: calls.append(1) or real_ted(a, b, *rest))
    mine_all(bank, index, MiningConfig())
    assert len(calls) * 10 < len(served)
    tree = {tid: bank.tree(rec.id) for tid, rec in zip(bank.tree_ids().tolist(), bank)}
    assert not [(tree[a], tree[b]) for (a, b), value in served.items()
                if value.hex() != sim_struct(tree[a], tree[b]).hex()]


def test_pattern_memo_is_per_corpus(monkeypatch):
    """Nothing is shared across ``Corpus`` objects: a fresh one runs its TEDs again."""
    parses = ["[F [X p ] ]", "[F [X q ] ]", "[G [Y a ] ]", "[F p q ]", "[H [Z b ] ]"]
    real, calls = ted_module.ted, []
    monkeypatch.setattr(ted_module, "ted",
                        lambda a, b, *rest: calls.append((a, b)) or real(a, b, *rest))
    counts = []
    for _ in range(2):
        corpus = _corpus(parses)
        mine_all(corpus, _index_for(corpus, num_hashes=16, tau=0.1, seed=1), MiningConfig())
        counts.append(len(calls))
    assert 0 < counts[0] < len(parses) * (len(parses) - 1) // 2
    assert counts[1] == 2 * counts[0]


# ---------------------------------------------------------------------------
# mine_all mines each LSH union once: one Pool per signature, shared by its anchors
# ---------------------------------------------------------------------------

# Equal feature sets give equal signatures: "[F p q ]" and "[F q p ]" are two
# trees under one signature, and the repeats share both signature and tree.
_SHARED = ["[F p q ]", "[F q p ]", "[F p q ]", "[F [X p ] ]", "[F [X p ] ]", "[F [X q ] ]",
           "[G [Y a ] ]", "[F [X p ] q ]", "[H b ]", "[F [X q ] ]"]


def _per_record_reference(corpus, index, cfg):
    """``mine_all`` as one ``query`` and one ``reference_mine_group`` per anchor."""
    pools = {rec.id: index.query(index.signatures[rec.id]) - {rec.id} for rec in corpus}
    fresh = _corpus([rec.parse for rec in corpus], anonymize=corpus.anonymize)
    groups = [g for g in (reference_mine_group(rid, pool, fresh, cfg)
                          for rid, pool in pools.items()) if g is not None]
    return groups, pools


@pytest.mark.parametrize("anonymize", [False, True])
@pytest.mark.parametrize("n_hard,n_rand,seed", [(3, 2, 0), (1, 9, 7), (0, 0, 3)])
def test_mine_all_equals_per_anchor_reference(anonymize, n_hard, n_rand, seed, monkeypatch):
    corpus = _corpus(_SHARED, anonymize=anonymize)
    index = _index_for(corpus, num_hashes=16, tau=0.5, seed=1)
    cfg = MiningConfig(n_hard=n_hard, n_rand=n_rand, seed=seed, anonymize=anonymize)
    sig_of = {rec.id: index.signatures[rec.id].tobytes() for rec in corpus}
    assert sig_of["r0"] == sig_of["r1"] == sig_of["r2"]       # repeated signature,
    assert _corpus(_SHARED).tree("r0") != _corpus(_SHARED).tree("r1")  # two parses under it
    expected, pools = _per_record_reference(corpus, index, cfg)
    tree = {rec.id: corpus.tree(rec.id) for rec in corpus}
    # Anchor trees that no per-record pool holds a second time.
    lone = ({tree[rid] for rid, pool in pools.items() if pool}
            - {tree[pid] for rid, pool in pools.items() for pid in pool if tree[pid] == tree[rid]})
    assert lone
    real, calls = ted_module.ted, []
    monkeypatch.setattr(ted_module, "ted",
                        lambda a, b, *rest: calls.append((a, b)) or real(a, b, *rest))
    real_sim, asked = Corpus.sim, set()
    monkeypatch.setattr(Corpus, "sim",
                        lambda self, a, b: asked.add((a, b)) or real_sim(self, a, b))

    groups, report = mine_all(corpus, index, cfg)

    assert groups == expected
    assert report.mean_pool_size == sum(map(len, pools.values())) / len(corpus)
    assert report.skipped_empty_pool == len(corpus) - len(expected)
    # The table is not asked such an anchor's tree against itself. (Asked,
    # not computed: another self-pair with its label pattern could serve it.)
    assert not [t for t in lone if (corpus.intern(t),) * 2 in asked]
    compared = {frozenset((tree[rid], tree[pid])) for rid, pool in pools.items() for pid in pool}
    patterns = {label_pattern(pair, corpus.intern) for pair in compared}
    assert len(calls) == len(patterns)
    assert {label_pattern(pair, corpus.intern) for pair in calls} == patterns


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_SHARED), min_size=1, max_size=12),
       st.integers(0, 4), st.integers(0, 5), st.booleans())
def test_mine_all_equals_reference_on_random_corpora(parses, n_hard, n_rand, anonymize):
    corpus = _corpus(parses, anonymize=anonymize)
    index = _index_for(corpus, num_hashes=16, tau=0.5, seed=1)
    cfg = MiningConfig(n_hard=n_hard, n_rand=n_rand, seed=11, anonymize=anonymize)
    assert mine_all(corpus, index, cfg)[0] == _per_record_reference(corpus, index, cfg)[0]


def test_mine_all_refuses_a_config_that_compares_otherwise():
    """The corpus fixes whether leaf text counts; a config that says
    otherwise is refused, naming both values."""
    corpus = _corpus(SIX)
    with pytest.raises(ValueError, match=r"anonymize=True differs .* anonymize=False$"):
        mine_all(corpus, _index_for(corpus), MiningConfig(anonymize=True))


def test_build_lsh_sketches_each_distinct_parse_once(pipeline_runs, monkeypatch):
    from stare import cli
    from stare.config import load_config

    fix_dir, run, _ = pipeline_runs
    config = load_config(fix_dir / "config.json")
    corpus = cli._load_corpus(config, "train")
    real, calls = bucketing.minhash, []
    monkeypatch.setattr(bucketing, "minhash", lambda *args: calls.append(args) or real(*args))

    index = cli._build_lsh(config, corpus)

    assert len(calls) == len({rec.parse for rec in corpus}) < len(corpus)
    saved = bucketing.LshIndex.load(run / "lsh_index.json", config.bucketing)
    assert list(index.signatures) == list(saved.signatures)
    assert all(np.array_equal(sig, saved.signatures[rid]) for rid, sig in index.signatures.items())


def test_corpus_parses_once_per_distinct_parse_and_anonymize(monkeypatch):
    real, calls = trees_module.parse, []
    monkeypatch.setattr(trees_module, "parse", lambda *args: calls.append(args) or real(*args))
    for anonymize in (False, True):  # one corpus per setting, each read twice
        corpus = _corpus(_SHARED, anonymize=anonymize)
        for _ in range(2):
            got = [corpus.tree(rec.id) for rec in corpus]
            assert got == [real(p, "bracketed") if not anonymize
                           else trees_module.anonymize_leaves(real(p, "bracketed"))
                           for p in _SHARED]
        assert corpus.tree("r0") is corpus.tree("r2")
    assert len(calls) == 2 * len(set(_SHARED))
