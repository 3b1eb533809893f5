import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stare import encoder as enc
from stare import retrieval
from stare.corpus import Corpus, Record
from stare.retrieval import (Bm25, PromptSpec, build_index, build_prompt, evaluate, load_index,
                             make_dense_ranker, save_index, topk)

from oracles import bm25_topk, label_pattern


@pytest.fixture(scope="module")
def tiny_bank():
    records = [
        Record("w1", "sunny weather tomorrow", "[IN:W [SL:D tomorrow ] ]"),
        Record("w2", "weather forecast today", "[IN:W [SL:D today ] ]"),
        Record("r1", "remind me about it tomorrow", "[IN:R [SL:T it ] [SL:D tomorrow ] ]"),
        Record("r2", "remind me to call", "[IN:R [SL:T call ] ]"),
    ]
    return Corpus(records, "bracketed")


@pytest.fixture(scope="module")
def tiny_cfg(tiny_bank):
    vocab = enc.build_vocab([rec.utterance for rec in tiny_bank])
    return enc.EncoderConfig(vocab=vocab, d=8, layers=2, heads=2, max_len=16, seed=0)


@pytest.fixture(scope="module")
def tiny_params(tiny_cfg):
    return enc.init_params(tiny_cfg)


class TestBuildIndex:
    def test_empty_corpus(self, tiny_params, tiny_cfg):
        index = build_index(Corpus([], "bracketed"), tiny_params, tiny_cfg)
        assert len(index) == 0

    def test_rows_unit_normalized(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        norms = np.linalg.norm(index.embeddings, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_duplicate_utterances_identical_rows(self, tiny_cfg, tiny_params):
        bank = Corpus([Record("a", "same text", "[A x ]"),
                       Record("b", "same text", "[B y ]")], "bracketed")
        index = build_index(bank, tiny_params, tiny_cfg)
        assert np.array_equal(index.embeddings[0], index.embeddings[1])

    def test_rebuild_bit_identical(self, tiny_bank, tiny_params, tiny_cfg):
        i1 = build_index(tiny_bank, tiny_params, tiny_cfg)
        i2 = build_index(tiny_bank, tiny_params, tiny_cfg)
        assert np.array_equal(i1.embeddings, i2.embeddings)
        assert i1.provenance == i2.provenance


def _assert_rows_equal_embed(index, bank, params, cfg, injection):
    for rec, row in zip(bank, index.embeddings):
        vec = enc.embed(rec.utterance, params, cfg, injection)
        assert np.array_equal(row, vec / np.linalg.norm(vec)), rec.id


def _direction(cfg, layer):
    u = np.random.default_rng(layer).standard_normal(cfg.d)
    return enc.InjectionDirection(u=u / np.linalg.norm(u), layer=layer, lam=2.0, prop="POS")


@pytest.mark.parametrize("layer", [None, 2, 4])
def test_fixture_index_rows_equal_embed(bank, trained_params, enc_cfg, layer):
    injection = None if layer is None else _direction(enc_cfg, layer)
    index = build_index(bank, trained_params, enc_cfg, injection)
    assert index.ids == bank.ids()
    _assert_rows_equal_embed(index, bank, trained_params, enc_cfg, injection)


@pytest.mark.parametrize("layer", [None, 1, 2])
def test_mixed_length_index_rows_equal_embed(tiny_bank, tiny_cfg, tiny_params, layer):
    words = [w for rec in tiny_bank for w in enc.word_tokens(rec.utterance)]
    # every length 1..max_len+3 (the last three truncate to max_len), then
    # more same-length records than one chunk of CHUNK_TOKENS tokens holds
    lengths = [*range(1, tiny_cfg.max_len + 4), *[3] * (enc.CHUNK_TOKENS // 3 + 5),
               *[tiny_cfg.max_len] * 6]
    bank = Corpus([Record(f"m{i}", " ".join(words[(i + j) % len(words)] for j in range(n)),
                          "[A x ]") for i, n in enumerate(lengths)], "bracketed")
    injection = None if layer is None else _direction(tiny_cfg, layer)
    index = build_index(bank, tiny_params, tiny_cfg, injection)
    _assert_rows_equal_embed(index, bank, tiny_params, tiny_cfg, injection)


def test_build_index_names_empty_record(tiny_cfg, tiny_params):
    bank = Corpus([Record("ok", "call mia", "[A x ]"), Record("blank", "   ", "[A x ]")],
                  "bracketed")
    with pytest.raises(ValueError, match="record 'blank': no tokens found"):
        build_index(bank, tiny_params, tiny_cfg)


class TestRankHead:
    """``_rank`` stops at k kept rows; results equal the full stable sort."""

    @staticmethod
    def _full(ids, embeddings, vec, exclude):
        scores = embeddings @ (vec / np.linalg.norm(vec))
        return [(ids[i], float(scores[i])) for i in np.argsort(-scores, kind="stable")
                if ids[i] != exclude]

    # Equal rows score equal cosines to the query (1, 0): 0.9 twice, 0.5
    # three times, 0.2 twice and -1, so ties straddle the k-th score of most k.
    TIES = [0.5, 0.9, 0.5, 0.2, 0.9, 0.5, 0.2, -1.0]

    @pytest.mark.parametrize("bank,exclude", [
        *[pytest.param("tiny", exclude, id=str(exclude))
          for exclude in (None, "head", "tail", "absent")],
        *[pytest.param("ties", exclude, id=f"ties-{exclude}")
          for exclude in (None, "head", "tail", "absent", "t2")]])
    def test_k_up_to_available(self, tiny_bank, tiny_params, tiny_cfg, bank, exclude):
        if bank == "ties":
            ids = [f"t{i}" for i in range(len(self.TIES))]
            embeddings = np.array([[c, math.sqrt(1.0 - c * c)] for c in self.TIES])
            vec = np.array([1.0, 0.0])
        else:
            index = build_index(tiny_bank, tiny_params, tiny_cfg)
            ids, embeddings = index.ids, index.embeddings
            vec = enc.embed("remind me to call", tiny_params, tiny_cfg)
        order = [rid for rid, _ in self._full(ids, embeddings, vec, None)]
        exclude = {"head": order[0], "tail": order[-1], "absent": "zz"}.get(exclude, exclude)
        full = self._full(ids, embeddings, vec, exclude)
        available = len(ids) - (exclude in ids)
        assert len(full) == available
        for k in range(1, available + 1):  # k = n when nothing is excluded
            assert retrieval._rank(ids, embeddings, vec, k, exclude) == full[:k]
        with pytest.raises(ValueError, match=f"k={available + 1} exceeds {available} available"):
            retrieval._rank(ids, embeddings, vec, available + 1, exclude)

    @settings(max_examples=300, derandomize=True)
    @given(scores=st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5]) | st.floats(-1.0, 1.0),
                           min_size=1, max_size=24),
           k=st.integers(1, 26), exclude=st.integers(-1, 25))
    def test_head_equals_full_stable_sort(self, scores, k, exclude):
        """``_head`` of any finite scores, ties and all, is the head of the full
        stable sort by (-score, index) with ``exclude`` skipped, or the same error."""
        ids = [f"i{i}" for i in range(len(scores))]
        scores = np.array(scores)
        skip = f"i{exclude}"
        full = [(ids[i], float(scores[i])) for i in np.argsort(-scores, kind="stable")
                if ids[i] != skip]
        if k > len(full):
            with pytest.raises(ValueError, match=f"^k={k} exceeds {len(full)} available records$"):
                retrieval._head(ids, scores, k, skip)
        else:
            assert retrieval._head(ids, scores, k, skip) == full[:k]

    def test_k_below_one_raises(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        vec = enc.embed("remind me to call", tiny_params, tiny_cfg)
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            retrieval._rank(index.ids, index.embeddings, vec, 0)

    def test_bm25_k_rule(self, tiny_bank):
        """BM25 ranks through the same rule, with the same messages."""
        bm25 = Bm25(tiny_bank)
        n = len(tiny_bank)
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            bm25.topk("weather", 0)
        with pytest.raises(ValueError, match=f"^k={n + 1} exceeds {n} available records$"):
            bm25.topk("weather", n + 1)


class TestTopk:
    def test_self_query_first_with_unit_score(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        hits = topk(index, "remind me to call", 2, tiny_params, tiny_cfg)
        assert hits[0][0] == "r2"
        assert hits[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_k_equals_n_permutation(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        hits = topk(index, "weather", len(tiny_bank), tiny_params, tiny_cfg)
        assert sorted(rid for rid, _ in hits) == sorted(tiny_bank.ids())
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_k_too_large(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        with pytest.raises(ValueError, match="^k=5 exceeds 4 available records$"):
            topk(index, "weather", 5, tiny_params, tiny_cfg)
        with pytest.raises(ValueError, match="^k=4 exceeds 3 available records$"):
            topk(index, "weather", 4, tiny_params, tiny_cfg, exclude="w1")

    def test_exclusion(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        hits = topk(index, "remind me to call", 3, tiny_params, tiny_cfg, exclude="r2")
        assert all(rid != "r2" for rid, _ in hits)

    def test_provenance_params_mismatch(self, tiny_bank, tiny_params, tiny_cfg):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        other = {k: v.copy() for k, v in tiny_params.items()}
        other["tok_emb"][0, 0] += 0.1
        with pytest.raises(ValueError,
                           match="^the query's params_sha256 differs from the index's$"):
            topk(index, "weather", 1, other, tiny_cfg)

    def test_provenance_injection_mismatch(self, tiny_bank, tiny_params, tiny_cfg):
        u = np.zeros(tiny_cfg.d)
        u[0] = 1.0
        injection = enc.InjectionDirection(u=u, layer=1, lam=1.0, prop="POS")
        index = build_index(tiny_bank, tiny_params, tiny_cfg, injection)
        with pytest.raises(ValueError, match="^the query's injection differs from the index's$"):
            topk(index, "weather", 1, tiny_params, tiny_cfg)  # no injection
        hits = topk(index, "weather", 1, tiny_params, tiny_cfg, injection=injection)
        assert len(hits) == 1

    def test_tie_break_by_corpus_index(self, tiny_cfg, tiny_params):
        bank = Corpus([Record("a", "same text", "[A x ]"),
                       Record("b", "same text", "[B y ]")], "bracketed")
        index = build_index(bank, tiny_params, tiny_cfg)
        hits = topk(index, "same text", 2, tiny_params, tiny_cfg)
        assert [rid for rid, _ in hits] == ["a", "b"]


class TestBm25:
    def test_no_shared_tokens_all_zero(self, tiny_bank):
        hits = bm25_topk(tiny_bank, "zebra quark", 4)
        assert all(score == 0.0 for _, score in hits)
        assert [rid for rid, _ in hits] == tiny_bank.ids()  # stable order

    def test_exact_document_first(self, tiny_bank):
        hits = bm25_topk(tiny_bank, "weather forecast today", 1)
        assert hits[0][0] == "w2"

    def test_hand_computed_scores(self):
        # Okapi with k1=1.2, b=0.75; idf = ln(1 + (N - df + 0.5)/(df + 0.5)).
        bank = Corpus([
            Record("d1", "sunny weather tomorrow", "[A x ]"),
            Record("d2", "weather forecast today", "[A x ]"),
            Record("d3", "remind me about it tomorrow", "[A x ]"),
        ], "bracketed")
        k1, b = 1.2, 0.75
        avgdl = (3 + 3 + 5) / 3
        idf = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))  # both query terms have df=2

        def tf_term(dl):
            return (k1 + 1) / (1 + k1 * (1 - b + b * dl / avgdl))

        expected = {
            "d1": idf * tf_term(3) + idf * tf_term(3),  # weather + tomorrow
            "d2": idf * tf_term(3),                     # weather
            "d3": idf * tf_term(5),                     # tomorrow
        }
        hits = dict(bm25_topk(bank, "weather tomorrow", 3))
        for rid, score in expected.items():
            assert hits[rid] == pytest.approx(score, abs=1e-9)

    def test_k_too_large(self, tiny_bank):
        with pytest.raises(ValueError, match="^k=9 exceeds 4 available records$"):
            bm25_topk(tiny_bank, "weather", 9)

    def test_repeated_query_token_accumulates(self, tiny_bank):
        once = dict(Bm25(tiny_bank).topk("weather", 4))
        twice = dict(Bm25(tiny_bank).topk("weather weather", 4))
        assert twice["w1"] == pytest.approx(2 * once["w1"], abs=1e-12)

    def test_query_alone_ranks_every_id(self, tiny_bank):
        bm25 = Bm25(tiny_bank)
        for query in ("weather", "remind me to call", "zebra quark"):
            assert bm25.topk(query) == bm25.topk(query, len(tiny_bank))


class TestPrompts:
    def _fixture_bytes(self, name):
        return (Path(__file__).parent / "data" / name).read_bytes()

    def test_conversational_matches_fixture(self):
        spec = PromptSpec(task_name="MTop", k=1, template="conversational")
        prompt = build_prompt(
            spec,
            [("Whats weather forecast for tomorrow?",
              "[IN:GET_WEATHER [SL:DATE_TIME for tomorrow]]")],
            "Will it be sunny on Friday?")
        assert prompt.encode("utf-8") == self._fixture_bytes("prompt_conversational_k1.txt")

    def test_sql_schema_matches_fixture(self):
        schema = ('CREATE TABLE IF NOT EXISTS "employee" ( "eid" text, "name" text, '
                  '"salary" text, PRIMARY KEY ("eid") );')
        spec = PromptSpec(task_name="Spider", k=1, template="sql_schema",
                          schema_text=schema)
        prompt = build_prompt(
            spec,
            [("How many employees do we have?", "SELECT count(*) FROM employee;")],
            "How many employees are there?")
        assert prompt.encode("utf-8") == self._fixture_bytes("prompt_sql_k1.txt")

    def test_count_mismatch(self):
        spec = PromptSpec(task_name="T", k=2, template="conversational")
        with pytest.raises(ValueError, match="^expected 2 exemplars, got 1$"):
            build_prompt(spec, [("u", "p")], "q")

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            PromptSpec(task_name="T", k=0)

    def test_missing_schema(self):
        with pytest.raises(ValueError,
                           match="^schema_text is required for the sql_schema template$"):
            PromptSpec(task_name="T", k=1, template="sql_schema")

    def test_pure_function(self):
        spec = PromptSpec(task_name="T", k=2, template="conversational")
        exemplars = [("u1", "p1"), ("u2", "p2")]
        assert build_prompt(spec, exemplars, "q") == build_prompt(spec, exemplars, "q")

    def test_numbering_and_order(self):
        spec = PromptSpec(task_name="T", k=2, template="conversational")
        prompt = build_prompt(spec, [("first", "p1"), ("second", "p2")], "q")
        assert prompt.index("Example 1\nUser: first") < prompt.index(
            "Example 2\nUser: second")
        assert prompt.endswith("Parse:")


class TestEvaluate:
    def test_identical_parse_scores_perfectly(self, tiny_cfg, tiny_params):
        bank = Corpus([Record("a", "alpha beta", "[X p ]"),
                       Record("b", "gamma delta", "[Y q ]")], "bracketed")
        index = build_index(bank, tiny_params, tiny_cfg)
        ranker = make_dense_ranker(index, tiny_params, tiny_cfg)
        queries = Corpus([Record("q", "alpha beta", "[X p ]")], "bracketed")
        metrics = evaluate(ranker, queries, bank, 1)
        assert metrics["mean_sim_struct_at_k"] == 1.0
        assert metrics["mrr_structural_nn"] == 1.0

    def test_k_one_all_identical(self, tiny_cfg, tiny_params):
        bank = Corpus([Record("a", "alpha", "[X p ]")], "bracketed")
        index = build_index(bank, tiny_params, tiny_cfg)
        queries = Corpus([Record("q0", "alpha", "[X p ]"), Record("q1", "alpha", "[X p ]")],
                         "bracketed")
        metrics = evaluate(make_dense_ranker(index, tiny_params, tiny_cfg), queries, bank, 1)
        assert metrics["mean_sim_struct_at_k"] == 1.0

    def test_permutation_invariance(self, tiny_bank, tiny_cfg):
        queries = Corpus([Record("q0", "sunny weather tomorrow", "[IN:W [SL:D tomorrow ] ]"),
                          Record("q1", "remind me to call", "[IN:R [SL:T call ] ]")], "bracketed")
        shuffled = Corpus(list(reversed(tiny_bank.records)), "bracketed")
        m1 = evaluate(Bm25(tiny_bank).topk, queries, tiny_bank, 2)
        m2 = evaluate(Bm25(shuffled).topk, queries, shuffled, 2)
        for key in m1:
            assert m1[key] == pytest.approx(m2[key], abs=1e-12)

    def test_bm25_ranker_metrics(self, tiny_bank):
        metrics = evaluate(Bm25(tiny_bank).topk,
                           Corpus([Record("q", "sunny weather tomorrow",
                                          "[IN:W [SL:D tomorrow ] ]")], "bracketed"),
                           tiny_bank, 2)
        assert metrics["mrr_structural_nn"] == 1.0


class TestIndexPersistence:
    def test_round_trip_same_results(self, tiny_bank, tiny_params, tiny_cfg, tmp_path):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        path = tmp_path / "bank.index"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.ids == index.ids
        assert np.array_equal(loaded.embeddings, index.embeddings)
        q = "weather forecast today"
        assert (topk(loaded, q, 3, tiny_params, tiny_cfg)
                == topk(index, q, 3, tiny_params, tiny_cfg))

    def test_misshaped_index_leaves_file_untouched(self, tiny_bank, tiny_params, tiny_cfg,
                                                  tmp_path):
        index = build_index(tiny_bank, tiny_params, tiny_cfg)
        path = tmp_path / "bank.index"
        save_index(index, path)
        before = path.read_bytes()
        short = retrieval.RetrievalIndex(index.ids, index.embeddings[:-1], index.provenance)
        with pytest.raises(ValueError, match=r"^embeddings: \(\d+, \d+\) != \(\d+, \d+\)$"):
            save_index(short, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["bank.index"]

    def test_save_deterministic(self, tiny_bank, tiny_params, tiny_cfg, tmp_path):
        p1, p2 = tmp_path / "a.index", tmp_path / "b.index"
        save_index(build_index(tiny_bank, tiny_params, tiny_cfg), p1)
        save_index(build_index(tiny_bank, tiny_params, tiny_cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_eval_one_ted_per_distinct_gold_bank_label_pattern(pipeline_runs, tmp_path,
                                                           monkeypatch):
    """The four rankers of ``eval`` share one set of gold-vs-bank similarities,
    and gold-vs-bank pairs that differ only by label names share one TED."""
    import stare.ted as ted_module
    from stare import cli
    from stare.config import load_config
    from stare.corpus import load_corpus

    fix_dir, run_a, _ = pipeline_runs
    out = tmp_path / "run"
    shutil.copytree(run_a, out)
    config = load_config(fix_dir / "config.json", env={})
    dialect, anonymize = config.corpus["dialect"], config.mining["anonymize"]
    bank = load_corpus(config.path(config.corpus["train"]), dialect, anonymize)
    dev = load_corpus(config.path(config.corpus["dev"]), dialect, anonymize)
    golds = [dev.tree(rec.id) for rec in dev]
    pairs = {frozenset((gold, bank.tree(rec.id))) for gold in golds for rec in bank}
    assert len({rec.parse for rec in dev}) > 1 and len(pairs) < len(golds) * len(bank)

    real, calls = ted_module.ted, []
    monkeypatch.setattr(ted_module, "ted",
                        lambda a, b, *rest: calls.append((a, b)) or real(a, b, *rest))
    loaded = []  # the corpora ``eval`` reads, the bank first
    monkeypatch.setattr(cli, "load_corpus",
                        lambda *args: loaded.append(load_corpus(*args)) or loaded[-1])
    assert cli.main(["eval", "--config", str(fix_dir / "config.json"), "--out", str(out)]) == 0
    patterns = {label_pattern(pair, loaded[0].intern) for pair in pairs}
    assert len(calls) == len(patterns)
    assert {label_pattern(pair, loaded[0].intern) for pair in calls} == patterns
    assert (out / "eval_metrics.json").read_bytes() == (run_a / "eval_metrics.json").read_bytes()
