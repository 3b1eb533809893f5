"""Exemplar retrieval: dense cosine top-k, BM25 control, prompt rendering.

The dense index is an exhaustive scan over unit-normalized sentence
embeddings; index provenance records the encoder parameters and any
injection so queries cannot silently be embedded under a different
geometry than the bank.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from .artifacts import fields, read_header_blob, write_header_blob
from .corpus import Corpus
from .encoder import EncoderConfig, InjectionDirection

BM25_K1 = 1.2
BM25_B = 0.75


@dataclass
class RetrievalIndex:
    ids: list[str]
    embeddings: np.ndarray  # (n, d), rows unit-normalized
    provenance: dict

    def __len__(self) -> int:
        return len(self.ids)


def _unit_rows(ids: list[str], embeddings: np.ndarray) -> np.ndarray:
    """Scale each embedding row to unit norm in place; a zero embedding is
    named by its id."""
    for rid, vec in zip(ids, embeddings):
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError(f"record {rid!r} embeds to the zero vector")
        vec /= norm
    return embeddings


def _head(ids: list[str], scores: np.ndarray, k: int,
          exclude: str | None = None) -> list[tuple[str, float]]:
    """The k (id, score) pairs of highest score, ties to lower index, with
    ``exclude`` skipped: the one top-k rule of every ranker."""
    if k < 1:
        raise ValueError("k must be >= 1")
    head = []
    for i in np.argsort(-scores, kind="stable"):
        if len(head) == k:
            break
        if ids[i] != exclude:
            head.append(i)
    if len(head) < k:  # the scan ran out: head holds every available record
        raise ValueError(f"k={k} exceeds {len(head)} available records")
    return [(ids[i], float(scores[i])) for i in head]


def _rank(ids: list[str], embeddings: np.ndarray, vec: np.ndarray, k: int,
          exclude: str | None = None) -> list[tuple[str, float]]:
    """The k rows with the highest cosine to ``vec``, by ``_head``.

    The one dense ranking implementation: ``topk``, ``make_dense_ranker``
    and the MLI sweep's injected cells all call it; BM25 ranks its own
    scores through the same ``_head``.
    """
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("query embeds to the zero vector")
    return _head(ids, embeddings @ (vec / norm), k, exclude)


def corpus_tokens(corpus: Corpus, cfg: EncoderConfig) -> list[list[int]]:
    """The token ids of each record's utterance, in corpus order."""
    def tokens(rec):
        try:
            return enc.tokenize(rec.utterance, cfg.vocab, cfg.max_len)
        except enc.EmptyInput as exc:
            raise enc.EmptyInput(f"record {rec.id!r}: {exc}") from exc

    return [tokens(rec) for rec in corpus]


def _inputs_sha256(ids: list[str], token_lists: list[list[int]]) -> str:
    """sha256 over each record's id and the token ids it embeds, in order.

    The token ids fix the utterance, ``vocab`` and ``max_len``; with the
    params and the injection they fix every row of the index.
    """
    return hashlib.sha256(json.dumps(list(zip(ids, token_lists))).encode("utf-8")).hexdigest()


def _query_provenance(params: dict[str, np.ndarray], injection: InjectionDirection | None) -> dict:
    """The provenance a query's embedding fixes: the params and the injection."""
    inj = None
    if injection is not None:
        u_hash = hashlib.sha256(
            np.ascontiguousarray(injection.u, dtype=np.float64).tobytes()).hexdigest()
        inj = {"property": injection.prop, "layer": injection.layer,
               "lambda": injection.lam, "u_sha256": u_hash}
    return {"params_sha256": enc.params_fingerprint(params), "injection": inj}


def build_index(bank: Corpus, params: dict[str, np.ndarray], cfg: EncoderConfig,
                injection: InjectionDirection | None = None) -> RetrievalIndex:
    """One unit-normalized utterance embedding per record, in corpus order.

    Records run in ``enc.forward_batch`` chunks; each row equals the
    record's ``enc.embed`` bit for bit.
    """
    ids = bank.ids()
    token_lists = corpus_tokens(bank, cfg)
    embeddings = _unit_rows(ids, enc.embed_batch(token_lists, params, cfg, injection))
    provenance = {"inputs_sha256": _inputs_sha256(ids, token_lists),
                  **_query_provenance(params, injection)}
    return RetrievalIndex(ids=ids, embeddings=embeddings, provenance=provenance)


def index_mismatch(index: RetrievalIndex, bank: Corpus, params: dict[str, np.ndarray],
                   cfg: EncoderConfig, injection: InjectionDirection | None = None
                   ) -> str | None:
    """The first of ``ids``, ``inputs_sha256``, ``params_sha256`` and
    ``injection`` in which ``index`` differs from ``build_index`` of these
    arguments, or None when it holds exactly those rows."""
    ids = bank.ids()
    if index.ids != ids:
        return "ids"
    wanted = {"inputs_sha256": _inputs_sha256(ids, corpus_tokens(bank, cfg)),
              **_query_provenance(params, injection)}
    return next((key for key, value in wanted.items() if index.provenance[key] != value), None)


def topk(index: RetrievalIndex, query: str, k: int, params: dict[str, np.ndarray],
         cfg: EncoderConfig, injection: InjectionDirection | None = None,
         exclude: str | None = None) -> list[tuple[str, float]]:
    """k bank ids with the highest cosine to the query, ties to lower index.

    The query must be embedded under the same parameters and injection
    the index was built with; a mismatch is a ValueError naming the field.
    """
    return make_dense_ranker(index, params, cfg, injection)(query, k, exclude)


# ---------------------------------------------------------------------------
# BM25 baseline
# ---------------------------------------------------------------------------

class Bm25:
    """Okapi scoring over whitespace/punctuation tokens of the utterances.

    idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)); each query token
    occurrence contributes idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)),
    with k1 = BM25_K1 and b = BM25_B.
    """

    def __init__(self, bank: Corpus):
        self.ids = bank.ids()
        self.docs = [enc.word_tokens(rec.utterance) for rec in bank]
        self.doc_lens = [len(d) for d in self.docs]
        self.avgdl = float(np.mean(self.doc_lens)) if self.docs else 0.0
        self.term_freqs = [Counter(d) for d in self.docs]
        df: Counter[str] = Counter()
        for tf in self.term_freqs:
            df.update(tf.keys())
        n = len(self.docs)
        self.idf = {t: math.log(1.0 + (n - c + 0.5) / (c + 0.5)) for t, c in df.items()}

    def scores(self, query: str) -> np.ndarray:
        q_tokens = enc.word_tokens(query)
        out = np.zeros(len(self.docs))
        for i, tf in enumerate(self.term_freqs):
            denom_norm = BM25_K1 * (1.0 - BM25_B + BM25_B * self.doc_lens[i] / self.avgdl)
            s = 0.0
            for tok in q_tokens:
                f = tf.get(tok)
                if not f:
                    continue
                s += self.idf[tok] * f * (BM25_K1 + 1.0) / (f + denom_norm)
            out[i] = s
        return out

    def topk(self, query: str, k: int | None = None) -> list[tuple[str, float]]:
        """``_head`` of the scores: every id when called with only a query."""
        return _head(self.ids, self.scores(query), len(self.ids) if k is None else k)


# ---------------------------------------------------------------------------
# prompt rendering
# ---------------------------------------------------------------------------

TEMPLATE_CONVERSATIONAL = "conversational"
TEMPLATE_SQL_SCHEMA = "sql_schema"


@dataclass
class PromptSpec:
    task_name: str = "Task"
    k: int = 1
    template: str = TEMPLATE_CONVERSATIONAL
    schema_text: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.template not in (TEMPLATE_CONVERSATIONAL, TEMPLATE_SQL_SCHEMA):
            raise ValueError(f"template {self.template!r} is unknown")
        if self.template == TEMPLATE_SQL_SCHEMA and not self.schema_text:
            raise ValueError("schema_text is required for the sql_schema template")


def build_prompt(spec: PromptSpec, exemplars: list[tuple[str, str]], query: str) -> str:
    """Render the final prompt; exemplars must already be in ascending
    similarity order (the most similar sits closest to the query)."""
    if len(exemplars) != spec.k:
        raise ValueError(f"expected {spec.k} exemplars, got {len(exemplars)}")
    if spec.template == TEMPLATE_CONVERSATIONAL:
        header = (f"Below are examples of converting user utterances into "
                  f"{spec.task_name} semantic parses:")
        blocks = [f"Example {i}\nUser: {u}\nParse: {p}"
                  for i, (u, p) in enumerate(exemplars, start=1)]
        blocks.append(f"Query\nUser: {query}\nParse:")
        return header + "\n\n" + "\n\n".join(blocks)
    cases = [(u, f" {p}") for u, p in exemplars] + [(query, "")]
    return "\n\n".join(f"/* Given the following database schema: */\n{spec.schema_text}\n"
                       f"/* Answer the following: {u} */\nSQL Query:{p}" for u, p in cases)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def make_dense_ranker(index: RetrievalIndex, params: dict[str, np.ndarray],
                      cfg: EncoderConfig, injection: InjectionDirection | None = None):
    """Ranking function over ``index``: the k ids nearest a query (every id
    when k is None), ``exclude`` skipped; provenance is checked once, here."""
    for key, value in _query_provenance(params, injection).items():
        if index.provenance[key] != value:
            raise ValueError(f"the query's {key} differs from the index's")

    def rank(query: str, k: int | None = None,
             exclude: str | None = None) -> list[tuple[str, float]]:
        return _rank(index.ids, index.embeddings, enc.embed(query, params, cfg, injection),
                     len(index) if k is None else k, exclude)

    return rank


def gold_ids(queries: Corpus, bank: Corpus) -> list[int]:
    """The bank's table id of each query's gold tree, by the bank's rule."""
    return [bank.intern(queries.tree(rec.id)) for rec in queries]


def mean_sim_at_k(golds: list[int], hits: list[list[tuple[str, float]]], bank: Corpus) -> float:
    """Mean over queries of the mean structural similarity between the
    gold tree (a ``gold_ids`` entry) and the parses of that query's
    retrieved bank ids, read from the bank's similarity table."""
    bank_ids = bank.tree_ids().tolist()
    return float(np.mean([
        float(np.mean([bank.sim(gold_id, bank_ids[bank.index_of[rid]]) for rid, _ in head]))
        for gold_id, head in zip(golds, hits)]))


def evaluate(rank_fn, queries: Corpus, bank: Corpus, k: int) -> dict[str, float]:
    """Structural retrieval quality of a ranker against each query's gold parse.

    ``rank_fn``, called with only a query, returns every bank id ranked.
    mean_sim_struct_at_k: ``mean_sim_at_k`` of the top-k hits.
    mrr_structural_nn: reciprocal rank of the first bank item tied for
    the globally best structural similarity. Similarities come from the
    bank's table, so rankers evaluated against one bank share each
    gold-vs-bank-tree similarity, and the pairs with one label pattern (see
    ``Corpus``) share one TED.
    """
    golds = gold_ids(queries, bank)
    bank_ids = bank.tree_ids().tolist()
    heads = []
    mrrs = []
    for query, gold_id in zip(queries, golds):
        ranking = rank_fn(query.utterance)
        if k > len(ranking):
            raise ValueError(f"k={k} exceeds ranking of {len(ranking)}")
        heads.append(ranking[:k])
        sims = [bank.sim(gold_id, tid) for tid in bank_ids]
        best_sim = max(sims)
        rank_of_best = next(pos for pos, (rid, _) in enumerate(ranking, start=1)
                            if sims[bank.index_of[rid]] == best_sim)
        mrrs.append(1.0 / rank_of_best)
    return {
        "mean_sim_struct_at_k": mean_sim_at_k(golds, heads, bank),
        "mrr_structural_nn": float(np.mean(mrrs)),
    }


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

INDEX_FORMAT_VERSION = 2


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    embeddings = index.embeddings
    header = {
        "format_version": INDEX_FORMAT_VERSION,
        "n": len(index.ids),
        "d": int(embeddings.shape[-1]) if embeddings.size else 0,
        "ids": index.ids,
        "provenance": index.provenance,
    }
    write_header_blob(path, header,
                      [("embeddings", embeddings, (len(index.ids), embeddings.shape[-1]))])


def load_index(path: str | Path) -> RetrievalIndex:
    (n, d, ids, provenance), blob = read_header_blob(path, INDEX_FORMAT_VERSION, {
        "n": int, "d": int, "ids": list[str], "provenance": dict})
    fields(f"{path}: provenance", provenance, {"inputs_sha256": str, "params_sha256": str,
                                               "injection": dict | None})
    if len(ids) != n or len(blob) != 8 * n * d:
        raise ValueError(f"{path}: embeddings do not match the header ({len(blob)} bytes)")
    embeddings = np.frombuffer(blob, dtype=np.float64).reshape(n, d)
    return RetrievalIndex(ids=ids, embeddings=embeddings, provenance=provenance)
