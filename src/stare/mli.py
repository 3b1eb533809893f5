"""Middle-layer injection: linear probes, dominant directions, grid sweep.

A logistic-regression probe is trained on one layer's token states for a
linguistic property (POS, DEPS, or PT); the top right singular vector of
its weight matrix, taken from ``np.linalg.svd``, becomes a unit steering
direction. The sweep scores (layer, property, intensity) cells by the
structural similarity of what the injected retriever fetches for dev
queries, with the uninjected retriever always included as baseline.
"""

from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import encoder as enc
from . import retrieval
from .artifacts import atomic_write, fields, read_json, read_lines, write_json
from .corpus import Corpus
from .encoder import EncoderConfig, InjectionDirection

PROPERTIES = ("POS", "DEPS", "PT")

_LABEL_FILES = {"POS": "labels_pos.txt", "DEPS": "labels_deps.txt", "PT": "labels_pt.txt"}


@dataclass
class TokenLabelCorpus:
    sentences: list[tuple[list[str], list[str]]]
    label_set: list[str]

    def __post_init__(self) -> None:
        known = set(self.label_set)
        for tokens, labels in self.sentences:
            if not tokens:
                raise ValueError("token-label corpus contains an empty sentence")
            if len(tokens) != len(labels):
                raise ValueError(
                    f"token/label length mismatch: {len(tokens)} vs {len(labels)}")
            for lab in labels:
                if lab not in known:
                    raise ValueError(f"label {lab!r} not in label set")


def default_label_set(prop: str) -> list[str]:
    """Shipped merged label set for one of POS, DEPS, PT."""
    name = _LABEL_FILES[prop]
    text = importlib.resources.files("stare.data").joinpath(name).read_text("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def load_token_label_corpus(path: str | Path, prop: str) -> TokenLabelCorpus:
    """TSV reader: "token<TAB>label" lines, blank line between sentences; a
    label outside the property's set, or a file with no sentence, is a
    ValueError naming the line or the file."""
    label_set = default_label_set(prop)
    sentences: list[tuple[list[str], list[str]]] = []
    tokens: list[str] = []
    labels: list[str] = []
    for where, line in [*read_lines(path), (path, "")]:  # a blank line ends a sentence
        if line.strip():
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise ValueError(f"{where}: expected 'token<TAB>label'")
            if parts[1] not in label_set:
                raise ValueError(f"{where}: label {parts[1]!r} not in the {prop} set")
            tokens.append(parts[0])
            labels.append(parts[1])
        elif tokens:
            sentences.append((tokens, labels))
            tokens, labels = [], []
    if not sentences:
        raise ValueError(f"{path}: no sentence to probe")
    return TokenLabelCorpus(sentences, label_set)


@dataclass
class ProbeConfig:
    epochs: int = 300
    lr: float = 0.5
    l2: float = 1e-4

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


def collect_states(corpus: TokenLabelCorpus, params: dict[str, np.ndarray],
                   cfg: EncoderConfig, layers: Sequence[int]
                   ) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Each of ``layers``' token states over the corpus, one (rows, d) array
    per layer in corpus order, with label indices. One ``enc.forward_batch``
    pass serves every layer; each chunk's rows are copied in as it arrives.

    Corpus tokens are fed to the encoder one id per token (no re-tokenization),
    so rows align with labels; both are truncated at max_len together.
    """
    for layer in layers:
        if not 1 <= layer <= cfg.layers:
            raise ValueError(f"layer {layer} outside [1, {cfg.layers}]")
    label_index = {lab: i for i, lab in enumerate(corpus.label_set)}
    id_lists = [enc.ids_for_tokens(tokens, cfg) for tokens, _ in corpus.sentences]
    starts = np.cumsum([0, *map(len, id_lists)])  # sentence i owns rows starts[i]:starts[i+1]
    xs = {layer: np.empty((starts[-1], cfg.d)) for layer in layers}
    for positions, states, _ in enc.forward_batch(id_lists, params, cfg):
        for layer, X in xs.items():
            for b, pos in enumerate(positions):
                X[starts[pos]:starts[pos + 1]] = states[layer][b]
    ys = [label_index[lab] for ids, (_, labels) in zip(id_lists, corpus.sentences)
          for lab in labels[: len(ids)]]
    return xs, np.asarray(ys, dtype=np.int64)


def probe_loss_and_grads(W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray,
                         l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy with an l2*||W||^2 penalty.

    The logits become the softmax and then its gradient in place, one
    (rows, labels) buffer throughout.
    """
    n = X.shape[0]
    rows = np.arange(n)
    z = X @ W.T
    z += b
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    loss = float(-np.log(z[rows, y] + 1e-300).mean() + l2 * np.sum(W * W))
    z[rows, y] -= 1.0
    z /= n
    dW = z.T @ X
    dW += 2.0 * l2 * W
    return loss, dW, z.sum(axis=0)


def train_probe(X: np.ndarray, y: np.ndarray, n_labels: int,
                config: ProbeConfig = ProbeConfig()) -> tuple[np.ndarray, np.ndarray]:
    """The fit (W (k, d), b (k,)): full-batch gradient descent from zero
    init; deterministic.

    The objective is convex, so the loss must not increase; if a step
    would increase it the learning rate is halved and the step retried.
    """
    if len(np.unique(y)) < 2:
        raise ValueError("probe training needs at least 2 distinct labels")
    d = X.shape[1]
    W = np.zeros((n_labels, d))
    b = np.zeros(n_labels)
    lr = config.lr
    loss, dW, db = probe_loss_and_grads(W, b, X, y, config.l2)
    for _ in range(config.epochs):
        while lr >= 1e-12:
            W_new = W - lr * dW
            b_new = b - lr * db
            new_loss, new_dW, new_db = probe_loss_and_grads(W_new, b_new, X, y, config.l2)
            if new_loss <= loss:
                W, b, loss, dW, db = W_new, b_new, new_loss, new_dW, new_db
                break
            lr *= 0.5
        else:  # no step size lowers the loss
            break
    return W, b


def extract_direction(W: np.ndarray) -> np.ndarray:
    """Top right singular vector of a probe's weights, from ``np.linalg.svd``.

    The unit vector's sign is fixed so its first nonzero component is positive.
    """
    W = np.asarray(W, dtype=np.float64)
    if not np.any(W):
        raise ValueError("probe weight matrix is all zeros")
    v = np.linalg.svd(W, full_matrices=False)[2][0]
    nonzero = np.flatnonzero(v)
    if nonzero.size and v[nonzero[0]] < 0:
        v = -v
    return v


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def default_sweep_layers(num_layers: int) -> list[int]:
    """Low/middle/last injection candidates, scaled to the layer count."""
    cands = {int(np.ceil(num_layers / 3)), int(np.ceil(2 * num_layers / 3)), num_layers}
    return sorted(cands)


DEFAULT_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


@dataclass
class SweepGrid:
    layers: list[int]
    properties: list[str]
    lambdas: list[float]


@dataclass
class SweepRow:
    prop: str  # "" for the uninjected baseline
    layer: int
    lam: float
    score: float
    error: str = ""


@dataclass
class SweepResult:
    best: InjectionDirection | None  # None means the baseline won
    best_score: float
    baseline_score: float
    rows: list[SweepRow] = field(default_factory=list)


def resumed_embedding(states: list[np.ndarray | None], injection: InjectionDirection,
                      params: dict[str, np.ndarray], cfg: EncoderConfig) -> np.ndarray:
    """``enc.embed`` under ``injection``, running only the blocks after its layer
    from ``states[injection.layer]``, the uninjected state of the same text (one
    sequence, or a ``forward_batch`` chunk); the other entries may be None."""
    x = states[injection.layer] + injection.lam * np.asarray(injection.u)
    return enc.run_blocks(x, params, cfg, injection.layer)[-1].mean(axis=-2)


def sweep(queries: Corpus, bank: Corpus, params: dict[str, np.ndarray], cfg: EncoderConfig,
          label_corpora: dict[str, TokenLabelCorpus], grid: SweepGrid, k: int,
          probe_config: ProbeConfig = ProbeConfig()) -> SweepResult:
    """Score every grid cell by mean structural similarity at k.

    Probes are trained once per (property, layer), on states collected
    by one forward over the property's label corpus. The baseline is scored
    as ``eval`` scores a dense ranker, with ``build_index`` and ``topk``.
    An injection after layer L cannot change layers 0..L, so the bank's
    and the queries' uninjected states of the in-range grid layers (only
    those) are kept per ``enc.forward_batch`` chunk, and a cell resumes
    every chunk from its layer-L states plus lam*u. The cost is two
    forwards per sequence plus, per cell, the blocks after L; the scores
    equal those of rebuilding the index per cell bit for bit, so a
    lam = 0 cell scores the baseline. Cell failures are recorded in the
    report rather than raised. The baseline row always comes first and
    wins ties.
    """
    rows: list[SweepRow] = []
    golds = retrieval.gold_ids(queries, bank)
    in_range = [layer for layer in grid.layers if 1 <= layer <= cfg.layers]

    index = retrieval.build_index(bank, params, cfg)
    baseline = retrieval.mean_sim_at_k(
        golds, [retrieval.topk(index, rec.utterance, k, params, cfg) for rec in queries], bank)
    def kept_chunks(corpus: Corpus) -> list[tuple[list[int], list[np.ndarray | None]]]:
        return [(positions, [x if layer in in_range else None for layer, x in enumerate(states)])
                for positions, states, _ in enc.forward_batch(
                    retrieval.corpus_tokens(corpus, cfg), params, cfg)]
    bank_chunks, query_chunks = kept_chunks(bank), kept_chunks(queries)

    def resumed(chunks, n: int, injection: InjectionDirection) -> np.ndarray:
        out = np.empty((n, cfg.d))
        for positions, states in chunks:
            out[positions] = resumed_embedding(states, injection, params, cfg)
        return out

    def score_cell(injection: InjectionDirection) -> float:
        embeddings = retrieval._unit_rows(index.ids, resumed(bank_chunks, len(bank), injection))
        hits = [retrieval._rank(index.ids, embeddings, vec, k)
                for vec in resumed(query_chunks, len(queries), injection)]
        return retrieval.mean_sim_at_k(golds, hits, bank)

    rows.append(SweepRow(prop="", layer=0, lam=0.0, score=baseline))
    best: InjectionDirection | None = None
    best_score = baseline

    for prop in grid.properties:
        corpus = label_corpora.get(prop)
        if corpus is None:
            rows.append(SweepRow(prop=prop, layer=0, lam=0.0, score=float("nan"),
                                 error="no label corpus"))
            continue
        states: dict[int, np.ndarray] = {}
        for layer in grid.layers:
            try:
                if layer not in states:
                    # One forward serves every in-range layer; an
                    # out-of-range layer raises its own error row.
                    states, y = collect_states(corpus, params, cfg, [layer, *in_range])
                W, _ = train_probe(states[layer], y, len(corpus.label_set), probe_config)
                u = extract_direction(W)
            except (ValueError, ArithmeticError) as exc:  # bad data fails the cell
                rows.append(SweepRow(prop=prop, layer=layer, lam=0.0,
                                     score=float("nan"), error=str(exc)))
                continue
            for lam in grid.lambdas:
                injection = InjectionDirection(u=u, layer=layer, lam=float(lam), prop=prop)
                try:
                    score = score_cell(injection)
                except (ValueError, ArithmeticError) as exc:
                    rows.append(SweepRow(prop=prop, layer=layer, lam=float(lam),
                                         score=float("nan"), error=str(exc)))
                    continue
                rows.append(SweepRow(prop=prop, layer=layer, lam=float(lam), score=score))
                if score > best_score:
                    best, best_score = injection, score
    return SweepResult(best=best, best_score=best_score, baseline_score=baseline, rows=rows)


def write_sweep_report(result: SweepResult, path: str | Path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["property", "layer", "lambda", "score", "error"])
        for row in result.rows:
            writer.writerow([row.prop, row.layer, row.lam, repr(row.score), row.error])


# ---------------------------------------------------------------------------
# direction persistence
# ---------------------------------------------------------------------------

DIRECTION_FORMAT_VERSION = 2


def save_direction(direction: InjectionDirection | None, path: str | Path,
                   params_sha256: str) -> None:
    """Write the sweep's pick, fitted to the params with ``params_sha256``;
    None records that the uninjected baseline won."""
    payload: dict = {"format_version": DIRECTION_FORMAT_VERSION, "params_sha256": params_sha256}
    if direction is None:
        payload["baseline"] = True
    else:
        payload.update({"property": direction.prop, "layer": direction.layer,
                        "lambda": direction.lam, "u": [float(x) for x in direction.u]})
    write_json(path, payload)


def read_direction(path: str | Path) -> tuple[InjectionDirection | None, str]:
    """The pick ``save_direction`` wrote, and the params_sha256 it was fitted to."""
    payload = read_json(path, DIRECTION_FORMAT_VERSION)
    (params_sha256,) = fields(str(path), payload, {"params_sha256": str})
    if payload.get("baseline"):
        return None, params_sha256
    u, layer, lam, prop = fields(str(path), payload, {"u": list[float], "layer": int,
                                                      "lambda": float, "property": str})
    return InjectionDirection(u=np.asarray(u, dtype=np.float64), layer=layer, lam=float(lam),
                              prop=prop), params_sha256


def load_direction(path: str | Path) -> InjectionDirection | None:
    """``read_direction`` without the params it was fitted to."""
    return read_direction(path)[0]
