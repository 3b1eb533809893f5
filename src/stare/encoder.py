"""Self-contained trainable text encoder with exposed per-layer states.

A small pre-norm transformer encoder (multi-head self-attention +
position-wise feed-forward, residual connections, layer normalization)
implemented directly in numpy, with analytic gradients for contrastive
training. Hidden states are the residual-stream outputs of each block;
layer 0 is embeddings + positions. Sentence embeddings are the mean of
the final layer's token rows, so an additive injection at the last
block shifts the pooled embedding by exactly the injected vector.
"""

from __future__ import annotations

import hashlib
import logging
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence, get_type_hints

import numpy as np

from .artifacts import fields, read_header_blob, write_header_blob

logger = logging.getLogger(__name__)

UNK_TOKEN = "<unk>"
UNK_ID = 0

_LN_EPS = 1e-5
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Token budget of one forward_batch chunk: enough rows per numpy call to
# amortise its overhead on short sequences, small enough that a chunk's
# states stay a few hundred kilobytes.
CHUNK_TOKENS = 64


@dataclass
class EncoderConfig:
    vocab: dict[str, int]
    d: int = 64
    layers: int = 4
    heads: int = 4
    max_len: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if set(self.vocab.values()) != set(range(len(self.vocab))):
            raise ValueError("vocab ids must be exactly 0 .. len(vocab) - 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.heads < 1 or self.d % self.heads:
            raise ValueError("heads must divide d")
        if self.layers < 2:
            raise ValueError("layers must be >= 2 so a middle layer exists")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class InjectionDirection:
    """Additive steering vector applied to every token row after one block."""

    u: np.ndarray
    layer: int
    lam: float = 0.0
    prop: str | None = None


def word_tokens(text: str) -> list[str]:
    """Lowercased tokens split at whitespace and punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, cfg: EncoderConfig) -> list[int]:
    """``ids_for_tokens`` of the text's ``word_tokens``."""
    return ids_for_tokens(word_tokens(text), cfg)


def ids_for_tokens(tokens: Sequence[str], cfg: EncoderConfig) -> list[int]:
    """Each word's ``cfg.vocab`` id, looked up lowercased (UNK if absent), for
    the first ``cfg.max_len`` words. Vocab keys are lowercase (``build_vocab``),
    so a word found as given is not lowercased again."""
    if not tokens:
        raise ValueError("no tokens found")
    if len(tokens) > cfg.max_len:
        logger.debug("truncating %d tokens to max_len=%d", len(tokens), cfg.max_len)
        tokens = tokens[:cfg.max_len]
    return [cfg.vocab.get(tok) or cfg.vocab.get(tok.lower(), UNK_ID) for tok in tokens]


def build_vocab(texts: Sequence[str]) -> dict[str, int]:
    """Token -> id map in first-seen corpus order; id 0 is reserved for UNK."""
    vocab: dict[str, int] = {UNK_TOKEN: UNK_ID}
    for text in texts:
        for tok in word_tokens(text):
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_shapes(cfg: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical parameter order; persistence and init both follow it."""
    d, dff = cfg.d, 4 * cfg.d
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (len(cfg.vocab), d)),
        ("pos_emb", (cfg.max_len, d)),
    ]
    for i in range(cfg.layers):
        p = f"layers.{i}."
        shapes += [
            (p + "ln1.g", (d,)), (p + "ln1.b", (d,)),
            (p + "wq", (d, d)), (p + "bq", (d,)),
            (p + "wk", (d, d)), (p + "bk", (d,)),
            (p + "wv", (d, d)), (p + "bv", (d,)),
            (p + "wo", (d, d)), (p + "bo", (d,)),
            (p + "ln2.g", (d,)), (p + "ln2.b", (d,)),
            (p + "w1", (d, dff)), (p + "b1", (dff,)),
            (p + "w2", (dff, d)), (p + "b2", (d,)),
        ]
    return shapes


def init_params(cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform init; biases zero, layer norms identity."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg):
        base = name.rsplit(".", 1)[-1]
        if base in ("g",):
            params[name] = np.ones(shape)
        elif base in ("b", "bq", "bk", "bv", "bo", "b1", "b2"):
            params[name] = np.zeros(shape)
        elif name in ("tok_emb", "pos_emb"):
            bound = 1.0 / np.sqrt(cfg.d)
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def zerolike_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` bit for bit (np.mean sums, then
    divides by the count), without np.mean's per-call overhead."""
    return x.sum(axis=-1, keepdims=True) / x.shape[-1]


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = _mean_last(x)
    xc = x - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def _rows(x: np.ndarray) -> np.ndarray:
    """Every token row of a (..., tokens, width) array as one (n, width) matrix."""
    return x.reshape(-1, x.shape[-1])


def _ln_backward(dy: np.ndarray, cache):
    xhat, inv, g = cache
    dg = _rows(dy * xhat).sum(axis=0)
    db = _rows(dy).sum(axis=0)
    dxhat = dy * g
    mean_dxhat = _mean_last(dxhat)
    mean_dxhat_xhat = _mean_last(dxhat * xhat)
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx, dg, db


def _gelu_forward(x: np.ndarray):
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_backward(dy: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * inner)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., tokens, d) -> (..., heads, tokens, d // heads)."""
    *lead, tokens, d = x.shape
    return x.reshape(*lead, tokens, heads, d // heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, tokens, dh) -> (..., tokens, heads * dh)."""
    *lead, heads, tokens, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, tokens, heads * dh)


def _attn_scale(cfg: EncoderConfig) -> float:
    return 1.0 / np.sqrt(cfg.d // cfg.heads)


def _validate_injection(injection: InjectionDirection | None, cfg: EncoderConfig) -> None:
    if injection is None:
        return
    if not 1 <= injection.layer <= cfg.layers:
        raise ValueError(f"injection layer {injection.layer} outside [1, {cfg.layers}]")
    if np.asarray(injection.u).shape != (cfg.d,):
        raise ValueError(
            f"injection dimension {np.asarray(injection.u).shape} != ({cfg.d},)")


def run_blocks(x: np.ndarray, params: dict[str, np.ndarray], cfg: EncoderConfig,
               first: int = 0, injection: InjectionDirection | None = None,
               caches: list[dict] | None = None) -> list[np.ndarray]:
    """Run blocks first+1..L on ``x``, the residual state after block ``first``.

    ``x`` is one sequence, (tokens, d), or a chunk of equal-length
    sequences, (batch, tokens, d). Every operation acts per token row or
    per (sequence, head) matrix, so a chunk's states equal the states of
    its sequences run one at a time bit for bit.

    Returns ``[x]`` followed by each block's output. The injection adds
    lam*u after its block, so blocks up to and including that layer are
    unaffected by it: resuming at ``first = layer`` from an uninjected
    state plus lam*u gives the injected forward's states bit for bit.
    Per-block caches for ``backward_ids`` are appended to ``caches``.
    """
    heads, scale = cfg.heads, _attn_scale(cfg)
    states = [x]
    for i in range(first, cfg.layers):
        p = f"layers.{i}."
        a_in, ln1_cache = _ln_forward(x, params[p + "ln1.g"], params[p + "ln1.b"])
        q = a_in @ params[p + "wq"] + params[p + "bq"]
        k = a_in @ params[p + "wk"] + params[p + "bk"]
        v = a_in @ params[p + "wv"] + params[p + "bv"]
        qh, kh, vh = (_split_heads(m, heads) for m in (q, k, v))
        scores = qh @ kh.swapaxes(-1, -2) * scale
        scores -= scores.max(axis=-1, keepdims=True)
        expw = np.exp(scores)
        attn = expw / expw.sum(axis=-1, keepdims=True)
        oh = attn @ vh
        oc = _merge_heads(oh)
        attn_out = oc @ params[p + "wo"] + params[p + "bo"]
        x_mid = x + attn_out
        f_in, ln2_cache = _ln_forward(x_mid, params[p + "ln2.g"], params[p + "ln2.b"])
        pre = f_in @ params[p + "w1"] + params[p + "b1"]
        h1, gelu_t = _gelu_forward(pre)
        ffn_out = h1 @ params[p + "w2"] + params[p + "b2"]
        x = x_mid + ffn_out
        if injection is not None and injection.layer == i + 1:
            x = x + injection.lam * np.asarray(injection.u)
        states.append(x)
        if caches is not None:
            caches.append({
                "ln1": ln1_cache, "a_in": a_in, "qh": qh, "kh": kh, "vh": vh,
                "attn": attn, "oc": oc, "ln2": ln2_cache, "f_in": f_in,
                "pre": pre, "h1": h1, "gelu_t": gelu_t,
            })
    return states


def forward_ids(ids: Sequence[int], params: dict[str, np.ndarray], cfg: EncoderConfig,
                injection: InjectionDirection | None = None) -> list[np.ndarray]:
    """The per-layer (tokens, d) states of one sequence of token ids, layer 0
    first: ``forward_batch`` with a batch of one.

    The injection hook adds lam*u to every token row of layer N's output
    before block N+1 (or pooling) consumes it; lam == 0 is bit-identical
    to no injection.
    """
    [(_, states, _)] = forward_batch([ids], params, cfg, injection)
    return [state[0] for state in states]


def length_chunks(lengths: Sequence[int], max_tokens: int = CHUNK_TOKENS) -> list[list[int]]:
    """Positions grouped by exact length, lengths in order of first use.

    A length's positions are split, in order, into chunks of at most
    ``max_tokens`` tokens; a chunk holds at least one sequence.
    """
    by_length: dict[int, list[int]] = {}
    for pos, n in enumerate(lengths):
        by_length.setdefault(n, []).append(pos)
    chunks = []
    for n, positions in by_length.items():
        per = max(1, max_tokens // n)
        chunks += [positions[i : i + per] for i in range(0, len(positions), per)]
    return chunks


def forward_batch(id_lists: Sequence[Sequence[int]], params: dict[str, np.ndarray],
                  cfg: EncoderConfig, injection: InjectionDirection | None = None,
                  with_cache: bool = False
                  ) -> Iterator[tuple[list[int], list[np.ndarray], dict | None]]:
    """Run many sequences, one ``length_chunks`` chunk at a time.

    Yields ``(positions, states, cache)`` per chunk: ``states[l][b]`` is
    layer l of sequence ``positions[b]``, bit-identical to running that
    sequence alone; there is no padding, so no mask. ``cache`` is the
    chunk's input to ``backward_ids`` when ``with_cache`` is set, else
    None; a chunk the caller still holds stays alive through the next
    chunk's forward. Sequences are truncated at max_len.
    """
    _validate_injection(injection, cfg)
    id_lists = [list(ids)[: cfg.max_len] for ids in id_lists]
    if not all(id_lists):
        raise ValueError("empty id sequence")
    for positions in length_chunks([len(ids) for ids in id_lists]):
        ids = np.array([id_lists[pos] for pos in positions])
        x = params["tok_emb"][ids] + params["pos_emb"][: ids.shape[1]]
        caches: list[dict] | None = [] if with_cache else None
        states = run_blocks(x, params, cfg, 0, injection, caches)
        yield positions, states, {"ids": ids, "layers": caches} if with_cache else None


def embed_batch(id_lists: Sequence[Sequence[int]], params: dict[str, np.ndarray],
                cfg: EncoderConfig, injection: InjectionDirection | None = None) -> np.ndarray:
    """(n, d) sentence embeddings; row i equals ``embed`` of sequence i bit for bit."""
    out = np.empty((len(id_lists), cfg.d))
    for positions, states, _ in forward_batch(id_lists, params, cfg, injection):
        out[positions] = states[-1].mean(axis=-2)
    return out


def backward_ids(d_final: np.ndarray, cache: dict, params: dict[str, np.ndarray],
                 cfg: EncoderConfig, grads: dict[str, np.ndarray]) -> None:
    """Accumulate parameter gradients for one ``forward_batch`` chunk into ``grads``.

    ``d_final`` is the loss gradient w.r.t. the last block's output,
    (batch, tokens, d). Token-level gradients are computed per sequence
    as in a batch of one; only the weight-gradient sums over the chunk's
    rows are grouped differently. An additive injection is constant
    w.r.t. parameters, so caches from injected forwards backpropagate
    identically.
    """
    heads, scale = cfg.heads, _attn_scale(cfg)
    dx = d_final
    for i in reversed(range(cfg.layers)):
        p = f"layers.{i}."
        c = cache["layers"][i]
        # feed-forward sublayer
        dh1 = dx @ params[p + "w2"].T
        grads[p + "w2"] += _rows(c["h1"]).T @ _rows(dx)
        grads[p + "b2"] += _rows(dx).sum(axis=0)
        dpre = _gelu_backward(dh1, c["pre"], c["gelu_t"])
        df_in = dpre @ params[p + "w1"].T
        grads[p + "w1"] += _rows(c["f_in"]).T @ _rows(dpre)
        grads[p + "b1"] += _rows(dpre).sum(axis=0)
        dres, dg2, db2 = _ln_backward(df_in, c["ln2"])
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        dx_mid = dx + dres
        # attention sublayer
        doc = dx_mid @ params[p + "wo"].T
        grads[p + "wo"] += _rows(c["oc"]).T @ _rows(dx_mid)
        grads[p + "bo"] += _rows(dx_mid).sum(axis=0)
        doh = _split_heads(doc, heads)
        dattn = doh @ c["vh"].swapaxes(-1, -2)
        dvh = c["attn"].swapaxes(-1, -2) @ doh
        a = c["attn"]
        dscores = a * (dattn - (dattn * a).sum(axis=-1, keepdims=True))
        dqh = dscores @ c["kh"] * scale
        dkh = dscores.swapaxes(-1, -2) @ c["qh"] * scale
        dq, dk, dv = (_merge_heads(m) for m in (dqh, dkh, dvh))
        da_in = dq @ params[p + "wq"].T + dk @ params[p + "wk"].T + dv @ params[p + "wv"].T
        a_in = _rows(c["a_in"]).T
        for name, dm in (("q", dq), ("k", dk), ("v", dv)):
            grads[p + "w" + name] += a_in @ _rows(dm)
            grads[p + "b" + name] += _rows(dm).sum(axis=0)
        dres, dg1, db1 = _ln_backward(da_in, c["ln1"])
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        dx = dx_mid + dres
    ids = cache["ids"]
    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][: ids.shape[1]] += dx.sum(axis=0)


def forward(text: str, params: dict[str, np.ndarray], cfg: EncoderConfig,
            injection: InjectionDirection | None = None) -> list[np.ndarray]:
    """``forward_ids`` of the text's tokens: per-layer (tokens, d) states, layer 0 first."""
    return forward_ids(tokenize(text, cfg), params, cfg, injection)


def embed(text: str, params: dict[str, np.ndarray], cfg: EncoderConfig,
          injection: InjectionDirection | None = None) -> np.ndarray:
    """Sentence embedding: arithmetic mean of the final layer's token rows."""
    return forward(text, params, cfg, injection)[-1].mean(axis=0)


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------

def _checked_norm(vec: np.ndarray, role: str) -> float:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError(f"{role} embedding has zero norm")
    return norm


def _infonce_embedding_grads(anchor: np.ndarray, others: list[np.ndarray],
                             temperature: float) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Loss plus gradients w.r.t. the anchor and each other embedding."""
    na = _checked_norm(anchor, "anchor")
    norms = [_checked_norm(o, "candidate") for o in others]
    cos = np.array([float(anchor @ o) / (na * n) for o, n in zip(others, norms)])
    z = cos / temperature
    m = z.max()
    ez = np.exp(z - m)
    p = ez / ez.sum()
    loss = float(-z[0] + m + np.log(ez.sum()))
    dcos = p.copy()
    dcos[0] -= 1.0
    dcos /= temperature
    d_anchor = np.zeros_like(anchor)
    d_others = []
    for i, (other, no) in enumerate(zip(others, norms)):
        d_anchor += dcos[i] * (other / (na * no) - cos[i] * anchor / (na * na))
        d_others.append(dcos[i] * (anchor / (na * no) - cos[i] * other / (no * no)))
    return loss, d_anchor, d_others


def step_loss_and_grads(groups: Sequence[Sequence[str]], params: dict[str, np.ndarray],
                        cfg: EncoderConfig, temperature: float,
                        grads: dict[str, np.ndarray]) -> float:
    """Summed InfoNCE over one optimizer step's groups, each [anchor,
    positive, *negatives]; grads accumulate in place.

    Each distinct text of the step runs once. Pass 1 embeds them in
    ``forward_batch`` chunks without caches; InfoNCE runs per group in
    order, and a text's embedding gradients are summed over its uses.
    Pass 2 recomputes one chunk at a time with its cache and calls
    ``backward_ids`` on it, so one chunk's cache is alive at a time
    (gradient checkpointing at step granularity). Each group's loss and
    the embeddings are those of a batch of one bit for bit.
    """
    slots: dict[str, int] = {}
    group_slots = [[slots.setdefault(text, len(slots)) for text in texts] for texts in groups]
    id_lists = [tokenize(text, cfg) for text in slots]
    embs = embed_batch(id_lists, params, cfg)
    dembs = np.zeros_like(embs)
    loss = 0.0
    for group in group_slots:
        group_loss, d_anchor, d_others = _infonce_embedding_grads(
            embs[group[0]], list(embs[group[1:]]), temperature)
        loss += group_loss
        for slot, demb in zip(group, [d_anchor] + d_others):
            dembs[slot] += demb
    for positions, states, cache in forward_batch(id_lists, params, cfg, with_cache=True):
        tokens = cache["ids"].shape[1]
        d_pooled = dembs[positions] / tokens
        backward_ids(np.repeat(d_pooled[:, None, :], tokens, axis=1), cache, params, cfg, grads)
        del states, cache  # free this chunk before the next one's forward
    return loss


# ---------------------------------------------------------------------------
# optimizer and training
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamW:
    """Adaptive moment estimation with decoupled weight decay."""

    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            params[key] -= self.lr * (update + self.weight_decay * params[key])


@dataclass
class TrainConfig:
    epochs: int = 3
    lr: float = 1e-3
    weight_decay: float = 0.01
    batch: int = 1
    temperature: float = 0.07
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.epochs <= 3:
            raise ValueError("epochs must be in [0, 3]")
        for name in ("lr", "temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def group_texts(group, corpus) -> list[str]:
    return [corpus.get(group.anchor_id).utterance,
            corpus.get(group.positive_id).utterance] + [
        corpus.get(nid).utterance for nid in group.negative_ids()]


def train(groups, corpus, cfg: EncoderConfig, train_cfg: TrainConfig
          ) -> tuple[dict[str, np.ndarray], list[float]]:
    """Minimize mean InfoNCE over groups from ``init_params(cfg)``;
    deterministic in fixed order.

    Returns the trained parameters and the per-epoch mean step loss.
    """
    if not groups:
        raise ValueError("no training groups")
    params = init_params(cfg)
    opt = AdamW(params, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    curve: list[float] = []
    for _ in range(train_cfg.epochs):
        step_losses = []
        for start in range(0, len(groups), train_cfg.batch):
            batch = groups[start : start + train_cfg.batch]
            grads = zerolike_params(params)
            loss = step_loss_and_grads([group_texts(group, corpus) for group in batch],
                                       params, cfg, train_cfg.temperature, grads) / len(batch)
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss at group {batch[0].anchor_id}")
            for g in grads.values():
                g /= len(batch)
            opt.step(params, grads)
            step_losses.append(loss)
        curve.append(float(np.mean(step_losses)))
    return params, curve


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def save_params(path: str | Path, params: dict[str, np.ndarray], cfg: EncoderConfig) -> None:
    """Versioned file: one JSON header line, then raw float64 arrays in order."""
    shapes = param_shapes(cfg)
    header = {
        "format_version": FORMAT_VERSION,
        "config": cfg.to_dict(),
        "arrays": [{"name": name, "shape": list(shape)} for name, shape in shapes],
    }
    write_header_blob(path, header, [(name, params[name], shape) for name, shape in shapes])


def load_params(path: str | Path) -> tuple[dict[str, np.ndarray], EncoderConfig]:
    (config, arrays), blob = read_header_blob(path, FORMAT_VERSION,
                                              {"config": dict, "arrays": list})
    fields(f"{path}: config", config, get_type_hints(EncoderConfig))
    try:
        cfg = EncoderConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad encoder config ({exc})") from exc
    shapes = param_shapes(cfg)
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    if (arrays != [{"name": name, "shape": list(shape)} for name, shape in shapes]
            or len(blob) != 8 * sum(sizes)):
        raise ValueError(f"{path}: arrays do not match its encoder config ({len(blob)} bytes)")
    params, offset = {}, 0
    for (name, shape), size in zip(shapes, sizes):
        params[name] = np.frombuffer(blob, np.float64, size, offset).reshape(shape)
        offset += 8 * size
    return params, cfg


def params_fingerprint(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()
