"""Independent oracles used only by the test suite."""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache

import numpy as np

from stare import encoder as enc
from stare import mining, mli, retrieval
from stare.bucketing import LshIndex
from stare.encoder import InjectionDirection
from stare.ted import sim_struct
from stare.trees import ParseTree


def jacobi_svd_top_right(matrix: np.ndarray, sweeps: int = 40,
                         tol: float = 1e-12) -> np.ndarray:
    """Top right singular vector via cyclic Jacobi rotations.

    Diagonalizes the Gram matrix A'A with accumulated plane rotations
    (the classical Jacobi eigenvalue scheme); right singular vectors of
    A are the eigenvectors of A'A, so the V column with the largest
    diagonal entry is the top right singular vector. Entirely
    independent of power iteration.
    """
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[1]
    g = a.T @ a
    v = np.eye(n)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise ValueError("zero matrix has no singular direction")
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            gp = g[p]
            for q in range(p + 1, n):
                gpq = gp[q]
                if abs(gpq) <= tol * norm:
                    continue
                rotated = True
                zeta = (g[q, q] - g[p, p]) / (2.0 * gpq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rp = c * g[p] - s * g[q]
                rq = s * g[p] + c * g[q]
                g[p], g[q] = rp, rq
                cp = c * g[:, p] - s * g[:, q]
                cq = s * g[:, p] + c * g[:, q]
                g[:, p], g[:, q] = cp, cq
                vp = c * v[:, p] - s * v[:, q]
                vq = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
                gp = g[p]
        if not rotated:
            break
    top = v[:, int(np.argmax(np.diag(g)))]
    return top / np.linalg.norm(top)


class TooLarge(ValueError):
    pass


_BRUTE_MAX = 4


@lru_cache(maxsize=4096)
def _relations(tree: ParseTree) -> tuple[tuple[str, ...], tuple[tuple[bool, ...], ...],
                                         tuple[tuple[bool, ...], ...]]:
    """Postorder labels plus ancestor and strictly-left-of boolean tables."""
    labels: list[str] = []
    desc: list[set[int]] = []

    def visit(node: ParseTree) -> set[int]:
        below: set[int] = set()
        for child in node.children:
            below |= visit(child)
        idx = len(labels)
        labels.append(node.label)
        desc.append(set(below))
        below.add(idx)
        return below

    visit(tree)
    n = len(labels)
    anc = [[j in desc[i] for j in range(n)] for i in range(n)]
    left = [[i < j and not anc[j][i] and not anc[i][j] for j in range(n)]
            for i in range(n)]
    return tuple(labels), tuple(tuple(r) for r in anc), tuple(tuple(r) for r in left)


def ted_bruteforce(a: ParseTree, b: ParseTree) -> float:
    """Exact unit-cost edit distance by enumerating every valid ordered-tree
    mapping.

    A mapping is valid when it is one-to-one and preserves both the
    ancestor relation and left-to-right order; its cost is one per mapped
    pair with differing labels plus one per unmapped node.
    Only feasible for tiny trees (TooLarge above 4 nodes); serves as the
    independent oracle for ted().
    """
    if a.size > _BRUTE_MAX or b.size > _BRUTE_MAX:
        raise TooLarge(f"brute-force oracle limited to {_BRUTE_MAX} nodes")
    lab_a, anc_a, left_a = _relations(a)
    lab_b, anc_b, left_b = _relations(b)
    n_a, n_b = len(lab_a), len(lab_b)
    best = float(n_a + n_b)

    def search(i: int, used_b: int, pairs: list[tuple[int, int]], cost: float) -> None:
        nonlocal best
        if cost >= best:
            return
        if i == n_a:
            total = cost + (n_b - len(pairs))
            if total < best:
                best = total
            return
        search(i + 1, used_b, pairs, cost + 1.0)
        anc_ai = anc_a[i]
        left_ai = left_a[i]
        for j in range(n_b):
            if used_b & (1 << j):
                continue
            ok = True
            for i1, j1 in pairs:
                if (anc_a[i1][i] != anc_b[j1][j] or anc_ai[i1] != anc_b[j][j1]
                        or left_a[i1][i] != left_b[j1][j] or left_ai[i1] != left_b[j][j1]):
                    ok = False
                    break
            if not ok:
                continue
            rel = 0.0 if lab_a[i] == lab_b[j] else 1.0
            pairs.append((i, j))
            search(i + 1, used_b | (1 << j), pairs, cost + rel)
            pairs.pop()

    search(0, 0, [], 0.0)
    return best


def label_pattern(pair, order) -> tuple:
    """An unordered pair of trees (one tree for a self-pair) up to label names.

    The tree that sorts first by ``order`` comes first. Both are relabeled
    by one joint map, built over the first tree's labels and then the
    second's in preorder, each label to the index of its first
    occurrence. Two pairs share a pattern iff an injective renaming of
    labels turns one into the other, so a unit-cost TED is one per pattern.
    """
    a, b = sorted(pair, key=order) if len(set(pair)) == 2 else (next(iter(pair)),) * 2
    names: dict[str, int] = {}

    def relabel(node: ParseTree) -> tuple:
        idx = names.setdefault(node.label, len(names))
        return idx, tuple(relabel(c) for c in node.children)

    return relabel(a), relabel(b)


def mirror(tree: ParseTree) -> ParseTree:
    """``tree`` with every child list reversed."""
    return ParseTree(tree.label, tuple(mirror(c) for c in reversed(tree.children)))


def _left_path_decompose(tree: ParseTree) -> tuple[tuple[str, ...], tuple[int, ...],
                                                   tuple[int, ...]]:
    """Postorder labels, leftmost-leaf indices, and keyroots (all 1-based)."""
    labels: list[str] = [""]
    lml = [0]

    def visit(node: ParseTree) -> int:
        first = 0
        for child in node.children:
            idx = visit(child)
            if not first:
                first = idx
        labels.append(node.label)
        my = len(labels) - 1
        lml.append(first if first else my)
        return lml[my]

    visit(tree)
    n = len(labels) - 1
    seen: set[int] = set()
    keyroots = []
    for i in range(n, 0, -1):
        if lml[i] not in seen:
            keyroots.append(i)
            seen.add(lml[i])
    keyroots.reverse()
    return tuple(labels), tuple(lml), tuple(keyroots)


def ted_left_path(a: ParseTree, b: ParseTree) -> float:
    """Unit-cost Zhang–Shasha along the leftmost paths only.

    The reference for ``stare.ted.ted``, which runs a pair on the mirrored
    trees when that side is cheaper and keeps each tree's decomposition.
    """
    labels_a, lml_a, kr_a = _left_path_decompose(a)
    labels_b, lml_b, kr_b = _left_path_decompose(b)
    n_a, n_b = len(labels_a) - 1, len(labels_b) - 1

    symbols: dict[str, int] = {}
    la = [symbols.setdefault(s, len(symbols)) for s in labels_a]
    lb = [symbols.setdefault(s, len(symbols)) for s in labels_b]

    delc = insc = relc = 1.0
    td = [[0.0] * (n_b + 1) for _ in range(n_a + 1)]

    for i in kr_a:
        li = lml_a[i]
        rows = i - li + 1
        for j in kr_b:
            lj = lml_b[j]
            cols = j - lj + 1

            fd = [[0.0] * (cols + 1) for _ in range(rows + 1)]
            row0 = fd[0]
            for c in range(1, cols + 1):
                row0[c] = row0[c - 1] + insc
            for r in range(1, rows + 1):
                di = li + r - 1
                prev = fd[r - 1]
                cur = fd[r]
                cur[0] = prev[0] + delc
                ldi = lml_a[di]
                lab_di = la[di]
                td_di = td[di]
                if ldi == li:
                    for c in range(1, cols + 1):
                        dj = lj + c - 1
                        best = prev[c] + delc
                        t = cur[c - 1] + insc
                        if t < best:
                            best = t
                        if lml_b[dj] == lj:
                            t = prev[c - 1] + (relc if lab_di != lb[dj] else 0.0)
                            if t < best:
                                best = t
                            cur[c] = best
                            td_di[dj] = best
                        else:
                            t = fd[0][lml_b[dj] - lj] + td_di[dj]
                            if t < best:
                                best = t
                            cur[c] = best
                else:
                    fd_sub = fd[ldi - li]
                    for c in range(1, cols + 1):
                        dj = lj + c - 1
                        best = prev[c] + delc
                        t = cur[c - 1] + insc
                        if t < best:
                            best = t
                        t = fd_sub[lml_b[dj] - lj] + td_di[dj]
                        if t < best:
                            best = t
                        cur[c] = best

    return td[n_a][n_b]


def all_trees(max_nodes: int, alphabet: tuple[str, ...]) -> list[ParseTree]:
    """Every labeled ordered tree with 1..max_nodes nodes over the alphabet."""

    def compositions(total: int) -> list[tuple[int, ...]]:
        if total == 0:
            return [()]
        out = []
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                out.append((first,) + rest)
        return out

    def shapes(n: int) -> list[tuple]:
        if n == 1:
            return [()]
        out = []
        for split in compositions(n - 1):
            for combo in itertools.product(*(shapes(part) for part in split)):
                out.append(tuple(combo))
        return out

    def label_all(shape: tuple) -> list[ParseTree]:
        child_options = [label_all(c) for c in shape]
        out = []
        for lab in alphabet:
            for kids in itertools.product(*child_options):
                out.append(ParseTree(lab, kids))
        return out

    trees: list[ParseTree] = []
    for n in range(1, max_nodes + 1):
        for shape in shapes(n):
            trees.extend(label_all(shape))
    return trees


def reference_sweep(bank, params, cfg, label_corpora, grid, k,
                    probe_config=mli.ProbeConfig()) -> mli.SweepResult:
    """``mli.sweep`` by brute force: every cell rebuilds the retrieval index
    under its injection and ranks each bank record, leave-one-out, with
    ``topk``."""
    rows: list[mli.SweepRow] = []
    directions: dict = {}
    golds = retrieval.gold_ids(bank, bank)

    def score_cell(injection):
        index = retrieval.build_index(bank, params, cfg, injection)
        hits = [retrieval.topk(index, rec.utterance, k, params, cfg, injection=injection,
                               exclude=rec.id) for rec in bank]
        return retrieval.mean_sim_at_k(golds, hits, bank)

    baseline = score_cell(None)
    rows.append(mli.SweepRow(prop="", layer=0, lam=0.0, score=baseline))
    best, best_score = None, baseline
    for prop in grid.properties:
        corpus = label_corpora.get(prop)
        if corpus is None:
            rows.append(mli.SweepRow(prop=prop, layer=0, lam=0.0, score=float("nan"),
                                     error="no label corpus"))
            continue
        for layer in grid.layers:
            key = (prop, layer)
            try:
                if key not in directions:
                    X, y = mli.collect_states(corpus, params, cfg, [layer])
                    W, _ = mli.train_probe(X[layer], y, len(corpus.label_set), probe_config)
                    directions[key] = mli.extract_direction(W)
            except Exception as exc:
                rows.append(mli.SweepRow(prop=prop, layer=layer, lam=0.0,
                                         score=float("nan"), error=str(exc)))
                continue
            for lam in grid.lambdas:
                injection = InjectionDirection(u=directions[key], layer=layer,
                                               lam=float(lam), prop=prop)
                try:
                    score = baseline if lam == 0.0 else score_cell(injection)
                except Exception as exc:
                    rows.append(mli.SweepRow(prop=prop, layer=layer, lam=float(lam),
                                             score=float("nan"), error=str(exc)))
                    continue
                rows.append(mli.SweepRow(prop=prop, layer=layer, lam=float(lam), score=score))
                if score > best_score:
                    best, best_score = injection, score
    return mli.SweepResult(best=best, best_score=best_score, baseline_score=baseline,
                           rows=rows)


def reference_mine_group(anchor_id: str, pool: set[str], corpus,
                         config: mining.MiningConfig) -> mining.ContrastiveGroup | None:
    """``mining.mine_group`` by brute force: one ``sim_struct`` per pool
    member and random negatives indexed from the explicit outside list."""
    if anchor_id not in corpus:
        raise ValueError(anchor_id)
    for pid in pool:
        if pid not in corpus:
            raise ValueError(pid)
    if not pool:
        return None

    anchor_tree = corpus.tree(anchor_id)
    ranked = sorted(
        ((sim_struct(anchor_tree, corpus.tree(pid)), corpus.index_of[pid], pid)
         for pid in pool),
        key=lambda t: (-t[0], t[1]))
    positive_sim, _, positive_id = ranked[0]

    flags: list[str] = []
    ascending = [pid for _, _, pid in sorted(ranked[1:], key=lambda t: (t[0], t[1]))]
    hard = ascending[: config.n_hard]
    if len(hard) < config.n_hard:
        flags.append("short_hard_negatives")

    outside = [rec.id for rec in corpus
               if rec.id != anchor_id and rec.id not in pool]
    rng = mining._anchor_rng(config.seed, anchor_id)
    take = min(config.n_rand, len(outside))
    rand = [outside[i] for i in sorted(rng.choice(len(outside), size=take, replace=False))] \
        if take else []
    if take < config.n_rand:
        flags.append("short_random_negatives")

    return mining.ContrastiveGroup(anchor_id, positive_id, hard, rand, positive_sim, flags)


def reference_group_loss_and_grads(texts, params, cfg, temperature, grads) -> float:
    """``encoder.step_loss_and_grads`` for one group, one sequence at a time:
    each text, repeated or not, is its own batch of one, with its own
    ``backward_ids`` call."""
    runs = []
    embs = []
    for text in texts:
        ids = enc.tokenize(text, cfg)
        [(_, states, cache)] = enc.forward_batch([ids], params, cfg, with_cache=True)
        runs.append(cache)
        embs.append(states[-1][0].mean(axis=0))
    loss, d_anchor, d_others = enc._infonce_embedding_grads(embs[0], embs[1:], temperature)
    for cache, demb in zip(runs, [d_anchor] + d_others):
        tokens = cache["ids"].shape[1]
        enc.backward_ids(np.tile(demb / tokens, (1, tokens, 1)), cache, params, cfg, grads)
    return loss


def reference_probe_loss_and_grads(W, b, X, y, l2):
    """``mli.probe_loss_and_grads`` with a fresh array per step: logits,
    shifted logits, exponentials, softmax."""
    n = X.shape[0]
    logits = X @ W.T + b
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(p[np.arange(n), y] + 1e-300).mean() + l2 * np.sum(W * W))
    dz = p
    dz[np.arange(n), y] -= 1.0
    dz /= n
    dW = dz.T @ X + 2.0 * l2 * W
    db = dz.sum(axis=0)
    return loss, dW, db


def bm25_topk(bank, query: str, k: int) -> list[tuple[str, float]]:
    """BM25's top ``k`` over the whole bank: (id, score) best first."""
    return retrieval.Bm25(bank).topk(query, k)


def infonce_loss(anchor: np.ndarray, positive: np.ndarray, negatives: list[np.ndarray],
                 temperature: float) -> float:
    """Temperature-scaled contrastive loss over cosine similarities.

    -log( exp(cos(a,p)/T) / (exp(cos(a,p)/T) + sum_i exp(cos(a,n_i)/T)) ),
    evaluated with log-sum-exp stabilization. Zero with no negatives.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    na = enc._checked_norm(anchor, "anchor")
    sims = []
    for role, other in [("positive", positive)] + [("negative", n) for n in negatives]:
        no = enc._checked_norm(other, role)
        sims.append(float(anchor @ other) / (na * no))
    z = np.asarray(sims) / temperature
    m = z.max()
    return float(-z[0] + m + np.log(np.exp(z - m).sum()))


def mean_group_loss(groups, corpus, params: dict[str, np.ndarray], cfg: enc.EncoderConfig,
                    temperature: float) -> float:
    """Mean InfoNCE over groups at fixed parameters (no updates)."""
    total = 0.0
    for group in groups:
        embs = enc.embed_batch([enc.tokenize(text, cfg)
                                for text in enc.group_texts(group, corpus)], params, cfg)
        total += infonce_loss(embs[0], embs[1], embs[2:], temperature)
    return total / len(groups)


def exact_jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    """|a ∩ b| / |a ∪ b|, with 1.0 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def signature_agreement(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Fraction of matching positions; unbiased Jaccard estimate."""
    if sig_a.shape != sig_b.shape:
        raise ValueError(f"{sig_a.shape} vs {sig_b.shape}")
    return float(np.mean(sig_a == sig_b))


@lru_cache(maxsize=None)
def _divisors_by_trial(n: int) -> list[int]:
    return [b for b in range(1, n + 1) if n % b == 0]


def reference_lsh_params(tau: float, num_hashes: int) -> tuple[int, int]:
    """``bucketing.lsh_params`` by trying every b <= P in ascending order: O(P),
    once per P (the divisors are cached across taus)."""
    best: tuple[float, int, int] | None = None
    for b in _divisors_by_trial(num_hashes):
        r = num_hashes // b
        err = abs((1.0 / b) ** (1.0 / r) - tau)
        if best is None or err < best[0] - 1e-15 or (abs(err - best[0]) <= 1e-15 and r > best[2]):
            best = (err, b, r)
    return best[1], best[2]


def _band_digest(band: np.ndarray) -> int:
    return int.from_bytes(hashlib.blake2b(band.tobytes(), digest_size=8).digest(), "big")


def reference_lsh_query(index: LshIndex, sig: np.ndarray) -> set[str]:
    """``LshIndex.query`` with buckets keyed by one 64-bit blake2b digest per
    band, rebuilt from ``index.signatures`` in insertion order."""
    def digests(s: np.ndarray) -> list[int]:
        return [_band_digest(s[i * index.rows:(i + 1) * index.rows])
                for i in range(index.bands)]

    buckets: list[dict[int, list[str]]] = [{} for _ in range(index.bands)]
    for rid, s in index.signatures.items():
        for bucket, key in zip(buckets, digests(s)):
            bucket.setdefault(key, []).append(rid)
    return {rid for bucket, key in zip(buckets, digests(sig)) for rid in bucket.get(key, ())}
