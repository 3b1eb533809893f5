"""Contrastive group mining: structural positives and hard negatives.

For each anchor, the LSH pool supplies semantically close candidates;
the most structurally similar becomes the positive, the least similar
become hard negatives, and random negatives are drawn from outside the
pool.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import fields, read_jsonl, write_jsonl
from .bucketing import LshIndex
from .corpus import Corpus

logger = logging.getLogger(__name__)


class IndexCorpusMismatch(ValueError):
    pass


@dataclass
class MiningConfig:
    n_hard: int = 3
    n_rand: int = 2
    seed: int = 0
    anonymize: bool = False

    def __post_init__(self) -> None:
        for name in ("n_hard", "n_rand"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class ContrastiveGroup:
    anchor_id: str
    positive_id: str
    hard_negative_ids: list[str]
    random_negative_ids: list[str]
    positive_sim: float
    flags: list[str] = field(default_factory=list)

    def negative_ids(self) -> list[str]:
        return self.hard_negative_ids + self.random_negative_ids


@dataclass
class MiningReport:
    anchors: int = 0
    skipped_empty_pool: int = 0
    mean_pool_size: float = 0.0
    mean_positive_sim: float = 0.0


def _anchor_rng(seed: int, anchor_id: str) -> np.random.Generator:
    # Per-anchor stream keyed by (seed, id) so mining order never matters.
    digest = hashlib.blake2b(f"{seed}:{anchor_id}".encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


class Pool:
    """An LSH union, which holds the anchors it was queried for: ascending
    corpus positions, and a memo of their similarities per anchor tree id."""

    def __init__(self, corpus: Corpus, ids: set[str]):
        try:
            self.positions = np.fromiter(map(corpus.index_of.__getitem__, ids),
                                         dtype=np.intp, count=len(ids))
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        self.positions.sort()
        self.scored: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}


def mine_group(anchor_id: str, pool: Pool, corpus: Corpus,
               config: MiningConfig) -> ContrastiveGroup | None:
    """One group from a pool holding the anchor (else a ValueError), or None
    when it holds no other record. Positive: the candidates' argmax of
    structural similarity (ties to the smallest corpus index). Hard negatives:
    the lowest-similarity candidates, positive excluded. Random negatives:
    seeded uniform draws from the rest of the corpus, shortage flagged.

    The corpus's table is asked once per distinct pool tree, anchor first,
    and the sims, their stable order and first maximum are kept in
    ``pool.scored`` for every anchor with the same tree; the anchor's own
    position gets -inf when no other candidate has its tree. The table
    keeps every pair under one unordered key (exact: unit-cost TED is
    symmetric to the bit) and shares one TED among the pairs with one label
    pattern (see ``Corpus``), so across ``mine_all`` each distinct label
    pattern costs one TED. Random negatives draw
    ``rng.choice(n_outside, take)`` ranks among the records outside the
    pool, in corpus order. The rank-r outside record sits at r plus the
    number of pool positions e_i with e_i - i <= r, which a
    ``searchsorted`` finds, so an anchor costs O(pool log pool), not O(N).
    """
    positions = pool.positions
    anchor_pos = corpus.index_of.get(anchor_id, -1)
    own = int(np.searchsorted(positions, anchor_pos))
    if own == len(positions) or positions[own] != anchor_pos:
        raise ValueError(anchor_id)
    if len(positions) == 1:
        return None
    records = corpus.records

    anchor = int(corpus.tree_ids()[anchor_pos])
    if anchor not in pool.scored:
        tids = corpus.tree_ids()[positions].tolist()
        sim_of = {tid: corpus.sim(anchor, tid) for tid in dict.fromkeys(tids)
                  if tid != anchor or tids.count(tid) > 1}
        sim_of.setdefault(anchor, -np.inf)
        sims = np.fromiter(map(sim_of.__getitem__, tids), dtype=np.float64, count=len(tids))
        # Positions ascend, so argmax's first maximum breaks ties to the
        # smallest index, and a stable sort by sim orders by (sim, index).
        pool.scored[anchor] = (sims, np.argsort(sims, kind="stable"), int(np.argmax(sims)))
    sims, ascending, best = pool.scored[anchor]
    if best == own:  # another candidate has the anchor's tree: the next maximum
        best = own + 1 + int(np.argmax(sims[own + 1:]))
    positive_id = records[positions[best]].id

    flags: list[str] = []
    hard = [records[positions[i]].id for i in ascending[: config.n_hard + 2].tolist()
            if i != best and i != own][: config.n_hard]
    if len(hard) < config.n_hard:
        flags.append("short_hard_negatives")

    n_outside = len(corpus) - len(positions)
    rng = _anchor_rng(config.seed, anchor_id)
    take = min(config.n_rand, n_outside)
    rand: list[str] = []
    if take:
        ranks = np.sort(rng.choice(n_outside, size=take, replace=False))
        shifted = positions - np.arange(len(positions))
        rand = [records[pos].id for pos in
                (ranks + np.searchsorted(shifted, ranks, side="right")).tolist()]
    if take < config.n_rand:
        flags.append("short_random_negatives")

    return ContrastiveGroup(anchor_id, positive_id, hard, rand, float(sims[best]), flags)


def mine_all(corpus: Corpus, index: LshIndex,
             config: MiningConfig) -> tuple[list[ContrastiveGroup], MiningReport]:
    """One group per anchor with a non-empty pool, in corpus order, plus
    summary counts; ``config.anonymize`` must be the corpus's. Each LSH
    union is queried and turned into a ``Pool`` once, mined for every
    anchor sharing its signature, and dropped."""
    if config.anonymize != corpus.anonymize:
        raise ValueError(f"mining anonymize={config.anonymize} differs from the corpus's "
                         f"anonymize={corpus.anonymize}")
    if set(index.signatures) != set(corpus.index_of):
        raise IndexCorpusMismatch("index ids do not match corpus ids")
    slots: list[ContrastiveGroup | None] = [None] * len(corpus)
    pool_sizes = np.zeros(len(corpus), dtype=np.intp)
    unions = scored = 0
    for ids, union in index.pools():
        pool = Pool(corpus, union)
        for rid in ids:
            pos = corpus.index_of[rid]
            pool_sizes[pos] = len(union) - 1
            slots[pos] = mine_group(rid, pool, corpus, config)
        unions += 1
        scored += len(pool.scored)
        del pool, union
    groups = [g for g in slots if g is not None]
    logger.info("scored %d (signature, anchor tree) pools over %d LSH unions", scored, unions)
    report = MiningReport(
        anchors=len(corpus),
        skipped_empty_pool=len(corpus) - len(groups),
        mean_pool_size=float(np.mean(pool_sizes)) if len(corpus) else 0.0,
        mean_positive_sim=float(np.mean([g.positive_sim for g in groups])) if groups else 0.0,
    )
    return groups, report


def save_groups(groups: list[ContrastiveGroup], path: str | Path) -> None:
    write_jsonl(path, ({"anchor": g.anchor_id, "positive": g.positive_id,
                        "hard_negatives": g.hard_negative_ids,
                        "random_negatives": g.random_negative_ids,
                        "positive_sim": g.positive_sim, "flags": g.flags} for g in groups))


def load_groups(path: str | Path) -> list[ContrastiveGroup]:
    """Read ``save_groups`` output; a malformed line is a ValueError naming
    ``path:line``. ``flags`` may be absent."""
    groups = []
    for where, obj in read_jsonl(path):
        anchor, positive, hard, rand, sim = fields(where, obj, {
            "anchor": str, "positive": str, "hard_negatives": list[str],
            "random_negatives": list[str], "positive_sim": float})
        (flags,) = fields(where, {"flags": [], **obj}, {"flags": list[str]})
        groups.append(ContrastiveGroup(anchor, positive, hard, rand, float(sim), flags))
    return groups
