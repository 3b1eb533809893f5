"""Contrastive group mining: structural positives and hard negatives.

For each anchor, the LSH pool supplies semantically close candidates;
the most structurally similar becomes the positive, the least similar
become hard negatives, and random negatives are drawn from outside the
pool.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bucketing import LshIndex
from .corpus import Corpus
from .ted import sim_struct


class UnknownId(ValueError):
    pass


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


def mine_group(anchor_id: str, pool: set[str], corpus: Corpus,
               config: MiningConfig) -> ContrastiveGroup | None:
    """Build one contrastive group, or None when the pool is empty.

    Positive: pool argmax of structural similarity (ties to the smallest
    corpus index). Hard negatives: the lowest-similarity pool members,
    positive excluded. Random negatives: seeded uniform draws from the
    rest of the corpus; shortage is flagged, not fatal.
    """
    if anchor_id not in corpus:
        raise UnknownId(anchor_id)
    for pid in pool:
        if pid not in corpus:
            raise UnknownId(pid)
    if not pool:
        return None

    anchor_tree = corpus.tree(anchor_id, config.anonymize)
    ranked = sorted(
        ((sim_struct(anchor_tree, corpus.tree(pid, config.anonymize)), corpus.index_of[pid], pid)
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
    rng = _anchor_rng(config.seed, anchor_id)
    take = min(config.n_rand, len(outside))
    rand = [outside[i] for i in sorted(rng.choice(len(outside), size=take, replace=False))] \
        if take else []
    if take < config.n_rand:
        flags.append("short_random_negatives")

    return ContrastiveGroup(anchor_id, positive_id, hard, rand, positive_sim, flags)


def mine_all(corpus: Corpus, index: LshIndex,
             config: MiningConfig) -> tuple[list[ContrastiveGroup], MiningReport]:
    """One group per anchor with a non-empty pool, plus summary counts."""
    if set(index.signatures) != set(corpus.index_of):
        raise IndexCorpusMismatch("index ids do not match corpus ids")
    groups: list[ContrastiveGroup] = []
    pool_sizes: list[int] = []
    skipped = 0
    for rec in corpus:
        pool = index.query(index.signatures[rec.id], exclude=rec.id)
        pool_sizes.append(len(pool))
        group = mine_group(rec.id, pool, corpus, config)
        if group is None:
            skipped += 1
        else:
            groups.append(group)
    report = MiningReport(
        anchors=len(corpus),
        skipped_empty_pool=skipped,
        mean_pool_size=float(np.mean(pool_sizes)) if pool_sizes else 0.0,
        mean_positive_sim=float(np.mean([g.positive_sim for g in groups])) if groups else 0.0,
    )
    return groups, report


def save_groups(groups: list[ContrastiveGroup], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in groups:
            fh.write(json.dumps({
                "anchor": g.anchor_id,
                "positive": g.positive_id,
                "hard_negatives": g.hard_negative_ids,
                "random_negatives": g.random_negative_ids,
                "positive_sim": g.positive_sim,
                "flags": g.flags,
            }, sort_keys=True) + "\n")


def load_groups(path: str | Path) -> list[ContrastiveGroup]:
    groups = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                groups.append(ContrastiveGroup(
                    obj["anchor"], obj["positive"], list(obj["hard_negatives"]),
                    list(obj["random_negatives"]), float(obj["positive_sim"]),
                    list(obj.get("flags", []))))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad group record ({exc})") from exc
    return groups
