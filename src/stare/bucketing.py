"""Discrete parse features, MinHash sketches, and a banded LSH index.

The index serves high-recall candidate pools: two parses whose feature
sets have Jaccard similarity above the configured threshold are very
likely to collide in at least one band. The index persists as JSON with
one record per distinct signature, its bytes as one base64 string, so stock
``json`` reads it without a Python int per signature value.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator

import numpy as np

from . import trees
from .artifacts import atomic_write, check_built, fields, fits, read_json
from .trees import ParseDialect

DEFAULT_NUM_HASHES = 128
DEFAULT_TAU = 0.5

_U64 = np.uint64
_DIGITS = re.compile(r"\d+")

# Skeleton labels that are not keywords, identifiers, or function names.
_SQL_NON_FEATURES = {"SELECT_STMT", trees.NUM_PLACEHOLDER, trees.STR_PLACEHOLDER}
_SQL_OPERATOR = re.compile(r"^[=<>!]+$")


def _norm_terminal(token: str) -> str:
    return _DIGITS.sub("<d>", token.lower())


def extract_features(parse: str, dialect: ParseDialect | str) -> frozenset[str]:
    """Feature set of a parse: structural labels plus normalized terminals.

    Bracketed/S-expression: every bracket/head label verbatim, plus each
    terminal token lowercased with digit runs replaced by "<d>". SQL:
    uppercased keywords present, lowercased identifiers, and function
    names; literals are dropped.
    """
    dialect = ParseDialect(dialect)
    tree = trees.parse(parse, dialect)  # validates; parser errors propagate
    if dialect is ParseDialect.SQL_SKELETON:
        return frozenset(node.label for node in tree.postorder()
                         if node.label not in _SQL_NON_FEATURES
                         and not _SQL_OPERATOR.match(node.label))
    lex = trees.lex_bracketed if dialect is ParseDialect.BRACKETED else trees.lex_sexpr
    feats: set[str] = set()
    prev = None
    for kind, value, _ in lex(parse):
        if kind == "atom":
            feats.add(value if prev == "open" else _norm_terminal(value))
        elif kind == "string":
            feats.update(_norm_terminal(w) for w in value.split())
        prev = kind
    return frozenset(feats)


def _feature_hash(feature: str) -> int:
    return int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "big")


@lru_cache(maxsize=8)
def _hash_family(num_hashes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiply-add parameters (a odd, b) derived deterministically from seed.

    Computed once per (num_hashes, seed); the arrays are shared, so read-only.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**64, size=num_hashes, dtype=_U64) | _U64(1)
    b = rng.integers(0, 2**64, size=num_hashes, dtype=_U64)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def minhash(features: frozenset[str] | set[str], num_hashes: int = DEFAULT_NUM_HASHES,
            seed: int = 0) -> np.ndarray:
    """MinHash signature: per-permutation minima over the feature set.

    Position i holds min over features f of (a_i * h(f) + b_i) mod 2^64,
    a pairwise-independent multiply-add family seeded by (seed, i).
    """
    if not features:
        raise ValueError("cannot sketch an empty feature set")
    if num_hashes < 1:
        raise ValueError("num_hashes must be >= 1")
    a, b = _hash_family(num_hashes, seed)
    base = np.fromiter((_feature_hash(f) for f in sorted(features)), dtype=_U64)
    hashed = a[:, None] * base[None, :] + b[:, None]  # uint64 wraparound intended
    return hashed.min(axis=1)


def lsh_params(tau: float, num_hashes: int) -> tuple[int, int]:
    """Band geometry (b, r) with b*r == num_hashes nearest the threshold.

    Minimizes |(1/b)^(1/r) - tau| over exact factorizations, b ascending
    (divisors found up to sqrt(P)); ties break toward larger r (fewer false
    positives). The trivial splits qualify, so every num_hashes >= 2 has one.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    if num_hashes < 2:
        raise ValueError("num_hashes must be >= 2")
    best: tuple[float, int, int] | None = None
    low = [b for b in range(1, math.isqrt(num_hashes) + 1) if num_hashes % b == 0]
    for b in low + [num_hashes // b for b in reversed(low) if b * b != num_hashes]:
        r = num_hashes // b
        err = abs((1.0 / b) ** (1.0 / r) - tau)
        if best is None or err < best[0] - 1e-15 or (abs(err - best[0]) <= 1e-15 and r > best[2]):
            best = (err, b, r)
    return best[1], best[2]


@dataclass
class LshIndex:
    """Banded MinHash index; ids collide when any band's values are equal.

    ``groups`` maps each distinct signature's bytes to its ids, ``signatures`` each id to a
    read-only view of them, and each band dict (made at first insert) a band's bytes to groups.
    """

    num_hashes: int = DEFAULT_NUM_HASHES
    tau: float = DEFAULT_TAU
    seed: int = 0
    bands: int = field(init=False)
    rows: int = field(init=False)
    groups: dict[bytes, list[str]] = field(init=False, repr=False)
    buckets: list[dict[bytes, list[bytes]]] = field(init=False, repr=False)
    signatures: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.bands, self.rows = lsh_params(self.tau, self.num_hashes)
        self.groups, self.buckets, self.signatures = {}, [], {}

    def __len__(self) -> int:
        return len(self.signatures)

    def _key(self, sig: np.ndarray) -> bytes:
        if sig.shape != (self.num_hashes,):
            raise ValueError(
                f"signature length {sig.shape} does not match index P={self.num_hashes}")
        return sig.astype("<u8", copy=False).tobytes()

    def _band_keys(self, raw: bytes) -> list[bytes]:
        width = len(raw) // self.bands
        return [raw[start : start + width] for start in range(0, len(raw), width)]

    def _add(self, ids: list[str], raw: bytes) -> None:
        """File distinct ``ids`` under the signature of little-endian bytes
        ``raw``; only a signature not seen before is banded."""
        for rid in ids:
            if rid in self.signatures:
                raise ValueError(f"duplicate id {rid!r}")
        group = self.groups.setdefault(raw, [])
        view = self.signatures[group[0]] if group else np.frombuffer(raw, "<u8")
        if not group:
            self.buckets = self.buckets or [{} for _ in range(self.bands)]
            for bucket, key in zip(self.buckets, self._band_keys(raw)):
                if key in bucket:
                    bucket[key].append(raw)
                else:  # an exact-size list: setdefault(key, []).append over-allocates
                    bucket[key] = [raw]
        group.extend(ids)
        self.signatures.update(dict.fromkeys(ids, view))

    def insert(self, record_id: str, sig: np.ndarray) -> None:
        self._add([record_id], self._key(sig))

    def query(self, sig: np.ndarray) -> set[str]:
        """Ids of every signature colliding with ``sig`` in at least one band."""
        hits = {raw for bucket, key in zip(self.buckets, self._band_keys(self._key(sig)))
                for raw in bucket.get(key, ())}
        return {rid for raw in hits for rid in self.groups[raw]}

    def pools(self) -> Iterator[tuple[list[str], set[str]]]:
        """For each distinct signature, in first-insertion order: the ids that
        share it and its one ``query`` union. Those ids collide in every
        band, so each id's pool is the union minus the id."""
        for ids in self.groups.values():
            yield ids, self.query(self.signatures[ids[0]])

    # -- persistence --------------------------------------------------------

    FORMAT_VERSION = 4

    def save(self, path: str | Path) -> None:
        """Write the bytes of ``json.dumps(payload, sort_keys=True)``, one record at a
        time, so no string of the whole file is built. A record is a distinct signature,
        in first-insertion order: ``[[id, ...], base64 of its P little-endian uint64s]``."""
        header = {"format_version": self.FORMAT_VERSION, "P": self.num_hashes,
                  "tau": self.tau, "seed": self.seed, "records": None}
        with atomic_write(path) as fh:
            for n, key in enumerate(sorted(header)):
                fh.write(("{" if n == 0 else ", ") + json.dumps(key) + ": ")
                if key != "records":
                    fh.write(json.dumps(header[key]))
                    continue
                fh.write("[")
                for i, (raw, ids) in enumerate(self.groups.items()):
                    text = base64.b64encode(raw).decode("ascii")
                    fh.write((", " if i else "") + json.dumps([ids, text]))
                fh.write("]")
            fh.write("}")

    @classmethod
    def load(cls, path: str | Path, settings: dict) -> "LshIndex":
        """Read ``save`` output with one ``read_json`` call, refuse a header of other
        ``settings`` before a band is made, then decode and drop one record at a
        time; anything malformed is a ValueError naming ``path``."""
        payload = read_json(path, cls.FORMAT_VERSION)
        num_hashes, tau, seed, records = fields(f"{path}: LSH index", payload, {
            "P": int, "tau": float, "seed": int, "records": list})
        check_built(path, "bucketing", {"num_hashes": num_hashes, "tau": tau, "seed": seed},
                    settings, "bucket")
        index = cls(**settings)
        width = 8 * index.num_hashes
        for n, record in enumerate(records):
            if not (fits(record, list) and len(record) == 2 and fits(record[0], set[str])
                    and record[0] and fits(record[1], str)):
                raise ValueError(f"{path}: record {n} is not [[id, ...], base64 signature]: "
                                 f"{json.dumps(record)[:80]}")
            ids = record[0]
            try:
                raw = base64.b64decode(record[1], validate=True)
            except ValueError:  # binascii.Error, or a non-ASCII string
                raise ValueError(f"{path}: record {n} ({ids[0]!r}): signature is not "
                                 "base64") from None
            if len(raw) != width:
                raise ValueError(f"{path}: record {n} ({ids[0]!r}): signature "
                                 f"has {len(raw)} bytes, not 8 * P = {width}")
            records[n] = None
            try:
                index._add(ids, raw)
            except ValueError as exc:  # a repeated id: the width is checked above
                raise ValueError(f"{path}: record {n}: {exc}") from None
        return index
