"""Line-delimited parse corpora: {"id", "utterance", "parse"} per line."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import trees
from .artifacts import fields, read_jsonl, write_jsonl
from .ted import form, sim_struct
from .trees import ParseDialect, ParseTree


@dataclass(frozen=True)
class Record:
    id: str
    utterance: str
    parse: str


class Corpus:
    """Ordered record collection with cached parse trees and one
    structural-similarity table.

    Records with equal parse strings share one tree. ``anonymize`` is the
    one comparison rule: when set, every tree the table compares, its own
    and outside ones such as gold parses, has its non-structural leaves
    relabeled (``trees.anonymize_leaves``). The table gives every distinct
    compared tree (equal under ``ParseTree.__eq__``) an integer id. ``sim``
    memoizes ``sim_struct`` per unordered id pair, and behind that per
    label pattern, for the life of the corpus, holding only what was
    compared. The unordered key is exact: ``ted`` sums integer unit costs,
    so ``ted(a, b)`` and ``ted(b, a)`` are the same float, and
    ``max(size)`` is symmetric. The pattern key is exact too: a unit-cost
    TED reads only the two ordered shapes and which labels are equal
    (``ted.form``), and the sizes follow from the shapes.
    """

    def __init__(self, records: list[Record], dialect: ParseDialect, anonymize: bool = False):
        self.records = list(records)
        self.dialect = ParseDialect(dialect)
        self.anonymize = anonymize
        self.index_of: dict[str, int] = {}
        for i, rec in enumerate(self.records):
            if rec.id in self.index_of:
                raise ValueError(f"duplicate record id {rec.id!r}")
            self.index_of[rec.id] = i
        self._tree_cache: dict[str, ParseTree] = {}
        self._tree_ids: np.ndarray | None = None
        self._interned: dict[ParseTree, int] = {}
        self._trees: list[ParseTree] = []
        self._sims: dict[int, float] = {}
        # Per tree id: its form id and its labels' first-occurrence ids.
        self._forms: list[tuple[int, dict[str, str]]] = []
        self._form_ids: dict[tuple[tuple[int, ...], str], int] = {}
        self._patterns: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self.index_of

    def get(self, record_id: str) -> Record:
        return self.records[self.index_of[record_id]]

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    def tree(self, record_id: str) -> ParseTree:
        """The record's tree as the table compares it, parsed once per parse string."""
        parse = self.get(record_id).parse
        cached = self._tree_cache.get(parse)
        if cached is None:
            try:
                cached = self._tree_cache[parse] = self._compared(trees.parse(parse, self.dialect))
            except trees.ParseError as exc:
                exc.args = (f"record {record_id!r}: {exc}",)
                raise
        return cached

    def _compared(self, tree: ParseTree) -> ParseTree:
        return trees.anonymize_leaves(tree) if self.anonymize else tree

    def intern(self, tree: ParseTree) -> int:
        """The table id of ``tree`` as the table compares it; equal trees share one id."""
        return self._intern(self._compared(tree))

    def _intern(self, tree: ParseTree) -> int:
        tid = self._interned.get(tree)
        if tid is None:
            tid = self._interned[tree] = len(self._trees)
            self._trees.append(tree)
            lml, labels, ids = form(tree)
            self._forms.append((self._form_ids.setdefault((lml, labels), len(self._form_ids)),
                                ids))
        return tid

    def tree_ids(self) -> np.ndarray:
        """Each record's ``tree`` table id, in corpus order: one read-only array."""
        if self._tree_ids is None:
            self._tree_ids = np.fromiter((self._intern(self.tree(rec.id)) for rec in self.records),
                                         dtype=np.intp, count=len(self.records))
            self._tree_ids.flags.writeable = False
        return self._tree_ids

    def sim(self, a: int, b: int) -> float:
        """``sim_struct`` of the trees with ids ``a`` and ``b``, memoized.

        A miss in the id-pair table looks up the pair's label pattern: the
        form ids of the lower-id tree and of the other, and for each
        distinct label of the other, in first-occurrence order, its id in
        the lower-id tree or "\\0" when absent. Pairs with one pattern
        differ only by label names, so one ``sim_struct(tree a, tree b)``,
        in the order first asked, serves them all.
        """
        key = a << 32 | b if a <= b else b << 32 | a  # one int per pair: smaller than a tuple
        value = self._sims.get(key)
        if value is None:
            (form_lo, ids_lo), (form_hi, ids_hi) = (
                (self._forms[a], self._forms[b]) if a <= b else (self._forms[b], self._forms[a]))
            # One str per pattern: smaller than a tuple; the two numbers delimit themselves.
            pattern = f"{form_lo} {form_hi} " + "".join([ids_lo.get(lab, "\0") for lab in ids_hi])
            value = self._patterns.get(pattern)
            if value is None:
                value = self._patterns[pattern] = sim_struct(self._trees[a], self._trees[b])
            self._sims[key] = value
        return value


def load_corpus(path: str | Path, dialect: ParseDialect | str, anonymize: bool = False) -> Corpus:
    """Read one JSON object per line; errors name the offending line, or the
    file for a repeated id. An integer id is read as its decimal string."""
    records = [Record(str(rid), utterance, parse) for rid, utterance, parse in (
        fields(where, obj, {"id": str | int, "utterance": str, "parse": str})
        for where, obj in read_jsonl(path))]
    dialect = ParseDialect(dialect)
    try:
        return Corpus(records, dialect, anonymize)
    except ValueError as exc:  # a repeated id: the records and dialect are already checked
        raise ValueError(f"{path}: {exc}") from None


def save_corpus(records: list[Record], path: str | Path) -> None:
    write_jsonl(path, ({"id": rec.id, "utterance": rec.utterance, "parse": rec.parse}
                       for rec in records))
