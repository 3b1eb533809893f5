"""Ordered tree edit distance (Zhang–Shasha) and normalized similarity."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

from .trees import ParseTree

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EditCosts:
    """Per-operation costs; relabeling identical labels is always free."""

    insert: float = 1.0
    delete: float = 1.0
    relabel: float = 1.0

    def __post_init__(self) -> None:
        if min(self.insert, self.delete, self.relabel) < 0:
            raise ValueError("edit costs must be non-negative")


UNIT_COSTS = EditCosts()


@lru_cache(maxsize=4096)
def _decompose(tree: ParseTree) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
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


def ted(a: ParseTree, b: ParseTree, costs: EditCosts = UNIT_COSTS) -> float:
    """Minimum-cost node insert/delete/relabel script turning ``a`` into ``b``.

    Zhang–Shasha keyroot / leftmost-leaf decomposition over the ordered
    tree edit model. Symmetric whenever insert == delete.
    """
    labels_a, lml_a, kr_a = _decompose(a)
    labels_b, lml_b, kr_b = _decompose(b)
    n_a, n_b = len(labels_a) - 1, len(labels_b) - 1

    symbols: dict[str, int] = {}
    la = [symbols.setdefault(s, len(symbols)) for s in labels_a]
    lb = [symbols.setdefault(s, len(symbols)) for s in labels_b]

    delc, insc, relc = costs.delete, costs.insert, costs.relabel
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


def sim_struct_raw(a: ParseTree, b: ParseTree) -> float:
    """1 - TED/max(size); may dip below 0 for structurally disjoint trees."""
    return 1.0 - ted(a, b) / max(a.size, b.size)


def sim_struct(a: ParseTree, b: ParseTree) -> float:
    """Normalized structural similarity in [0, 1] under unit costs.

    The raw ratio can be negative when the edit cost exceeds the larger
    tree size (deep chain vs. flat star, say); such values are clamped
    to 0 and logged.
    """
    raw = sim_struct_raw(a, b)
    if raw < 0.0:
        logger.debug("sim_struct clamped %.4f -> 0.0", raw)
        return 0.0
    return min(raw, 1.0)
