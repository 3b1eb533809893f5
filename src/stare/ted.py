"""Unit-cost ordered tree edit distance (Zhang–Shasha) and normalized similarity.

Zhang–Shasha along the leftmost paths costs (Σ of a's keyroot subtree
sizes) × (the same sum for b) subproblems. Along the rightmost paths it is
the same algorithm on both trees mirrored, which maps ordered edit mappings
one to one, so ``ted`` runs each pair on the side with the smaller product
(left on a tie): the simplest case of RTED's path choice (Pawlik & Augsten
2011). Unit costs are integers, so both sides give the same float and
``ted(a, b) == ted(b, a)`` bit for bit. A tree's decomposition, both
sides with their column plans, is computed on first use and kept on the tree.

A keyroot pair whose subtrees both have three or more nodes runs the
forest-distance DP, one cell per pair of their nodes. A pair with a side
of one or two nodes is written in closed form (``_single``, ``_double``).
So a TED costs the DP cells of the keyroot pairs whose subtrees both have
three or more nodes plus, per one- or two-node keyroot, one pass over the
other tree.
"""

from __future__ import annotations

import logging
from operator import sub

from .trees import ParseTree

logger = logging.getLogger(__name__)

# One side of a tree's decomposition: postorder labels and leftmost-leaf
# indices (1-based, slot 0 unused), the column plan, the sum of the
# keyroots' subtree sizes, and the plan's offsets. The plan holds one
# (leftmost leaf lk, subtree size k, start) per keyroot, and the subtree's
# c-th node in postorder (c = 1..k) has offs[start + c] = lml[lk + c - 1] - lk.
_Side = tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[int, int, int], ...], int,
              tuple[int, ...]]


def _side(tree: ParseTree, mirrored: bool) -> _Side:
    labels: list[str] = [""]
    lml = [0]

    def visit(node: ParseTree) -> int:
        first = 0
        for child in reversed(node.children) if mirrored else node.children:
            idx = visit(child)
            if not first:
                first = idx
        labels.append(node.label)
        lml.append(first or len(labels) - 1)
        return lml[-1]

    visit(tree)
    # A keyroot is the highest node with its leftmost leaf.
    keyroots = sorted({leaf: i for i, leaf in enumerate(lml) if i}.values())
    plan, offs = [], [0]
    for k in keyroots:
        lk = lml[k]
        plan.append((lk, k - lk + 1, len(offs) - 1))
        offs.extend(lml[d] - lk for d in range(lk, k + 1))
    return tuple(labels), tuple(lml), tuple(plan), len(offs) - 1, tuple(offs)


def _decompose(tree: ParseTree) -> tuple[_Side, _Side]:
    """The left and the mirrored side of ``tree``, computed once per tree."""
    if tree._ted is None:
        tree._ted = (_side(tree, False), _side(tree, True))
    return tree._ted


def form(tree: ParseTree) -> tuple[tuple[int, ...], str, dict[str, str]]:
    """What a unit-cost ``ted`` reads of ``tree`` besides label names.

    Its postorder leftmost-leaf indices fix its ordered shape; its
    postorder labels, each written as the one-char id of its first
    occurrence (from "\\x01" on), fix which of its labels are equal. Also
    returns each label's id. ``ted(a, b)`` depends only on both forms and,
    for each label of ``b``, on the id of the equal label of ``a``, if any.
    """
    labels, lml = _decompose(tree)[0][:2]
    ids: dict[str, str] = {}
    for lab in labels[1:]:
        ids.setdefault(lab, chr(len(ids) + 1))
    return lml, "".join(map(ids.__getitem__, labels[1:])), ids


def _cheaper_sides(a: ParseTree, b: ParseTree) -> tuple[_Side, _Side]:
    """The sides ``ted`` runs on: mirrored only when strictly cheaper."""
    left_a, right_a = _decompose(a)
    left_b, right_b = _decompose(b)
    if right_a[3] * right_b[3] < left_a[3] * left_b[3]:
        return right_a, right_b
    return left_a, left_b


def _single(lab: str, labels: tuple[str, ...], lml: tuple[int, ...]) -> list[int]:
    """Distances from one node labelled ``lab`` to each subtree of a tree.

    A node against a tree T costs |T| − [lab occurs in T]: it maps onto one
    node of T, kept if the labels match, and the rest are inserted.
    """
    dist = list(map(sub, range(1, len(lml) + 1), lml))  # subtree sizes
    if lab in labels:
        last = 0  # the last postorder position of lab so far
        for d in range(labels.index(lab), len(labels)):
            if labels[d] == lab:
                last = d
            if last >= lml[d]:
                dist[d] -= 1
    return dist


def _double(top: str, leaf: str, labels: tuple[str, ...], lml: tuple[int, ...]) -> list:
    """Distances from a leaf labelled ``leaf``, and from a node labelled ``top``
    over it, to each subtree T of a tree. The pair maps both nodes, onto an
    ancestor and its descendant when |T| ≥ 2: 1 + [T's label is neither] if
    |T| = 1, else |T| − [T has a non-leaf labelled top or a non-root labelled
    leaf] − [T has a node labelled leaf below one labelled top]."""
    alone = list(map(sub, range(1, len(lml) + 1), lml))
    pair = alone[:]
    one = both = below = 0  # last positions labelled: top on a non-leaf, top above leaf, leaf
    for d in range(1, len(labels)):
        lo, lab = lml[d], labels[d]
        if lo == d:
            pair[d] += lab != top and lab != leaf
        else:
            if lab == top:
                one = d
                if below >= lo:
                    both = d
            pair[d] -= (one >= lo or below >= lo) + (both >= lo)
        if lab == leaf:
            below = d
        if below >= lo:
            alone[d] -= 1
    return [alone, pair]


def _closed(labels: tuple[str, ...], lk: int, k: int, other: tuple) -> list[list[int]]:
    """Distances from the nodes lk.. of a keyroot's k ≤ 2 node subtree."""
    return _double(labels[lk + 1], labels[lk], *other) if k == 2 else [_single(labels[lk], *other)]


def _blocks(plan_a: tuple, plan_b: tuple):
    """The keyroot pairs ``ted`` runs the DP on: (li, rows, sa, lj, cols, sb), both > 2."""
    big_b = [kb for kb in plan_b if kb[1] > 2]
    return (ka + kb for ka in plan_a if ka[1] > 2 for kb in big_b)


def ted(a: ParseTree, b: ParseTree) -> float:
    """Fewest node inserts, deletes and relabels turning ``a`` into ``b``."""
    (labels_a, lml_a, plan_a, _, offs_a), (labels_b, lml_b, plan_b, _, offs_b) = \
        _cheaper_sides(a, b)
    n_a, n_b = len(labels_a) - 1, len(labels_b) - 1
    td = [[0] * (n_b + 1) for _ in range(n_a + 1)]

    # Keyroot pairs with a side of one or two nodes, in closed form.
    for lj, cols, _ in plan_b:
        if cols <= 2:
            for c, dists in enumerate(_closed(labels_b, lj, cols, (labels_a, lml_a)), lj):
                for row, dist in zip(td, dists):
                    row[c] = dist
    for li, rows, _ in plan_a:
        if rows <= 2:
            td[li:li + rows] = _closed(labels_a, li, rows, (labels_b, lml_b))

    for li, rows, sa, lj, cols, sb in _blocks(plan_a, plan_b):
        # Forest distances; row 0 is c inserts, column 0 is r deletes.
        # Column c is node base + c of b, with offset offs_b[sb + c].
        base = lj - 1
        columns = range(1, cols + 1)
        prev = list(range(cols + 1))
        fd = [prev]
        for r in range(1, rows + 1):
            di = li + r - 1
            cur = [r] * (cols + 1)
            fd.append(cur)
            td_di = td[di]
            left = r  # cur[c - 1]
            oi = offs_a[sa + r]
            if oi == 0:  # di is on the keyroot's left path: td[di] is written here
                lab_di = labels_a[di]
                diag = r - 1  # prev[c - 1]
                for c in columns:
                    up = prev[c]
                    best = (up if up < left else left) + 1
                    oj = offs_b[sb + c]
                    if oj:
                        t = oj + td_di[base + c]
                        if t < best:
                            best = t
                    else:
                        t = diag + (lab_di != labels_b[base + c])
                        if t < best:
                            best = t
                        td_di[base + c] = best
                    cur[c] = left = best
                    diag = up
            else:
                fd_sub = fd[oi]
                for c in columns:
                    up = prev[c]
                    best = (up if up < left else left) + 1
                    t = fd_sub[offs_b[sb + c]] + td_di[base + c]
                    if t < best:
                        best = t
                    cur[c] = left = best
            prev = cur

    return float(td[n_a][n_b])


def sim_struct_raw(a: ParseTree, b: ParseTree) -> float:
    """1 - TED/max(size); may dip below 0 for structurally disjoint trees."""
    return 1.0 - ted(a, b) / max(a.size, b.size)


def sim_struct(a: ParseTree, b: ParseTree) -> float:
    """Normalized structural similarity in [0, 1].

    The raw ratio can be negative when the edit cost exceeds the larger
    tree size (deep chain vs. flat star, say); such values are clamped
    to 0 and logged.
    """
    raw = sim_struct_raw(a, b)
    if raw < 0.0:
        logger.debug("sim_struct clamped %.4f -> 0.0", raw)
        return 0.0
    return min(raw, 1.0)
