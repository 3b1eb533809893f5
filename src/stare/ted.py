"""Unit-cost ordered tree edit distance (Zhang–Shasha) and normalized similarity.

Zhang–Shasha along the leftmost paths costs (Σ of a's keyroot subtree
sizes) × (the same sum for b) subproblems. Along the rightmost paths it is
the same algorithm on both trees mirrored, which maps ordered edit mappings
one to one, so ``ted`` runs each pair on the side with the smaller product
(left on a tie): the simplest case of RTED's path choice (Pawlik & Augsten
2011). Unit costs are integers, so both sides give the same float and
``ted(a, b) == ted(b, a)`` bit for bit. A tree's decomposition, both
sides, is computed on first use and kept on the tree.
"""

from __future__ import annotations

import logging

from .trees import ParseTree

logger = logging.getLogger(__name__)

# One side of a tree's decomposition: postorder labels, leftmost-leaf
# indices and keyroots (all 1-based, slot 0 unused), and the sum of the
# keyroots' subtree sizes.
_Side = tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...], int]


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
    cost = sum(i - lml[i] + 1 for i in keyroots)
    return tuple(labels), tuple(lml), tuple(keyroots), cost


def _decompose(tree: ParseTree) -> tuple[_Side, _Side]:
    """The left and the mirrored side of ``tree``, computed once per tree."""
    if tree._ted is None:
        tree._ted = (_side(tree, False), _side(tree, True))
    return tree._ted


def _cheaper_sides(a: ParseTree, b: ParseTree) -> tuple[_Side, _Side]:
    """The sides ``ted`` runs on: mirrored only when strictly cheaper."""
    left_a, right_a = _decompose(a)
    left_b, right_b = _decompose(b)
    if right_a[3] * right_b[3] < left_a[3] * left_b[3]:
        return right_a, right_b
    return left_a, left_b


def ted(a: ParseTree, b: ParseTree) -> float:
    """Fewest node inserts, deletes and relabels turning ``a`` into ``b``."""
    (labels_a, lml_a, kr_a, _), (labels_b, lml_b, kr_b, _) = _cheaper_sides(a, b)
    n_a, n_b = len(labels_a) - 1, len(labels_b) - 1
    td = [[0] * (n_b + 1) for _ in range(n_a + 1)]

    for i in kr_a:
        li = lml_a[i]
        rows = i - li + 1
        for j in kr_b:
            lj = lml_b[j]
            cols = j - lj + 1

            # Forest distances; row 0 is c inserts, column 0 is r deletes.
            prev = list(range(cols + 1))
            fd = [prev]
            for r in range(1, rows + 1):
                di = li + r - 1
                cur = [r] * (cols + 1)
                fd.append(cur)
                ldi = lml_a[di]
                lab_di = labels_a[di]
                td_di = td[di]
                if ldi == li:
                    for c in range(1, cols + 1):
                        dj = lj + c - 1
                        best = prev[c] + 1
                        t = cur[c - 1] + 1
                        if t < best:
                            best = t
                        if lml_b[dj] == lj:
                            t = prev[c - 1] + (lab_di != labels_b[dj])
                            if t < best:
                                best = t
                            cur[c] = best
                            td_di[dj] = best
                        else:
                            t = lml_b[dj] - lj + td_di[dj]
                            if t < best:
                                best = t
                            cur[c] = best
                else:
                    fd_sub = fd[ldi - li]
                    for c in range(1, cols + 1):
                        dj = lj + c - 1
                        best = prev[c] + 1
                        t = cur[c - 1] + 1
                        if t < best:
                            best = t
                        t = fd_sub[lml_b[dj] - lj] + td_di[dj]
                        if t < best:
                            best = t
                        cur[c] = best
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
