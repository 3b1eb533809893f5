import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stare.ted import EditCosts, sim_struct, sim_struct_raw, ted
from stare.trees import ParseTree

from oracles import TooLarge, all_trees, ted_bruteforce


def t(label, *children):
    return ParseTree(label, tuple(children))


CHAIN = t("p", t("q", t("r", t("s"))))
STAR = t("t", t("u"), t("v"), t("w"))


class TestTed:
    def test_identity(self):
        tree = t("f", t("a"), t("b"))
        assert ted(tree, tree) == 0.0

    def test_single_relabel(self):
        assert ted(t("f", t("a"), t("b")), t("f", t("a"), t("c"))) == 1.0

    def test_insert_above(self):
        assert ted(t("x"), t("f", t("x"))) == 1.0
        assert ted(t("f", t("x")), t("x")) == 1.0

    def test_disjoint_one_vs_four(self):
        a = t("z")
        b = t("f", t("a"), t("b"), t("c"))
        assert ted(a, b) == 4.0  # one relabel plus three inserts
        assert ted_bruteforce(a, b) == 4.0

    def test_chain_vs_star_exceeds_max_size(self):
        # Deep chain against flat star: only two nodes can map, so the
        # cost (6) exceeds both tree sizes (4).
        assert ted(CHAIN, STAR) == 6.0
        assert ted_bruteforce(CHAIN, STAR) == 6.0

    def test_custom_costs(self):
        costs = EditCosts(insert=2.0, delete=3.0, relabel=5.0)
        assert ted(t("a"), t("a", t("b")), costs) == 2.0
        assert ted(t("a", t("b")), t("a"), costs) == 3.0
        assert ted(t("a"), t("b"), costs) == 5.0
        assert ted(t("a"), t("b"), costs) == ted_bruteforce(t("a"), t("b"), costs)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            EditCosts(insert=-1.0)


class TestSimStruct:
    def test_self_similarity(self):
        tree = t("f", t("a"), t("b", t("c")))
        assert sim_struct(tree, tree) == 1.0

    def test_two_thirds(self):
        a = t("f", t("x"), t("y"))
        b = t("f", t("x"), t("z"))
        assert sim_struct(a, b) == pytest.approx(1.0 - 1.0 / 3.0)

    def test_distinct_singletons(self):
        assert sim_struct(t("p"), t("q")) == 0.0

    def test_clamped_from_negative(self):
        raw = sim_struct_raw(CHAIN, STAR)
        assert raw == pytest.approx(1.0 - 6.0 / 4.0)
        assert sim_struct(CHAIN, STAR) == 0.0


class TestBruteforceOracle:
    def test_identity(self):
        tree = t("f", t("a"))
        assert ted_bruteforce(tree, tree) == 0.0

    def test_too_large(self):
        big = t("a", t("b"), t("c"), t("d"), t("e"))
        with pytest.raises(TooLarge):
            ted_bruteforce(big, t("a"))

    def test_agrees_with_ted_three_nodes_exhaustive(self):
        trees = all_trees(3, ("A", "B", "C"))
        for a in trees:
            for b in trees:
                assert ted(a, b) == ted_bruteforce(a, b), (a, b)


# ---------------------------------------------------------------------------
# randomized properties (trees up to 8 nodes)
# ---------------------------------------------------------------------------

def _random_tree(rng: np.random.Generator, max_nodes: int) -> ParseTree:
    labels = ["a", "b", "c"]
    n = int(rng.integers(1, max_nodes + 1))

    def build(budget: int) -> tuple[ParseTree, int]:
        label = labels[int(rng.integers(3))]
        used = 1
        children = []
        while budget - used > 0 and rng.random() < 0.6:
            child, spent = build(budget - used)
            children.append(child)
            used += spent
        return ParseTree(label, tuple(children)), used

    tree, _ = build(n)
    return tree


@pytest.fixture(scope="module")
def random_tree_pool():
    rng = np.random.default_rng(123)
    return [_random_tree(rng, 8) for _ in range(40)]


def test_metric_properties(random_tree_pool):
    pool = random_tree_pool
    for a in pool[:15]:
        assert ted(a, a) == 0.0
    for a in pool[:12]:
        for b in pool[:12]:
            assert ted(a, b) == ted(b, a)
    for a in pool[:8]:
        for b in pool[:8]:
            for c in pool[:8]:
                assert ted(a, c) <= ted(a, b) + ted(b, c) + 1e-12


def test_ted_bounds(random_tree_pool):
    for a in random_tree_pool:
        for b in random_tree_pool:
            d = ted(a, b)
            assert 0.0 <= d <= a.size + b.size
            raw = sim_struct_raw(a, b)
            assert -1.0 <= raw <= 1.0
            assert 0.0 <= sim_struct(a, b) <= 1.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sim_struct_self_is_one(seed):
    tree = _random_tree(np.random.default_rng(seed), 8)
    assert sim_struct(tree, tree) == 1.0


def test_hundred_node_smoke():
    rng = np.random.default_rng(7)
    a = _random_tree(rng, 100)
    b = _random_tree(rng, 100)
    while a.size < 80:
        a = ParseTree("r", (a, _random_tree(rng, 40)))
    while b.size < 80:
        b = ParseTree("r", (b, _random_tree(rng, 40)))
    start = time.time()
    ted(a, b)
    assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# symmetry: the similarity table keys each pair unordered
# ---------------------------------------------------------------------------

def _trees():
    labels = st.sampled_from(["a", "b", "c", "IN:X"])
    return st.recursive(labels.map(ParseTree),
                        lambda kids: st.builds(ParseTree, labels,
                                               st.lists(kids, min_size=1, max_size=3)),
                        max_leaves=12)


def _assert_symmetric(a: ParseTree, b: ParseTree) -> None:
    assert ted(a, b).hex() == ted(b, a).hex(), (a, b)
    assert sim_struct(a, b).hex() == sim_struct(b, a).hex(), (a, b)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_trees(), _trees())
def test_ted_symmetric_bit_for_bit(a, b):
    _assert_symmetric(a, b)


@pytest.mark.parametrize("max_nodes,alphabet", [(3, ("A", "B", "C")), (4, ("A", "B"))])
def test_ted_symmetric_exhaustive(max_nodes, alphabet):
    trees = all_trees(max_nodes, alphabet)
    for i, a in enumerate(trees):
        for b in trees[i:]:
            _assert_symmetric(a, b)
