import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stare.ted as ted_module
from stare.ted import sim_struct, sim_struct_raw, ted
from stare.trees import ParseTree, parse_sql_skeleton

from oracles import TooLarge, all_trees, mirror, ted_bruteforce, ted_left_path


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


def test_matches_left_path_reference(random_tree_pool):
    for a in random_tree_pool:
        for b in random_tree_pool:
            assert ted(a, b).hex() == ted_left_path(a, b).hex(), (a, b)


@pytest.fixture(scope="module")
def hundred_node_pair():
    rng = np.random.default_rng(7)
    a = _random_tree(rng, 100)
    b = _random_tree(rng, 100)
    while a.size < 80:
        a = ParseTree("r", (a, _random_tree(rng, 40)))
    while b.size < 80:
        b = ParseTree("r", (b, _random_tree(rng, 40)))
    return a, b


def test_hundred_node_smoke(hundred_node_pair):
    a, b = hundred_node_pair
    start = time.time()
    ted(a, b)
    assert time.time() - start < 1.0


def test_hundred_node_matches_left_path_reference(hundred_node_pair):
    a, b = hundred_node_pair
    assert ted(a, b).hex() == ted_left_path(a, b).hex()
    assert ted(b, a).hex() == ted_left_path(a, b).hex()


# ---------------------------------------------------------------------------
# the side ted runs on: left paths, or the mirrored trees when cheaper
# ---------------------------------------------------------------------------

def _left_comb(spine: int) -> ParseTree:
    """Every inner node has its subtree first and one leaf after it."""
    node = t("x")
    for k in range(spine):
        node = t(f"s{k % 3}", node, t(f"l{k % 2}"))
    return node


@pytest.mark.parametrize("left_spine,right_spine,side",
                         [(12, 4, 0), (4, 12, 1), (9, 9, 0)])
def test_comb_pair_runs_on_cheaper_side(left_spine, right_spine, side):
    a, b = _left_comb(left_spine), mirror(_left_comb(right_spine))
    sides_a, sides_b = ted_module._decompose(a), ted_module._decompose(b)
    products = [sides_a[k][3] * sides_b[k][3] for k in (0, 1)]
    assert products[side] <= products[1 - side]
    for x, y, sx, sy in ((a, b, sides_a, sides_b), (b, a, sides_b, sides_a)):
        picked = ted_module._cheaper_sides(x, y)
        assert picked[0] is sx[side] and picked[1] is sy[side]
        assert ted(x, y).hex() == ted_left_path(x, y).hex()


def _dp_cells(side_a, side_b) -> int:
    return sum(rows * cols for _, rows, _, _, cols, _ in ted_module._blocks(side_a[2], side_b[2]))


def test_long_conjunction_runs_on_left_side():
    """Why ``ted`` keeps both orientations. On the seed-0 SQL benchmark bank,
    running every pair mirrored costs about the DP cells of the cheaper-side
    rule (11.06 M against 11.03 M; left only, 18.2 M). But ``_chain`` nests
    AND to the left, so a WHERE of 20 conjuncts costs 12x the cells mirrored."""
    where = " AND ".join(f"c{i} {{op}} {i}" for i in range(20))
    a, b = (parse_sql_skeleton("SELECT T1.a, T2.b FROM t AS T1 JOIN u AS T2 ON T1.x = T2.x "
                               "WHERE " + where.format(op=op)) for op in ("=", ">"))
    assert a.size == b.size == 91
    sides_a, sides_b = ted_module._decompose(a), ted_module._decompose(b)
    assert [_dp_cells(sides_a[k], sides_b[k]) for k in (0, 1)] == [59_049, 708_964]
    picked = ted_module._cheaper_sides(a, b)
    assert picked[0] is sides_a[0] and picked[1] is sides_b[0]
    assert ted(a, b).hex() == ted_left_path(a, b).hex()


def test_mirrored_side_is_left_side_of_mirror(random_tree_pool):
    for tree in random_tree_pool + [_left_comb(10)]:
        left, right = ted_module._decompose(tree)
        assert (right, left) == ted_module._decompose(mirror(tree))


def test_decomposition_computed_once_per_tree(monkeypatch):
    built = []
    side = ted_module._side
    monkeypatch.setattr(ted_module, "_side",
                        lambda tree, mirrored: built.append(tree) or side(tree, mirrored))
    tree = t("f", t("a"), t("b", t("c")))
    ted(tree, t("g"))
    sides = tree._ted
    for i in range(4100):
        ted(tree, t(f"x{i}", t("y")))
    assert sum(x is tree for x in built) == 2
    assert ted_module._decompose(tree) is sides


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
    d = ted(a, b).hex()
    assert d == ted(mirror(a), mirror(b)).hex() == ted_left_path(a, b).hex(), (a, b)


@pytest.mark.parametrize("max_nodes,alphabet", [(3, ("A", "B", "C")), (4, ("A", "B"))])
def test_ted_symmetric_exhaustive(max_nodes, alphabet):
    trees = all_trees(max_nodes, alphabet)
    for i, a in enumerate(trees):
        for b in trees[i:]:
            _assert_symmetric(a, b)


def _relabel(tree: ParseTree, names: dict[str, str]) -> ParseTree:
    return ParseTree(names[tree.label], tuple(_relabel(c, names) for c in tree.children))


@pytest.mark.parametrize("max_nodes,alphabet", [(3, ("A", "B", "C")), (4, ("A", "B"))])
def test_ted_invariant_under_injective_relabeling(max_nodes, alphabet):
    """A unit-cost TED reads only shapes and label equality, so renaming the
    joint alphabet one to one (a fresh seeded map per pair) keeps it, and
    both equal the brute-force oracle: the premise of ``Corpus.sim``'s
    label-pattern memo."""
    trees = all_trees(max_nodes, alphabet)
    rng = np.random.default_rng(22)
    targets = [*alphabet, "D", "IN:X", "a", "b"]
    for a in trees:
        for b in trees:
            names = dict(zip(alphabet, rng.permutation(targets)[: len(alphabet)].tolist()))
            d = ted(a, b)
            assert ted(_relabel(a, names), _relabel(b, names)) == d == ted_bruteforce(a, b), \
                (a, b, names)


# ---------------------------------------------------------------------------
# keyroot pairs with a one- or two-node side, in closed form; the column plan
# ---------------------------------------------------------------------------

def test_single_node_against_every_small_tree():
    """A node against a tree T costs |T| − [its label occurs in T]."""
    for tree in all_trees(4, ("A", "B", "C")):
        labels = {node.label for node in tree.postorder()}
        for lab in ("A", "B", "D"):
            expected = float(tree.size - (lab in labels))
            assert ted(t(lab), tree) == ted(tree, t(lab)) == expected, (lab, tree)
            assert ted_bruteforce(t(lab), tree) == expected, (lab, tree)


def test_two_node_against_every_small_tree():
    """A node over a leaf, equal labels and labels absent from the tree
    included, on the row side and on the column side. ``_double``'s two
    rows, the leaf alone and the pair, hold those distances at every
    subtree."""
    trees = all_trees(5, ("A", "B", "C"))
    for leaf in ("A", "B", "D"):
        alone = {tree: ted_left_path(t(leaf), tree) for tree in trees}
        for top in ("A", "B", "D"):
            pair = t(top, t(leaf))
            both = {}
            for tree in trees:
                d = both[tree] = ted(pair, tree)
                assert d == ted(tree, pair) == ted_left_path(pair, tree), (pair, tree)
                if tree.size <= 4:
                    assert d == ted_bruteforce(pair, tree), (pair, tree)
            for tree in trees:
                labels, lml = ted_module._decompose(tree)[0][:2]
                rows = [row[1:] for row in ted_module._double(top, leaf, labels, lml)]
                subtrees = list(tree.postorder())
                assert rows == [[alone[s] for s in subtrees], [both[s] for s in subtrees]], \
                    (pair, tree)


SQL = [
    "SELECT name FROM singer",
    "SELECT name, age FROM singer WHERE age > 30",
    "SELECT DISTINCT country FROM singer WHERE age >= 20 AND age <= 40",
    "SELECT count(*) FROM singer GROUP BY country HAVING count(*) > 2",
    "SELECT name FROM singer ORDER BY age DESC LIMIT 3",
    "SELECT T1.name FROM singer AS T1 JOIN performs AS T2 ON T1.singer_id = T2.singer_id",
    "SELECT T1.name, T3.theme FROM singer AS T1 JOIN performs AS T2 ON T1.singer_id = "
    "T2.singer_id JOIN concert AS T3 ON T2.concert_id = T3.concert_id WHERE T3.year = 2014",
    "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM performs)",
    "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM performs "
    "WHERE fee > 100)",
    "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM performs WHERE "
    "concert_id IN (SELECT concert_id FROM concert WHERE year = 2014))",
    "SELECT name FROM singer UNION SELECT name FROM employee",
    "SELECT name FROM singer WHERE age > 30 INTERSECT SELECT name FROM employee WHERE age < 50",
    "SELECT city FROM customers EXCEPT SELECT city FROM employee GROUP BY city",
    "SELECT avg(salary), dept_id FROM employee GROUP BY dept_id HAVING avg(salary) > 1000 "
    "ORDER BY dept_id",
    "SELECT max(capacity), average FROM stadium",
    "SELECT location FROM stadium WHERE capacity BETWEEN 5000 AND 10000",
    "SELECT name FROM customers WHERE name LIKE '%a%' OR city = 'Paris'",
    "SELECT name FROM employee WHERE NOT city = 'Rome' AND (age > 30 OR salary < 500)",
    "SELECT title, hours FROM projects WHERE hours > 10 ORDER BY hours ASC LIMIT 5",
    "SELECT T1.dept_name, count(*) FROM department AS T1 JOIN employee AS T2 ON "
    "T1.dept_id = T2.dept_id GROUP BY T1.dept_name HAVING count(*) >= 3",
    "SELECT product_name FROM products WHERE price > (SELECT avg(price) FROM products)",
    "SELECT sum(quantity) FROM orders WHERE product_id IN (SELECT product_id FROM products "
    "WHERE category = 'tools') GROUP BY customer_id",
    "SELECT name FROM singer WHERE country = 'France' UNION SELECT name FROM singer WHERE "
    "age < 25 ORDER BY name",
    "SELECT concert_name FROM concert WHERE stadium_id NOT IN (SELECT stadium_id FROM stadium "
    "WHERE capacity < 1000) AND year > 2010",
    "SELECT min(fee), max(fee) FROM performs",
    "SELECT T2.name FROM orders AS T1 JOIN customers AS T2 ON T1.customer_id = "
    "T2.customer_id WHERE T1.quantity > 5 AND T2.segment = 'retail' ORDER BY T2.name",
    "SELECT count(DISTINCT city) FROM customers",
    "SELECT name, salary FROM employee WHERE salary BETWEEN 100 AND 200 OR age = 30 "
    "ORDER BY salary DESC",
    "SELECT theme FROM concert GROUP BY theme HAVING count(*) > 1 EXCEPT SELECT theme FROM "
    "concert WHERE year < 2000",
    "SELECT budget FROM department WHERE manager_id IN (SELECT employee_id FROM employee "
    "WHERE city LIKE 'B%') AND budget > 100",
]


@pytest.fixture(scope="module")
def sql_trees():
    return [parse_sql_skeleton(text) for text in SQL]


def test_sql_skeletons_have_single_node_keyroots(sql_trees):
    assert len(set(sql_trees)) == len(SQL)
    singles = [sum(k == 1 for _, k, _ in side[2]) for tree in sql_trees
               for side in ted_module._decompose(tree)]
    assert sum(singles) > len(SQL) and sum(map(bool, singles)) > len(singles) // 2


def test_sql_skeletons_have_two_node_keyroots(sql_trees):
    """So the left-path comparison below covers ``_double`` on both sides."""
    for side in (0, 1):
        doubles = [sum(k == 2 for _, k, _ in ted_module._decompose(tree)[side][2])
                   for tree in sql_trees]
        assert sum(doubles) > len(SQL) and sum(map(bool, doubles)) > len(SQL) // 2


def test_sql_skeletons_match_left_path_reference(sql_trees):
    for i, a in enumerate(sql_trees):
        for b in sql_trees[i:]:
            want = ted_left_path(a, b).hex()
            assert ted(a, b).hex() == ted(b, a).hex() == want, (a, b)


def test_column_plan_holds_each_keyroot_subtree(random_tree_pool, sql_trees):
    for tree in random_tree_pool + sql_trees:
        for labels, lml, plan, cost, offs in ted_module._decompose(tree):
            assert [k for _, k, _ in plan] == [i - lml[i] + 1 for i in
                                                sorted({l: i for i, l in enumerate(lml)
                                                        if i}.values())]
            assert cost == sum(k for _, k, _ in plan) == len(offs) - 1
            for lk, k, start in plan:
                assert offs[start + 1:start + k + 1] == tuple(lml[d] - lk
                                                              for d in range(lk, lk + k))
