import pytest
from hypothesis import given, settings, strategies as st

from stare.trees import (ParseError, ParseTree, anonymize_leaves, parse, parse_bracketed,
                         parse_sexpr, parse_sql_skeleton)


def t(label, *children):
    return ParseTree(label, tuple(children))


class TestBracketed:
    def test_weather_example(self):
        tree = parse_bracketed("[IN:GET_WEATHER [SL:DATE_TIME for tomorrow ] ]")
        assert tree == t("IN:GET_WEATHER", t("SL:DATE_TIME", t("for tomorrow")))
        assert tree.size == 3

    def test_single_node(self):
        tree = parse_bracketed("[A ]")
        assert tree == t("A")
        assert tree.size == 1

    def test_interleaved_spans(self):
        tree = parse_bracketed("[IN:X [SL:A me ] tell Angie [SL:B Friday ] ]")
        assert tree == t("IN:X", t("SL:A", t("me")), t("tell angie"),
                         t("SL:B", t("friday")))

    def test_tight_brackets(self):
        tree = parse_bracketed("[IN:GET_WEATHER [SL:DATE_TIME for tomorrow]]")
        assert tree.size == 3

    def test_span_normalization_collapses_whitespace(self):
        tree = parse_bracketed("[A Hello   BIG    World ]")
        assert tree.children[0].label == "hello big world"

    @pytest.mark.parametrize("bad", ["", "   ", "\n"])
    def test_empty_input(self, bad):
        with pytest.raises(ParseError, match="^empty bracketed input$"):
            parse_bracketed(bad)

    @pytest.mark.parametrize("bad", ["[A", "[A ] ]", "]", "[A [B ]", "[A ] [B ]", "x [A ]"])
    def test_unbalanced(self, bad):
        with pytest.raises(ParseError, match=r"^(unclosed '\['|expected '\['|unexpected "
                                             r"trailing content) \(at offset \d+\)$"):
            parse_bracketed(bad)

    def test_unbalanced_reports_position(self):
        with pytest.raises(ParseError, match="^unexpected trailing content") as err:
            parse_bracketed("[A ] ]")
        assert err.value.position == 5

    def test_missing_label(self):
        with pytest.raises(ParseError, match=r"^missing node label after '\['"):
            parse_bracketed("[ ]")


class TestSexpr:
    def test_two_node(self):
        tree = parse_sexpr("(Yield (Thursday))")
        assert tree == t("Yield", t("Thursday"))
        assert tree.size == 2

    def test_nested_with_string(self):
        tree = parse_sexpr('(plan (Find :object (?= "Westin")))')
        assert tree == t("plan", t("Find", t(":object"), t("?=", t("westin"))))
        assert tree.size == 5

    def test_head_as_parent(self):
        tree = parse_sexpr("(A (B C) D)")
        assert tree == t("A", t("B", t("c")), t("d"))
        assert tree.size == 4

    def test_caret_heads(self):
        tree = parse_sexpr("(plan (^ (Hotel) Find :focus x))")
        assert tree.children[0].label == "^"

    def test_empty_list(self):
        with pytest.raises(ParseError, match="^'\\(\\)' has no head atom"):
            parse_sexpr("(A ())")

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="^unterminated string literal"):
            parse_sexpr('(A "oops)')

    @pytest.mark.parametrize("bad", ["(A", "(A))", ")", "(A (B)", "(A) (B)"])
    def test_unbalanced(self, bad):
        with pytest.raises(ParseError, match=r"^(unclosed '\('|expected '\(' at top level|"
                                             r"unexpected trailing content) \(at offset \d+\)$"):
            parse_sexpr(bad)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="^empty s-expression input$"):
            parse_sexpr("  ")

    @pytest.mark.parametrize("text,cls,message,position", [
        ("(", ParseError, "unclosed '('", 0),
        ('("x")', ParseError, "list head must be an atom", 1),
    ])
    def test_error_message_and_position(self, text, cls, message, position):
        with pytest.raises(ParseError) as err:
            parse_sexpr(text)
        assert type(err.value) is cls
        assert str(err.value) == f"{message} (at offset {position})"


class TestSqlSkeleton:
    def test_count_star(self):
        tree = parse_sql_skeleton("SELECT count(*) FROM Other_Available_Features")
        assert tree == t("SELECT_STMT",
                         t("SELECT", t("count", t("*"))),
                         t("FROM", t("other_available_features")))
        assert tree.size == 6

    def test_minimal_select(self):
        tree = parse_sql_skeleton("SELECT a FROM t")
        assert tree == t("SELECT_STMT", t("SELECT", t("a")), t("FROM", t("t")))
        assert tree.size == 5

    def test_literal_placeholder(self):
        tree = parse_sql_skeleton("SELECT a FROM t WHERE x = 3")
        where = tree.children[2]
        assert where == t("WHERE", t("=", t("x"), t("<NUM>")))

    def test_string_placeholder_and_boolean(self):
        tree = parse_sql_skeleton("SELECT a FROM t WHERE x = 'len' AND y > 2")
        cond = tree.children[2].children[0]
        assert cond == t("AND", t("=", t("x"), t("<STR>")), t(">", t("y"), t("<NUM>")))

    def test_join_on(self):
        tree = parse_sql_skeleton(
            "SELECT a FROM t JOIN u ON t.id = u.id WHERE b < 5")
        frm = tree.children[1]
        assert frm.children[0] == t("t")
        assert frm.children[1] == t("JOIN", t("u"), t("=", t("t.id"), t("u.id")))

    def test_group_order_limit(self):
        tree = parse_sql_skeleton(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2 "
            "ORDER BY a DESC LIMIT 10")
        labels = [c.label for c in tree.children]
        assert labels == ["SELECT", "FROM", "GROUP BY", "HAVING", "ORDER BY", "LIMIT"]
        assert tree.children[5] == t("LIMIT", t("<NUM>"))

    def test_subquery_in_where(self):
        tree = parse_sql_skeleton(
            "SELECT a FROM t WHERE x IN (SELECT y FROM u)")
        in_node = tree.children[2].children[0]
        assert in_node.label == "IN"
        assert in_node.children[1].label == "SELECT_STMT"

    def test_union(self):
        tree = parse_sql_skeleton("SELECT a FROM t UNION SELECT b FROM u")
        assert tree.label == "UNION"
        assert [c.label for c in tree.children] == ["SELECT_STMT", "SELECT_STMT"]

    def test_unsupported_syntax_names_token(self):
        with pytest.raises(ParseError, match="^unsupported trailing token") as err:
            parse_sql_skeleton("SELECT a FROM t WHERE x = 1 OFFSET 2")
        assert "offset" in str(err.value).lower()

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_sql_skeleton("SELECT FROM WHERE")

    def test_comma_lists_and_directions(self):
        tree = parse_sql_skeleton(
            "SELECT DISTINCT a FROM t, u GROUP BY a, b ORDER BY a ASC, count(b) DESC, c")
        assert tree == t("SELECT_STMT", t("SELECT", t("a")), t("FROM", t("t"), t("u")),
                         t("GROUP BY", t("a"), t("b")),
                         t("ORDER BY", t("a"), t("count", t("b")), t("c")))

    def test_function_arguments(self):
        tree = parse_sql_skeleton("SELECT count(DISTINCT a), round(b, 2), f(x, 'y', *) FROM t")
        assert tree.children[0] == t("SELECT", t("count", t("a")),
                                     t("round", t("b"), t("<NUM>")),
                                     t("f", t("x"), t("<STR>"), t("*")))

    def test_in_lists_and_negations(self):
        tree = parse_sql_skeleton("SELECT a FROM t WHERE a IN (1, 'x', b) "
                                  "AND c NOT IN (SELECT d FROM u) OR e NOT LIKE 'z%'")
        sub = t("SELECT_STMT", t("SELECT", t("d")), t("FROM", t("u")))
        assert tree.children[2] == t("WHERE", t(
            "OR",
            t("AND", t("IN", t("a"), t("<NUM>"), t("<STR>"), t("b")),
              t("NOT", t("IN", t("c"), sub))),
            t("NOT", t("LIKE", t("e"), t("<STR>")))))

    def test_union_all_outer_join_and_aliases(self):
        tree = parse_sql_skeleton(
            "SELECT T1.a FROM t AS T1 LEFT OUTER JOIN u T2 ON T1.id = T2.id "
            "UNION ALL SELECT b FROM (SELECT b FROM v) AS sub")
        assert tree == t(
            "UNION",
            t("SELECT_STMT", t("SELECT", t("t1.a")),
              t("FROM", t("t"), t("JOIN", t("u"), t("=", t("t1.id"), t("t2.id"))))),
            t("SELECT_STMT", t("SELECT", t("b")),
              t("FROM", t("SELECT_STMT", t("SELECT", t("b")), t("FROM", t("v"))))))

    def test_exists_between_group_and_semicolon(self):
        tree = parse_sql_skeleton("SELECT a FROM t WHERE EXISTS (SELECT b FROM u) "
                                  "AND (c BETWEEN 1 AND 2 OR NOT d = 3);")
        sub = t("SELECT_STMT", t("SELECT", t("b")), t("FROM", t("u")))
        assert tree.children[2] == t("WHERE", t(
            "AND", t("EXISTS", sub),
            t("OR", t("BETWEEN", t("c"), t("<NUM>"), t("<NUM>")),
              t("NOT", t("=", t("d"), t("<NUM>"))))))

    @pytest.mark.parametrize("sql,cls,message,position", [
        ("SELECT count(a FROM t", ParseError, "expected ')', found 'FROM'", 15),
        ("SELECT a FROM 3", ParseError, "expected table name, found '3'", 14),
        ("SELECT a FROM t AS 3", ParseError, "expected alias name", 19),
        ("SELECT a FROM t LIMIT b", ParseError, "LIMIT expects a number", 22),
        ("SELECT a FROM t WHERE b = ?", ParseError, "cannot lex '?'", 26),
        ("SELECT a FROM", ParseError, "unexpected end of SQL input", 13),
        ("SELECT a FROM t WHERE (b = 1", ParseError, "unexpected end of SQL input", 28),
        ("SELECT a FROM t WHERE b", ParseError, "incomplete predicate", 23),
        ("SELECT a FROM t;;", ParseError, "unsupported trailing token ';'", 16),
        ("SELECT a FROM t GROUP a", ParseError, "expected BY, found 'a'", 22),
        ("SELECT a FROM t ORDER a", ParseError, "expected BY, found 'a'", 22),
        ("SELECT a FROM t WHERE a b", ParseError, "unsupported token 'b' in predicate", 24),
    ])
    def test_error_message_and_position(self, sql, cls, message, position):
        with pytest.raises(ParseError) as err:
            parse_sql_skeleton(sql)
        assert type(err.value) is cls
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position

    def test_blank_input(self):
        with pytest.raises(ParseError, match="^empty SQL input$"):
            parse_sql_skeleton("  ")


class TestAnonymize:
    def test_leaf_replaced(self):
        tree = parse_bracketed("[IN:X for tomorrow ]")
        assert anonymize_leaves(tree) == t("IN:X", t("<TXT>"))

    def test_single_node(self):
        assert anonymize_leaves(t("hello")) == t("<TXT>")

    def test_idempotent(self):
        tree = parse_bracketed("[IN:X [SL:A me ] tell Angie [SL:B Friday ] ]")
        once = anonymize_leaves(tree)
        assert anonymize_leaves(once) == once

    def test_preserves_shape_and_placeholders(self):
        tree = parse_sql_skeleton("SELECT count(*) FROM t WHERE x = 3")
        anon = anonymize_leaves(tree)
        assert anon.size == tree.size

        def arities(node):
            yield len(node.children)
            for child in node.children:
                yield from arities(child)

        assert list(arities(anon)) == list(arities(tree))
        where = anon.children[2].children[0]
        assert where.children[1].label == "<NUM>"
        assert where.children[0].label == "<TXT>"


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_LABELS = st.sampled_from(["A", "B", "IN:X", "SL:Y"])
_WORDS = st.lists(st.sampled_from(["for", "tomorrow", "angie", "x1"]),
                  min_size=1, max_size=3)


@st.composite
def bracketed_source(draw, depth=0):
    label = draw(_LABELS)
    parts = []
    for _ in range(draw(st.integers(0, 2 if depth < 3 else 0))):
        if draw(st.booleans()):
            parts.append(draw(bracketed_source(depth=depth + 1)))
        else:
            parts.append(" ".join(draw(_WORDS)))
    inner = " ".join(parts)
    return f"[{label} {inner} ]" if inner else f"[{label} ]"


@st.composite
def sexpr_source(draw, depth=0):
    label = draw(_LABELS)
    parts = [label]
    for _ in range(draw(st.integers(0, 2 if depth < 3 else 0))):
        if draw(st.booleans()):
            parts.append(draw(sexpr_source(depth=depth + 1)))
        else:
            parts.append(draw(st.sampled_from(["foo", '"a b"', ":obj", "12"])))
    return "(" + " ".join(parts) + ")"


@settings(max_examples=150, derandomize=True)
@given(bracketed_source())
def test_bracketed_deterministic_and_size(source):
    first = parse_bracketed(source)
    second = parse_bracketed(source)
    assert first == second
    assert first.size == sum(1 for _ in first.postorder())


@settings(max_examples=150, derandomize=True)
@given(sexpr_source())
def test_sexpr_deterministic_and_size(source):
    first = parse_sexpr(source)
    assert first == parse_sexpr(source)
    assert first.size == sum(1 for _ in first.postorder())


@settings(max_examples=150, derandomize=True)
@given(bracketed_source(), st.data())
def test_bracketed_rejects_corrupted_delimiters(source, data):
    positions = [i for i, ch in enumerate(source) if ch in "[]"]
    idx = data.draw(st.sampled_from(positions))
    if data.draw(st.booleans()):
        corrupted = source[:idx] + source[idx + 1:]  # drop one delimiter
    else:
        corrupted = source[:idx] + data.draw(st.sampled_from(["[", "]"])) + source[idx:]
    try:
        parse_bracketed(corrupted)
    except ParseError:
        return
    # A corruption may still be well-formed only if bracket counts balance.
    assert corrupted.count("[") == corrupted.count("]")


@settings(max_examples=150, derandomize=True)
@given(sexpr_source(), st.data())
def test_sexpr_rejects_corrupted_delimiters(source, data):
    positions = [i for i, ch in enumerate(source) if ch in "()"]
    idx = data.draw(st.sampled_from(positions))
    corrupted = source[:idx] + source[idx + 1:]
    try:
        parse_sexpr(corrupted)
    except ParseError:
        return
    assert corrupted.count("(") == corrupted.count(")")


# Each dialect's delimiters, quotes, keywords and words, plus a few
# well-formed fragments so that some drawn texts parse.
_PIECES = {
    "bracketed": ["[", "]", '"', "IN:X", "SL:Y", "for", "x1", "[A b ]"],
    "sexpr": ["(", ")", '"', '"a b"', '""', "foo", ":obj", "12", "(plan x)"],
    "sql_skeleton": [
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "JOIN", "LEFT", "ON", "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "EXISTS",
        "UNION", "ALL", "ASC", "(", ")", ",", ";", "*", "=", "<=", "'s'", '"q"', "'", "?",
        "a", "t.b", "count", "1", "2.5", "SELECT a FROM t", "WHERE a = 1"],
}


@pytest.mark.parametrize("dialect", list(_PIECES))
@settings(max_examples=300, derandomize=True)
@given(data=st.data())
def test_parse_returns_a_tree_or_a_located_parse_error(dialect, data):
    pieces = data.draw(st.lists(st.sampled_from(_PIECES[dialect]), max_size=16))
    text = "".join(data.draw(st.sampled_from(["", " ", "\n"])) + p for p in pieces)
    try:
        tree = parse(text, dialect)
    except ParseError as err:
        assert err.position is None or 0 <= err.position <= len(text)
    else:
        assert isinstance(tree, ParseTree)


@settings(max_examples=100, derandomize=True)
@given(bracketed_source())
def test_anonymize_idempotent_and_shape_preserving(source):
    tree = parse_bracketed(source)
    anon = anonymize_leaves(tree)
    assert anon.size == tree.size
    assert anonymize_leaves(anon) == anon


def test_dialect_dispatch():
    assert parse("[A ]", "bracketed") == t("A")
    assert parse("(A)", "sexpr") == t("A")
    assert parse("SELECT a FROM t", "sql_skeleton").label == "SELECT_STMT"


def test_hash_cached_and_consistent_with_equality():
    a = parse_bracketed("[IN:X [SL:A me ] tell Angie [SL:B Friday ] ]")
    b = parse_bracketed("[IN:X [SL:A me ] tell Angie [SL:B Friday ] ]")
    c = parse_bracketed("[IN:X [SL:A me ] tell Angie [SL:B monday ] ]")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c
    assert hash(a) == hash((a.label, a.children))
    assert {a: 1, c: 2}[b] == 1
    a.label = "IN:Y"  # trees are immutable by convention: the first hash is kept
    assert hash(a) == hash(b)


def test_invalid_label_rejected():
    with pytest.raises(ValueError, match="^node labels must be non-empty$"):
        ParseTree("")
