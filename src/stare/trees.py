"""Labeled ordered trees for semantic parses.

Three dialects are supported: bracketed task-oriented parses
("[IN:X [SL:Y some span ] ]"), LISP-style S-expressions, and a
clause-level SQL skeleton. Each parser is a recursive-descent grammar
over one token cursor, and returns a ParseTree whose child order matches
the source text exactly.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Iterator


class ParseError(ValueError):
    """Malformed parse input; ``position`` is a character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ParseDialect(str, Enum):
    BRACKETED = "bracketed"
    SEXPR = "sexpr"
    SQL_SKELETON = "sql_skeleton"


class ParseTree:
    """Ordered labeled tree; ``size`` counts every node in the subtree.

    Trees are not mutated after construction, so the hash and the tree
    edit distance decomposition (``stare.ted``) are computed on first use
    and kept.
    """

    __slots__ = ("label", "children", "size", "_hash", "_ted")

    def __init__(self, label: str, children: tuple[ParseTree, ...] | list[ParseTree] = ()):
        if not label:
            raise ValueError("node labels must be non-empty")
        self.label = label
        self.children = tuple(children)
        size = 1  # a loop: sum() over a generator would build one per node
        for child in self.children:
            size += child.size
        self.size = size
        self._hash: int | None = None
        self._ted: tuple | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def postorder(self) -> Iterator[ParseTree]:
        for child in self.children:
            yield from child.postorder()
        yield self

    def to_compact(self) -> str:
        """Single-line rendering, e.g. ``(IN:X (SL:A 'me') 'tell angie')``."""
        if self.is_leaf:
            return repr(self.label) if " " in self.label else self.label
        inner = " ".join(c.to_compact() for c in self.children)
        return f"({self.label} {inner})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ParseTree):
            return NotImplemented
        return self.label == other.label and self.children == other.children

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.label, self.children))
        return self._hash

    def __repr__(self) -> str:
        return f"ParseTree({self.to_compact()})"


def _norm_span(words: list[str]) -> str:
    return " ".join(w.lower() for w in words)


def _lex(pattern: re.Pattern[str], text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, offset): kind names the group of ``pattern``
    that matched and value is that group's text. Whitespace between matches
    is skipped, so each pattern must match every other character."""
    return [(m.lastgroup, m.group(m.lastgroup), m.start()) for m in pattern.finditer(text)]


class _Cursor:
    """Read position of a recursive-descent grammar in one dialect's tokens.

    The tokens are ``lex(text)`` closed by an ``end`` token at ``len(text)``,
    so a grammar looks at the next token without a bounds check; ``name``
    names the dialect in the empty-input and unexpected-end errors.
    """

    def __init__(self, name: str, text: str, lex: Callable[[str], list[tuple[str, str, int]]]):
        if not text or not text.strip():
            raise ParseError(f"empty {name} input")
        self.name = name
        self.tokens = lex(text)
        self.tokens.append(("end", "", len(text)))
        self.pos = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _at(self, kind: str, value: str, ahead: int = 0) -> bool:
        tok_kind, tok_value, _ = self.tokens[self.pos + ahead]
        return tok_kind == kind and tok_value == value

    def _accept(self, kind: str, *values: str) -> str | None:
        """Take the next token if it is a ``kind`` token with one of ``values``
        (any value if none are given); its value, else None."""
        tok_kind, value, _ = self.tokens[self.pos]
        if tok_kind == kind and (not values or value in values):
            self.pos += 1
            return value
        return None

    def _take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError(f"unexpected end of {self.name} input", tok[2])
        self.pos += 1
        return tok

    def _expect(self, kind: str, value: str) -> None:
        """Take the next token, which must be the ``kind`` token ``value``;
        a keyword is named bare in the error, punctuation quoted."""
        tok_kind, tok_value, off = self._take()
        if tok_kind != kind or tok_value != value:
            shown = value if kind == "kw" else repr(value)
            raise ParseError(f"expected {shown}, found {tok_value!r}", off)


# ---------------------------------------------------------------------------
# bracketed dialect
# ---------------------------------------------------------------------------

_BRACKET_TOKEN = re.compile(r"(?P<open>\[)|(?P<close>\])|(?P<atom>[^\s\[\]]+)")


def lex_bracketed(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, offset); kind in {open, close, atom}.

    '[' and ']' are single-character tokens even without surrounding
    whitespace; everything else splits on whitespace.
    """
    return _lex(_BRACKET_TOKEN, text)


def parse_bracketed(text: str) -> ParseTree:
    """Parse a bracketed task-oriented form into a labeled tree.

    Each "[LABEL ...]" becomes a node labeled LABEL (case preserved);
    every maximal run of terminal tokens between structural children
    becomes one leaf whose label is the lowercased, whitespace-collapsed
    span.
    """
    cur = _Cursor("bracketed", text, lex_bracketed)

    def node() -> ParseTree:
        open_off = cur._take()[2]
        label = cur._accept("atom")
        if label is None:
            raise ParseError("missing node label after '['", cur._peek()[2])
        children: list[ParseTree] = []
        while True:
            span = []
            while word := cur._accept("atom"):
                span.append(word)
            if span:
                children.append(ParseTree(_norm_span(span)))
            if cur._accept("close"):
                return ParseTree(label, children)
            if not cur._at("open", "["):
                raise ParseError("unclosed '['", open_off)
            children.append(node())

    if not cur._at("open", "["):
        raise ParseError("expected '['", cur._peek()[2])
    root = node()
    if cur._peek()[0] != "end":
        raise ParseError("unexpected trailing content", cur._peek()[2])
    return root


# ---------------------------------------------------------------------------
# s-expression dialect
# ---------------------------------------------------------------------------

_SEXPR_TOKEN = re.compile(
    r'(?P<open>\()|(?P<close>\))|"(?P<string>[^"]*)"|(?P<atom>[^\s()"]+)|(?P<quote>")')


def lex_sexpr(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, offset); kind in {open, close, atom, string}.

    A string's value is the text between its quotes; its offset is that of
    the opening quote.
    """
    tokens = _lex(_SEXPR_TOKEN, text)
    for kind, _, off in tokens:
        if kind == "quote":
            raise ParseError("unterminated string literal", off)
    return tokens


def parse_sexpr(text: str) -> ParseTree:
    """Parse a LISP-style S-expression.

    The head atom of each list becomes the parent label (case preserved);
    remaining elements become children in order. Bare atoms and string
    literals become leaves with lowercased, whitespace-collapsed labels.
    """
    cur = _Cursor("s-expression", text, lex_sexpr)

    def expr() -> ParseTree:
        kind, value, open_off = cur._take()
        if kind != "open":
            return ParseTree(_norm_span(value.split()) or '""')
        head = cur._accept("atom")
        if head is None:
            kind, _, off = cur._peek()
            if kind == "close":
                raise ParseError("'()' has no head atom", open_off)
            if kind != "end":  # at the end, the loop below says unclosed
                raise ParseError("list head must be an atom", off)
        children: list[ParseTree] = []
        while (kind := cur._peek()[0]) != "close":
            if kind == "end":
                raise ParseError("unclosed '('", open_off)
            children.append(expr())
        cur._take()
        return ParseTree(head, children)

    if not cur._at("open", "("):
        raise ParseError("expected '(' at top level", cur._peek()[2])
    root = expr()
    if cur._peek()[0] != "end":
        raise ParseError("unexpected trailing content", cur._peek()[2])
    return root


# ---------------------------------------------------------------------------
# SQL skeleton dialect
# ---------------------------------------------------------------------------

_SQL_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON",
    "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "EXISTS", "UNION",
    "INTERSECT", "EXCEPT", "ALL", "ASC", "DESC",
}

_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}

_SQL_TOKEN = re.compile(
    r"""(?P<num>\d+(?:\.\d+)?)
      | (?P<str>'[^']*'|"[^"]*")
      | (?P<op><=|>=|<>|!=|=|<|>)
      | (?P<punct>[(),;*])
      | (?P<word>[A-Za-z_][A-Za-z0-9_$]*(?:\.(?:[A-Za-z_][A-Za-z0-9_$]*|\*))?)
      | (?P<bad>\S)
    """,
    re.VERBOSE,
)

NUM_PLACEHOLDER = "<NUM>"
STR_PLACEHOLDER = "<STR>"


def _lex_sql(text: str) -> list[tuple[str, str, int]]:
    """Tokens of one statement as (kind, value, offset), kind in {kw, ident,
    num, str, op, punct}: keywords uppercased, identifiers lowercased."""
    out = []
    for kind, value, off in _lex(_SQL_TOKEN, text):
        if kind == "bad":
            raise ParseError(f"cannot lex {value!r}", off)
        if kind == "word":
            upper = value.upper()
            kind, value = ("kw", upper) if upper in _SQL_KEYWORDS else ("ident", value.lower())
        out.append((kind, value, off))
    return out


class _SqlParser(_Cursor):
    """Recursive-descent parser producing clause-level skeleton trees.

    Supported subset: SELECT / FROM / WHERE / GROUP BY / HAVING /
    ORDER BY / LIMIT, JOIN..ON, UNION/INTERSECT/EXCEPT, nested
    subqueries, aggregates, and comparison/boolean predicates. Only
    essential fields survive: identifiers, function names, operators,
    and <NUM>/<STR> placeholders for literals.
    """

    def _comma_list(self, item: Callable[[], ParseTree]) -> list[ParseTree]:
        items = [item()]
        while self._accept("punct", ","):
            items.append(item())
        return items

    def _chain(self, op: str, operand: Callable[[], ParseTree]) -> ParseTree:
        """``operand (op operand)*``, nested to the left."""
        node = operand()
        while self._accept("kw", op):
            node = ParseTree(op, (node, operand()))
        return node

    def _subquery(self) -> ParseTree:
        """``( statement )``."""
        self._expect("punct", "(")
        inner = self.parse_statement()
        self._expect("punct", ")")
        return inner

    # -- grammar -----------------------------------------------------------

    def parse_statement(self) -> ParseTree:
        node = self.parse_select()
        while op := self._accept("kw", *_SET_OPS):
            self._accept("kw", "ALL")
            node = ParseTree(op, (node, self.parse_select()))
        return node

    def parse_select(self) -> ParseTree:
        self._expect("kw", "SELECT")
        self._accept("kw", "DISTINCT")
        clauses = [ParseTree("SELECT", self._comma_list(self._parse_value))]
        if self._accept("kw", "FROM"):
            clauses.append(ParseTree("FROM", self._parse_table_refs()))
        if self._accept("kw", "WHERE"):
            clauses.append(ParseTree("WHERE", (self._parse_condition(),)))
        if self._accept("kw", "GROUP"):
            self._expect("kw", "BY")
            clauses.append(ParseTree("GROUP BY", self._comma_list(self._parse_value)))
        if self._accept("kw", "HAVING"):
            clauses.append(ParseTree("HAVING", (self._parse_condition(),)))
        if self._accept("kw", "ORDER"):
            self._expect("kw", "BY")
            clauses.append(ParseTree("ORDER BY", self._comma_list(self._parse_order_item)))
        if self._accept("kw", "LIMIT"):
            kind, _, off = self._take()
            if kind != "num":
                raise ParseError("LIMIT expects a number", off)
            clauses.append(ParseTree("LIMIT", (ParseTree(NUM_PLACEHOLDER),)))
        return ParseTree("SELECT_STMT", clauses)

    def _parse_order_item(self) -> ParseTree:
        value = self._parse_value()
        self._accept("kw", "ASC", "DESC")
        return value

    def _parse_value(self) -> ParseTree:
        if self._at("punct", "("):
            return self._subquery()
        kind, value, off = self._take()
        if kind == "punct" and value == "*":
            return ParseTree("*")
        if kind == "num":
            return ParseTree(NUM_PLACEHOLDER)
        if kind == "str":
            return ParseTree(STR_PLACEHOLDER)
        if kind == "ident":
            if not self._accept("punct", "("):
                return ParseTree(value)
            self._accept("kw", "DISTINCT")
            args = self._comma_list(self._parse_value)
            self._expect("punct", ")")
            return ParseTree(value, args)
        raise ParseError(f"unsupported token {value!r}", off)

    def _parse_table_refs(self) -> list[ParseTree]:
        refs = [self._parse_table_ref()]
        while True:
            if self._accept("punct", ","):
                refs.append(self._parse_table_ref())
            elif (join := self._maybe_parse_join()) is not None:
                refs.append(join)
            else:
                return refs

    def _parse_table_ref(self) -> ParseTree:
        if self._at("punct", "("):
            ref = self._subquery()
        else:
            kind, value, off = self._take()
            if kind != "ident":
                raise ParseError(f"expected table name, found {value!r}", off)
            ref = ParseTree(value)
        if self._accept("kw", "AS"):  # the alias is skipped
            kind, _, off = self._take()
            if kind != "ident":
                raise ParseError("expected alias name", off)
        else:
            self._accept("ident")
        return ref

    def _maybe_parse_join(self) -> ParseTree | None:
        start = self.pos
        while self._accept("kw", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS"):
            pass
        if not self._accept("kw", "JOIN"):
            self.pos = start
            return None
        children = [self._parse_table_ref()]
        if self._accept("kw", "ON"):
            children.append(self._parse_condition())
        return ParseTree("JOIN", children)

    def _parse_condition(self) -> ParseTree:
        return self._chain("OR", lambda: self._chain("AND", self._parse_not))

    def _parse_not(self) -> ParseTree:
        if self._accept("kw", "NOT"):
            return ParseTree("NOT", (self._parse_not(),))
        return self._parse_predicate()

    def _parse_predicate(self) -> ParseTree:
        if self._accept("kw", "EXISTS"):
            return ParseTree("EXISTS", (self._subquery(),))
        # '(' opens either a grouped predicate or a subquery operand.
        if self._at("punct", "(") and not self._at("kw", "SELECT", 1):
            self._take()
            inner = self._parse_condition()
            self._expect("punct", ")")
            return inner
        left = self._parse_value()
        if self._accept("kw", "NOT"):
            return ParseTree("NOT", (self._finish_predicate(left),))
        return self._finish_predicate(left)

    def _finish_predicate(self, left: ParseTree) -> ParseTree:
        if op := self._accept("op"):
            return ParseTree(op, (left, self._parse_value()))
        if self._accept("kw", "IN"):
            self._expect("punct", "(")
            if self._at("kw", "SELECT"):
                members = [self.parse_statement()]
            else:
                members = self._comma_list(self._parse_value)
            self._expect("punct", ")")
            return ParseTree("IN", [left, *members])
        if self._accept("kw", "LIKE"):
            return ParseTree("LIKE", (left, self._parse_value()))
        if self._accept("kw", "BETWEEN"):
            lo = self._parse_value()
            self._expect("kw", "AND")
            return ParseTree("BETWEEN", (left, lo, self._parse_value()))
        kind, value, off = self._peek()
        if kind == "end":
            raise ParseError("incomplete predicate", off)
        raise ParseError(f"unsupported token {value!r} in predicate", off)


def parse_sql_skeleton(text: str) -> ParseTree:
    """Parse one SQL statement into a clause-level structural skeleton.

    The root is the statement kind (SELECT_STMT, or a set operator over
    two statements); each present clause becomes one child labeled with
    the uppercased clause keyword. Literals are replaced by <NUM>/<STR>
    placeholders and subqueries recurse as full skeletons.
    """
    parser = _SqlParser("SQL", text, _lex_sql)
    root = parser.parse_statement()
    parser._accept("punct", ";")
    kind, value, off = parser._peek()
    if kind != "end":
        raise ParseError(f"unsupported trailing token {value!r}", off)
    return root


# ---------------------------------------------------------------------------
# dispatch and leaf anonymization
# ---------------------------------------------------------------------------

_PARSERS = {
    ParseDialect.BRACKETED: parse_bracketed,
    ParseDialect.SEXPR: parse_sexpr,
    ParseDialect.SQL_SKELETON: parse_sql_skeleton,
}

# Leaf labels that carry structure rather than surface text.
_STRUCTURAL_LEAVES = {NUM_PLACEHOLDER, STR_PLACEHOLDER, "*", "<TXT>"}


def parse(text: str, dialect: ParseDialect | str) -> ParseTree:
    return _PARSERS[ParseDialect(dialect)](text)


def anonymize_leaves(tree: ParseTree) -> ParseTree:
    """Relabel every non-structural leaf to "<TXT>"; shape is unchanged.

    Idempotent: structural keywords (<NUM>, <STR>, "*", "<TXT>") are kept.
    """
    if tree.is_leaf:
        if tree.label in _STRUCTURAL_LEAVES:
            return tree
        return ParseTree("<TXT>")
    return ParseTree(tree.label, tuple(anonymize_leaves(c) for c in tree.children))
