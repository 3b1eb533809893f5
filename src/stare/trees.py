"""Labeled ordered trees for semantic parses.

Three dialects are supported: bracketed task-oriented parses
("[IN:X [SL:Y some span ] ]"), LISP-style S-expressions, and a
clause-level SQL skeleton. Every parser returns a ParseTree whose
child order matches the source text exactly.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, Iterator, NamedTuple


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
        self.size = 1 + sum(c.size for c in self.children)
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
    if not text or not text.strip():
        raise ParseError("empty bracketed input")
    tokens = lex_bracketed(text)
    pos = 0

    def parse_node() -> ParseTree:
        nonlocal pos
        kind, _, open_off = tokens[pos]
        if kind != "open":
            raise ParseError("expected '['", open_off)
        pos += 1
        if pos >= len(tokens) or tokens[pos][0] != "atom":
            off = tokens[pos][2] if pos < len(tokens) else len(text)
            raise ParseError("missing node label after '['", off)
        label = tokens[pos][1]
        pos += 1
        children: list[ParseTree] = []
        span: list[str] = []

        def flush() -> None:
            if span:
                children.append(ParseTree(_norm_span(span)))
                span.clear()

        while pos < len(tokens):
            kind, value, _ = tokens[pos]
            if kind == "open":
                flush()
                children.append(parse_node())
            elif kind == "close":
                flush()
                pos += 1
                return ParseTree(label, children)
            else:
                span.append(value)
                pos += 1
        raise ParseError("unclosed '['", open_off)

    root = parse_node()
    if pos != len(tokens):
        raise ParseError("unexpected trailing content", tokens[pos][2])
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
    if not text or not text.strip():
        raise ParseError("empty s-expression input")
    tokens = lex_sexpr(text)
    pos = 0

    def parse_expr() -> ParseTree:
        nonlocal pos
        kind, value, off = tokens[pos]
        if kind in ("atom", "string"):
            pos += 1
            return ParseTree(_norm_span(value.split()) or '""')
        # kind == "open"
        pos += 1
        if pos >= len(tokens):
            raise ParseError("unclosed '('", off)
        head_kind, head_value, head_off = tokens[pos]
        if head_kind == "close":
            raise ParseError("'()' has no head atom", off)
        if head_kind != "atom":
            raise ParseError("list head must be an atom", head_off)
        pos += 1
        children: list[ParseTree] = []
        while pos < len(tokens):
            if tokens[pos][0] == "close":
                pos += 1
                return ParseTree(head_value, children)
            children.append(parse_expr())
        raise ParseError("unclosed '('", off)

    if tokens[0][0] != "open":
        raise ParseError("expected '(' at top level", tokens[0][2])
    root = parse_expr()
    if pos != len(tokens):
        raise ParseError("unexpected trailing content", tokens[pos][2])
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


class _SqlToken(NamedTuple):
    kind: str  # kw | ident | num | str | op | punct | end
    value: str
    offset: int


def _lex_sql(text: str) -> list[_SqlToken]:
    """Tokens of one statement, keywords uppercased and identifiers
    lowercased, closed by an ``end`` token at ``len(text)``."""
    out: list[_SqlToken] = []
    for kind, value, off in _lex(_SQL_TOKEN, text):
        if kind == "bad":
            raise ParseError(f"cannot lex {value!r}", off)
        if kind == "word":
            upper = value.upper()
            kind, value = ("kw", upper) if upper in _SQL_KEYWORDS else ("ident", value.lower())
        out.append(_SqlToken(kind, value, off))
    out.append(_SqlToken("end", "", len(text)))
    return out


class _SqlParser:
    """Recursive-descent parser producing clause-level skeleton trees.

    Supported subset: SELECT / FROM / WHERE / GROUP BY / HAVING /
    ORDER BY / LIMIT, JOIN..ON, UNION/INTERSECT/EXCEPT, nested
    subqueries, aggregates, and comparison/boolean predicates. Only
    essential fields survive: identifiers, function names, operators,
    and <NUM>/<STR> placeholders for literals.
    """

    def __init__(self, tokens: list[_SqlToken]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def _at(self, kind: str, value: str, ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        return tok.kind == kind and tok.value == value

    def _accept(self, kind: str, *values: str) -> str | None:
        """Take the next token if it is a ``kind`` token with one of ``values``;
        its value, else None."""
        tok = self.tokens[self.pos]
        if tok.kind == kind and tok.value in values:
            self.pos += 1
            return tok.value
        return None

    def _take(self) -> _SqlToken:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise ParseError("unexpected end of SQL input", tok.offset)
        self.pos += 1
        return tok

    def _expect(self, kind: str, value: str) -> None:
        """Take the next token, which must be the ``kind`` token ``value``;
        a keyword is named bare in the error, punctuation quoted."""
        tok = self._take()
        if tok.kind != kind or tok.value != value:
            shown = value if kind == "kw" else repr(value)
            raise ParseError(f"expected {shown}, found {tok.value!r}", tok.offset)

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
            tok = self._take()
            if tok.kind != "num":
                raise ParseError("LIMIT expects a number", tok.offset)
            clauses.append(ParseTree("LIMIT", (ParseTree(NUM_PLACEHOLDER),)))
        return ParseTree("SELECT_STMT", clauses)

    def _parse_order_item(self) -> ParseTree:
        value = self._parse_value()
        self._accept("kw", "ASC", "DESC")
        return value

    def _parse_value(self) -> ParseTree:
        tok = self._take()
        if tok.kind == "punct" and tok.value == "*":
            return ParseTree("*")
        if tok.kind == "num":
            return ParseTree(NUM_PLACEHOLDER)
        if tok.kind == "str":
            return ParseTree(STR_PLACEHOLDER)
        if tok.kind == "punct" and tok.value == "(":
            inner = self.parse_statement()
            self._expect("punct", ")")
            return inner
        if tok.kind == "ident":
            if not self._accept("punct", "("):
                return ParseTree(tok.value)
            self._accept("kw", "DISTINCT")
            args = self._comma_list(self._parse_value)
            self._expect("punct", ")")
            return ParseTree(tok.value, args)
        raise ParseError(f"unsupported token {tok.value!r}", tok.offset)

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
        if self._accept("punct", "("):
            ref = self.parse_statement()
            self._expect("punct", ")")
        else:
            tok = self._take()
            if tok.kind != "ident":
                raise ParseError(f"expected table name, found {tok.value!r}", tok.offset)
            ref = ParseTree(tok.value)
        self._skip_alias()
        return ref

    def _skip_alias(self) -> None:
        if self._accept("kw", "AS"):
            tok = self._take()
            if tok.kind != "ident":
                raise ParseError("expected alias name", tok.offset)
        elif self.tokens[self.pos].kind == "ident":
            self.pos += 1

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
            self._expect("punct", "(")
            inner = self.parse_statement()
            self._expect("punct", ")")
            return ParseTree("EXISTS", (inner,))
        # '(' opens either a grouped predicate or a subquery operand.
        if self._at("punct", "(") and not self._at("kw", "SELECT", 1):
            self.pos += 1
            inner = self._parse_condition()
            self._expect("punct", ")")
            return inner
        left = self._parse_value()
        if self._accept("kw", "NOT"):
            return ParseTree("NOT", (self._finish_predicate(left),))
        return self._finish_predicate(left)

    def _finish_predicate(self, left: ParseTree) -> ParseTree:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise ParseError("incomplete predicate", tok.offset)
        if tok.kind == "op":
            self.pos += 1
            return ParseTree(tok.value, (left, self._parse_value()))
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
        raise ParseError(f"unsupported token {tok.value!r} in predicate", tok.offset)


def parse_sql_skeleton(text: str) -> ParseTree:
    """Parse one SQL statement into a clause-level structural skeleton.

    The root is the statement kind (SELECT_STMT, or a set operator over
    two statements); each present clause becomes one child labeled with
    the uppercased clause keyword. Literals are replaced by <NUM>/<STR>
    placeholders and subqueries recurse as full skeletons.
    """
    if not text or not text.strip():
        raise ParseError("empty SQL input")
    parser = _SqlParser(_lex_sql(text))
    root = parser.parse_statement()
    parser._accept("punct", ";")
    tok = parser.tokens[parser.pos]
    if tok.kind != "end":
        raise ParseError(f"unsupported trailing token {tok.value!r}", tok.offset)
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
