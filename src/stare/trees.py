"""Labeled ordered trees for semantic parses.

Three dialects are supported: bracketed task-oriented parses
("[IN:X [SL:Y some span ] ]"), LISP-style S-expressions, and a
clause-level SQL skeleton. Every parser returns a ParseTree whose
child order matches the source text exactly.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator


class ParseError(ValueError):
    """Malformed parse input; ``position`` is a character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class EmptyInput(ParseError):
    pass


class UnbalancedBrackets(ParseError):
    pass


class UnbalancedParens(ParseError):
    pass


class UnterminatedStringLiteral(ParseError):
    pass


class EmptyList(ParseError):
    pass


class UnsupportedSyntax(ParseError):
    pass


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


# ---------------------------------------------------------------------------
# bracketed dialect
# ---------------------------------------------------------------------------

_BRACKET_TOKEN = re.compile(r"[\[\]]|[^\s\[\]]+")


def lex_bracketed(text: str) -> list[tuple[str, int]]:
    """Tokens of the bracketed dialect as (token, offset) pairs.

    '[' and ']' are single-character tokens even without surrounding
    whitespace; everything else splits on whitespace.
    """
    return [(m.group(0), m.start()) for m in _BRACKET_TOKEN.finditer(text)]


def parse_bracketed(text: str) -> ParseTree:
    """Parse a bracketed task-oriented form into a labeled tree.

    Each "[LABEL ...]" becomes a node labeled LABEL (case preserved);
    every maximal run of terminal tokens between structural children
    becomes one leaf whose label is the lowercased, whitespace-collapsed
    span.
    """
    if not text or not text.strip():
        raise EmptyInput("empty bracketed input")
    tokens = lex_bracketed(text)
    pos = 0

    def parse_node() -> ParseTree:
        nonlocal pos
        open_tok, open_off = tokens[pos]
        if open_tok != "[":
            raise UnbalancedBrackets("expected '['", open_off)
        pos += 1
        if pos >= len(tokens) or tokens[pos][0] in "[]":
            off = tokens[pos][1] if pos < len(tokens) else len(text)
            raise ParseError("missing node label after '['", off)
        label = tokens[pos][0]
        pos += 1
        children: list[ParseTree] = []
        span: list[str] = []

        def flush() -> None:
            if span:
                children.append(ParseTree(_norm_span(span)))
                span.clear()

        while pos < len(tokens):
            tok, off = tokens[pos]
            if tok == "[":
                flush()
                children.append(parse_node())
            elif tok == "]":
                flush()
                pos += 1
                return ParseTree(label, children)
            else:
                span.append(tok)
                pos += 1
        raise UnbalancedBrackets("unclosed '['", open_off)

    root = parse_node()
    if pos != len(tokens):
        raise UnbalancedBrackets("unexpected trailing content", tokens[pos][1])
    return root


# ---------------------------------------------------------------------------
# s-expression dialect
# ---------------------------------------------------------------------------

def lex_sexpr(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, offset); kind in {open, close, atom, string}."""
    out: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            out.append(("open", c, i))
            i += 1
        elif c == ")":
            out.append(("close", c, i))
            i += 1
        elif c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise UnterminatedStringLiteral("unterminated string literal", i)
            out.append(("string", text[i + 1 : j], i))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            out.append(("atom", text[i:j], i))
            i = j
    return out


def parse_sexpr(text: str) -> ParseTree:
    """Parse a LISP-style S-expression.

    The head atom of each list becomes the parent label (case preserved);
    remaining elements become children in order. Bare atoms and string
    literals become leaves with lowercased, whitespace-collapsed labels.
    """
    if not text or not text.strip():
        raise EmptyInput("empty s-expression input")
    tokens = lex_sexpr(text)
    pos = 0

    def parse_expr() -> ParseTree:
        nonlocal pos
        kind, value, off = tokens[pos]
        if kind == "close":
            raise UnbalancedParens("unexpected ')'", off)
        if kind in ("atom", "string"):
            pos += 1
            return ParseTree(_norm_span(value.split()) or '""')
        # kind == "open"
        pos += 1
        if pos >= len(tokens):
            raise UnbalancedParens("unclosed '('", off)
        head_kind, head_value, head_off = tokens[pos]
        if head_kind == "close":
            raise EmptyList("'()' has no head atom", off)
        if head_kind != "atom":
            raise ParseError("list head must be an atom", head_off)
        pos += 1
        children: list[ParseTree] = []
        while pos < len(tokens):
            if tokens[pos][0] == "close":
                pos += 1
                return ParseTree(head_value, children)
            children.append(parse_expr())
        raise UnbalancedParens("unclosed '('", off)

    if tokens[0][0] != "open":
        raise ParseError("expected '(' at top level", tokens[0][2])
    root = parse_expr()
    if pos != len(tokens):
        raise UnbalancedParens("unexpected trailing content", tokens[pos][2])
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
    """,
    re.VERBOSE,
)

NUM_PLACEHOLDER = "<NUM>"
STR_PLACEHOLDER = "<STR>"


class _SqlToken:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value: str, offset: int):
        self.kind = kind  # kw | ident | num | str | op | punct
        self.value = value
        self.offset = offset

    def __repr__(self) -> str:
        return f"_SqlToken({self.kind}, {self.value!r})"


def _lex_sql(text: str) -> list[_SqlToken]:
    out: list[_SqlToken] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _SQL_TOKEN.match(text, i)
        if not m:
            raise ParseError(f"cannot lex {text[i]!r}", i)
        if m.lastgroup == "word":
            word = m.group(0)
            upper = word.upper()
            if upper in _SQL_KEYWORDS:
                out.append(_SqlToken("kw", upper, i))
            else:
                out.append(_SqlToken("ident", word.lower(), i))
        elif m.lastgroup == "num":
            out.append(_SqlToken("num", m.group(0), i))
        elif m.lastgroup == "str":
            out.append(_SqlToken("str", m.group(0), i))
        elif m.lastgroup == "op":
            out.append(_SqlToken("op", m.group(0), i))
        else:
            out.append(_SqlToken("punct", m.group(0), i))
        i = m.end()
    return out


class _SqlParser:
    """Recursive-descent parser producing clause-level skeleton trees.

    Supported subset: SELECT / FROM / WHERE / GROUP BY / HAVING /
    ORDER BY / LIMIT, JOIN..ON, UNION/INTERSECT/EXCEPT, nested
    subqueries, aggregates, and comparison/boolean predicates. Only
    essential fields survive: identifiers, function names, operators,
    and <NUM>/<STR> placeholders for literals.
    """

    def __init__(self, tokens: list[_SqlToken], text_len: int):
        self.tokens = tokens
        self.pos = 0
        self.text_len = text_len

    # -- token helpers -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> _SqlToken | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def _at_kw(self, *names: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "kw" and tok.value in names

    def _at_punct(self, value: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "punct" and tok.value == value

    def _take(self) -> _SqlToken:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of SQL input", self.text_len)
        self.pos += 1
        return tok

    def _expect_kw(self, name: str) -> _SqlToken:
        tok = self._take()
        if tok.kind != "kw" or tok.value != name:
            raise ParseError(f"expected {name}, found {tok.value!r}", tok.offset)
        return tok

    def _expect_punct(self, value: str) -> _SqlToken:
        tok = self._take()
        if tok.kind != "punct" or tok.value != value:
            raise ParseError(f"expected {value!r}, found {tok.value!r}", tok.offset)
        return tok

    # -- grammar -----------------------------------------------------------

    def parse_statement(self) -> ParseTree:
        node = self.parse_select()
        while self._at_kw(*_SET_OPS):
            op = self._take().value
            if self._at_kw("ALL"):
                self._take()
            right = self.parse_select()
            node = ParseTree(op, (node, right))
        return node

    def parse_select(self) -> ParseTree:
        self._expect_kw("SELECT")
        clauses: list[ParseTree] = []
        if self._at_kw("DISTINCT"):
            self._take()
        clauses.append(ParseTree("SELECT", self._parse_expr_list()))
        if self._at_kw("FROM"):
            self._take()
            clauses.append(ParseTree("FROM", self._parse_table_refs()))
        if self._at_kw("WHERE"):
            self._take()
            clauses.append(ParseTree("WHERE", (self._parse_condition(),)))
        if self._at_kw("GROUP"):
            self._take()
            self._expect_kw("BY")
            clauses.append(ParseTree("GROUP BY", self._parse_expr_list()))
        if self._at_kw("HAVING"):
            self._take()
            clauses.append(ParseTree("HAVING", (self._parse_condition(),)))
        if self._at_kw("ORDER"):
            self._take()
            self._expect_kw("BY")
            items = []
            items.append(self._parse_value())
            self._skip_direction()
            while self._at_punct(","):
                self._take()
                items.append(self._parse_value())
                self._skip_direction()
            clauses.append(ParseTree("ORDER BY", items))
        if self._at_kw("LIMIT"):
            self._take()
            tok = self._take()
            if tok.kind != "num":
                raise ParseError("LIMIT expects a number", tok.offset)
            clauses.append(ParseTree("LIMIT", (ParseTree(NUM_PLACEHOLDER),)))
        return ParseTree("SELECT_STMT", clauses)

    def _skip_direction(self) -> None:
        if self._at_kw("ASC") or self._at_kw("DESC"):
            self._take()

    def _parse_expr_list(self) -> list[ParseTree]:
        items = [self._parse_value()]
        while self._at_punct(","):
            self._take()
            items.append(self._parse_value())
        return items

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
            self._expect_punct(")")
            return inner
        if tok.kind == "ident":
            if self._at_punct("("):
                self._take()
                if self._at_kw("DISTINCT"):
                    self._take()
                args = [self._parse_value()]
                while self._at_punct(","):
                    self._take()
                    args.append(self._parse_value())
                self._expect_punct(")")
                return ParseTree(tok.value, args)
            return ParseTree(tok.value)
        raise UnsupportedSyntax(f"unsupported token {tok.value!r}", tok.offset)

    def _parse_table_refs(self) -> list[ParseTree]:
        refs = [self._parse_table_ref()]
        while True:
            if self._at_punct(","):
                self._take()
                refs.append(self._parse_table_ref())
                continue
            join = self._maybe_parse_join()
            if join is None:
                return refs
            refs.append(join)

    def _parse_table_ref(self) -> ParseTree:
        if self._at_punct("("):
            self._take()
            inner = self.parse_statement()
            self._expect_punct(")")
            self._skip_alias()
            return inner
        tok = self._take()
        if tok.kind != "ident":
            raise ParseError(f"expected table name, found {tok.value!r}", tok.offset)
        self._skip_alias()
        return ParseTree(tok.value)

    def _skip_alias(self) -> None:
        if self._at_kw("AS"):
            self._take()
            tok = self._take()
            if tok.kind != "ident":
                raise ParseError("expected alias name", tok.offset)
        elif (tok := self._peek()) is not None and tok.kind == "ident":
            self._take()

    def _maybe_parse_join(self) -> ParseTree | None:
        modifiers = ("INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS")
        start = self.pos
        while self._at_kw(*modifiers):
            self._take()
        if not self._at_kw("JOIN"):
            self.pos = start
            return None
        self._take()
        ref = self._parse_table_ref()
        children = [ref]
        if self._at_kw("ON"):
            self._take()
            children.append(self._parse_condition())
        return ParseTree("JOIN", children)

    def _parse_condition(self) -> ParseTree:
        node = self._parse_and()
        while self._at_kw("OR"):
            self._take()
            node = ParseTree("OR", (node, self._parse_and()))
        return node

    def _parse_and(self) -> ParseTree:
        node = self._parse_not()
        while self._at_kw("AND"):
            self._take()
            node = ParseTree("AND", (node, self._parse_not()))
        return node

    def _parse_not(self) -> ParseTree:
        if self._at_kw("NOT"):
            self._take()
            return ParseTree("NOT", (self._parse_not(),))
        return self._parse_predicate()

    def _parse_predicate(self) -> ParseTree:
        if self._at_kw("EXISTS"):
            self._take()
            self._expect_punct("(")
            inner = self.parse_statement()
            self._expect_punct(")")
            return ParseTree("EXISTS", (inner,))
        if self._at_punct("(") and self._is_nested_condition():
            self._take()
            inner = self._parse_condition()
            self._expect_punct(")")
            return inner
        left = self._parse_value()
        if self._at_kw("NOT"):
            self._take()
            inner = self._finish_predicate(left)
            return ParseTree("NOT", (inner,))
        return self._finish_predicate(left)

    def _is_nested_condition(self) -> bool:
        # '(' opens either a grouped predicate or a subquery operand.
        nxt = self._peek(1)
        return not (nxt is not None and nxt.kind == "kw" and nxt.value == "SELECT")

    def _finish_predicate(self, left: ParseTree) -> ParseTree:
        tok = self._peek()
        if tok is None:
            raise ParseError("incomplete predicate", self.text_len)
        if tok.kind == "op":
            self._take()
            right = self._parse_value()
            return ParseTree(tok.value, (left, right))
        if tok.kind == "kw" and tok.value == "IN":
            self._take()
            self._expect_punct("(")
            if self._at_kw("SELECT"):
                members: list[ParseTree] = [self.parse_statement()]
            else:
                members = [self._parse_value()]
                while self._at_punct(","):
                    self._take()
                    members.append(self._parse_value())
            self._expect_punct(")")
            return ParseTree("IN", [left] + members)
        if tok.kind == "kw" and tok.value == "LIKE":
            self._take()
            return ParseTree("LIKE", (left, self._parse_value()))
        if tok.kind == "kw" and tok.value == "BETWEEN":
            self._take()
            lo = self._parse_value()
            self._expect_kw("AND")
            hi = self._parse_value()
            return ParseTree("BETWEEN", (left, lo, hi))
        raise UnsupportedSyntax(f"unsupported token {tok.value!r} in predicate", tok.offset)


def parse_sql_skeleton(text: str) -> ParseTree:
    """Parse one SQL statement into a clause-level structural skeleton.

    The root is the statement kind (SELECT_STMT, or a set operator over
    two statements); each present clause becomes one child labeled with
    the uppercased clause keyword. Literals are replaced by <NUM>/<STR>
    placeholders and subqueries recurse as full skeletons.
    """
    if not text or not text.strip():
        raise EmptyInput("empty SQL input")
    tokens = _lex_sql(text)
    if not tokens:
        raise EmptyInput("empty SQL input")
    parser = _SqlParser(tokens, len(text))
    root = parser.parse_statement()
    if parser._at_punct(";"):
        parser._take()
    if parser.pos != len(tokens):
        tok = tokens[parser.pos]
        raise UnsupportedSyntax(f"unsupported trailing token {tok.value!r}", tok.offset)
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
