"""Seeded generator of a text-to-SQL style bank for the mine-sql workload.

Statements use only the syntax ``stare.trees.parse_sql_skeleton`` accepts:
JOIN..ON, WHERE conjunctions and disjunctions (comparisons, LIKE, BETWEEN,
IN / NOT IN subqueries, NOT, parenthesised groups), GROUP BY with HAVING,
ORDER BY with a direction, LIMIT, and UNION / INTERSECT / EXCEPT. Clause
choices are independent draws, so almost every skeleton tree is distinct
and trees are large; that is the point of the workload (no repeats for a
cache to exploit).

Two random streams drive the generator. Every choice that fixes the
skeleton's shape (clause presence, join and predicate counts, predicate
kinds, AND/OR nesting) and the tables and columns it names comes from a
stream with a fixed seed, so every bank holds the same shapes over the
same identifiers and the mining load, which Zhang-Shasha cost and LSH
pool sizes set, stays within about 1% across seeds (drawing columns from
the workload seed too spread it by about 4%). Aggregates, comparison
operators, set operators, DISTINCT, sort directions and literals come
from the workload seed; they change labels, aggregate features, TED
values and hence the mined pairs. The generator is stdlib-only.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SCHEMA: dict[str, list[str]] = {
    "singer": ["singer_id", "name", "country", "age", "song_name", "release_year"],
    "concert": ["concert_id", "concert_name", "theme", "stadium_id", "year"],
    "stadium": ["stadium_id", "location", "capacity", "highest", "average"],
    "performs": ["concert_id", "singer_id", "fee"],
    "employee": ["employee_id", "name", "age", "city", "salary", "dept_id"],
    "projects": ["project_id", "employee_id", "title", "hours"],
    "department": ["dept_id", "dept_name", "budget", "manager_id"],
    "orders": ["order_id", "customer_id", "product_id", "quantity", "price"],
    "customers": ["customer_id", "name", "city", "segment"],
    "products": ["product_id", "product_name", "category", "price"],
}
_NUMERIC = {"age", "release_year", "year", "capacity", "highest", "average", "fee",
            "salary", "budget", "quantity", "price", "hours"}
_SHAPE_SEED = 20250828
_AGGS = ["count", "max", "min", "avg", "sum"]
_OPS = ["=", ">", "<", ">=", "<=", "!="]
_WORDS = {"=": "equal to", ">": "above", "<": "below", ">=": "at least",
          "<=": "at most", "!=": "not equal to"}


def _joinable(table: str) -> list[tuple[str, str]]:
    cols = set(SCHEMA[table])
    return [(other, col) for other in sorted(SCHEMA) if other != table
            for col in SCHEMA[other] if col in cols and col.endswith("_id")]


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.shape_rng = random.Random(_SHAPE_SEED)

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def shape(self, options):
        return options[self.shape_rng.randrange(len(options))]

    def chance(self, p: float) -> bool:
        return self.shape_rng.random() < p

    def number(self) -> str:
        return str(self.rng.randrange(1, 2000))

    def statement(self, depth: int) -> tuple[str, list[str]]:
        sql, words = self.select(depth)
        if depth == 0 and self.chance(0.1):
            op = self.pick(["UNION", "INTERSECT", "EXCEPT"])
            right, right_words = self.select(depth + 1)
            sql = f"{sql} {op} {right}"
            words = words + [op.lower()] + right_words
        return sql, words

    def select(self, depth: int) -> tuple[str, list[str]]:
        table = self.shape(sorted(SCHEMA))
        tables = [(table, "T1")]
        joins = []
        n_joins = self.shape([0, 0, 1, 1, 2]) if depth == 0 else self.shape([0, 0, 1])
        for _ in range(n_joins):
            options = [(o, c, a) for t, a in tables for o, c in _joinable(t)
                       if o not in {x for x, _ in tables}]
            if not options:
                break
            other, col, left_alias = self.shape(options)
            alias = f"T{len(tables) + 1}"
            tables.append((other, alias))
            joins.append(f"JOIN {other} AS {alias} ON {left_alias}.{col} = {alias}.{col}")
        qualified = len(tables) > 1

        def column() -> str:
            t, alias = self.shape(tables)
            col = self.shape(SCHEMA[t])
            return f"{alias}.{col}" if qualified else col

        def numeric_column() -> str:
            numeric = [(t, a, c) for t, a in tables for c in SCHEMA[t] if c in _NUMERIC]
            if not numeric:
                return column()
            t, alias, col = self.shape(numeric)
            return f"{alias}.{col}" if qualified else col

        items = []
        for _ in range(self.shape([1, 1, 1, 2])):
            if self.chance(0.3):
                col, agg = numeric_column(), self.pick(_AGGS)
                items.append("count(*)" if agg == "count" and self.rng.random() < 0.5
                             else f"{agg}({col})")
            else:
                items.append(column())
        distinct = "DISTINCT " if self.rng.random() < 0.15 else ""
        from_sql = f"{table} AS T1" if qualified else table
        parts = [f"SELECT {distinct}{', '.join(items)} FROM {from_sql}"] + joins
        words = ["show", *[w for item in items for w in item.replace("(", " ").replace(
            ")", " ").replace(".", " ").split()], "from", *[t for t, _ in tables]]

        if self.chance(0.75):
            cond, cond_words = self.condition(depth, column, numeric_column)
            parts.append(f"WHERE {cond}")
            words += ["where", *cond_words]
        if self.chance(0.35):
            key = column()
            parts.append(f"GROUP BY {key}")
            words += ["per", key.split(".")[-1]]
            if self.chance(0.5):
                parts.append(f"HAVING count(*) {self.pick(_OPS[1:5])} {self.rng.randrange(1, 9)}")
                words += ["having", "several"]
        if self.chance(0.4):
            key = column() if self.chance(0.5) else \
                f"{self.pick(_AGGS[1:])}({numeric_column()})"
            direction = self.pick(["", " ASC", " DESC"])
            parts.append(f"ORDER BY {key}{direction}")
            words += ["sorted", "by", key.split(".")[-1].rstrip(")")]
            if self.chance(0.5):
                limit = self.rng.randrange(1, 20)
                parts.append(f"LIMIT {limit}")
                words += ["top", str(limit)]
        return " ".join(parts), words

    def condition(self, depth, column, numeric_column) -> tuple[str, list[str]]:
        preds = [self.predicate(depth, column, numeric_column)
                 for _ in range(self.shape([1, 1, 2]))]
        sql, words = preds[0]
        for pred_sql, pred_words in preds[1:]:
            conj = self.shape(["AND", "AND", "OR"])
            if conj == "OR" and self.chance(0.5):
                sql = f"({sql} OR {pred_sql})"
            else:
                sql = f"{sql} {conj} {pred_sql}"
            words = words + [conj.lower()] + pred_words
        return sql, words

    def predicate(self, depth, column, numeric_column) -> tuple[str, list[str]]:
        kind = self.shape(["cmp", "cmp", "cmp", "cmp", "str", "like", "between", "in", "cmp",
                           "str", "not"])
        if kind in ("in", "not") and depth >= 1:
            kind = "cmp"
        if kind == "cmp":
            col, op, num = numeric_column(), self.pick(_OPS), self.number()
            return f"{col} {op} {num}", [col.split(".")[-1], *_WORDS[op].split(), num]
        if kind == "str":
            col = column()
            value = self.pick(["usa", "france", "rock", "north", "retail", "paris"])
            return f"{col} = '{value}'", [col.split(".")[-1], "is", value]
        if kind == "like":
            col = column()
            value = self.pick(["a", "an", "the", "ro", "er"])
            return f"{col} LIKE '%{value}%'", [col.split(".")[-1], "containing", value]
        if kind == "between":
            col = numeric_column()
            lo = self.rng.randrange(1, 500)
            hi = lo + self.rng.randrange(1, 500)
            return (f"{col} BETWEEN {lo} AND {hi}",
                    [col.split(".")[-1], "between", str(lo), "and", str(hi)])
        col = column()
        sub_sql, sub_words = self.select(depth + 1)
        neg = "NOT " if kind == "not" else ""
        return (f"{col} {neg}IN ({sub_sql})",
                [col.split(".")[-1], *(["not"] if neg else []), "in", *sub_words])


def generate(n: int, seed: int, id_prefix: str = "q") -> list[dict]:
    """``n`` records {"id", "utterance", "parse"}; deterministic in ``seed``."""
    gen = _Gen(seed)
    records = []
    for i in range(n):
        sql, words = gen.statement(0)
        records.append({"id": f"{id_prefix}{i:04d}", "utterance": " ".join(words).lower(),
                        "parse": sql})
    return records


def write_bank(out_dir: Path, n_train: int, n_dev: int, seed: int) -> None:
    """Write train/dev corpora and a bucket+mine config into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, n, sub_seed, prefix in (("train.jsonl", n_train, seed, "q"),
                                      ("dev.jsonl", n_dev, seed + 1_000_003, "dev_q")):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            for rec in generate(n, sub_seed, prefix):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    config = {
        "corpus": {"train": "train.jsonl", "dev": "dev.jsonl", "dialect": "sql_skeleton"},
        "bucketing": {"num_hashes": 128, "tau": 0.5, "seed": 7},
        "mining": {"n_hard": 3, "n_rand": 2, "seed": 13, "anonymize": False},
    }
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True),
                                         encoding="utf-8")
