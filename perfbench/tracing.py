"""Span tracing of the ``stare`` package from outside it.

``install`` replaces the public functions of each ``stare`` module with
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark op (stage or query) in progress. Spans stay in
memory in flat arrays; ``Tracer.metrics`` derives self times (span minus
its child spans) and counts from them once the run ends, and
``Tracer.save`` writes them out.

A name is wrapped where its caller looks it up. ``mining``, ``retrieval``
and ``mli`` bind ``sim_struct``/``parse`` at import, so TED is caught by
wrapping ``stare.ted.ted`` (which ``sim_struct`` calls through the module
global) and parsing by wrapping the dialect parsers both in the dispatch
dict ``trees._PARSERS`` and as module attributes (``bucketing`` calls
``trees.parse_*`` directly). Bookkeeping done after a call returns
(result sizes, pair references) falls outside that span and lands in its
parent's self time, which is part of the reported tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

# Per-layer metrics in the order they are reported. Suffixes: ".calls"
# counts, ".s" self seconds, "_ratio" ratios; the rest are counts or means.
PER_LAYER = [
    "trees.parse.calls", "trees.parse.s", "corpus.tree.calls", "corpus.tree.miss_ratio",
    "corpus.load.s",
    "bucketing.extract_features.s", "bucketing.minhash.s", "bucketing.lsh_insert.s",
    "bucketing.lsh_query.calls", "bucketing.lsh_query.s", "bucketing.lsh_io.s",
    "bucketing.pool_mean",
    "ted.calls", "ted.s", "ted.distinct_pairs", "ted.repeat_ratio", "ted.dp_cells",
    "mining.mine_all.s", "mining.mine_group.calls", "mining.mine_group.s",
    "mining.groups_io.s",
    "encoder.forward.calls", "encoder.forward.tokens", "encoder.forward.s",
    "encoder.backward.calls", "encoder.backward.s", "encoder.adamw.s", "encoder.train.s",
    "encoder.fingerprint.calls", "encoder.fingerprint.s", "encoder.params_io.s",
    "mli.sweep.s", "mli.collect_states.s", "mli.train_probe.calls", "mli.train_probe.s",
    "mli.probe_steps", "mli.extract_direction.s", "mli.cells", "mli.sweep_index_builds",
    "mli.sweep_forwards",
    "retrieval.build_index.calls", "retrieval.build_index.s", "retrieval.topk.calls",
    "retrieval.topk.s", "retrieval.bm25.s", "retrieval.evaluate.s",
    "retrieval.build_prompt.s", "retrieval.index_io.s",
    "cli.stage.s",
]

# Counts that depend only on the inputs; two traced runs must agree on them.
FIXED_COUNTS = ["ted.calls", "ted.distinct_pairs", "ted.dp_cells", "encoder.forward.calls",
                "encoder.fingerprint.calls", "mli.cells", "retrieval.build_index.calls"]


def unit_of(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Flat in-memory span store; single-threaded by construction."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.ted_pairs: list[tuple] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``after(args, result)`` runs once the span is closed.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_ix.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, fn, name: str):
        """Wrapper that only counts calls (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- derivation ---------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name_ix, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start,
                                                                        dtype=np.float64)
        return name, parent, dur

    def _has_ancestor(self, name: np.ndarray, parent: np.ndarray, target: str) -> np.ndarray:
        """Boolean per span: some strict ancestor is named ``target``."""
        tid = self._name_ids.get(target)
        n = len(name)
        if tid is None or n == 0:
            return np.zeros(n, dtype=bool)
        up = np.where(parent >= 0, parent, np.arange(n))
        flag = (name[up] == tid) & (parent >= 0)
        while True:  # pointer jumping: each round doubles the depth covered
            nxt = flag | flag[up]
            up2 = up[up]
            if np.array_equal(nxt, flag) and np.array_equal(up2, up):
                return flag
            flag, up = nxt, up2

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, derived from the recorded spans."""
        name, parent, dur = self._arrays()
        n_names = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names) if len(name) else np.zeros(n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names) if len(name) \
            else np.zeros(n_names)

        def c(span: str) -> int:
            i = self._name_ids.get(span)
            return int(calls[i]) if i is not None else 0

        def s(*spans: str) -> float:
            return float(sum(self_s[self._name_ids[x]] for x in spans if x in self._name_ids))

        def named(span: str) -> np.ndarray:
            i = self._name_ids.get(span)
            return name == (i if i is not None else -1)

        # A corpus.tree call that parsed (has a trees.parse child) missed its cache.
        tree_calls = c("corpus.tree")
        parse_parents = parent[named("trees.parse") & (parent >= 0)]
        tree_misses = int(np.count_nonzero(named("corpus.tree")[parse_parents])) \
            if len(parse_parents) else 0

        ted_calls = len(self.ted_pairs)
        keys: dict[int, str] = {}
        distinct: set[tuple[str, str]] = set()
        dp_cells = 0
        for a, b in self.ted_pairs:
            ka = keys.get(id(a))
            if ka is None:
                ka = keys[id(a)] = a.to_compact()
            kb = keys.get(id(b))
            if kb is None:
                kb = keys[id(b)] = b.to_compact()
            distinct.add((ka, kb))
            dp_cells += a.size * b.size

        in_sweep = self._has_ancestor(name, parent, "mli.sweep")
        lsh_queries = c("bucketing.lsh_query")
        out = {
            "trees.parse.calls": c("trees.parse"),
            "trees.parse.s": s("trees.parse"),
            "corpus.tree.calls": tree_calls,
            "corpus.tree.miss_ratio": tree_misses / tree_calls if tree_calls else 0.0,
            "corpus.load.s": s("corpus.load"),
            "bucketing.extract_features.s": s("bucketing.extract_features"),
            "bucketing.minhash.s": s("bucketing.minhash"),
            "bucketing.lsh_insert.s": s("bucketing.lsh_insert"),
            "bucketing.lsh_query.calls": lsh_queries,
            "bucketing.lsh_query.s": s("bucketing.lsh_query"),
            "bucketing.lsh_io.s": s("bucketing.lsh_io"),
            "bucketing.pool_mean": (self.counters.get("pool_total", 0) / lsh_queries
                                    if lsh_queries else 0.0),
            "ted.calls": ted_calls,
            "ted.s": s("ted"),
            "ted.distinct_pairs": len(distinct),
            "ted.repeat_ratio": 1.0 - len(distinct) / ted_calls if ted_calls else 0.0,
            "ted.dp_cells": dp_cells,
            "mining.mine_all.s": s("mining.mine_all"),
            "mining.mine_group.calls": c("mining.mine_group"),
            "mining.mine_group.s": s("mining.mine_group"),
            "mining.groups_io.s": s("mining.groups_io"),
            "encoder.forward.calls": c("encoder.forward"),
            "encoder.forward.tokens": int(self.counters.get("forward_tokens", 0)),
            "encoder.forward.s": s("encoder.forward"),
            "encoder.backward.calls": c("encoder.backward"),
            "encoder.backward.s": s("encoder.backward"),
            "encoder.adamw.s": s("encoder.adamw"),
            "encoder.train.s": s("encoder.train"),
            "encoder.fingerprint.calls": c("encoder.fingerprint"),
            "encoder.fingerprint.s": s("encoder.fingerprint"),
            "encoder.params_io.s": s("encoder.params_io"),
            "mli.sweep.s": s("mli.sweep"),
            "mli.collect_states.s": s("mli.collect_states"),
            "mli.train_probe.calls": c("mli.train_probe"),
            "mli.train_probe.s": s("mli.train_probe"),
            "mli.probe_steps": int(self.counters.get("probe_steps", 0)),
            "mli.extract_direction.s": s("mli.extract_direction"),
            "mli.cells": int(self.counters.get("mli_cells", 0)),
            "mli.sweep_index_builds": int(np.count_nonzero(
                named("retrieval.build_index") & in_sweep)),
            "mli.sweep_forwards": int(np.count_nonzero(named("encoder.forward") & in_sweep)),
            "retrieval.build_index.calls": c("retrieval.build_index"),
            "retrieval.build_index.s": s("retrieval.build_index"),
            "retrieval.topk.calls": c("retrieval.topk"),
            "retrieval.topk.s": s("retrieval.topk"),
            "retrieval.bm25.s": s("retrieval.bm25"),
            "retrieval.evaluate.s": s("retrieval.evaluate"),
            "retrieval.build_prompt.s": s("retrieval.build_prompt"),
            "retrieval.index_io.s": s("retrieval.index_io"),
            "cli.stage.s": s("cli.stage"),
        }
        missing = [m for m in PER_LAYER if m not in out]
        if missing:
            raise KeyError(f"per-layer metrics not derived: {missing}")
        return {m: out[m] for m in PER_LAYER}

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent, op) as one .npz file."""
        np.savez(path, names=np.array(self.names, dtype=object).astype(str),
                 name=np.frombuffer(self.name_ix, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        Path(str(path) + ".json").write_text(json.dumps(
            {"spans": len(self.start), "counters": self.counters}, sort_keys=True),
            encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the imported ``stare`` package."""
    # importlib, because the package re-exports a function named ``ted``.
    bucketing, cli, corpus, encoder, mining, mli, retrieval, ted, trees = (
        importlib.import_module(f"stare.{m}") for m in (
            "bucketing", "cli", "corpus", "encoder", "mining", "mli", "retrieval", "ted",
            "trees"))

    def patch(module, attr: str, name: str, after=None):
        wrapped = tracer.wrap(getattr(module, attr), name, after)
        setattr(module, attr, wrapped)
        return wrapped

    # trees: one wrapper per dialect parser, shared by the dispatch dict and
    # the module attribute, so each parse is recorded once.
    for dialect, fn in list(trees._PARSERS.items()):
        wrapped = tracer.wrap(fn, "trees.parse")
        trees._PARSERS[dialect] = wrapped
        setattr(trees, fn.__name__, wrapped)
    patch(corpus.Corpus, "tree", "corpus.tree")
    patch(cli, "load_corpus", "corpus.load")

    patch(bucketing, "extract_features", "bucketing.extract_features")
    patch(bucketing, "minhash", "bucketing.minhash")
    patch(bucketing.LshIndex, "insert", "bucketing.lsh_insert")
    patch(bucketing.LshIndex, "query", "bucketing.lsh_query",
          lambda args, result: tracer.count("pool_total", len(result)))
    patch(bucketing.LshIndex, "save", "bucketing.lsh_io")
    load = bucketing.LshIndex.__dict__["load"].__func__
    bucketing.LshIndex.load = classmethod(tracer.wrap(load, "bucketing.lsh_io"))

    pairs = tracer.ted_pairs
    ted_wrapped = patch(ted, "ted", "ted", lambda args, result: pairs.append(args[:2]))
    cli.ted = ted_wrapped

    patch(mining, "mine_all", "mining.mine_all")
    patch(mining, "mine_group", "mining.mine_group")
    patch(mining, "save_groups", "mining.groups_io")
    patch(mining, "load_groups", "mining.groups_io")

    patch(encoder, "forward_ids", "encoder.forward",
          lambda args, result: tracer.count("forward_tokens",
                                            min(len(args[0]), args[2].max_len)))
    patch(encoder, "backward_ids", "encoder.backward")
    patch(encoder.AdamW, "step", "encoder.adamw")
    patch(encoder, "train", "encoder.train")
    patch(encoder, "params_fingerprint", "encoder.fingerprint")
    patch(encoder, "save_params", "encoder.params_io")
    patch(encoder, "load_params", "encoder.params_io")

    patch(mli, "sweep", "mli.sweep",
          lambda args, result: tracer.count("mli_cells", len(result.rows)))
    patch(mli, "collect_states", "mli.collect_states")
    patch(mli, "train_probe", "mli.train_probe")
    patch(mli, "extract_direction", "mli.extract_direction")
    mli.probe_loss_and_grads = tracer.counting(mli.probe_loss_and_grads, "probe_steps")

    patch(retrieval, "build_index", "retrieval.build_index")
    patch(retrieval, "topk", "retrieval.topk")
    patch(retrieval.Bm25, "__init__", "retrieval.bm25")
    patch(retrieval.Bm25, "topk", "retrieval.bm25")
    patch(retrieval, "evaluate", "retrieval.evaluate")
    patch(retrieval, "build_prompt", "retrieval.build_prompt")
    patch(retrieval, "save_index", "retrieval.index_io")
    patch(retrieval, "load_index", "retrieval.index_io")

    patch(cli, "main", "cli.stage")
