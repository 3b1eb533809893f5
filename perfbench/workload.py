"""Workload inputs, bodies and output checks; runs in a fresh child process.

``setup`` generates one workload's input files from a seed. ``run`` times
passes of the workload body over those inputs, checks the outputs, and
writes a result JSON; with ``--trace 1`` it first wraps ``stare`` (see
``tracing.py``) and makes exactly one pass. ``run.py`` starts both with
BLAS/OpenMP threads pinned to 1 and ``src/`` of the checkout on the path.

Workloads call only public entry points: ``stare.cli.main`` for pipeline
stages and retrieve calls, ``stare.retrieval``/``stare.encoder`` for serving.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload sizes. demo-pipeline is the README path (5 x 20 train, 5 x 3 dev);
# mine-scale and serve use the largest ROADMAP size (5 x 400 = 2000 records).
DEMO_RETRIEVES = 16
SCALE_PER_CLUSTER = 400
SQL_TRAIN, SQL_DEV = 300, 10
SERVE_QUERIES = 600
SERVE_FRESH_SEED_OFFSET = 7919
SERVE_KS = (1, 5, 20)

# Artifacts that must be byte-identical across passes and runs of one seed.
STAGE_ARTIFACTS = ("lsh_index.json", "bucket_report.json", "pairs.jsonl",
                   "mining_report.json")

# Per-layer metrics a workload cannot touch (must be 0) and must touch (> 0).
# A wrapper that misses a call site shows up as a broken expectation here.
_ENCODER_MLI_ZERO = ["encoder.forward.calls", "encoder.backward.calls",
                     "encoder.fingerprint.calls", "encoder.params_io.s", "mli.train_probe.calls",
                     "mli.cells", "mli.sweep_forwards", "retrieval.build_index.calls",
                     "retrieval.topk.calls"]
EXPECT_ZERO = {
    "demo-pipeline": [],
    "mine-scale": _ENCODER_MLI_ZERO,
    "mine-sql": _ENCODER_MLI_ZERO,
    "serve": ["ted.calls", "bucketing.lsh_query.calls", "mining.mine_group.calls",
              "mli.cells", "encoder.backward.calls", "cli.stage.s"],
}
EXPECT_POSITIVE = {
    "demo-pipeline": ["trees.parse.calls", "corpus.tree.calls", "bucketing.lsh_query.calls",
                      "ted.calls", "mining.mine_group.calls", "encoder.forward.calls",
                      "encoder.backward.calls", "encoder.adamw.s", "encoder.fingerprint.calls",
                      "mli.train_probe.calls", "mli.probe_steps", "mli.cells",
                      "mli.sweep_index_builds", "mli.sweep_forwards",
                      "retrieval.build_index.calls", "retrieval.topk.calls",
                      "retrieval.bm25.s", "retrieval.evaluate.s", "retrieval.build_prompt.s",
                      "cli.stage.s"],
    "mine-scale": ["trees.parse.calls", "corpus.tree.calls", "bucketing.lsh_query.calls",
                   "bucketing.pool_mean", "ted.calls", "mining.mine_group.calls",
                   "cli.stage.s"],
    "mine-sql": ["trees.parse.calls", "corpus.tree.calls", "bucketing.lsh_query.calls",
                 "bucketing.pool_mean", "ted.calls", "mining.mine_group.calls",
                 "cli.stage.s"],
    "serve": ["encoder.forward.calls", "encoder.fingerprint.calls", "encoder.params_io.s",
              "retrieval.build_index.calls", "retrieval.topk.calls",
              "retrieval.build_prompt.s", "retrieval.index_io.s"],
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """One ``stare`` CLI call in this process; returns (exit code, stdout)."""
    from stare import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# set-up: input generation
# ---------------------------------------------------------------------------

def _fixture(out: Path, seed: int, per_cluster: int | None = None) -> None:
    argv = ["fixture-gen", "--out", str(out), "--seed", str(seed)]
    if per_cluster is not None:
        argv += ["--per-cluster", str(per_cluster)]
    code, _ = _cli(argv)
    if code:
        raise RuntimeError(f"fixture-gen exited with {code}")


def setup_demo(out: Path, seed: int) -> None:
    _fixture(out, seed)
    dev = _read_jsonl(out / "dev.jsonl")
    rng = random.Random(seed)
    modes = [("json", False), ("prompt", False), ("json", True), ("prompt", True)]
    plan = [{"query": dev[rng.randrange(len(dev))]["utterance"], "k": rng.choice([1, 3, 5]),
             "format": modes[i % 4][0], "use_direction": modes[i % 4][1]}
            for i in range(DEMO_RETRIEVES)]
    (out / "retrieve_plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")


def setup_mine_scale(out: Path, seed: int) -> None:
    _fixture(out, seed, SCALE_PER_CLUSTER)


def setup_mine_sql(out: Path, seed: int) -> None:
    import sqlbank

    sqlbank.write_bank(out, SQL_TRAIN, SQL_DEV, seed)


def setup_serve(out: Path, seed: int) -> None:
    from stare import encoder, fixtures

    _fixture(out, seed, SCALE_PER_CLUSTER)
    bank = _read_jsonl(out / "train.jsonl")
    fresh = fixtures.generate(fixtures.FixtureSpec(
        per_cluster=SERVE_QUERIES // 10, dev_per_cluster=0,
        seed=seed + SERVE_FRESH_SEED_OFFSET)).train
    rng = random.Random(seed)
    plan = []
    for i in range(SERVE_QUERIES):
        if i % 2 == 0:  # leave-one-out: a bank utterance, excluding itself
            rec = bank[rng.randrange(len(bank))]
            plan.append({"query": rec["utterance"], "exclude": rec["id"]})
        else:
            plan.append({"query": fresh[rng.randrange(len(fresh))].utterance, "exclude": None})
        plan[-1]["k"] = rng.choice(SERVE_KS)
    (out / "queries.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    enc = json.loads((out / "config.json").read_text(encoding="utf-8"))["encoder"]
    cfg = encoder.EncoderConfig(vocab=encoder.build_vocab([r["utterance"] for r in bank]),
                                d=enc["d"], layers=enc["layers"], heads=enc["heads"],
                                max_len=enc["max_len"], seed=enc["seed"])
    encoder.save_params(out / "encoder.params", encoder.init_params(cfg), cfg)


SETUPS = {"demo-pipeline": setup_demo, "mine-scale": setup_mine_scale,
          "mine-sql": setup_mine_sql, "serve": setup_serve}


# ---------------------------------------------------------------------------
# workload passes
# ---------------------------------------------------------------------------

class Pass:
    """Timings and outputs of one pass over the workload body."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.times: dict[str, list[float]] = {}
        self.outputs: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def op(self, kind: str, tracer, fn, *args):
        """Time one op; a non-zero exit or an exception counts it as failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            result = None
            self.failed += 1
            self.failures.append(f"{kind}: {traceback.format_exc(limit=3)}")
        elapsed = time.perf_counter() - t0
        self.times.setdefault(kind, []).append(elapsed)
        if isinstance(result, tuple) and isinstance(result[0], int) and result[0] != 0:
            self.failed += 1
            self.failures.append(f"{kind}: exit code {result[0]}")
        return result


def _stage_argv(stage: str, inputs: Path, run_dir: Path) -> list[str]:
    return [stage, "--config", str(inputs / "config.json"), "--out", str(run_dir)]


def pass_stages(stages: tuple[str, ...]):
    def body(p: Pass, inputs: Path, tracer) -> None:
        for stage in stages:
            p.op(stage, tracer, _cli, _stage_argv(stage, inputs, p.run_dir))
    return body


def pass_demo(p: Pass, inputs: Path, tracer) -> None:
    pass_stages(("bucket", "mine", "train", "mli", "eval"))(p, inputs, tracer)
    plan = json.loads((inputs / "retrieve_plan.json").read_text(encoding="utf-8"))
    for item in plan:
        argv = _stage_argv("retrieve", inputs, p.run_dir) + [
            "--query", item["query"], "--k", str(item["k"]), "--format", item["format"]]
        if item["use_direction"]:
            argv.append("--use-direction")
        result = p.op("retrieve", tracer, _cli, argv)
        p.outputs.append(result[1] if result else None)


def pass_serve(p: Pass, inputs: Path, tracer) -> None:
    from stare import corpus as corpus_mod
    from stare import encoder, retrieval

    plan = json.loads((inputs / "queries.json").read_text(encoding="utf-8"))
    p.run_dir.mkdir(parents=True, exist_ok=True)
    index_path = p.run_dir / "index.bin"
    state = {}

    def build():
        bank = corpus_mod.load_corpus(inputs / "train.jsonl", "bracketed")
        params, cfg = encoder.load_params(inputs / "encoder.params")
        t0 = time.perf_counter()
        index = retrieval.build_index(bank, params, cfg)
        p.times.setdefault("index_build", []).append(time.perf_counter() - t0)
        retrieval.save_index(index, index_path)
        state.update(bank=bank, params=params, cfg=cfg,
                     index=retrieval.load_index(index_path))

    p.op("index", tracer, build)
    if "index" not in state:
        return
    bank, params, cfg, index = state["bank"], state["params"], state["cfg"], state["index"]

    def query(item):
        hits = retrieval.topk(index, item["query"], item["k"], params, cfg,
                              exclude=item["exclude"])
        spec = retrieval.PromptSpec(task_name="Fixture", k=item["k"])
        exemplars = [(bank.get(rid).utterance, bank.get(rid).parse)
                     for rid, _ in reversed(hits)]
        return hits, retrieval.build_prompt(spec, exemplars, item["query"])

    for item in plan:
        p.outputs.append(p.op("query", tracer, query, item))


BODIES = {"demo-pipeline": pass_demo,
          "mine-scale": pass_stages(("bucket", "mine")),
          "mine-sql": pass_stages(("bucket", "mine")),
          "serve": pass_serve}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self) -> None:
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.items)


def _stage_artifact_hashes(run_dir: Path) -> dict[str, str]:
    return {name: sha256_file(run_dir / name) if (run_dir / name).exists() else "missing"
            for name in STAGE_ARTIFACTS}


def check_stage_artifacts(passes: list[Pass], checks: Checks) -> dict[str, str]:
    hashes = [_stage_artifact_hashes(p.run_dir) for p in passes]
    checks.add("stage artifacts written", all("missing" not in h.values() for h in hashes),
               json.dumps(hashes[0]))
    checks.add("stage artifacts byte-identical across passes",
               all(h == hashes[0] for h in hashes), f"{len(passes)} passes")
    run_dir = passes[0].run_dir
    report = json.loads((run_dir / "mining_report.json").read_text(encoding="utf-8")) \
        if (run_dir / "mining_report.json").exists() else {}
    groups = _read_jsonl(run_dir / "pairs.jsonl") if (run_dir / "pairs.jsonl").exists() else []
    checks.add("one mined group per anchor with a pool",
               report and len(groups) == report["anchors"] - report["skipped_empty_pool"],
               f"{len(groups)} groups")
    return hashes[0]


def _expected_topk(embeddings, ids, qvec, k, exclude):
    """Independent ranking: numpy stable argsort over cosine, minus ``exclude``."""
    import numpy as np

    scores = embeddings @ (qvec / np.linalg.norm(qvec))
    order = [i for i in np.argsort(-scores, kind="stable") if ids[i] != exclude]
    return [ids[i] for i in order[:k]], [float(scores[i]) for i in order[:k]]


def check_demo(passes: list[Pass], inputs: Path, checks: Checks) -> dict:
    import numpy as np

    from stare import encoder, mli, retrieval
    from stare.corpus import load_corpus

    detail: dict = {}
    run_dir = passes[0].run_dir
    eval_path = run_dir / "eval_metrics.json"
    if eval_path.exists():
        metrics = json.loads(eval_path.read_text(encoding="utf-8"))["metrics"]
        detail["quality.trained_sim_at_k"] = metrics["trained"]["mean_sim_struct_at_k"]
        detail["quality.mli_sim_at_k"] = metrics["trained_mli"]["mean_sim_struct_at_k"]
        detail["quality.bm25_sim_at_k"] = metrics["bm25"]["mean_sim_struct_at_k"]
        detail["quality.untrained_sim_at_k"] = metrics["untrained"]["mean_sim_struct_at_k"]
    checks.add("eval_metrics.json quality in [0, 1]",
               all(0.0 <= detail.get(k, -1.0) <= 1.0 for k in
                   ("quality.trained_sim_at_k", "quality.mli_sim_at_k")))

    params_path = run_dir / "encoder.params"
    if not params_path.exists():
        checks.add("retrieve outputs match an independent ranking", False, "no params")
        return detail
    bank = load_corpus(inputs / "train.jsonl", "bracketed")
    params, cfg = encoder.load_params(params_path)
    direction_path = run_dir / "direction.json"
    injection = None
    if direction_path.exists() and not json.loads(
            direction_path.read_text(encoding="utf-8")).get("baseline"):
        injection = mli.load_direction(direction_path)
    embeddings = {False: retrieval.build_index(bank, params, cfg).embeddings,
                  True: retrieval.build_index(bank, params, cfg, injection).embeddings}
    plan = json.loads((inputs / "retrieve_plan.json").read_text(encoding="utf-8"))
    bad = []
    for p in passes:
        for n, (item, out) in enumerate(zip(plan, p.outputs)):
            use = item["use_direction"]
            qvec = encoder.embed(item["query"], params, cfg, injection if use else None)
            ids, scores = _expected_topk(embeddings[use], bank.ids(), qvec, item["k"], None)
            if out is None:
                bad.append(f"{n}: no output")
            elif item["format"] == "json":
                got = json.loads(out)
                if [h["id"] for h in got] != ids or not np.allclose(
                        [h["score"] for h in got], scores, rtol=0, atol=1e-12):
                    bad.append(f"{n}: json hits differ")
            else:
                blocks = [f"User: {bank.get(rid).utterance}\nParse: {bank.get(rid).parse}"
                          for rid in reversed(ids)]
                pos = [out.find(b) for b in blocks]
                if (-1 in pos or pos != sorted(pos)
                        or not out.rstrip("\n").endswith(f"User: {item['query']}\nParse:")):
                    bad.append(f"{n}: prompt exemplars differ")
    checks.add("retrieve outputs match an independent ranking", not bad,
               "; ".join(bad[:5]) or f"{len(plan)} calls per pass")
    return detail


def check_serve(passes: list[Pass], inputs: Path, checks: Checks) -> None:
    from stare import encoder, retrieval

    plan = json.loads((inputs / "queries.json").read_text(encoding="utf-8"))
    index = retrieval.load_index(passes[0].run_dir / "index.bin")
    params, cfg = encoder.load_params(inputs / "encoder.params")
    bad = []
    first = passes[0].outputs
    for n, (item, out) in enumerate(zip(plan, first)):
        if out is None:
            bad.append(f"{n}: no output")
            continue
        hits, prompt = out
        ids, scores = _expected_topk(index.embeddings, index.ids,
                                     encoder.embed(item["query"], params, cfg),
                                     item["k"], item["exclude"])
        if [rid for rid, _ in hits] != ids or any(
                abs(a - b) > 1e-12 for (_, a), b in zip(hits, scores)):
            bad.append(f"{n}: top-k differs")
        if (prompt.count("\nUser: ") != item["k"] + 1
                or not prompt.endswith(f"User: {item['query']}\nParse:")):
            bad.append(f"{n}: prompt malformed")
    checks.add("serve top-k equals numpy stable argsort of the loaded index", not bad,
               "; ".join(bad[:5]) or f"{len(first)} queries")
    same = all([o[0] if o else None for o in p.outputs] ==
               [o[0] if o else None for o in first] for p in passes)
    checks.add("serve answers identical across passes", same, f"{len(passes)} passes")
    checks.add("serve answered every planned query",
               all(len(p.outputs) == len(plan) for p in passes))


# ---------------------------------------------------------------------------
# input-property report
# ---------------------------------------------------------------------------

def input_properties(workload: str, inputs: Path, run_dir: Path) -> dict:
    from stare import encoder, trees

    config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    dialect = config["corpus"]["dialect"]
    anonymize = config.get("mining", {}).get("anonymize", False)
    records = _read_jsonl(inputs / "train.jsonl")
    shapes, sizes = [], []
    for rec in records:
        tree = trees.parse(rec["parse"], dialect)
        if anonymize:
            tree = trees.anonymize_leaves(tree)
        shapes.append(tree.to_compact())
        sizes.append(tree.size)
    utterances = [rec["utterance"] for rec in records]
    distinct_trees, distinct_utts = len(set(shapes)), len(set(utterances))
    props = {
        "records": len(records),
        "distinct_trees": distinct_trees,
        "repeated_tree_share": 1.0 - distinct_trees / len(records),
        "distinct_utterances": distinct_utts,
        "repeated_utterance_share": 1.0 - distinct_utts / len(records),
        "mean_tree_nodes": statistics.fmean(sizes),
        "max_tree_nodes": max(sizes),
        "mean_tokens_per_utterance": statistics.fmean(
            len(encoder.word_tokens(u)) for u in utterances),
        "mean_lsh_pool": None,
    }
    report = run_dir / "bucket_report.json"
    if report.exists():
        props["mean_lsh_pool"] = json.loads(report.read_text(encoding="utf-8"))[
            "mean_pool_size"]
    if workload == "serve":
        plan = json.loads((inputs / "queries.json").read_text(encoding="utf-8"))
        queries = [q["query"] for q in plan]
        props["queries"] = len(queries)
        props["repeated_query_share"] = 1.0 - len(set(queries)) / len(queries)
    return props


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
UNITS = {
    "work_s": "s", "work_cpu_s": "s", "peak_rss_mb": "MB",
    "bucket_s": "s", "mine_s": "s", "train_s": "s", "mli_s": "s", "eval_s": "s",
    "retrieve_cli_s": "s", "index_build_s": "s", "query_p50_ms": "ms",
    "query_tail_ms": "ms", "query_tail_percentile": "%", "query_samples": "count",
    "queries_per_s": "1/s", "quality.trained_sim_at_k": "score",
    "quality.mli_sim_at_k": "score", "quality.bm25_sim_at_k": "score",
    "quality.untrained_sim_at_k": "score", "ops_failed_ratio": "ratio",
}


def with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(samples)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.percentile(samples, 50.0))


def stage_metrics(passes: list[Pass]) -> dict:
    """Stage-level metrics: medians over passes (or over all calls of a kind)."""
    pooled: dict[str, list[float]] = {}
    for p in passes:
        for kind, values in p.times.items():
            pooled.setdefault(kind, []).extend(values)
    out = {}
    for stage in ("bucket", "mine", "train", "mli", "eval"):
        if stage in pooled:
            out[f"{stage}_s"] = statistics.median(pooled[stage])
    if "retrieve" in pooled:
        out["retrieve_cli_s"] = statistics.median(pooled["retrieve"])
    if "index_build" in pooled:
        out["index_build_s"] = statistics.median(pooled["index_build"])
    if "query" in pooled:
        lat_ms = [t * 1000.0 for t in pooled["query"]]
        pct, tail = tail_percentile(lat_ms)
        out["query_p50_ms"] = statistics.median(lat_ms)
        out["query_tail_ms"] = tail
        out["query_tail_percentile"] = pct
        out["query_samples"] = len(lat_ms)
        out["queries_per_s"] = len(lat_ms) / sum(pooled["query"])
    attempted = sum(p.attempted for p in passes)
    out["ops_failed_ratio"] = sum(p.failed for p in passes) / attempted if attempted else 0.0
    return out


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _import_stare():
    import stare

    src = (ROOT / "src").resolve()
    if src not in Path(stare.__file__).resolve().parents:
        raise SystemExit(f"imported stare from {stare.__file__}, not from {src}")
    return stare


def cmd_setup(args) -> int:
    _import_stare()
    SETUPS[args.workload](Path(args.dir), args.seed)
    return 0


def cmd_run(args) -> int:
    _import_stare()
    inputs, out = Path(args.inputs), Path(args.out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    body = BODIES[args.workload]
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        p = Pass(out / f"pass{len(passes)}" / "run")
        t0, c0 = time.perf_counter(), time.process_time()
        body(p, inputs, tracer)
        p.wall_s = time.perf_counter() - t0
        p.cpu_s = time.process_time() - c0
        passes.append(p)
        elapsed = time.perf_counter() - started
        if tracer is not None or elapsed >= args.seconds \
                or elapsed + 1.5 * p.wall_s > args.budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Derive per-layer metrics and save the spans before the checks, whose
    # own calls into stare would otherwise be traced too.
    per_layer = None
    if tracer is not None:
        per_layer = tracer.metrics()
        tracer.save(out / "spans.npz")

    checks = Checks()
    detail = stage_metrics(passes)
    artifacts: dict[str, str] = {}
    try:
        if args.workload != "serve":
            artifacts = check_stage_artifacts(passes, checks)
        if args.workload == "demo-pipeline":
            detail.update(check_demo(passes, inputs, checks))
        if args.workload == "serve":
            check_serve(passes, inputs, checks)
    except Exception:
        checks.add("output checks ran", False, traceback.format_exc(limit=5))

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [f for p in passes for f in p.failures][:5],
        "metrics": with_units({"work_s": statistics.median(p.wall_s for p in passes),
                               "work_cpu_s": statistics.median(p.cpu_s for p in passes),
                               "peak_rss_mb": peak_rss_mb}),
        "detail": with_units(detail),
        "artifacts": artifacts,
        "properties": input_properties(args.workload, inputs, passes[0].run_dir),
        "environment": environment(),
        "warmup": "none: every pass is timed, the first included, because each CLI "
                  "call a user makes starts cold; imports happen before timing",
    }
    if tracer is not None:
        import tracing

        for name in EXPECT_ZERO[args.workload]:
            checks.add(f"predicted zero: {name}", per_layer[name] == 0, str(per_layer[name]))
        for name in EXPECT_POSITIVE[args.workload]:
            checks.add(f"exercised: {name}", per_layer[name] > 0, str(per_layer[name]))
        checks.add("every per-layer metric emitted",
                   list(per_layer) == tracing.PER_LAYER)
        result["per_layer"] = {k: {"value": v, "unit": tracing.unit_of(k)}
                               for k, v in per_layer.items()}
        result["fixed_counts"] = {k: per_layer[k] for k in tracing.FIXED_COUNTS}
    result["checks"] = checks.items
    result["correct"] = checks.ok
    (out / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True,
                                                default=float), encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", choices=sorted(SETUPS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", choices=sorted(BODIES), required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--budget", type=float, required=True,
                   help="seconds after which no new pass starts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.command == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
