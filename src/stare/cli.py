"""Command-line pipeline: bucket | mine | train | mli | retrieve | eval | ted | fixture-gen.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Logs go to stderr; the five stages write artifacts to the --out
directory, which also receives the resolved config once a stage
succeeds, and reject concurrent runs against it via a lock file. A stage
reports failure only by raising. ``retrieve`` only reads the directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import bucketing, encoder, fixtures, mining, mli, retrieval
from .artifacts import atomic_write, check_built, write_json
from .config import PipelineConfig, load_config
from .corpus import Corpus, load_corpus
from .encoder import EncoderConfig, TrainConfig
from .mining import MiningConfig
from .mli import ProbeConfig, SweepGrid
from .ted import sim_struct, sim_struct_raw, ted
from .trees import ParseDialect, ParseError, parse

logger = logging.getLogger("stare")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_in(low: int):
    """argparse type: an integer >= low, else a usage error naming the flag."""
    def value(text: str) -> int:
        with contextlib.suppress(ValueError):
            if low <= int(text):
                return int(text)
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _dead_pid(text: str | bytes) -> int | None:
    """The PID that ``text`` spells, if no process with that PID is running."""
    with contextlib.suppress(OSError, OverflowError, ValueError):
        pid = int(text)
        if pid > 0:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return pid
    return None


@contextlib.contextmanager
def _locked_out_dir(out: Path):
    """Hold ``<out>/.lock``, created exclusively and holding this PID, for a
    stage. No other stage writes in ``out`` then, so the ``atomic_write``
    temp files of dead PIDs, left by killed stages, are removed."""
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    try:
        fd = os.open(lock, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        try:
            pid = _dead_pid(lock.read_bytes())
        except OSError:  # removed meanwhile
            pid = None
        if pid is not None:
            raise ValueError(f"stale lock left by PID {pid}; remove {lock}") from None
        raise ValueError(f"output directory {out} is locked by another run "
                         f"(remove {lock} if stale)") from None
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(str(os.getpid()))
        for tmp in out.glob("*.tmp[0-9]*"):
            if _dead_pid(tmp.name.rpartition(".tmp")[2]):
                tmp.unlink(missing_ok=True)
        yield out
    finally:
        with contextlib.suppress(FileNotFoundError):
            lock.unlink()


def _load_corpus(config: PipelineConfig, split: str) -> Corpus:
    path = config.path(config.corpus[split])
    corpus = load_corpus(path, config.corpus["dialect"], config.mining["anonymize"])
    if not len(corpus):
        raise ValueError(f"{path}: empty corpus")
    return corpus


def _upstream(path: Path, stage: str) -> Path:
    """An artifact that an earlier stage writes; a ValueError if it is missing."""
    if not path.exists():
        raise ValueError(f"missing {path}; run '{stage}' first")
    return path


def _trained_params(config: PipelineConfig, out: Path):
    params, cfg = encoder.load_params(path := _upstream(out / "encoder.params", "train"))
    check_built(path, "encoder", vars(cfg), config.encoder, "train")
    return params, cfg


def _build_lsh(config: PipelineConfig, corpus: Corpus) -> bucketing.LshIndex:
    """The index of every record, sketching each distinct parse string once."""
    index = bucketing.LshIndex(**config.bucketing)
    sigs: dict[str, np.ndarray] = {}
    for rec in corpus:
        sig = sigs.get(rec.parse)
        if sig is None:
            try:
                feats = bucketing.extract_features(rec.parse, corpus.dialect)
            except ParseError as exc:
                exc.args = (f"record {rec.id!r}: {exc}",)
                raise
            sig = sigs[rec.parse] = bucketing.minhash(feats, index.num_hashes, index.seed)
        index.insert(rec.id, sig)
    return index


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bucket(config: PipelineConfig, corpus: Corpus, out: Path) -> None:
    index = _build_lsh(config, corpus)
    index.save(out / "lsh_index.json")
    shared = [(len(ids), len(union) - 1) for ids, union in index.pools()]
    pool_sizes = sorted(size for n, size in shared for _ in range(n))
    report = {
        "records": len(corpus),
        "bands": index.bands,
        "rows": index.rows,
        "pool_size_histogram": Counter(str(size) for size in pool_sizes),
        "mean_pool_size": float(np.mean(pool_sizes)),
    }
    write_json(out / "bucket_report.json", report, indent=2)
    logger.info("bucketed %d records: %d distinct parses, %d distinct signatures "
                "(mean pool %.2f)", len(corpus), len({rec.parse for rec in corpus}),
                len(shared), report["mean_pool_size"])


def cmd_mine(config: PipelineConfig, corpus: Corpus, out: Path) -> None:
    path = _upstream(out / "lsh_index.json", "bucket")
    index = bucketing.LshIndex.load(path, config.bucketing)
    try:
        groups, report = mining.mine_all(corpus, index, MiningConfig(**config.mining))
    except mining.IndexCorpusMismatch:
        raise ValueError(f"{path}: its ids are not those of the corpus {config.corpus['train']} "
                         f"({len(index)} vs {len(corpus)} records)") from None
    mining.save_groups(groups, out / "pairs.jsonl")
    write_json(out / "mining_report.json", asdict(report), indent=2)
    logger.info("mined %d groups (%d skipped)", len(groups), report.skipped_empty_pool)


def cmd_train(config: PipelineConfig, corpus: Corpus, out: Path) -> None:
    pairs = _upstream(out / "pairs.jsonl", "mine")
    groups = mining.load_groups(pairs)
    if not groups:
        raise ValueError(f"{pairs}: no contrastive groups to train on")
    unknown = next((rid for g in groups for rid in (g.anchor_id, g.positive_id,
                                                    *g.negative_ids())
                    if rid not in corpus), None)
    if unknown is not None:
        raise ValueError(f"{pairs}: id {unknown!r} is not in the train corpus "
                         f"{config.corpus['train']}")
    vocab = encoder.build_vocab([rec.utterance for rec in corpus])
    cfg = EncoderConfig(vocab=vocab, **config.encoder)
    params, curve = encoder.train(groups, corpus, cfg, TrainConfig(**config.training))
    encoder.save_params(out / "encoder.params", params, cfg)
    with atomic_write(out / "loss_curve.csv") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(curve, start=1):
            fh.write(f"{epoch},{loss!r}\n")
    logger.info("trained %d epochs; loss curve %s", len(curve),
                [round(x, 4) for x in curve])


def cmd_mli(config: PipelineConfig, corpus: Corpus, out: Path) -> None:
    dev = _load_corpus(config, "dev")
    params, cfg = _trained_params(config, out)
    m = config.mli
    if not m["label_corpora"]:
        raise ValueError("mli.label_corpora is empty; nothing to probe")
    label_corpora = {prop: mli.load_token_label_corpus(config.path(m["label_corpora"][prop]), prop)
                     for prop in m["properties"] if prop in m["label_corpora"]}
    layers = m["layers"] or mli.default_sweep_layers(cfg.layers)
    grid = SweepGrid(layers=list(layers), properties=list(m["properties"]), lambdas=m["lambdas"])
    result = mli.sweep(dev, corpus, params, cfg, label_corpora, grid,
                       k=m["k"], probe_config=ProbeConfig(**m["probe"]))
    cells = [row for row in result.rows if row.prop]  # the baseline row has no property
    failed = [row for row in cells if row.error]
    if failed and len(failed) == len(cells):
        first = failed[0]
        raise ValueError(f"no injected cell scored: all {len(failed)} sweep rows failed; "
                         f"the first, {first.prop} layer {first.layer}: {first.error}")
    mli.write_sweep_report(result, out / "mli_grid.csv")
    best = result.best
    mli.save_direction(best, out / "direction.json", encoder.params_fingerprint(params))
    if best is None:
        logger.info("sweep kept the uninjected baseline (score %.4f)",
                    result.baseline_score)
    else:
        logger.info("sweep best: %s layer %d lambda %.2f (%.4f vs baseline %.4f)",
                    best.prop, best.layer, best.lam, result.best_score,
                    result.baseline_score)
    if failed:
        logger.warning("%d of %d injected sweep rows failed; see %s", len(failed), len(cells),
                       out / "mli_grid.csv")


def _load_direction(path: Path, cfg: EncoderConfig):
    """The direction at ``path`` (None if the baseline won or there is no
    file) and the params_sha256 it was fitted to (None if there is no file)."""
    direction, fitted_to = mli.read_direction(path) if path.exists() else (None, None)
    try:  # against the params it is injected into
        encoder._validate_injection(direction, cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return direction, fitted_to


def _check_fitted(path: Path, fitted_to: str | None, params_sha256: str) -> None:
    """A direction applies only to the params its sweep probed."""
    if fitted_to is not None and fitted_to != params_sha256:
        raise ValueError(f"{path}: fitted to params with sha256 {fitted_to}, not to the "
                         f"params in use ({params_sha256}); rerun 'mli'")


def _index_path(out: Path, injected: bool) -> Path:
    """Where ``eval`` saves the trained index, built with or without the injection."""
    return out / ("index_trained_mli.bin" if injected else "index_trained.bin")


def cmd_retrieve(config: PipelineConfig, corpus: Corpus, out: Path,
                 args: argparse.Namespace) -> int:
    if args.exclude is not None and args.exclude not in corpus:
        raise ValueError(f"--exclude {args.exclude!r}: no such record in the bank "
                         f"{config.path(config.corpus['train'])}")
    params, cfg = _trained_params(config, out)
    direction_path = out / "direction.json"
    injection, fitted_to = (_load_direction(_upstream(direction_path, "mli"), cfg)
                            if args.use_direction else (None, None))
    path = _index_path(out, injection is not None)
    index = retrieval.load_index(path) if path.exists() else None
    if index is not None:
        field = retrieval.index_mismatch(index, corpus, params, cfg, injection)
        if field is not None:
            logger.info("%s: its %s differs from this run's; building the index in memory",
                        path, field)
            index = None
    if index is None:
        index = retrieval.build_index(corpus, params, cfg, injection)
    # The index now holds the digest of ``params`` and this injection: a loaded
    # one was checked against them. So the query is ranked without hashing again.
    _check_fitted(direction_path, fitted_to, index.provenance["params_sha256"])
    k = config.prompt["k"] if args.k is None else args.k
    hits = retrieval._rank(index.ids, index.embeddings,
                           encoder.embed(args.query, params, cfg, injection), k, args.exclude)
    if args.format == "json":
        print(json.dumps([{"id": rid, "score": score} for rid, score in hits],
                         indent=2))
        return EXIT_OK
    spec = retrieval.PromptSpec(**{**config.prompt, "k": k})
    # topk is descending; prompts want ascending similarity, query last.
    exemplars = [(corpus.get(rid).utterance, corpus.get(rid).parse)
                 for rid, _ in reversed(hits)]
    print(retrieval.build_prompt(spec, exemplars, args.query))
    return EXIT_OK


def cmd_eval(config: PipelineConfig, corpus: Corpus, out: Path) -> None:
    dev = _load_corpus(config, "dev")
    trained_params, cfg = _trained_params(config, out)
    untrained_params = encoder.init_params(cfg)
    direction_path = out / "direction.json"
    injection, fitted_to = _load_direction(direction_path, cfg)
    _check_fitted(direction_path, fitted_to, encoder.params_fingerprint(trained_params))
    k = config.retrieval["k"]

    def dense(params, injection=None, save=False):
        index = retrieval.build_index(corpus, params, cfg, injection)
        if save:
            retrieval.save_index(index, _index_path(out, injection is not None))
        return retrieval.make_dense_ranker(index, params, cfg, injection)

    rankers = {"untrained": dense(untrained_params), "trained": dense(trained_params, save=True),
               "bm25": retrieval.Bm25(corpus).topk}
    rankers["trained_mli"] = (rankers["trained"] if injection is None
                              else dense(trained_params, injection, save=True))

    metrics = {name: retrieval.evaluate(rank, dev, corpus, k)
               for name, rank in rankers.items()}
    payload = {"k": k, "metrics": metrics}
    write_json(out / "eval_metrics.json", payload, indent=2)
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_ted(args: argparse.Namespace) -> int:
    a = parse(args.a, args.dialect)
    b = parse(args.b, args.dialect)
    print(json.dumps({
        "ted": ted(a, b),
        "sim_struct": sim_struct(a, b),
        "sim_struct_raw": sim_struct_raw(a, b),
        "size_a": a.size,
        "size_b": b.size,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_fixture_gen(args: argparse.Namespace) -> int:
    spec = fixtures.FixtureSpec(**{f.name: getattr(args, f.name)
                                   for f in fields(fixtures.FixtureSpec)})
    fixtures.write_fixture(args.out, spec)
    print(f"fixture written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def make_parser() -> _Parser:
    parser = _Parser(prog="stare", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        return p

    stage("bucket", "build the LSH candidate index")
    stage("mine", "mine contrastive groups from the index")
    stage("train", "train the encoder on mined groups")
    stage("mli", "probe layers and sweep injection configurations")
    p = stage("retrieve", "retrieve exemplars for a query")
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=_int_in(1), help="exemplars to return (default: prompt.k)")
    p.add_argument("--exclude")
    p.add_argument("--format", choices=("json", "prompt"), default="json")
    p.add_argument("--use-direction", action="store_true",
                   help="apply <out>/direction.json while embedding")
    stage("eval", "compare untrained / trained / trained+MLI / BM25")
    p = sub.add_parser("ted", help="tree edit distance between two parses")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--dialect", default="bracketed", choices=[d.value for d in ParseDialect])
    p = sub.add_parser("fixture-gen", help="generate the synthetic fixture corpus")
    p.add_argument("--out", required=True)
    for f in fields(fixtures.FixtureSpec):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_int_in(0 if f.name == "seed" else 1),
                       default=f.default)
    return parser


_STAGES = {"bucket": cmd_bucket, "mine": cmd_mine, "train": cmd_train,
           "mli": cmd_mli, "eval": cmd_eval}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "ted":
            return cmd_ted(args)
        if args.command == "fixture-gen":
            return cmd_fixture_gen(args)
        config = load_config(args.config)
        corpus = _load_corpus(config, "train")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if args.command == "retrieve":
                return cmd_retrieve(config, corpus, Path(args.out), args)
            with _locked_out_dir(Path(args.out)) as out:
                _STAGES[args.command](config, corpus, out)
                write_json(out / "config_used.json", config.to_dict(), indent=2)
        return EXIT_OK
    except (OSError, ValueError) as exc:
        logger.error("%s", exc, exc_info=args.verbose)
        return EXIT_DATA
    except (FloatingPointError, ZeroDivisionError) as exc:
        logger.error("numeric failure: %s", exc, exc_info=args.verbose)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
