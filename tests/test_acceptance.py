"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from stare import bucketing, encoder as enc, mining, mli, retrieval
from stare.bucketing import LshIndex, minhash
from stare.corpus import Corpus, Record
from stare.mining import MiningConfig, Pool, mine_group
from stare.retrieval import PromptSpec, build_prompt
from stare.ted import sim_struct, sim_struct_raw, ted
from stare.trees import ParseTree

from oracles import (all_trees, exact_jaccard, infonce_loss, jacobi_svd_top_right,
                     mean_group_loss, signature_agreement, ted_bruteforce)


def _report(criterion: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status}: {detail} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def _random_tree(rng: np.random.Generator, max_nodes: int) -> ParseTree:
    labels = ["a", "b", "c", "d"]
    n = int(rng.integers(1, max_nodes + 1))

    def build(budget: int):
        label = labels[int(rng.integers(4))]
        used = 1
        children = []
        while budget - used > 0 and rng.random() < 0.6:
            child, spent = build(budget - used)
            children.append(child)
            used += spent
        return ParseTree(label, tuple(children)), used

    return build(n)[0]


def test_criterion_01_ted_oracle_equivalence():
    started = time.time()
    trees = all_trees(4, ("A", "B", "C"))
    checked = 0
    for i, a in enumerate(trees):
        for b in trees[i:]:
            expected = ted_bruteforce(a, b)
            if ted(a, b) != expected or ted(b, a) != expected:
                _report(1, False, f"mismatch on {a!r} vs {b!r}", started)
            checked += 2
    elapsed = time.time() - started
    _report(1, elapsed < 60.0,
            f"ted == brute force on {checked} ordered pairs of <=4-node trees", started)


def test_criterion_02_sim_struct_contract():
    started = time.time()
    rng = np.random.default_rng(21)
    for _ in range(1000):
        tree = _random_tree(rng, 8)
        if sim_struct(tree, tree) != 1.0:
            _report(2, False, f"self-similarity != 1 for {tree!r}", started)
    clamped = total = 0
    chain = ParseTree("p", (ParseTree("q", (ParseTree("r", (ParseTree("s"),)),)),))
    star = ParseTree("t", (ParseTree("u"), ParseTree("v"), ParseTree("w")))
    pairs = [(chain, star)] + [(_random_tree(rng, 8), _random_tree(rng, 8))
                               for _ in range(500)]
    for a, b in pairs:
        raw = sim_struct_raw(a, b)
        value = sim_struct(a, b)
        total += 1
        if not (-1.0 <= raw <= 1.0) or not (0.0 <= value <= 1.0):
            _report(2, False, f"out-of-range similarity for {a!r} vs {b!r}", started)
        clamped += raw < 0.0
    _report(2, time.time() - started < 5.0,
            f"1000 self-sims exact; outputs clamped to [0,1]; "
            f"clamp rate {clamped}/{total}", started)


def test_criterion_03_minhash_accuracy():
    started = time.time()
    rng = np.random.default_rng(42)
    universe = [f"tok{i}" for i in range(600)]
    hits = 0
    for _ in range(1000):
        base = sorted(rng.choice(universe, size=int(rng.integers(10, 60)), replace=False))
        other = {tok for tok in base if rng.random() > 0.35}
        other.update(rng.choice(universe, size=int(rng.integers(0, 25)), replace=False))
        if not other:
            other = {"tok0"}
        fa, fb = frozenset(base), frozenset(other)
        est = signature_agreement(minhash(fa, 128, 7), minhash(fb, 128, 7))
        hits += abs(est - exact_jaccard(fa, fb)) <= 0.1
    _report(3, hits >= 950 and time.time() - started < 10.0,
            f"{hits}/1000 seeded pairs within 0.1 of exact Jaccard at P=128", started)


def test_criterion_04_lsh_recall_and_pool_size():
    started = time.time()
    rng = np.random.default_rng(99)
    # 500-record corpus of overlapping families; exact Jaccard is the oracle.
    sets = []
    for family in range(50):
        base = [f"f{family}_{i}" for i in range(20)]
        for _ in range(10):
            variant = {x for x in base if rng.random() > 0.15}
            variant |= {f"f{family}_x{rng.integers(1000)}" for _ in range(2)}
            sets.append(frozenset(variant))
    index = LshIndex(num_hashes=128, tau=0.5, seed=13)
    sigs = [minhash(s, 128, 13) for s in sets]
    for i, sig in enumerate(sigs):
        index.insert(f"s{i}", sig)
    pools = [index.query(sigs[i]) - {f"s{i}"} for i in range(len(sets))]
    eligible = collide = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if exact_jaccard(sets[i], sets[j]) >= 0.6:  # tau + 0.1
                eligible += 1
                collide += f"s{j}" in pools[i]
    recall = collide / eligible

    # 10k-record corpus with planted clusters: pools must stay small.
    big_index = LshIndex(num_hashes=128, tau=0.5, seed=5)
    big_sigs = []
    for cluster in range(100):
        base = [f"c{cluster}_{i}" for i in range(25)]
        for _ in range(100):
            variant = {x for x in base if rng.random() > 0.2}
            if not variant:
                variant = set(base)
            big_sigs.append(minhash(frozenset(variant), 128, 5))
    for i, sig in enumerate(big_sigs):
        big_index.insert(f"r{i}", sig)
    pool_sizes = [len(big_index.query(sig) - {f"r{i}"})
                  for i, sig in enumerate(big_sigs)]
    mean_fraction = float(np.mean(pool_sizes)) / len(big_sigs)
    elapsed = time.time() - started
    _report(4, recall >= 0.9 and mean_fraction < 0.2 and elapsed < 60.0,
            f"recall {recall:.3f} on {eligible} eligible pairs; "
            f"mean pool {mean_fraction:.2%} of 10k corpus", started)


def test_criterion_05_mining_matches_bruteforce():
    started = time.time()
    parses = ["[F [X p ] ]", "[F [X p ] ]", "[F [X q ] ]", "[F p q ]",
              "[G [Y a ] ]", "[H b ]"]
    corpus = Corpus([Record(f"r{i}", f"utt {i}", p) for i, p in enumerate(parses)],
                    "bracketed")
    pool = {"r1", "r2", "r3", "r4"}
    sims = {}
    for rid in pool:
        ta, tb = corpus.tree("r0"), corpus.tree(rid)
        raw = 1.0 - ted_bruteforce(ta, tb) / max(ta.size, tb.size)
        sims[rid] = max(0.0, min(1.0, raw))
    best = max(sims.values())
    expected_pos = min((r for r in pool if sims[r] == best), key=corpus.index_of.get)
    expected_hard = sorted((r for r in pool if r != expected_pos),
                           key=lambda r: (sims[r], corpus.index_of[r]))[:3]
    group = mine_group("r0", Pool(corpus, pool | {"r0"}), corpus,
                       MiningConfig(n_hard=3, n_rand=1, seed=4))
    ok = (group.positive_id == expected_pos
          and group.hard_negative_ids == expected_hard
          and group.positive_sim == sims[expected_pos]
          and group.random_negative_ids == ["r5"])
    _report(5, ok and time.time() - started < 1.0,
            f"groups equal brute-force argmax/argmin "
            f"(positive {group.positive_id}, hard {group.hard_negative_ids})", started)


def test_criterion_06_gradient_checks():
    started = time.time()
    vocab = enc.build_vocab(["remind me to pack boxes", "play golden hour",
                             "call ravi and mia", "how cold is oslo", "start a timer"])
    cfg = enc.EncoderConfig(vocab=vocab, d=8, layers=2, heads=2, max_len=16, seed=3)
    params = enc.init_params(cfg)
    texts = ["remind me to pack boxes", "remind me to pack", "play golden hour",
             "call ravi and mia", "how cold is oslo", "start a timer", "call mia"]
    grads = enc.zerolike_params(params)
    enc.step_loss_and_grads([texts], params, cfg, 0.07, grads)

    def loss_of():
        embs = [enc.embed(t, params, cfg) for t in texts]
        return infonce_loss(embs[0], embs[1], embs[2:], 0.07)

    eps = 1e-4
    worst_enc = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_of()
            flat[idx] = orig - eps
            lm = loss_of()
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            worst_enc = max(worst_enc, abs(gflat[idx] - fd) / max(1e-6, abs(gflat[idx]) + abs(fd)))

    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 8))
    y = rng.integers(0, 3, size=30)
    W = rng.standard_normal((3, 8)) * 0.5
    b = rng.standard_normal(3) * 0.1
    _, dW, db = mli.probe_loss_and_grads(W, b, X, y, l2=1e-3)
    peps = 1e-5
    worst_probe = 0.0
    for arr, grad in ((W, dW), (b, db)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + peps
            lp = mli.probe_loss_and_grads(W, b, X, y, 1e-3)[0]
            flat[idx] = orig - peps
            lm = mli.probe_loss_and_grads(W, b, X, y, 1e-3)[0]
            flat[idx] = orig
            fd = (lp - lm) / (2 * peps)
            worst_probe = max(worst_probe, abs(gflat[idx] - fd) / max(1e-8, abs(gflat[idx]) + abs(fd)))
    elapsed = time.time() - started
    _report(6, worst_enc <= 1e-3 and worst_probe <= 1e-4 and elapsed < 120.0,
            f"encoder rel-err {worst_enc:.2e} (<=1e-3), "
            f"probe rel-err {worst_probe:.2e} (<=1e-4), every coordinate", started)


def test_criterion_07_infonce_analytics():
    started = time.time()
    rng = np.random.default_rng(3)
    a, p = rng.standard_normal(8), rng.standard_normal(8)
    zero_ok = infonce_loss(a, p, [], 0.07) == 0.0
    anchor = np.zeros(6)
    anchor[0] = 1.0
    orth = np.zeros(6)
    orth[1] = 1.0
    ln_ok = all(
        abs(infonce_loss(anchor, orth, [orth.copy() for _ in range(k)], 0.07)
            - math.log(k + 1)) <= 1e-9
        for k in (1, 2, 5))
    _report(7, zero_ok and ln_ok and time.time() - started < 1.0,
            "zero-negative loss == 0 exactly; equal-similarity loss == ln(K+1) "
            "within 1e-9 for K in {1,2,5}", started)


def test_criterion_08_training_efficacy(bank, mined, enc_cfg, init_params, trained):
    started = time.time()
    groups, _ = mined
    initial = mean_group_loss(groups, bank, init_params, enc_cfg, 0.07)
    final = mean_group_loss(groups, bank, trained[0], enc_cfg, 0.07)
    reduction = 1.0 - final / initial
    _report(8, reduction >= 0.5 and time.time() - started < 300.0,
            f"3-epoch training cut mean InfoNCE {initial:.3f} -> {final:.3f} "
            f"({reduction:.0%} >= 50%)", started)


def test_criterion_09_retrieval_proxy_ordering(bank, dev_queries, enc_cfg, init_params,
                                               trained_params, sweep_result):
    started = time.time()
    untrained_idx = retrieval.build_index(bank, init_params, enc_cfg)
    trained_idx = retrieval.build_index(bank, trained_params, enc_cfg)
    untrained = retrieval.evaluate(
        retrieval.make_dense_ranker(untrained_idx, init_params, enc_cfg),
        dev_queries, bank, 5)["mean_sim_struct_at_k"]
    trained_score = retrieval.evaluate(
        retrieval.make_dense_ranker(trained_idx, trained_params, enc_cfg),
        dev_queries, bank, 5)["mean_sim_struct_at_k"]
    ok = (trained_score > untrained
          and sweep_result.best_score >= sweep_result.baseline_score)
    _report(9, ok and time.time() - started < 600.0,
            f"mean_sim_struct@5: trained {trained_score:.3f} > untrained "
            f"{untrained:.3f}; MLI best {sweep_result.best_score:.3f} >= "
            f"baseline {sweep_result.baseline_score:.3f}", started)


def test_criterion_10_svd_direction():
    started = time.time()
    rng = np.random.default_rng(17)
    worst = 1.0
    for _ in range(50):
        k = int(rng.integers(2, 31))
        d = int(rng.integers(4, 65))
        W = rng.standard_normal((k, d))
        u = mli.extract_direction(W)
        worst = min(worst, abs(float(u @ jacobi_svd_top_right(W))))
    v = np.array([0.0, 3.0, -4.0, 0.0])
    W1 = np.zeros((3, 4))
    W1[1] = v
    u1 = mli.extract_direction(W1)
    expected = v / np.linalg.norm(v)
    if expected[np.flatnonzero(expected)[0]] < 0:
        expected = -expected
    rank1_err = float(np.abs(u1 - expected).max())
    W2 = np.zeros((2, 5))
    W2[0, 0], W2[1, 1] = 3.0, 1.0
    u2 = mli.extract_direction(W2)
    diag_err = max(abs(float(u2[0]) - 1.0), float(np.abs(u2[1:]).max()))
    elapsed = time.time() - started
    _report(10, worst >= 0.999 and rank1_err <= 1e-9 and diag_err <= 1e-9
            and elapsed < 10.0,
            f"50 random matrices |cos| >= {worst:.6f}; rank-1 err {rank1_err:.1e}; "
            f"diagonal err {diag_err:.1e}", started)


def test_criterion_11_injection_identity_and_locality():
    started = time.time()
    vocab = enc.build_vocab(["alpha beta gamma delta"])
    cfg = enc.EncoderConfig(vocab=vocab, d=16, layers=3, heads=4, max_len=8, seed=5)
    params = enc.init_params(cfg)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(cfg.d)
    u /= np.linalg.norm(u)
    base = enc.forward("alpha beta gamma", params, cfg)
    lam0 = enc.forward("alpha beta gamma", params, cfg,
                       enc.InjectionDirection(u=u, layer=2, lam=0.0))
    identity = all(np.array_equal(a, b) for a, b in zip(base, lam0))
    lam = 2.5
    injected = enc.forward("alpha beta gamma", params, cfg,
                           enc.InjectionDirection(u=u, layer=2, lam=lam))
    locality = (np.array_equal(injected[1], base[1])
                and np.array_equal(injected[2], base[2] + lam * u)
                and not np.array_equal(injected[3], base[3]))
    _report(11, identity and locality and time.time() - started < 5.0,
            "lambda=0 forward bit-identical; post-hook states differ by exactly "
            "lambda*u per token row", started)


def test_criterion_12_prompt_byte_exactness():
    started = time.time()
    fixtures_dir = Path(__file__).parent / "data"
    conv = build_prompt(
        PromptSpec(task_name="MTop", k=1, template="conversational"),
        [("Whats weather forecast for tomorrow?",
          "[IN:GET_WEATHER [SL:DATE_TIME for tomorrow]]")],
        "Will it be sunny on Friday?")
    sql_schema = ('CREATE TABLE IF NOT EXISTS "employee" ( "eid" text, "name" text, '
                  '"salary" text, PRIMARY KEY ("eid") );')
    sql = build_prompt(
        PromptSpec(task_name="Spider", k=1, template="sql_schema",
                   schema_text=sql_schema),
        [("How many employees do we have?", "SELECT count(*) FROM employee;")],
        "How many employees are there?")
    conv_ok = conv.encode("utf-8") == fixtures_dir.joinpath(
        "prompt_conversational_k1.txt").read_bytes()
    sql_ok = sql.encode("utf-8") == fixtures_dir.joinpath(
        "prompt_sql_k1.txt").read_bytes()
    _report(12, conv_ok and sql_ok and time.time() - started < 1.0,
            "conversational and SQL one-shot prompts match the golden files "
            "byte-for-byte", started)


def test_criterion_13_pipeline_determinism(pipeline_runs):
    started = time.time()
    _, run_a, run_b = pipeline_runs
    artifacts = ("lsh_index.json", "bucket_report.json", "pairs.jsonl",
                 "mining_report.json", "encoder.params", "loss_curve.csv",
                 "mli_grid.csv", "direction.json", "eval_metrics.json")
    mismatched = [name for name in artifacts
                  if hashlib.sha256((run_a / name).read_bytes()).hexdigest()
                  != hashlib.sha256((run_b / name).read_bytes()).hexdigest()]
    _report(13, not mismatched,
            f"identical hashes for {len(artifacts)} artifacts across reruns"
            + (f"; mismatched: {mismatched}" if mismatched else ""), started)
