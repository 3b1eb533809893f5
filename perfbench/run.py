"""stare benchmark: one command runs a workload (or all four) and checks it.

    python3 perfbench/run.py --workload demo-pipeline --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced

A run sets up the workload's inputs several times, each in a fresh
process (``setup_s`` is the median), checks that the replicas are
byte-identical and, for the default seed, that they match the pinned
sha256 values in ``pins.json``. It then times the workload body in one
more fresh process with BLAS/OpenMP threads fixed at 1, checks the
outputs, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
derived from spans recorded around every public ``stare`` function.

Only the standard library is used here; the workload process needs numpy
and imports ``stare`` from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
OUT = HERE / "out"
WORKLOADS = ("demo-pipeline", "mine-scale", "mine-sql", "serve")
DEFAULT_SEED = 0
SETUP_REPLICAS = 7
# A run must end within 180 s; no new pass starts after PASS_BUDGET_S and
# the workload process is killed at CHILD_DEADLINE_S.
PASS_BUDGET_S = 140.0
CHILD_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")



class BenchError(Exception):
    """A run that cannot produce a result; reported without a JSON line."""


def child_env() -> dict[str, str]:
    """Fresh-process environment: one BLAS thread, this checkout's stare only."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("STARE_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args: list[str], timeout: float, log: Path) -> float:
    """Run workload.py in a fresh process; returns its wall time in seconds."""
    t0 = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen([sys.executable, str(WORKLOAD), *args], env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"workload process timed out; log: {log}")
    elapsed = time.perf_counter() - t0
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"workload process exited with {code}:\n{tail}")
    return elapsed


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_hashes(directory: Path) -> dict[str, str]:
    return {str(p.relative_to(directory)): _sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def code_hash() -> str:
    """Identifies the program and benchmark code a record was made with."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.py")) + [HERE / "pins.json"]
    for p in files:
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def setup(workload: str, seed: int, out: Path, replicas: int) -> tuple[Path, list[float]]:
    """Generate the inputs ``replicas`` times; returns one copy and the times."""
    times, hashes = [], []
    started = time.perf_counter()
    for i in range(replicas):
        directory = out / f"inputs{i}"
        times.append(_child(["setup", "--workload", workload, "--seed", str(seed),
                             "--dir", str(directory)],
                            CHILD_DEADLINE_S - (time.perf_counter() - started),
                            out / f"setup{i}.log"))
        hashes.append(input_hashes(directory))
    if any(h != hashes[0] for h in hashes):
        raise BenchError(f"{workload}: set-up replicas differ for seed {seed}; "
                         "input generation is not deterministic")
    if seed == DEFAULT_SEED:
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))[workload]
        if pins != hashes[0]:
            changed = sorted(k for k in set(pins) | set(hashes[0])
                             if pins.get(k) != hashes[0].get(k))
            raise BenchError(
                f"{workload}: inputs for the default seed {seed} differ from the pinned "
                f"sha256 values in perfbench/pins.json ({', '.join(changed)}). The input "
                "generators changed, so the load changed; re-measure the baseline and "
                "update the pins in a benchmark change.")
    return out / "inputs0", times


def compare_record(result: dict, workload: str, seed: int) -> None:
    """Artifacts and fixed counts must repeat across runs of one seed and code.

    Each run leaves a record under out/records; a later run of the same
    seed and code compares against it.
    """
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload}-seed{seed}-{code_hash()}.json"
    previous = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    current = {k: result[k] for k in ("artifacts", "fixed_counts") if result.get(k)}
    for key, value in current.items():
        if key in previous:
            same = previous[key] == value
            result["checks"].append({
                "name": f"{key} identical to an earlier run of this seed",
                "ok": same, "detail": "" if same else json.dumps(previous[key])})
            result["correct"] = result["correct"] and same
    path.write_text(json.dumps({**previous, **current}, indent=1, sort_keys=True),
                    encoding="utf-8")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and check one workload; returns the workload's result."""
    started = time.perf_counter()
    if not (ROOT / "src" / "stare" / "__init__.py").is_file():
        raise BenchError(f"no stare sources at {ROOT / 'src' / 'stare'}; run from a "
                         "checkout of the repository")
    load_avg = os.getloadavg()
    out = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs, setup_times = setup(workload, seed, out, 1 if trace else SETUP_REPLICAS)
    spent = time.perf_counter() - started
    _child(["run", "--workload", workload, "--inputs", str(inputs), "--out", str(out),
            "--seconds", str(seconds), "--budget", str(PASS_BUDGET_S - spent),
            "--trace", str(trace)],
           CHILD_DEADLINE_S - spent, out / "run.log")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    result.update(seed=seed, load_avg_at_start=list(load_avg), setup_times_s=setup_times,
                  setup_replicas=len(setup_times))
    compare_record(result, workload, seed)
    if trace:
        result["metrics"] = result.pop("per_layer")
    else:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                             **result["metrics"]}
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Human-readable lines; the machine-readable JSON line comes last."""
    w = result["workload"]
    env = result["environment"]
    print(f"== {w}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}  ops {result['attempted']} "
          f"(failed {result['failed']})")
    print(f"   python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, load avg {result['load_avg_at_start']}, "
          f"threads {env['threads_env']}")
    print(f"   warm-up: {result['warmup']}")
    for name, m in {**result["metrics"], **result["detail"]}.items():
        print(f"   {name:32s} {_fmt(m['value']):>14s} {m['unit']}")
    props = ", ".join(f"{k} {_fmt(v)}" for k, v in result["properties"].items())
    print(f"   inputs: {props}")
    for name, digest in result.get("artifacts", {}).items():
        print(f"   sha256 {name} {digest}")
    bad = [c for c in result["checks"] if not c["ok"]]
    print(f"   checks: {len(result['checks']) - len(bad)}/{len(result['checks'])} passed")
    for c in bad:
        print(f"   FAILED check: {c['name']} {c['detail']}")
    for f in result["failures"]:
        print(f"   failed op: {f}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then traced twice; fixed counts must repeat."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        plain = run_one(w, seed, seconds, 0)
        traced = [run_one(w, seed, seconds, 1) for _ in range(2)]
        for r in (plain, *traced):
            report(r)
            summary["correct"] &= r["correct"]
            summary["attempted"] += r["attempted"]
            summary["failed"] += r["failed"]
        same = traced[0]["fixed_counts"] == traced[1]["fixed_counts"]
        summary["correct"] &= same
        overhead = traced[0]["pass_wall_s"][0] - plain["pass_wall_s"][0]
        print(f"== {w}: fixed counts repeat across two traced runs: {same} "
              f"{json.dumps(traced[0]['fixed_counts'])}")
        print(f"== {w}: tracing overhead {overhead:.3f} s over one untraced pass of "
              f"{plain['pass_wall_s'][0]:.3f} s")
        for name, m in {**plain["metrics"], **plain["detail"]}.items():
            summary["metrics"][f"{w}.{name}"] = m
        summary["metrics"][f"{w}.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="stare benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes until this many seconds have elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            summary = run_all(args.seed, args.seconds)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
            report(result)
            summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
