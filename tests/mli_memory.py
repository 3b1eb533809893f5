"""Memory of the MLI stage at N = 2000: the traced peak of ``collect_states``
and the sweep's peak RSS and wall time, printed as markdown lines for a CI
job summary. It records; it checks nothing.

    PYTHONPATH=src python3 tests/mli_memory.py [--per-cluster 400]

The inputs are ``stare fixture-gen --per-cluster 400`` (2,000 train records,
17,854 POS lines) with the fixture config's encoder, untrained
(``init_params``), and the grid layers 2-4 x POS/DEPS/PT x lambda 5.0 with 3
probe epochs. ``collect_states`` runs on the POS corpus for layers 2-4.
Each measure runs in a fresh child process with one BLAS thread, so the RSS
peak is the sweep's own (numpy and the loaded inputs included) and
tracemalloc does not slow the sweep. MB is 2**20 bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from stare import cli, encoder, mli
from stare.config import load_config

GRID = mli.SweepGrid(layers=[2, 3, 4], properties=list(mli.PROPERTIES), lambdas=[5.0])
PROBE = mli.ProbeConfig(epochs=3)
MB = 2 ** 20


def measure(what: str, fixture: Path) -> dict:
    config = load_config(fixture / "config.json", env={})
    bank, dev = cli._load_corpus(config, "train"), cli._load_corpus(config, "dev")
    cfg = encoder.EncoderConfig(vocab=encoder.build_vocab([rec.utterance for rec in bank]),
                                **config.encoder)
    params = encoder.init_params(cfg)
    labels = {prop: mli.load_token_label_corpus(config.path(path), prop)
              for prop, path in config.mli["label_corpora"].items()}
    if what == "collect_states":
        tracemalloc.start()
        X, y = mli.collect_states(labels["POS"], params, cfg, GRID.layers)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"rows": len(y), "traced_peak_mb": peak / MB,
                "output_mb": (sum(x.nbytes for x in X.values()) + y.nbytes) / MB}
    start = time.perf_counter()
    result = mli.sweep(dev, bank, params, cfg, labels, GRID, k=config.mli["k"],
                       probe_config=PROBE)
    return {"wall_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "scores": [repr(row.score) for row in result.rows]}


def _child(what: str, fixture: Path) -> dict:
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, __file__, "--measure", what, "--fixture", str(fixture)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--per-cluster", type=int, default=400)
    parser.add_argument("--measure", choices=["collect_states", "sweep"], help=argparse.SUPPRESS)
    parser.add_argument("--fixture", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.fixture)))
        return
    with tempfile.TemporaryDirectory() as tmp:
        fixture = Path(tmp) / "fixture"
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the record
            code = cli.main(["fixture-gen", "--out", str(fixture), "--per-cluster",
                             str(args.per_cluster)])
        if code != cli.EXIT_OK:
            sys.exit("fixture-gen failed")
        states, swept = _child("collect_states", fixture), _child("sweep", fixture)
    print(f"MLI memory, fixture --per-cluster {args.per_cluster}, untrained params, "
          f"grid layers 2-4 x POS/DEPS/PT x lambda 5.0, probe epochs 3:")
    print(f"- collect_states (POS, layers 2-4, {states['rows']} rows): traced peak "
          f"{states['traced_peak_mb']:.1f} MB for {states['output_mb']:.1f} MB returned")
    print(f"- sweep: peak RSS {swept['peak_rss_mb']:.1f} MB, wall {swept['wall_s']:.2f} s, "
          f"{len(swept['scores'])} rows, scores {' '.join(swept['scores'])}")


if __name__ == "__main__":
    main()
