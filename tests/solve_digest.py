"""Digests of every Newton solve and every report the benchmark workloads
make, to check that a change leaves their bits as they are.

Usage, from the repository root, once on each tree to compare:

    PYTHONPATH=src python tests/solve_digest.py --rounds 300

Each workload in ``benchmarks/workloads.py`` plays its check round and the
first R rounds of the benchmark's default seed in-process through
``gebs.cli.main``. Every ``solve_weighted_batch`` call is hashed, in call
order, as its roots, failure classes and step counts; every report text is
hashed in round order. The default ``weights-check`` report, which no
workload runs, is played at the same seeds and hashed on its own. The script
prints one digest over each, with the number of solves or reports. Reports
go to a temporary directory; nothing under ``benchmarks/`` changes. pytest
does not collect this file.
"""

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
DEFAULT_SEED = 0   # benchmarks/run.py's default --seed, whose rounds have goldens


def _workloads():
    spec = importlib.util.spec_from_file_location("gebs_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(rounds):
    """``{"solves": (count, hex), "reports": (count, hex), "weights-check":
    (count, hex)}`` over the check round and the first ``rounds`` rounds of
    every workload, and over the weights-check reports at the same seeds."""
    from gebs import cli, solver

    workloads = _workloads()
    seeds = [workloads.CHECK_SEED,
             *(workloads.round_seed(DEFAULT_SEED, r) for r in range(rounds))]
    hashes = {kind: hashlib.sha256() for kind in ("solves", "reports", "weights-check")}
    counts = dict.fromkeys(hashes, 0)
    solves = hashes["solves"]
    original = solver.solve_weighted_batch

    def hashed(*args):
        betas, failures, iterations = original(*args)
        solves.update(betas.tobytes())
        solves.update("\0".join(failures).encode() + b"\1")
        solves.update(np.asarray(iterations).tobytes())
        counts["solves"] += 1
        return betas, failures, iterations

    # every module that calls the core by its imported name
    callers = [m for name, m in sys.modules.items() if name.startswith("gebs")
               and getattr(m, "solve_weighted_batch", None) is original]
    patches = [mock.patch.object(m, "solve_weighted_batch", hashed) for m in callers]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        runs = [("reports", w.name, w.argv) for w in workloads.WORKLOADS.values()]
        runs.append(("weights-check", "weights-check", lambda seed, out: [
            "run", "--experiment", "weights-check", "--seed", str(seed), "--out", str(out)]))
        for p in patches:
            p.start()
        try:
            for kind, name, argv in runs:
                for seed in seeds:
                    if cli.main(argv(seed, out)) != cli.EXIT_OK:
                        raise RuntimeError(f"{name} at seed {seed} failed")
                    hashes[kind].update(out.read_bytes())
                    counts[kind] += 1
        finally:
            for p in patches:
                p.stop()
    return {kind: (counts[kind], h.hexdigest()[:16]) for kind, h in hashes.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=300)
    args = parser.parse_args(argv)
    import gebs
    print("# gebs", Path(gebs.__file__).parent)
    for kind, (count, digest) in digests(args.rounds).items():
        print(kind, count, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
