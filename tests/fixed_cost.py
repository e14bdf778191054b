"""Fixed costs of a ``gebs run``: the part of each ``resample`` call that does
not grow with the number of draws, and what ``cli.main`` adds around an
experiment.

Usage, from the repository root, once on each tree to compare:

    PYTHONPATH=src taskset -c 1 python tests/fixed_cost.py

Resample calls: the ar1 experiment runs in-process (``bench.run_experiment``)
with its four default methods at ``--sims 200``, once per ``--boots`` value
(10 and 1000), so each run makes sims x methods ``resample`` calls. The line
per run gives the median wall time of ``--repeats`` runs and the time per
call; the last line extrapolates the per-call time linearly to zero draws.

``cli.main``: a one-call ar1 run (``--sims 1 --boots 10``, one method) is
played alternately through ``cli.main`` and through ``ExperimentConfig``,
``run_experiment`` and ``emit_report`` directly, ``--samples`` times each,
after one warm-up of each. The difference of the medians is what ``main``
itself costs per call: parsing, and whatever else it does per call.

Reports go to a temporary directory; nothing in the repository changes.
pytest does not collect this file.
"""

import argparse
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from gebs import bench, cli

CALL_RUN = dict(experiment="ar1", sims=1, boots=10, methods=("gbs-multinomial",))


def resample_costs(sims, boots, repeats):
    """``{boots: (median seconds of a run, resample calls per run)}`` of the
    ar1 experiment with its default methods."""
    costs = {}
    for b in boots:
        config = bench.ExperimentConfig("ar1", sims=sims, boots=b)
        runs = []
        for _ in range(repeats):
            start = perf_counter()
            bench.run_experiment(config)
            runs.append(perf_counter() - start)
        costs[b] = (statistics.median(runs), sims * len(config.methods))
    return costs


def main_cost(samples):
    """Median seconds of the one-call run through ``cli.main`` and directly."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.csv")
        argv = ["run", "--experiment", CALL_RUN["experiment"],
                "--sims", str(CALL_RUN["sims"]), "--boots", str(CALL_RUN["boots"]),
                "--methods", ",".join(CALL_RUN["methods"]), "--out", out]

        def through_main():
            if cli.main(argv) != cli.EXIT_OK:
                raise RuntimeError(f"gebs {' '.join(argv)} failed")

        def direct():
            config = bench.ExperimentConfig(**CALL_RUN, out=out)
            bench.emit_report(bench.run_experiment(config), config.format, config.out)

        times = {through_main: [], direct: []}
        for play in times:
            play()
        for _ in range(samples):
            for play, runs in times.items():
                start = perf_counter()
                play()
                runs.append(perf_counter() - start)
    return statistics.median(times[through_main]), statistics.median(times[direct])


def report(sims, boots, repeats, samples):
    """The printed lines."""
    costs = resample_costs(sims, boots, repeats)
    lines = []
    for b, (seconds, calls) in costs.items():
        lines.append(f"resample ar1 sims={sims} methods={calls // sims} boots={b}: "
                     f"{seconds:.3f} s, {1e3 * seconds / calls:.3f} ms per call")
    lo, hi = min(costs), max(costs)
    calls = costs[lo][1]
    per_draw = (costs[hi][0] - costs[lo][0]) / calls / (hi - lo)
    lines.append(f"resample fixed cost (per-call time extrapolated to 0 draws): "
                 f"{1e3 * (costs[lo][0] / calls - lo * per_draw):.3f} ms per call")
    through, direct = main_cost(samples)
    lines.append(f"cli.main: {1e3 * through:.3f} ms per one-call run, "
                 f"{1e3 * direct:.3f} ms without it; main's own cost "
                 f"{1e3 * (through - direct):.3f} ms per call")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sims", type=int, default=200)
    parser.add_argument("--boots", default="10,1000",
                        help="comma-separated --boots values, at least two")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--samples", type=int, default=300)
    args = parser.parse_args(argv)
    boots = [int(b) for b in args.boots.split(",")]
    if len(set(boots)) < 2:
        parser.error("--boots needs two distinct values")
    import gebs
    print("# gebs", Path(gebs.__file__).parent)
    for line in report(args.sims, boots, args.repeats, args.samples):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
