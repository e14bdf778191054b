"""gebs benchmark: closed-loop experiment throughput, one workload per process.

Usage, from the repository root:

    python3 benchmarks/run.py --workload ar1-n50 --seed 0 --seconds 28 --trace 0

One caller, pinned to one CPU, issues rounds back to back with no threads.
A round is one in-process ``gebs.cli.main(["run", ...])`` call that writes
its report to a file, so the measured path is the user's. Every round has its
own gebs seed, derived from ``--seed``, so no two rounds share inputs.

Before timing, a check round at gebs seed 0 must reproduce its golden report
digest; every timed round's report must pass the workload's report check, and
at the default ``--seed`` the first rounds must match their golden digests.

``--trace 0`` measures the end-to-end metrics for ``--seconds``. The host's
speed drifts by tens of percent within minutes, so every end-to-end time is
rescaled by a fixed calibration loop timed beside it: it reads as seconds on
a host where that loop takes CAL_REFERENCE_S. Raw wall-clock figures are
printed on comment lines.

``--trace 1`` plays a fixed number of rounds untraced and then the same
rounds traced, so that its counts repeat exactly; it reports per-layer
metrics and the tracing overhead.

The last line of stdout is one JSON object with the result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9
TAIL_BEYOND = 10
CAL_NUMPY_STEPS = 300
CAL_PYTHON_STEPS = 100_000
CAL_REFERENCE_S = 0.03

sys.path.insert(0, str(HERE))
from workloads import CHECK_SEED, WORKLOADS, check_report, round_seed  # noqa: E402

# Set-up as a user pays it: a fresh interpreter imports gebs, parses the
# command line, builds the experiment config and loads the bundled data.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import gebs.bench, gebs.cli, gebs.models
args = gebs.cli.build_parser().parse_args(sys.argv[2:])
gebs.bench.ExperimentConfig(experiment=args.experiment, n=args.n, sims=args.sims,
                            boots=args.boots, methods=args.methods.split(","),
                            seed=args.seed, out=args.out)
if args.experiment == "glm":
    gebs.models.load_fumigant()
if args.experiment == "nls":
    gebs.models.load_isomerization()
print("ready", flush=True)
"""


@dataclass
class Round:
    seconds: float
    digest: str        # "" when the round raised or exited non-zero
    problem: str       # None when the report passed its check


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe_setup(workload, out):
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    argv = [sys.executable, "-c", PROBE, str(SRC),
            *workload.argv(CHECK_SEED, out)]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def calibrate(np):
    """Time a fixed reference loop that does not touch gebs.

    The loop mixes small numpy array work, like a logistic Newton step over
    240 slots, with pure interpreter work, the two kinds of work gebs does.
    The host's speed drifts by tens of percent within minutes; this loop's
    time drifts with it, so dividing by it cancels most of the drift.
    """
    x = np.linspace(-1.0, 1.0, 240)
    D = np.column_stack([np.ones_like(x), x])
    w = np.ones(240)
    beta = np.array([0.1, 0.2])
    acc = 0
    t0 = perf_counter()
    for _ in range(CAL_NUMPY_STEPS):
        p = 1.0 / (1.0 + np.exp(-(D @ beta)))
        J = -(p * (1.0 - p))[:, None, None] * D[:, :, None] * D[:, None, :]
        H = np.tensordot(w, J, axes=(0, 0)) - 10.0 * np.eye(2)
        beta = beta + 1e-3 * np.linalg.solve(H, w @ (D * (0.5 - p)[:, None]))
    for i in range(CAL_PYTHON_STEPS):
        acc += (i * 7) % 13
    elapsed = perf_counter() - t0
    if not (np.all(np.isfinite(beta)) and acc > 0):
        raise RuntimeError("calibration loop produced no result")
    return elapsed


def at_reference_speed(seconds, before, after):
    """Rescale a wall time to a host on which the calibration loop, timed
    just before and just after it, takes CAL_REFERENCE_S."""
    return seconds * CAL_REFERENCE_S / (0.5 * (before + after))


def play(cli, workload, seed, out):
    """One round: ``gebs run`` in-process. Returns (seconds, report or None)."""
    argv = workload.argv(seed, out)
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, None
    elapsed = perf_counter() - t0
    if code != 0:
        return elapsed, None
    return elapsed, Path(out).read_text(encoding="utf-8")


def judged(cli, workload, seed, out, golden=None):
    seconds, text = play(cli, workload, seed, out)
    if text is None:
        return Round(seconds, "", "round raised or exited non-zero")
    problem = check_report(workload, seed, text)
    d = digest(text)
    if problem is None and golden is not None and d != golden:
        problem = f"digest {d} differs from golden {golden}"
    return Round(seconds, d, problem)


def tail(values):
    """(value, percentile, rounds beyond): the highest percentile that still
    has TAIL_BEYOND rounds above it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def host_metadata(np, scipy, gebs_threads):
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "GEBS_THREADS": gebs_threads}


def measure_setup(np, workload):
    """Set-up times of fresh processes at reference speed.

    An import lasts about a second, far longer than one calibration loop, so
    the probes are rescaled by the median of all calibrations around them.
    """
    cals = [calibrate(np)]
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(probe_setup(workload, OUT_DIR / "probe.csv"))
        cals.append(calibrate(np))
    speed = statistics.median(cals)
    return [at_reference_speed(s, speed, speed) for s in setup]


def measure(cli, np, workload, seed, seconds, goldens):
    """Closed loop for ``seconds``; returns (rounds, calibration times).

    The calibration loop runs before every round and once after the last, so
    each round has a calibration on either side of it.
    """
    rounds, cals = [], []
    out = OUT_DIR / f"{workload.name}-round.csv"
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        r = len(rounds)
        cals.append(calibrate(np))
        rounds.append(judged(cli, workload, round_seed(seed, r), out,
                             goldens[r] if r < len(goldens) else None))
    cals.append(calibrate(np))
    return rounds, cals


def end_to_end(workload, rounds, cals, setup):
    wall = [r.seconds for r in rounds]
    times = [at_reference_speed(t, a, b) for t, a, b in zip(wall, cals, cals[1:])]
    tail_s, pct, beyond = tail(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# {len(rounds)} rounds of {workload.draws} draws; tail is "
          f"p{pct:.1f} with {beyond} rounds beyond it")
    print(f"# wall clock: round p50 {statistics.median(wall)} s, "
          f"{len(rounds) * workload.draws / sum(wall)} draws/s; calibration "
          f"loop p50 {statistics.median(cals)} s")
    return {"setup_s": (statistics.median(setup), "s"),
            "run_s_p50": (statistics.median(times), "s"),
            "run_s_tail": (tail_s, "s"),
            "draws_per_s": (len(rounds) * workload.draws / sum(times), "1/s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB")}


def traced(cli, workload, seed, goldens):
    """Same rounds untraced, then traced; per-layer metrics and overhead."""
    import spans

    out = OUT_DIR / f"{workload.name}-round.csv"
    seeds = [round_seed(seed, r) for r in range(workload.trace_rounds)]

    def phase(tracer=None):
        played = []
        for r, s in enumerate(seeds):
            if tracer is not None:
                tracer.current_round = r
            played.append(judged(cli, workload, s, out,
                                 goldens[r] if r < len(goldens) else None))
        return played

    plain = phase()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced_rounds = phase(tracer)
    tracer.save(OUT_DIR / f"spans-{workload.name}-{seed}.npz")
    for a, b in zip(plain, traced_rounds):
        if b.problem is None and a.digest != b.digest:
            b.problem = "traced report differs from untraced report"
    rate = [len(seeds) * workload.draws / sum(r.seconds for r in p)
            for p in (plain, traced_rounds)]
    metrics = spans.layer_metrics(tracer)
    metrics["trace.rounds"] = (len(seeds), "count")
    metrics["trace.overhead_draws_per_s"] = (rate[1] - rate[0], "1/s")
    metrics["trace.overhead_frac"] = ((rate[1] - rate[0]) / rate[0], "ratio")
    return plain + traced_rounds, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gebs" / "__init__.py").is_file():
        print(f"benchmark: no gebs sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inherited_threads = os.environ.pop("GEBS_THREADS", None)
    # one CPU for the caller, its set-up probes and the calibration loop, so
    # that the calibration measures the CPU the timed work runs on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    OUT_DIR.mkdir(exist_ok=True)

    import numpy as np
    import scipy

    setup = None if args.trace else measure_setup(np, workload)

    sys.path.insert(0, str(SRC))
    import gebs.cli as cli
    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"benchmark: gebs imported from {cli.__file__}", file=sys.stderr)
        return 2

    golden = json.loads(GOLDENS.read_text()).get(workload.name, {})
    check = judged(cli, workload, CHECK_SEED, OUT_DIR / f"{workload.name}-check.csv",
                   golden.get("check", "missing"))
    if check.problem:
        print(f"# check round failed: {check.problem}")
    # golden digests of timed rounds exist for the default seed only
    goldens = golden.get("rounds", []) if args.seed == DEFAULT_SEED else []
    if args.trace:
        rounds, metrics = traced(cli, workload, args.seed, goldens)
    else:
        rounds, cals = measure(cli, np, workload, args.seed, args.seconds, goldens)
        metrics = end_to_end(workload, rounds, cals, setup)

    failed = [r for r in rounds if r.problem]
    for r in failed[:5]:
        print(f"# round failed: {r.problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    host = host_metadata(np, scipy, inherited_threads)
    host["pinned_cpu"] = cpu
    print("# host " + json.dumps(host, sort_keys=True))
    print(f"# failed_frac {len(failed) / len(rounds)}")
    print("# digests " + " ".join(r.digest or "-" for r in rounds))
    result = {"correct": check.problem is None and not failed,
              "attempted": len(rounds), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
