"""Command-line entry point.

``gebs run --experiment {ar1|glm|nls|weights-check} ...`` runs one experiment
and writes its report. Exit codes: 0 success, 2 configuration error, 3 a
method degenerated (too many resamples fell back to the full-data root; the
report is still written with the offending cells flagged).

``main`` applies the process's heap policy (``apply_heap_policy``) and builds
its argument parser on its first call; later calls in the same process reuse
that parser. A library caller's process keeps the allocator's defaults.
"""

import argparse
import ctypes
import re
import sys

from .bench import (EXPERIMENTS, FORMATS, SCALES, ExperimentConfig,
                    emit_report, run_experiment)
from .errors import ConfigError, ParameterError, ParseError, UnsupportedModelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

# glibc's mallopt parameters, and the ceiling of its dynamic mmap threshold
# (DEFAULT_MMAP_THRESHOLD_MAX: 32 MiB on 64-bit hosts)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)

# main's parser, built by its first call in this process
_PARSER = None


def apply_heap_policy():
    """Keep freed blocks of up to ``MMAP_THRESHOLD`` bytes on the heap.

    glibc maps a block above its mmap threshold (128 KiB at start) afresh
    and unmaps it on free, and gives a freed heap top above its trim
    threshold back to the system, so every run's (B, n) arrays would fault
    their pages in anew. It raises both thresholds only after such a block
    is freed, so what a run pays depends on what the process freed before.
    Fixing the mmap threshold at glibc's own ceiling, and the trim threshold
    at twice it (glibc's own ratio), keeps freed blocks on the heap for reuse
    from the first run. Linux with a C library that has ``mallopt`` only;
    returns the two ``mallopt`` results (1 when applied), or None.
    """
    if not sys.platform.startswith("linux"):
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
            mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gebs",
        description="Generalized bootstrap experiments for estimating equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment and emit its report")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--n", type=int, default=None,
                     help="sample size (ar1 series length; others use bundled data)")
    run.add_argument("--sims", type=int, default=None,
                     help="outer Monte Carlo replicates")
    run.add_argument("--boots", type=int, default=None,
                     help="bootstrap resamples per replicate")
    run.add_argument("--methods", default=None,
                     help="comma-separated list, e.g. rb,wb,gbs-uniform:0.5,1.5; "
                          "a comma before a digit, sign or '.' continues a "
                          "scheme's parameters")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", choices=SCALES, default="desk")
    run.add_argument("--format", choices=FORMATS, default="csv")
    run.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _methods_from(text):
    """Method names of a ``--methods`` list: a comma starts a new name unless
    a digit, sign or '.' follows it, as in ``gbs-uniform:0.5,1.5``."""
    if text is None:
        return None
    return tuple(m.strip() for m in re.split(r",(?!\s*[-+.\d])", text) if m.strip())


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        apply_heap_policy()
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        config = ExperimentConfig(
            experiment=args.experiment, n=args.n, sims=args.sims,
            boots=args.boots, methods=_methods_from(args.methods), seed=args.seed,
            scale=args.scale, out=args.out, format=args.format)
        report = run_experiment(config)
        text = emit_report(report, config.format, config.out)
    except (ConfigError, ParameterError, ParseError, UnsupportedModelError,
            OSError) as exc:   # OSError: also writing the report
        print(f"gebs: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if config.out is None:
        sys.stdout.write(text)
    if report.degenerate:
        print("gebs: one or more methods degenerated; see flags",
              file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
