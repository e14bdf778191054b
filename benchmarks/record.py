"""Record goldens and baselines for the gebs benchmark.

From the repository root:

    python3 benchmarks/record.py goldens
        Play the check round and the default-seed rounds of every workload
        in-process and write their report digests to benchmarks/goldens.json.

    python3 benchmarks/record.py sweep --seeds 0-9 [--workloads a,b] [--baseline]
        Run the benchmark command once per workload and seed, each in its own
        process, and print each metric's median, quartiles and relative
        spread (quartile distance over median) against its bound. With
        --baseline, also write the medians, one traced run per workload and
        the host to benchmarks/baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import CHECK_SEED, WORKLOADS, round_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def record_goldens():
    sys.path.insert(0, str(run.SRC))
    import gebs.cli as cli

    run.OUT_DIR.mkdir(exist_ok=True)
    out = run.OUT_DIR / "golden.csv"
    goldens = {}
    for name, workload in WORKLOADS.items():
        check = run.judged(cli, workload, CHECK_SEED, out)
        rounds = []
        deadline = perf_counter() + 2 * SPEC["run_seconds"]
        while perf_counter() < deadline:
            rounds.append(run.judged(cli, workload,
                                     round_seed(run.DEFAULT_SEED, len(rounds)), out))
        for r in (check, *rounds):
            if r.problem:
                raise SystemExit(f"{name}: {r.problem}")
        goldens[name] = {"check": check.digest, "rounds": [r.digest for r in rounds]}
        print(f"{name}: check + {len(rounds)} rounds")
    run.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


def bench(workload, seed, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    host = next(json.loads(ln[len("# host "):]) for ln in lines
                if ln.startswith("# host "))
    return json.loads(lines[-1]), host


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def sweep(seeds, names, baseline):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary, host = {}, None
    for name in names:
        results = []
        for seed in seeds:
            result, host = bench(name, seed, 0)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
            results.append(result)
        table = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            flag = "ok" if rel < bounds[metric] / 3 else "WIDE"
            print(f"  {metric:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {rel:.4f} {flag}")
            table[metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                             "unit": results[0]["metrics"][metric]["unit"]}
        summary[name] = {"seeds": seeds,
                         "correct": all(r["correct"] for r in results),
                         "attempted": [r["attempted"] for r in results],
                         "failed": [r["failed"] for r in results],
                         "metrics": table}
    if baseline:
        traced = {name: bench(name, run.DEFAULT_SEED, 1)[0] for name in names}
        record = {"host": host, "run_seconds": SPEC["run_seconds"],
                  "end_to_end": summary,
                  "per_layer": {name: {"seed": run.DEFAULT_SEED, **res}
                                for name, res in traced.items()}}
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="record goldens and baselines")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("goldens")
    sw = sub.add_parser("sweep")
    sw.add_argument("--seeds", default="0-9")
    sw.add_argument("--workloads", default=",".join(WORKLOADS))
    sw.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "goldens":
        record_goldens()
    else:
        seeds = seed_list(args.seeds)
        if len(seeds) < 2:
            parser.error("--seeds needs at least two seeds for quartiles")
        sweep(seeds, args.workloads.split(","), args.baseline)


if __name__ == "__main__":
    main()
