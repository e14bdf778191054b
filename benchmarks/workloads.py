"""Benchmark workloads: one ``gebs run`` configuration each, plus the report
check every round's output must pass.

Each workload stresses a different layer. ``ar1-n50`` is linear in beta, so
every solve takes one Newton step and the per-draw interpreter overhead, the
per-draw RNG streams and the residual-bootstrap rebuild dominate.
``glm-fumigant`` iterates Newton about four times per draw over 240 trial
slots, so model evaluation dominates. ``nls-isomerization`` goes through the
same bootstrap driver but never calls the Newton solver, so a solver change
should leave it unchanged.
"""

import csv
import io
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    sims: int
    boots: int
    methods: tuple
    trace_rounds: int      # rounds per phase of a traced run
    extra: tuple = ()

    @property
    def draws(self):
        """Resamples attempted per round."""
        return self.sims * self.boots * len(self.methods)

    def argv(self, seed, out):
        return ["run", "--experiment", self.experiment, *self.extra,
                "--sims", str(self.sims), "--boots", str(self.boots),
                "--methods", ",".join(self.methods), "--seed", str(seed),
                "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("ar1-n50", "ar1", sims=2, boots=300,
             methods=("rb", "wb", "gbs-multinomial", "gbs-uniform"),
             trace_rounds=20, extra=("--n", "50")),
    Workload("glm-fumigant", "glm", sims=1, boots=500,
             methods=("wb", "gbs-multinomial", "gbs-exp"), trace_rounds=8),
    Workload("nls-isomerization", "nls", sims=1, boots=1000,
             methods=("rb", "gbs-multinomial", "gbs-exp"), trace_rounds=8),
)}

# Round r of workload seed s runs ``gebs run --seed round_seed(s, r)``. The
# check round before timing runs at gebs seed 0, which no timed round uses.
CHECK_SEED = 0


def round_seed(seed, r):
    return (seed << 20) + r + 1


COLUMNS = {
    "ar1": ("method", "mean_var_est", "var_var_est", "fallback_rate"),
    "glm": ("method", "case", "logit", "mean_ci_length", "coverage_pct",
            "fallback_rate"),
    "nls": ("method", "param", "kind", "x_lo", "x_hi", "value"),
}
GLM_CASES = 10
NLS_PARAMS = 4
NLS_BINS = 30


def check_report(workload, seed, text):
    """Return None if ``text`` is a valid report for this round, else why not."""
    body, comments = [], []
    for line in text.splitlines():
        (comments if line.startswith("# ") else body).append(line)
    if f"# seed {seed}" not in comments:
        return "seed line missing"
    if any(c.startswith("# flag ") for c in comments):
        return "degenerate flag set"
    config = [c for c in comments if c.startswith("# config ")]
    if len(config) != 1:
        return "config line missing"
    cfg = json.loads(config[0][len("# config "):])
    if (cfg["sims"], cfg["boots"], tuple(cfg["methods"])) != (
            workload.sims, workload.boots, workload.methods):
        return "config does not match the workload"
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    if not rows or tuple(rows[0]) != COLUMNS[workload.experiment]:
        return "unexpected columns"
    for row in rows:
        for key, cell in row.items():
            if key not in ("method", "kind") and not math.isfinite(float(cell)):
                return f"non-finite {key}"
    return _CHECKS[workload.experiment](workload, rows)


def _check_ar1(workload, rows):
    if [r["method"] for r in rows] != [*workload.methods, "truth"]:
        return "method rows out of order"
    for r in rows[:-1]:
        if not float(r["mean_var_est"]) > 0 or float(r["var_var_est"]) < 0:
            return f"{r['method']}: variance estimate out of range"
        if not 0 <= float(r["fallback_rate"]) <= 1:
            return f"{r['method']}: fallback rate out of range"
    return None


def _check_glm(workload, rows):
    expect = [m for m in workload.methods for _ in range(GLM_CASES)]
    if [r["method"] for r in rows] != expect:
        return "method rows out of order"
    for r in rows:
        if not 0 <= float(r["coverage_pct"]) <= 100:
            return "coverage out of range"
        if not float(r["mean_ci_length"]) > 0:
            return "interval length not positive"
        if not 0 <= float(r["fallback_rate"]) <= 1:
            return "fallback rate out of range"
    return None


def _check_nls(workload, rows):
    if sum(r["method"] == "fit" for r in rows) != NLS_PARAMS:
        return "fit rows missing"
    for method in workload.methods:
        for j in range(NLS_PARAMS):
            mine = [r for r in rows
                    if r["method"] == method and int(r["param"]) == j]
            bins = [r for r in mine if r["kind"] == "bin"]
            if len(bins) != NLS_BINS:
                return f"{method} param {j}: {len(bins)} histogram bins"
            if abs(sum(float(r["value"]) for r in bins) - 1.0) > 1e-4:
                return f"{method} param {j}: histogram mass is not 1"
            if any(float(r["x_lo"]) > float(r["x_hi"]) for r in bins):
                return f"{method} param {j}: bin edges out of order"
            if not any(r["kind"] == "mode" for r in mine):
                return f"{method} param {j}: no mode"
    return None


_CHECKS = {"ar1": _check_ar1, "glm": _check_glm, "nls": _check_nls}
