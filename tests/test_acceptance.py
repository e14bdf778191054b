"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
with the measured quantities before asserting.
"""

import json
import math

import numpy as np
import pytest

from gebs import bench, engine, models as M, weights as W
from gebs.engine import (empirical_distribution, exact_variance_enumeration,
                         ks_distance, run_bootstrap, variance_estimate)
from block_sizes import BLOCK_ROWS


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num} ({name}): {status} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# 1. Delete-1 jackknife identity, exact to 1e-10

def _delete_one_oracle(fit_without):
    """(n-1)/n * sum over i of the squared deviation of the delete-i refit."""
    n, theta_hat, thetas = fit_without()
    devs = np.atleast_2d(np.asarray(thetas) - np.asarray(theta_hat))
    return (n - 1) / n * sum(np.outer(d, d) for d in devs)


def test_criterion_1_jackknife_identity():
    n = 10
    cases = []

    z = rng(0).standard_normal(n)
    mean_data = M.Dataset(n=n, arrays={"z": z})

    def mean_refits():
        thetas = [np.mean(np.delete(z, i)) for i in range(n)]
        return n, [z.mean()], [[t] for t in thetas]

    cases.append(("mean", M.MeanModel(), mean_data, mean_refits))

    lin_data = M.simulate_linear([1.0, -0.5], n, rng(1))
    X, y = lin_data["X"], lin_data["y"]

    def lin_refits():
        full = np.linalg.lstsq(X, y, rcond=None)[0]
        thetas = [np.linalg.lstsq(np.delete(X, i, axis=0), np.delete(y, i),
                                  rcond=None)[0] for i in range(n)]
        return n, full, thetas

    cases.append(("linear", M.LinearModel(p=2), lin_data, lin_refits))

    ar_data = M.simulate_ar1(0.3, 1.0, 2.0, n, rng(2))
    x = ar_data["x"]

    def ar_refits():
        num, den = x[:-1] * x[1:], x[:-1] ** 2
        full = [num.sum() / den.sum()]
        thetas = [[np.delete(num, i).sum() / np.delete(den, i).sum()]
                  for i in range(n)]
        return n, full, thetas

    cases.append(("ar1", M.Ar1Model(), ar_data, ar_refits))

    worst = 0.0
    for name, model, data, refits in cases:
        _, theta_hat, _ = refits()
        est = exact_variance_enumeration(model, data, np.asarray(theta_hat, float),
                                         W.delete_d_jackknife(n, 1))
        oracle = _delete_one_oracle(refits)
        got = np.atleast_2d(np.asarray(est.v_gbs, float))
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    _verdict(1, "jackknife identity", worst <= 1e-10,
             f"max abs deviation {worst:.3e} over mean/linear/ar1 at n=10")


# ---------------------------------------------------------------------------
# 2. Enumeration vs Monte Carlo at B = 1e5

def test_criterion_2_enumeration_vs_monte_carlo():
    n = 6
    z = rng(3).standard_normal(n)
    data = M.Dataset(n=n, arrays={"z": z})
    model = M.MeanModel()
    beta_hat = np.array([z.mean()])
    details = []
    ok = True
    for scheme in (W.multinomial(n), W.delete_d_jackknife(n, 2)):
        exact = exact_variance_enumeration(model, data, beta_hat, scheme).v_gbs
        sample = run_bootstrap(model, data, beta_hat, scheme, 10 ** 5, seed=4)
        mc = variance_estimate(sample)
        gap = abs(mc.v_gbs - exact)
        ok = ok and gap <= 4 * mc.mc_stderr
        details.append(f"{scheme.label()}: |mc-exact|={gap:.2e} "
                       f"vs 4se={4 * mc.mc_stderr:.2e}")
    _verdict(2, "enumeration vs Monte Carlo", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. AR(1) variance-estimate table, n = 50

def test_criterion_3_ar1_table():
    cfg = bench.ExperimentConfig("ar1", sims=1000, boots=500, n=50, seed=11)
    report = bench.run_experiment(cfg)
    means = {r["method"]: r["mean_var_est"] for r in report.rows}
    checks = [
        ("gbs-uniform", 0.09 <= means["gbs-uniform"] <= 0.16),
        ("wb", 0.09 <= means["wb"] <= 0.16),
        ("gbs-multinomial", 0.12 <= means["gbs-multinomial"] <= 0.22),
        ("rb", means["rb"] > 0.8),
    ]
    ok = all(c[1] for c in checks) and not report.degenerate
    detail = ", ".join(f"{m}={means[m]:.4f}" for m in
                       ("rb", "wb", "gbs-multinomial", "gbs-uniform"))
    _verdict(3, "heteroscedastic AR(1) variance table", ok,
             detail + f", truth={report.truth:.4f}")


# ---------------------------------------------------------------------------
# 4. Logistic dose-response coverage table

def test_criterion_4_glm_coverage():
    cfg = bench.ExperimentConfig("glm", sims=200, boots=500, seed=11)
    report = bench.run_experiment(cfg)
    cov = {}
    for row in report.rows:
        cov.setdefault(row["method"], {})[row["case"]] = row["coverage_pct"]
    gbs_ok = all(cov[m][c] >= 90.0 for m in ("gbs-multinomial", "gbs-exp")
                 for c in range(1, 11))
    wb_ok = cov["wb"][1] <= 50.0 and cov["wb"][10] <= 50.0 and cov["wb"][6] >= 90.0
    ok = gbs_ok and wb_ok and not report.degenerate
    detail = (f"min gbs coverage "
              f"{min(min(cov['gbs-multinomial'].values()), min(cov['gbs-exp'].values())):.1f}%, "
              f"wb case1={cov['wb'][1]:.1f}% case6={cov['wb'][6]:.1f}% "
              f"case10={cov['wb'][10]:.1f}%")
    _verdict(4, "logistic CI coverage table", ok, detail)


# ---------------------------------------------------------------------------
# 5. Double-root nonlinear fit and bimodal bootstrap densities

def test_criterion_5_nls_bimodality():
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    fits = sorted(bench.nls_roots(model, data, np.ones(24)), key=lambda f: f[1])
    objs = [f[1] for f in fits]
    roots_ok = (len(objs) == 2 and 3.22 <= objs[0] <= 3.24
                and 3.25 <= objs[1] <= 3.27)

    report = bench.run_experiment(bench.ExperimentConfig("nls", seed=0))
    mode_counts = {}
    for row in report.rows:
        if row["method"] == "gbs-multinomial" and row["kind"] == "mode":
            mode_counts[row["param"]] = mode_counts.get(row["param"], 0) + 1
    modes_ok = all(mode_counts.get(j) == 2 for j in range(4))
    ok = roots_ok and modes_ok and not report.degenerate
    _verdict(5, "double root and bimodal densities", ok,
             f"objectives={objs[0]:.5f},{objs[1]:.5f}, "
             f"modes per parameter={[mode_counts.get(j) for j in range(4)]}")


# ---------------------------------------------------------------------------
# 6. Normalized bootstrap law tracks the normal and the sampling law

def test_criterion_6_distribution_consistency():
    n, B = 200, 2000
    beta0 = np.array([1.0])
    data = M.simulate_linear(beta0, n, rng(42))
    X, y = data["X"][:, 0], data["y"]
    beta_hat = np.array([np.sum(X * y) / np.sum(X * X)])
    model = M.LinearModel(p=1)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(n), B, seed=7)
    dist = empirical_distribution(model, data, sample)
    ks_norm = ks_distance(dist)

    sim = []
    for k in range(2000):
        d = M.simulate_linear(beta0, n, rng(1000 * (k + 1) + 3))
        Xr, yr = d["X"][:, 0], d["y"]
        b = np.sum(Xr * yr) / np.sum(Xr * Xr)
        sim.append(math.sqrt(np.sum(Xr * Xr)) * (b - beta0[0]))
    ks_sim = ks_distance(dist, np.asarray(sim))
    ok = ks_norm < 0.08 and ks_sim < 0.1
    _verdict(6, "normalized bootstrap law", ok,
             f"KS vs normal {ks_norm:.4f} < 0.08, KS vs simulated law "
             f"{ks_sim:.4f} < 0.1")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_6_contrast_distribution(p):
    # p > 1: a unit contrast through the plug-in studentizer must also be
    # close to N(0, 1), at criterion 6's KS threshold
    n, B = 400, 2000
    data = M.simulate_linear(np.linspace(1.0, -1.0, p), n, rng(50 + p))
    beta_hat = np.linalg.lstsq(data["X"], data["y"], rcond=None)[0]
    model = M.LinearModel(p=p)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(n), B, seed=8)
    contrast = np.ones(p) / math.sqrt(p)
    dist = empirical_distribution(model, data, sample, contrast=contrast)
    ks_norm = ks_distance(dist)
    _verdict(6, f"normalized contrast law, p={p}", ks_norm < 0.08,
             f"KS vs normal {ks_norm:.4f} < 0.08, sd {dist.values.std():.3f}")


# ---------------------------------------------------------------------------
# 7. Analytic derivatives vs central finite differences

def _fd_jacobian(model, data, beta, h):
    p = len(beta)
    cols = []
    for k in range(p):
        e = np.zeros(p)
        e[k] = h[k]
        cols.append((model.score_all(data, beta + e)
                     - model.score_all(data, beta - e)) / (2 * h[k]))
    return np.stack(cols, axis=-1)


def _admissible_points(name, model, data, count, seed):
    r = rng(seed)
    out = []
    while len(out) < count:
        if name == "isomerization":
            th = np.array([35.0, 0.07, 0.04, 0.17]) + r.uniform(-1, 1, 4) * [5, 0.4, 0.4, 0.4]
            D = 1 + th[1] * data["H"] + th[2] * data["P"] + th[3] * data["I"]
            if np.min(np.abs(D)) < 0.3:
                continue  # keep finite differences well inside the domain
        elif name in ("logistic-group", "logistic-individual"):
            th = r.uniform(-2, 2, 2)
        else:
            th = r.uniform(-2, 2, model.p)
        out.append(th)
    return out


def test_criterion_7_derivative_suite():
    r = rng(5)
    glm = M.simulate_glm([-1.0, 2.0], np.full(5, 6), np.linspace(0, 1, 5), r)
    fixtures = [
        ("mean", M.MeanModel(), M.Dataset(n=7, arrays={"z": r.standard_normal(7)})),
        ("linear", M.LinearModel(p=3), M.simulate_linear([1.0, 0.0, -1.0], 9, r)),
        ("ar1", M.Ar1Model(), M.simulate_ar1(0.2, 1.0, 2.0, 8, r)),
        ("logistic-group", M.LogisticGroupModel(), glm),
        ("logistic-individual", M.LogisticIndividualModel(), glm),
        ("isomerization", M.IsomerizationModel(), M.load_isomerization()),
    ]
    worst_j = 0.0
    for idx, (name, model, data) in enumerate(fixtures):
        for beta in _admissible_points(name, model, data, 100, seed=100 + idx):
            h = 1e-6 * (1.0 + np.abs(beta))
            ana_j = model.jacobian_all(data, beta)
            num_j = _fd_jacobian(model, data, beta, h)
            scale_j = 1.0 + np.max(np.abs(ana_j))
            worst_j = max(worst_j, float(np.max(np.abs(num_j - ana_j))) / scale_j)
    _verdict(7, "derivative suite", worst_j <= 1e-5,
             f"worst Jacobian rel err {worst_j:.2e} <= 1e-5")


# ---------------------------------------------------------------------------
# 8. Byte-identical reports across solve block sizes

def _renderings(kwargs):
    report = bench.run_experiment(bench.ExperimentConfig(**kwargs))
    texts = (bench.render_report(report, "csv"), bench.render_report(report, "json"))
    json.loads(texts[1])  # rendered JSON must parse
    return texts


def test_criterion_8_determinism(monkeypatch):
    ok = True
    for kwargs in (dict(experiment="ar1", sims=5, boots=20, n=30, seed=9),
                   dict(experiment="glm", sims=2, boots=50, seed=9),
                   dict(experiment="nls", seed=9)):
        texts = set()
        for block_rows in BLOCK_ROWS:
            monkeypatch.setattr(engine, "block_rows", block_rows)
            texts.add(_renderings(kwargs))
        ok = ok and len(texts) == 1
    _verdict(8, "determinism across solve block sizes", ok,
             "csv and json report bytes identical for blocks of 1, 7 and 128 "
             "draws and the default cell budget on ar1, glm and nls (ar1 and "
             "glm roots agree to rounding, nls roots bitwise)")


# ---------------------------------------------------------------------------
# 9. Weight-condition verdicts

def test_criterion_9_weight_conditions():
    multi = W.check_conditions(W.multinomial, bench.CONDITION_GRID, seed=0)
    jack = W.check_conditions(
        lambda n: W.delete_d_jackknife(n, math.ceil(math.sqrt(n))),
        bench.SQUARE_GRID, seed=0)
    multi_ok = bool(multi.bw) and bool(multi.cltw) and bool(multi.vw_a)
    jack_ok = bool(jack.bw) and not jack.cltw and bool(jack.vw_b)
    ok = multi_ok and jack_ok
    _verdict(9, "weight-condition suite", ok,
             f"multinomial bw/cltw/vw_a={bool(multi.bw)}/{bool(multi.cltw)}/"
             f"{bool(multi.vw_a)}; delete-sqrt(n) bw={bool(jack.bw)} "
             f"cltw={bool(jack.cltw)} vw_b={bool(jack.vw_b)}")
