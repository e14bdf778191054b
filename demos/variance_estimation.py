"""Variance estimation: Monte Carlo bootstrap, exact enumeration, jackknife.

The generalized-bootstrap variance estimate is

    V = sigma_n^{-2} E_B[(beta_B - beta_hat)^2],

approximated by Monte Carlo over resampled solves, or computed exactly as an
expectation over the weight law's support when that support is finite. With
delete-1 jackknife weights the exact computation reproduces the classical
jackknife variance formula to machine precision.
"""

import numpy as np

from gebs import models as M
from gebs import weights as W
from gebs.engine import exact_variance_enumeration, run_bootstrap, variance_estimate
from gebs.solver import solve_weighted

rng = np.random.default_rng(0)
n = 10
data = M.simulate_linear([2.0], n, rng)
model = M.LinearModel(p=1)
beta_hat = solve_weighted(model, data, np.ones(n)).beta
print(f"full-data estimate: {beta_hat[0]:.4f}  (n = {n})")

print()
print("=== Monte Carlo vs exact enumeration, multinomial weights ===")
scheme = W.multinomial(n)
exact = exact_variance_enumeration(model, data, beta_hat, scheme)
print(f"exact over {len(list(W.iter_support(scheme)))} support atoms: "
      f"{exact.v_gbs:.6f}")
for B in (100, 1000, 10000):
    sample = run_bootstrap(model, data, beta_hat, scheme, B, seed=1)
    est = variance_estimate(sample)
    print(f"Monte Carlo B={B:>5}: {est.v_gbs:.6f}  (+/- {est.mc_stderr:.6f})")

print()
print("=== delete-1 jackknife identity ===")
est = exact_variance_enumeration(model, data, beta_hat,
                                 W.delete_d_jackknife(n, 1))
X, y = data["X"], data["y"]
loo = np.array([
    np.linalg.lstsq(np.delete(X, i, axis=0), np.delete(y, i), rcond=None)[0][0]
    for i in range(n)])
classical = (n - 1) / n * np.sum((loo - beta_hat[0]) ** 2)
print(f"enumeration:          {est.v_gbs:.12f}")
print(f"classical formula:    {classical:.12f}")
print(f"difference:           {abs(est.v_gbs - classical):.2e}")
