"""Bootstrap distribution estimates and percentile intervals.

Beyond a single variance number, the bootstrap sample estimates the whole
sampling law of the normalized estimator. This demo checks that the
normalized bootstrap distribution is close to standard normal (and to the
true simulated sampling law) and builds percentile confidence intervals.
"""

import math

import numpy as np

from gebs import models as M
from gebs import weights as W
from gebs.engine import empirical_distribution, ks_distance, percentile_ci, run_bootstrap

rng = np.random.default_rng(0)
n, B = 200, 2000
beta0 = 1.0
data = M.simulate_linear([beta0], n, rng)
X, y = data["X"][:, 0], data["y"]
beta_hat = np.array([np.sum(X * y) / np.sum(X * X)])
model = M.LinearModel(p=1)

sample = run_bootstrap(model, data, beta_hat, W.multinomial(n), B, seed=1)
dist = empirical_distribution(model, data, sample)

print(f"n = {n}, B = {B}, multinomial weights")
print(f"KS distance to standard normal: {ks_distance(dist):.4f}")

sim = []
for k in range(2000):
    d = M.simulate_linear([beta0], n, np.random.default_rng(10_000 + k))
    Xr, yr = d["X"][:, 0], d["y"]
    b = np.sum(Xr * yr) / np.sum(Xr * Xr)
    sim.append(math.sqrt(np.sum(Xr * Xr)) * (b - beta0))
print(f"KS distance to simulated sampling law: "
      f"{ks_distance(dist, np.asarray(sim)):.4f}")

print()
lo, hi = percentile_ci(sample.betas[:, 0], 0.95)
print(f"95% percentile interval for beta: [{lo:.4f}, {hi:.4f}]"
      f"  (true value {beta0}, covered: {lo <= beta0 <= hi})")
