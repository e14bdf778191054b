"""Weight schemes: sampling, exact moments, and validity conditions.

Every resampling method in this package is a choice of exchangeable weight
law with unit mean. This demo draws from several schemes, compares their
exact standardized moments with plug-in estimates, and certifies which
schemes satisfy the moment conditions needed for bootstrap validity (bw),
distributional consistency (cltw), and variance consistency (vw).
"""

import math

import numpy as np

from gebs import weights as W

rng = np.random.default_rng(0)
n = 12

print("=== one draw from each scheme (n = 12) ===")
for scheme in (W.multinomial(n), W.delete_d_jackknife(n, 3),
               W.downweight_d_jackknife(n, 3), W.dirichlet(n, 4.0),
               W.iid_uniform(n, 0.5, 1.5), W.iid_exponential(n)):
    w = W.sample(scheme, rng)
    print(f"{scheme.label():>22}: sum={w.sum():7.3f}  "
          f"w={np.array2string(w, precision=2, floatmode='fixed')}")

print()
print("=== exact vs plug-in moments, multinomial(12) ===")
scheme = W.multinomial(n)
exact = W.theoretical_moments(scheme)
emp = W.empirical_moments(np.stack([W.sample(scheme, rng) for _ in range(20000)]))
print(f"{'moment':>10} {'exact':>10} {'plug-in':>10}")
print(f"{'sigma^2':>10} {exact.sigma2:10.4f} {emp.sigma2:10.4f}")
print(f"{'c11':>10} {exact.c11:10.4f} {emp.c11:10.4f}")
print(f"{'c(2,2)':>10} {exact.c22:10.4f} {emp.c22:10.4f}")
print(f"{'c(4)':>10} {exact.c4:10.4f} {emp.c4:10.4f}")

print()
print("=== small schemes can be enumerated exactly ===")
atoms = list(W.iter_support(W.delete_d_jackknife(4, 1)))
for w, p in atoms:
    print(f"p={p:.3f}  w={w}")

print()
print("=== condition certification over a grid of n ===")
grid = (10, 20, 40, 80, 160, 320)
squares = (16, 36, 64, 144, 256, 324)
for name, factory, g in (
        ("multinomial", W.multinomial, grid),
        ("iid exponential", W.iid_exponential, grid),
        ("delete-sqrt(n) jackknife",
         lambda m: W.delete_d_jackknife(m, math.ceil(math.sqrt(m))), squares)):
    rep = W.check_conditions(factory, g, seed=1)
    print(f"{name:>26}: bw={bool(rep.bw)}  cltw={bool(rep.cltw)}  "
          f"vw_a={bool(rep.vw_a)}  vw_b={bool(rep.vw_b)}")
print()
print("The delete-sqrt(n) jackknife is the canonical example of a scheme "
      "that estimates variances consistently (vw passes with sigma^2 -> 0) "
      "while failing the distributional-consistency evidence check (cltw).")
