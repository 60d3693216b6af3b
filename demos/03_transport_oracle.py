"""Exercise the transport layer on spaces small enough to solve exactly.

On instances with at most 16 coupling entries the global optimum of the
quadratic transport objective is computable exactly, by solving the
stationarity system on every face of the transport polytope, which gives a
ground truth for the proximal solver. The default single-start solve already lands close; adding
restarts and a descent polish closes most of the remaining gap.
"""

import numpy as np

from gwgraphon import (SolverConfig, entropic_ot, gw_distance_exact_small,
                       proximal_gw)

rng = np.random.default_rng(42)
strong = SolverConfig(restarts=8, polish_iters=80)

print("%-8s %-12s %-12s %-12s" % ("n x m", "oracle", "default", "strong"))
for trial in range(6):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    a = rng.random((n, n))
    a = 0.5 * (a + a.T)
    b = rng.random((m, m))
    b = 0.5 * (b + b.T)
    mu_a = rng.random(n) + 0.1
    mu_a /= mu_a.sum()
    mu_b = rng.random(m) + 0.1
    mu_b /= mu_b.sum()
    truth = gw_distance_exact_small(a, b, mu_a, mu_b)
    plain = proximal_gw((a, mu_a), (b, mu_b)).distance_sq
    best = proximal_gw((a, mu_a), (b, mu_b), strong).distance_sq
    print("%d x %d    %.8f   %.8f   %.8f" % (n, m, truth, plain, best))

# a case where the objective is plan-independent: one side has no edges,
# so every feasible coupling pays exactly the squared-entry mass 0.5
edge = np.array([[0.0, 1.0], [1.0, 0.0]])
mu = np.array([0.5, 0.5])
print("\nedge graph vs empty space: distance_sq = %.6f (expected 0.5)"
      % proximal_gw((edge, mu), (np.zeros((2, 2)), mu)).distance_sq)

# plain entropic transport: a constant cost cannot prefer any coupling,
# so the scaled plan is the product measure
plan = entropic_ot(np.full((3, 4), 1.0), np.full(3, 1 / 3), np.full(4, 0.25),
                   beta=0.1)
print("constant-cost entropic plan equals the product coupling: %s"
      % np.allclose(plan.coupling, np.full((3, 4), 1 / 12)))
