"""Compare the plain barycenter with its smoothness-regularized variant.

The distance graphon |x - y| has long straight level sets, so a curvature
penalty on the block values trades a little data fidelity for a visibly
flatter surface. The sweep below shows the total variation of the estimate
falling by a factor of a few as the weight grows, while the alignment error
stays in the same band throughout.
"""

import numpy as np

from gwgraphon import (GraphonSpec, SmoothedSolveMode, SolverConfig,
                       estimate_gwb, estimate_sgwb, gw_error,
                       sample_population)


def total_variation(values):
    return float(np.abs(np.diff(values, axis=0)).sum()
                 + np.abs(np.diff(values, axis=1)).sum())


spec = GraphonSpec("abs_diff")
graphs = sample_population(spec, count=10, size_range=[80, 160], seed=8800)

plain = estimate_gwb(graphs)
print("plain barycenter:   tv %7.1f   gw error %.4f"
      % (total_variation(plain.values), gw_error(plain, spec, resolution=300)))

for alpha in (1e-4, 2e-4, 1e-3):
    cfg = SolverConfig(alpha=alpha)
    smoothed = estimate_sgwb(graphs, cfg)
    print("alpha = %-7g       tv %7.1f   gw error %.4f"
          % (alpha, total_variation(smoothed.values),
             gw_error(smoothed, spec, resolution=300)))

# the default update solves the paper's factorized form of the regularized
# equation; the exact mode solves the equation itself and serves as the
# reference; both take one eigendecomposition of the filter
cfg = SolverConfig()
for mode in SmoothedSolveMode:
    est = estimate_sgwb(graphs, cfg, mode=mode)
    print("mode %-18s tv %7.1f   gw error %.4f"
          % (mode.value, total_variation(est.values),
             gw_error(est, spec, resolution=300)))
