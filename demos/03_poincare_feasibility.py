"""The grid's Poincare constant and the certificate feasibility region.

C_N is 1/lambda_1 for the discrete zero-flux Laplacian of the actual run
grid; the decay certificate exists exactly while C_S < 2 sqrt(lambda_1) =
2/sqrt(C_N), and the admissible weight interval collapses as C_S approaches
the boundary.
"""

import numpy as np

from chemofluid.diagnostics import (
    LyapunovConfig,
    make_lyapunov_config,
    poincare_constant,
)
from chemofluid.grid import make_grid

for N in (16, 32, 64):
    C_N = poincare_constant(make_grid(2, (1.0, 1.0), (N, N)))
    print(f"unit square N={N:3d}: C_N = {C_N:.6f}   (continuum 1/pi^2 = {1 / np.pi**2:.6f})")

C_N = poincare_constant(make_grid(2, (2.0, 1.0), (64, 32)))
print(f"box [0,2]x[0,1]:  C_N = {C_N:.6f}   (longest-axis mode: 4/pi^2 = {4 / np.pi**2:.6f})")

print("\nfeasibility sweep on the unit square (N=64):")
C_N = poincare_constant(make_grid(2, (1.0, 1.0), (64, 64)))
threshold = 2 / np.sqrt(C_N)
for factor in (0.25, 0.5, 0.9, 0.999, 1.0, 1.2):
    C_S = factor * threshold
    cfg = make_lyapunov_config(C_S, C_N)
    if isinstance(cfg, LyapunovConfig):
        print(
            f"  C_S = {C_S:.4f} ({factor:5.3f} x threshold): feasible, "
            f"B = {cfg.B:8.3f}, kappa_pred = {cfg.kappa_pred:.5f}"
        )
    else:
        print(f"  C_S = {C_S:.4f} ({factor:5.3f} x threshold): infeasible ({cfg.reason})")
