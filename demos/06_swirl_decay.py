"""Velocity energy decay against the discrete Stokes eigenvalue.

With the scalars homogeneous, the momentum equation is an unforced no-slip
flow: the kinetic energy decays exponentially at twice the smallest
eigenvalue of the projected operator.  ``stokes_eigenvalue`` supplies it by a
preconditioned block iteration on the run's own projection and no-slip
Laplacian; what keeps that reference independent of the stepper is the test
suite, which checks it against eigenvalues assembled column by column from
the MAC kernels (2-D stream functions, 3-D divergence-free face bases).
"""

from chemofluid.diagnostics import fit_decay_rate, stokes_eigenvalue
from chemofluid.grid import make_grid
from chemofluid.stepper import run
from chemofluid.verify import scenario_library

cells = (32, 32)
lam = stokes_eigenvalue(make_grid(2, (1.0, 1.0), cells))
print(f"discrete Stokes ground eigenvalue: {lam:.4f}")

lib = scenario_library(cells=cells)
params, initial = lib["swirl"].build(seed=0, T=0.12)
traj = run(params, initial)
s = traj.series
fit = fit_decay_rate(s.t, s.l2_u, window=(0.02, float(s.t[-1])))
print(f"fitted ||u||^2 decay rate: {fit.rate:.4f}  (r^2 = {fit.r_squared:.8f})")
print(f"reference 2 * lambda_1:    {2 * lam:.4f}")
print(f"ratio: {fit.rate / (2 * lam):.5f}")
