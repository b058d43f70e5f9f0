"""Exponential return to the homogeneous state under the smallness condition.

A smooth random perturbation of (n, c, u) relaxes to (nbar, nbar, 0).  The
weighted functional L = (B/2)||n - nbar||^2 + (1/2)||c - nbar||^2 decreases
at every step, and its decay rate beats the certificate's prediction.
"""

import numpy as np

from chemofluid.diagnostics import fit_decay_rate, transient_end_time
from chemofluid.stepper import run
from chemofluid.verify import scenario_library

lib = scenario_library(cells=(32, 32))
params, initial = lib["random_perturbation"].build(seed=0, T=0.4)
traj = run(params, initial)

cfg = traj.lyapunov_config
print(f"grid Poincare constant C_N = {traj.C_N:.6f}")
print(f"C_S = {cfg.C_S:.4f} < 2 sqrt(lambda_1) = 2/sqrt(C_N) = {2 / np.sqrt(cfg.C_N):.4f}  (certificate active)")
print(f"weight B = {cfg.B:.4f}, coefficients a1 = {cfg.a1:.4f}, a2 = {cfg.a2:.4f}")
print(f"predicted rate floor kappa_pred = {cfg.kappa_pred:.4f}")

s = traj.series
L = s.lyapunov
print(f"\nLyapunov monotone: {bool(np.all(np.diff(L) <= 1e-12 * L[0]))}")
t0 = transient_end_time(s)
fit = fit_decay_rate(s.t, s.l2_n_dev + s.l2_c_dev, window=(t0, float(s.t[-1])))
print(f"fitted decay rate of ||n-nbar||^2 + ||c-nbar||^2: {fit.rate:.2f} (r^2 = {fit.r_squared:.5f})")
print(f"ratio fitted / kappa_pred: {fit.rate / cfg.kappa_pred:.1f}")

for frac in (0, len(L) // 4, len(L) // 2, 3 * len(L) // 4, len(L) - 1):
    print(f"  t = {s.t[frac]:.4f}   L = {L[frac]:.6e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(s.t, L, label="Lyapunov functional")
    ax.semilogy(s.t, s.l2_n_dev, label="||n - nbar||^2")
    ax.semilogy(s.t, s.l2_c_dev, label="||c - nbar||^2")
    ax.set_xlabel("t")
    ax.legend()
    fig.tight_layout()
    fig.savefig("stabilization.png", dpi=120)
    print("\nwrote stabilization.png")
except ImportError:
    pass
