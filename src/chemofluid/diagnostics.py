"""Functionals and quantitative stabilization checks.

This module turns the decay theory into measurable quantities:

  * the grid's best constant ``C_N`` in ``||f - mean(f)||^2 <= C_N ||grad f||^2``
    (reciprocal of the smallest nonzero eigenvalue of the discrete zero-flux
    Laplacian, in closed form from the cosine eigenvalues of the stencil);
  * the weighted functional ``L = (B/2)||n - nbar||^2 + (1/2)||c - nbar||^2``
    together with the dissipation bound
    ``dL/dt <= -(B*lambda_1/2 - 1/4)||n - nbar||^2 - (1 - B*C_S^2/2)||grad c||^2``,
    available whenever ``C_S < 2*sqrt(lambda_1) = 2/sqrt(C_N)``;
  * log-linear decay-rate fits, gradient norms of c, max-norm distances to
    the homogeneous state, and space-time weak-form residuals of the three
    evolution equations.

The dissipation certificate uses the discrete constant of the run grid: the
inequality being checked is the discrete one.  Its energy estimate needs
``||grad f||^2 >= lambda_1 ||f - mean(f)||^2``, so every formula takes
``lambda_1 = 1/C_N``; ``make_lyapunov_config`` converts in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb

import numpy as np

from .fluid import PoissonSolver, stencil_eigenvalues
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _axis_slices,
    _mirror_pad,
    gradient_cc,
)

__all__ = [
    "DiagnosticsSeries",
    "poincare_constant",
    "LyapunovConfig",
    "LyapunovInfeasible",
    "make_lyapunov_config",
    "lyapunov",
    "budget_check_series",
    "transient_end_time",
    "FitResult",
    "fit_decay_rate",
    "GradCNorms",
    "grad_c_norms",
    "SteadyStateDistance",
    "steady_state_distance",
    "stokes_eigenvalue",
    "WeakTestSpec",
    "weak_residual",
]


@dataclass
class DiagnosticsSeries:
    """Column-per-functional time series recorded along a trajectory: each
    field is one column of ``series.csv`` (``CSV_COLUMNS``), in this order."""

    t: np.ndarray
    mass_n: np.ndarray
    mass_c: np.ndarray
    l2_n_dev: np.ndarray
    l2_c_dev: np.ndarray
    l2_u: np.ndarray
    grad_c_l2: np.ndarray
    grad_c_l4: np.ndarray
    lyapunov: np.ndarray
    D_n: np.ndarray
    D_c: np.ndarray
    D_u: np.ndarray
    n_inf_dev: np.ndarray
    c_inf_dev: np.ndarray
    u_inf: np.ndarray
    dt: np.ndarray
    proj_residual: np.ndarray

    def __post_init__(self):
        n = self.t.size
        for name in CSV_COLUMNS:
            if getattr(self, name).size != n:
                raise ValueError(f"series column {name} has mismatched length")

    def column(self, name: str) -> np.ndarray:
        if name not in CSV_COLUMNS:
            raise KeyError(f"unknown series column {name!r}")
        return getattr(self, name)

    def __len__(self):
        return self.t.size


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsSeries))


# ---------------------------------------------------------------------------
# Poincare constant of the run grid
# ---------------------------------------------------------------------------


def poincare_constant(grid: Grid) -> float:
    """Best constant C_N of the mean-zero Poincare inequality on this grid.

    ``C_N = 1/lambda_1`` with ``lambda_1`` the smallest nonzero eigenvalue of
    the discrete zero-flux Laplacian.  The stencil is diagonal in the cosine
    basis, so ``lambda_1`` is the lowest first nonzero mode over the axes (the
    longest axis when the spacing is uniform), in closed form:
    ``C_N = 1 / min_d (4/h_d^2) sin^2(pi / (2 N_d))``.
    """
    return 1.0 / min(
        stencil_eigenvalues(N, h, range(N))[1] for N, h in zip(grid.cells, grid.spacing)
    )


# ---------------------------------------------------------------------------
# Lyapunov configuration and budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovConfig:
    """Weight B and the derived dissipation coefficients.

    Exists only under the smallness condition ``C_S < 2 sqrt(lambda_1)``,
    ``lambda_1 = 1/C_N``; then ``a1 = B*lambda_1/2 - 1/4 > 0`` and
    ``a2 = 1 - B*C_S^2/2 > 0`` and the predicted decay rate
    ``min(2*a1/B, 2*lambda_1*a2)`` is positive.  ``C_N`` is the Poincare
    constant it was made from.
    """

    B: float
    C_N: float
    C_S: float
    a1: float
    a2: float
    kappa_pred: float


@dataclass(frozen=True)
class LyapunovInfeasible:
    """Typed no-certificate result (callers sweep parameter space)."""

    C_S: float
    C_N: float
    reason: str


def make_lyapunov_config(C_S: float, C_N: float):
    """Pick B as the midpoint of the admissible interval.

    ``C_N`` is the Poincare constant of ``poincare_constant``; the energy
    estimate takes ``lambda_1 = 1/C_N``.  The interval is
    ``(1/(2*lambda_1), 2/C_S^2)``, nonempty exactly when
    ``C_S < 2*sqrt(lambda_1) = 2/sqrt(C_N)``; the upper end is capped at
    ``10/lambda_1`` so the ``C_S -> 0`` limit stays finite.
    """
    if not (C_S > 0 and C_N > 0):
        raise ValueError("C_S and C_N must be positive")
    lam1 = 1.0 / C_N
    threshold = 2.0 / np.sqrt(C_N)
    if C_S >= threshold:
        return LyapunovInfeasible(
            C_S=C_S,
            C_N=C_N,
            reason=f"C_S={C_S:.6g} >= 2*sqrt(lambda_1)=2/sqrt(C_N)={threshold:.6g}",
        )
    B_lo = 1.0 / (2.0 * lam1)
    B_hi = min(2.0 / C_S**2, 10.0 / lam1)
    B = 0.5 * (B_lo + B_hi)
    a1 = 0.5 * B * lam1 - 0.25
    a2 = 1.0 - 0.5 * B * C_S**2
    kappa_pred = min(2.0 * a1 / B, 2.0 * lam1 * a2)
    assert a1 > 0 and a2 > 0 and kappa_pred > 0
    return LyapunovConfig(B=B, C_N=C_N, C_S=C_S, a1=a1, a2=a2, kappa_pred=kappa_pred)


def _deviation_l2_sq(f: ScalarField, ref: float) -> float:
    d = f.data - ref
    return float((d * d).sum()) * f.grid.volume_element


def lyapunov(state, cfg: LyapunovConfig) -> float:
    """Weighted squared distance to the homogeneous state.

    The reference value is the spatial mean of the state's n, which mass
    conservation keeps equal to the initial mean along trajectories.
    """
    nbar = state.n.mean()
    return 0.5 * cfg.B * _deviation_l2_sq(state.n, nbar) + 0.5 * _deviation_l2_sq(
        state.c, nbar
    )


def transient_end_time(series: DiagnosticsSeries):
    """First time the Lyapunov series falls below half its initial value."""
    L = series.lyapunov
    if L.size == 0 or L[0] <= 0:
        return series.t[0] if series.t.size else 0.0
    idx = np.nonzero(L <= 0.5 * L[0])[0]
    return float(series.t[idx[0]]) if idx.size else None


def budget_check_series(
    series: DiagnosticsSeries,
    cfg: LyapunovConfig,
    tol_disc: float,
    t_start: float = 0.0,
):
    """Fraction of recorded steps whose secant of L keeps the bound + ``tol_disc``.

    The secant is ``(L_{k+1} - L_k)/dt_k`` and the bound
    ``-a1 ||n - nbar||^2 - a2 ||grad c||^2`` is taken at the step's end, from
    the recorded deviation and gradient columns of row ``k+1``: backward
    Euler's diffusion obeys the discrete energy inequality
    ``<y_{k+1} - y_k, y_{k+1}> >= (||y_{k+1}||^2 - ||y_k||^2)/2``, so its
    dissipation is that of the new state.  Steps starting before ``t_start``
    are skipped.  Returns ``(fraction_ok, checked_steps, worst_gap)``, the
    last the largest ``secant - bound`` over the checked steps (nan if none).
    """
    t = series.t
    dt = np.diff(t)
    keep = (t[:-1] >= t_start) & (dt > 0)
    secant = np.diff(series.lyapunov)[keep] / dt[keep]
    bound = (-cfg.a1 * series.l2_n_dev[1:] - cfg.a2 * series.D_c[1:])[keep]
    total = int(secant.size)
    if not total:
        return 1.0, 0, float("nan")
    fraction = int(np.count_nonzero(secant <= bound + tol_disc)) / total
    return fraction, total, float((secant - bound).max())


# ---------------------------------------------------------------------------
# Decay-rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    rate: float
    r_squared: float
    n_samples: int


def fit_decay_rate(times, values, window=None) -> FitResult:
    """Least-squares slope of log(values) against time, negated.

    ``window = (t_lo, t_hi)`` restricts the samples; at least 10 are
    required and all values in the window must be strictly positive.  The
    rate is meaningful only when ``r_squared >= 0.99``; the caller decides.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if window is not None:
        lo, hi = window
        mask = (t >= lo) & (t <= hi)
        t, v = t[mask], v[mask]
    if t.size < 10:
        raise ValueError(f"need at least 10 samples in the fit window, got {t.size}")
    if np.any(v <= 0):
        raise ValueError("decay fit requires strictly positive values in the window")
    y = np.log(v)
    tbar = t.mean()
    ybar = y.mean()
    stt = float(((t - tbar) ** 2).sum())
    if stt == 0:
        raise ValueError("degenerate fit window (all times equal)")
    slope = float(((t - tbar) * (y - ybar)).sum()) / stt
    resid = y - (ybar + slope * (t - tbar))
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ybar) ** 2).sum())
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return FitResult(rate=-slope, r_squared=r2, n_samples=int(t.size))


# ---------------------------------------------------------------------------
# Gradient norms and steady-state distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCNorms:
    l2_sq: float
    l4_4: float


def grad_c_norms(c: ScalarField, grad=None) -> GradCNorms:
    """Cell-aggregated ``int |grad c|^2`` and ``int |grad c|^4``.

    Wall faces carry no gradient information under the zero-flux convention,
    so boundary cells take the value of their single interior face (the mean
    of their two faces doubled, the wall face being zero) and interior cells
    the mean of their two faces.  ``grad`` may carry a precomputed
    ``gradient_cc(c)``.
    """
    g = c.grid
    if grad is None:
        grad = gradient_cc(c)
    mag2 = None
    for d in range(g.dim):
        s = _axis_slices(d, g.dim)
        f = grad.components[d]
        cell_d = np.add(f[s.lo], f[s.hi])
        cell_d *= 0.5
        cell_d[s.first] *= 2.0
        cell_d[s.last] *= 2.0
        cell_d *= cell_d
        mag2 = cell_d if mag2 is None else np.add(mag2, cell_d, out=mag2)
    vol = g.volume_element
    return GradCNorms(
        l2_sq=float(mag2.sum()) * vol, l4_4=float((mag2 * mag2).sum()) * vol
    )


@dataclass(frozen=True)
class SteadyStateDistance:
    n_inf: float
    c_inf: float
    u_inf: float


def steady_state_distance(state) -> SteadyStateDistance:
    """Max-norm distances to the homogeneous state (nbar, nbar, 0)."""
    nbar = state.n.mean()
    return SteadyStateDistance(
        n_inf=float(np.abs(state.n.data - nbar).max()),
        c_inf=float(np.abs(state.c.data - nbar).max()),
        u_inf=state.u.max_abs(),
    )


# ---------------------------------------------------------------------------
# Discrete Stokes ground eigenvalue (reference for the velocity decay rate)
# ---------------------------------------------------------------------------


def stokes_eigenvalue(grid: Grid) -> float:
    """Smallest eigenvalue of the discrete no-slip Stokes operator (2-D).

    Every discretely divergence-free MAC field with zero normal wall flux is
    the curl ``u = C psi`` of a nodal stream function with ``psi = 0`` on the
    boundary nodes (``u_x = d psi/dy``, ``u_y = -d psi/dx``), whose flux-form
    divergence vanishes identically.  The eigenvalue is therefore the
    smallest ``lambda`` of the generalized SPD problem
    ``C^T A C psi = lambda C^T C psi`` with ``A = -laplacian_noslip``.

    Both sides are known in closed form: ``C^T C`` is the Dirichlet 5-point
    ``-Lap`` on the interior nodes, diagonal in the sine basis (DST-I), and
    ``C^T A C`` is its square plus ``2/h^4`` on the nodes next to each wall
    (``-laplacian_noslip`` mirrors the tangential velocity oddly at the walls,
    the square of the Dirichlet Laplacian evenly).  In the sine basis that
    wall term only couples modes of equal parity along each axis, so the
    problem splits into four dense blocks of a quarter of the unknowns each,
    solved directly; the cost is cubic in the block size, so this suits the
    verification grids (up to 64^2) rather than production ones.
    The velocity energy of an unforced flow decays
    asymptotically at twice this value.  Raises ``ValueError`` outside 2-D.
    """
    if grid.dim != 2:
        raise ValueError(f"stokes_eigenvalue is implemented in 2-D only, got dim={grid.dim}")
    axes = []
    for N, h in zip(grid.cells, grid.spacing):
        k = np.arange(1, N)
        # orthonormal sine mode k at the first interior node; at the last node
        # it is (-1)^(k+1) times this, so the 2/h^4 of the two walls adds up
        # to 4/h^4 between modes of equal parity and cancels otherwise
        first = np.sqrt(2.0 / N) * np.sin(k * np.pi / N)
        axes.append((k % 2, stencil_eigenvalues(N, h, k), first, 4.0 / h**4))
    (px, lx, bx, wx), (py, ly, by, wy) = axes
    lowest = np.inf
    for kx in (0, 1):
        for ky in (0, 1):
            mx, my = px == kx, py == ky
            nx, ny = int(mx.sum()), int(my.sum())
            # C^T C (diagonal d) and C^T A C of this parity block, built in
            # place as K[i, j, k, l] over mode pairs (i, j) and (k, l)
            d = lx[mx][:, None] + ly[my][None, :]
            K = np.zeros((nx, ny, nx, ny))
            i, j = np.arange(nx), np.arange(ny)
            K[i, :, i, :] += wy * np.outer(by[my], by[my])
            K[:, j, :, j] += wx * np.outer(bx[mx], bx[mx])
            K[i[:, None], j, i[:, None], j] += d * d
            # symmetric standard form d^(-1/2) K d^(-1/2)
            scale = 1.0 / np.sqrt(d)
            K *= scale[:, :, None, None]
            K *= scale
            K = K.reshape(nx * ny, nx * ny)
            lowest = min(lowest, np.linalg.eigvalsh(K)[0])
    return float(lowest)


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakTestSpec:
    """Separable space factors times a polynomial time bump.

    Scalar tests use products of ``cos(k_d pi x_d / L_d)``; the velocity test
    is the discrete-divergence-free curl of a sine-product stream function.
    The time factor ``(1 - (t/T0)^2)^power`` is supported on ``[0, T0)`` with
    value 1 at t = 0.
    """

    scalar_modes: tuple = (1, 1)
    stream_modes: tuple = (1, 1)
    bump_fraction: float = 0.6
    power: int = 4


class _PolyBump:
    """psi(t) = (1 - (t/T0)^2)^p on [0, T0); exact moment integrals."""

    def __init__(self, T0: float, p: int):
        self.T0 = T0
        self.p = p
        # psi(t) = sum_j binom(p, j) (-1)^j (t/T0)^(2j)
        self.coeffs = [(comb(p, j) * (-1) ** j) for j in range(p + 1)]

    def psi(self, t):
        t = np.asarray(t, dtype=np.float64)
        s = np.clip(t / self.T0, 0.0, 1.0)
        return np.where(t < self.T0, (1.0 - s * s) ** self.p, 0.0)

    def psi_scalar(self, t: float) -> float:
        return float(self.psi(t))

    def int_psi(self, t):
        """Integral of psi from 0 to t (constant beyond the support)."""
        s = np.clip(np.asarray(t, dtype=np.float64) / self.T0, 0.0, 1.0)
        out = np.zeros_like(s)
        for j, cj in enumerate(self.coeffs):
            out += cj * s ** (2 * j + 1) / (2 * j + 1)
        return self.T0 * out


def _quad_weight_dpsi(bump: _PolyBump, times: np.ndarray):
    """Same construction for the bump derivative (I0 via exact psi values)."""
    K = times.size
    w = np.zeros(K)
    psi_vals = bump.psi(times)
    I0 = np.diff(psi_vals)
    J0 = np.diff(bump.int_psi(times))
    dt = np.diff(times)
    # int psi'(t) (t - t_k) dt = psi(t_{k+1}) dt - int psi
    I1 = psi_vals[1:] * dt - J0
    w[:-1] += I0 - I1 / dt
    w[1:] += I1 / dt
    return w


def _quad_weight_psi_rect(bump: _PolyBump, times: np.ndarray):
    """Step-start quadrature: exact psi moments against piecewise-constant states.

    First-order in the snapshot spacing, matching the scheme's first-order
    splitting; exact for integrands constant in time (steady trajectories).
    """
    w = np.zeros(times.size)
    w[:-1] = np.diff(bump.int_psi(times))
    return w


def _scalar_test(grid: Grid, modes):
    """Cell values of the separable cosine test function."""
    ks = [m * np.pi / L for m, L in zip(modes, grid.extents)]
    out = 1.0
    mesh = grid.cell_center_mesh()
    for d in range(grid.dim):
        out = out * np.cos(ks[d] * mesh[d])
    return np.broadcast_to(out, grid.shape).copy()


def _stream_test(grid: Grid, modes):
    """Solenoidal velocity test vanishing on every wall.

    w = curl of the squared-sine stream function Psi = sin^2(kx x) sin^2(ky y)
    (times sin^2(kz z) in 3-D, third component zero): both the normal and the
    tangential traces vanish, so ``int grad(u):grad(w) = -int u . lap(w)``
    holds for no-slip u with no boundary remainder.
    """
    kx = modes[0] * np.pi / grid.extents[0]
    ky = modes[1] * np.pi / grid.extents[1]
    kz = np.pi / grid.extents[2] if grid.dim == 3 else None

    def _g(z):
        return np.sin(kz * z) ** 2

    def _dg(z):
        return kz * np.sin(2 * kz * z)

    def _d2g(z):
        return 2 * kz * kz * np.cos(2 * kz * z)

    def _planar(x, y, d, dx_order, dy_order):
        """Derivatives of the planar components up to second order."""
        if d == 0:
            fx = {
                0: np.sin(kx * x) ** 2,
                1: kx * np.sin(2 * kx * x),
                2: 2 * kx * kx * np.cos(2 * kx * x),
            }[dx_order]
            fy = {
                0: ky * np.sin(2 * ky * y),
                1: 2 * ky * ky * np.cos(2 * ky * y),
                2: -4 * ky**3 * np.sin(2 * ky * y),
            }[dy_order]
        else:
            fx = {
                0: -kx * np.sin(2 * kx * x),
                1: -2 * kx * kx * np.cos(2 * kx * x),
                2: 4 * kx**3 * np.sin(2 * kx * x),
            }[dx_order]
            fy = {
                0: np.sin(ky * y) ** 2,
                1: ky * np.sin(2 * ky * y),
                2: 2 * ky * ky * np.cos(2 * ky * y),
            }[dy_order]
        return fx * fy

    def wd(coords, d):
        if d >= 2:
            return np.zeros(1)
        base = _planar(coords[0], coords[1], d, 0, 0)
        if grid.dim == 3:
            base = base * _g(coords[2])
        return base

    def lap_wd(coords, d):
        if d >= 2:
            return np.zeros(1)
        x, y = coords[0], coords[1]
        base = _planar(x, y, d, 2, 0) + _planar(x, y, d, 0, 2)
        if grid.dim == 3:
            base = base * _g(coords[2]) + _planar(x, y, d, 0, 0) * _d2g(coords[2])
        return base

    def grad_wd(coords, d, e):
        if d >= 2:
            return np.zeros(1)
        x, y = coords[0], coords[1]
        if e == 0:
            base = _planar(x, y, d, 1, 0)
        elif e == 1:
            base = _planar(x, y, d, 0, 1)
        else:
            return _planar(x, y, d, 0, 0) * _dg(coords[2])
        if grid.dim == 3:
            base = base * _g(coords[2])
        return base

    return wd, lap_wd, grad_wd


def _cell_gradient(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Centered cell gradient with mirror ghosts (zero-flux walls)."""
    s = _axis_slices(axis, grid.dim)
    pad = _mirror_pad(data, axis, 1.0)
    return (pad[s.hi2] - pad[s.lo2]) / (2.0 * grid.spacing[axis])


def _u_at_cells(U: VectorField) -> list:
    from .grid import faces_to_cells

    return [faces_to_cells(U.components[d], d) for d in range(U.grid.dim)]


def weak_residual(trajectory, test_spec: WeakTestSpec = None) -> dict:
    """Space-time residuals of the three integral identities.

    The identities are integrated against separable test functions using
    only the snapshot fields: integrands are reconstructed at cell centers
    (centered gradients, the regularized drift tensor, face-averaged
    velocities) independently of the scheme's face fluxes, and integrated in
    time with step-start states against exact bump moments -- first order,
    like the scheme's splitting.  The time-derivative terms use the
    linear-interpolant moments, so a constant-in-space test function reduces
    the density identity to exact mass conservation, and steady trajectories
    integrate to roundoff.  Residuals behave like O(h + snapshot spacing)
    and roughly halve when both refine together.
    """
    from .fluid import yosida_apply
    from .sensitivity import (
        _clamped_table_matrices,
        f_eps,
        rho_on_cells,
        rotation_matrix,
    )

    if test_spec is None:
        test_spec = WeakTestSpec()
    snaps = trajectory.snapshots
    if len(snaps) < 16:
        raise ValueError(
            f"weak_residual needs at least 16 snapshots, got {len(snaps)}"
        )
    params = trajectory.params
    spec = params.sensitivity
    g = params.grid
    vol = g.volume_element
    times = np.array([s.t for _, s in snaps])
    T0 = test_spec.bump_fraction * times[-1]
    bump = _PolyBump(T0, test_spec.power)
    if int(np.count_nonzero(times < T0)) < 10:
        raise ValueError("fewer than 10 snapshots inside the time-bump support")

    w_rect = _quad_weight_psi_rect(bump, times)
    w_dpsi = _quad_weight_dpsi(bump, times)
    psi0 = bump.psi_scalar(0.0)

    modes = tuple(test_spec.scalar_modes[: g.dim]) + (0,) * max(0, g.dim - len(test_spec.scalar_modes))
    phi_cells = _scalar_test(g, modes)
    ks = [m * np.pi / L for m, L in zip(modes, g.extents)]
    mesh = g.cell_center_mesh()
    phi_cgrads = []
    for d in range(g.dim):
        gd = 1.0
        for e in range(g.dim):
            factor = np.cos(ks[e] * mesh[e])
            if e == d:
                factor = -ks[e] * np.sin(ks[e] * mesh[e])
            gd = gd * factor
        phi_cgrads.append(np.broadcast_to(gd, g.shape).copy())

    rho_cells = rho_on_cells(g, params.regularization)
    if spec.kind == "rotational":
        R = rotation_matrix(g.dim, spec.theta)
    elif spec.kind == "scalar_saturating":
        R = np.eye(g.dim)

    wd, lap_wd, grad_wd = _stream_test(g, test_spec.stream_modes)
    w_cells, lapw_cells, gradw_cells = [], [], {}
    for d in range(g.dim):
        w_cells.append(np.broadcast_to(wd(mesh, d), g.shape).copy())
        lapw_cells.append(np.broadcast_to(lap_wd(mesh, d), g.shape).copy())
        for e in range(g.dim):
            gradw_cells[(d, e)] = np.broadcast_to(grad_wd(mesh, d, e), g.shape).copy()
    gradphi_cells = None
    if params.fluid.phi is not None:
        gradphi_cells = [
            _cell_gradient(params.fluid.phi.data, g, d) for d in range(g.dim)
        ]

    solver = PoissonSolver(g)
    K = len(snaps)
    a_n = np.zeros(K)
    b_c = np.zeros(K)
    grad_n_pair = np.zeros(K)
    grad_c_pair = np.zeros(K)
    chemo_pair = np.zeros(K)
    adv_n_pair = np.zeros(K)
    adv_c_pair = np.zeros(K)
    u_pair = np.zeros(K)
    visc_pair = np.zeros(K)
    conv_pair = np.zeros(K)
    force_pair = np.zeros(K)

    for k, (_, st) in enumerate(snaps):
        n, c = st.n.data, st.c.data
        a_n[k] = float((n * phi_cells).sum())
        b_c[k] = float((c * phi_cells).sum())
        gn = [_cell_gradient(n, g, d) for d in range(g.dim)]
        gc = [_cell_gradient(c, g, d) for d in range(g.dim)]
        u_cell = _u_at_cells(st.u)
        # drift vector S_eps grad(c) at cells
        if spec.kind == "user_table":
            mats = _clamped_table_matrices(spec, mesh, n, c)
            svec = [
                sum(mats[..., d, e] * gc[e] for e in range(g.dim)) * rho_cells
                for d in range(g.dim)
            ]
        else:
            scale = rho_cells * spec.C_S * (1.0 + n) ** (-spec.alpha)
            svec = [
                scale * sum(R[d, e] * gc[e] for e in range(g.dim) if R[d, e] != 0.0)
                for d in range(g.dim)
            ]
        feps_n = f_eps(n, params.regularization.eps)
        for d in range(g.dim):
            grad_n_pair[k] += float((gn[d] * phi_cgrads[d]).sum())
            grad_c_pair[k] += float((gc[d] * phi_cgrads[d]).sum())
            chemo_pair[k] += float((n * feps_n * svec[d] * phi_cgrads[d]).sum())
            adv_n_pair[k] += float((n * u_cell[d] * phi_cgrads[d]).sum())
            adv_c_pair[k] += float((c * u_cell[d] * phi_cgrads[d]).sum())
            u_pair[k] += float((u_cell[d] * w_cells[d]).sum())
            visc_pair[k] -= float((u_cell[d] * lapw_cells[d]).sum())
        if params.fluid.kappa != 0.0:
            yu_cell = _u_at_cells(yosida_apply(st.u, params.fluid.eps, solver))
            for d in range(g.dim):
                for e in range(g.dim):
                    conv_pair[k] += float(
                        (yu_cell[e] * u_cell[d] * gradw_cells[(d, e)]).sum()
                    )
        if gradphi_cells is not None:
            for d in range(g.dim):
                force_pair[k] += float((n * gradphi_cells[d] * w_cells[d]).sum())

    for arr in (
        a_n,
        b_c,
        grad_n_pair,
        grad_c_pair,
        chemo_pair,
        adv_n_pair,
        adv_c_pair,
        u_pair,
        visc_pair,
        conv_pair,
        force_pair,
    ):
        arr *= vol

    def q_rect(vals):
        return float((w_rect * vals).sum())

    def q_dpsi(vals):
        return float((w_dpsi * vals).sum())

    r_n = abs(
        -q_dpsi(a_n)
        - psi0 * a_n[0]
        - (-q_rect(grad_n_pair) + q_rect(chemo_pair) + q_rect(adv_n_pair))
    )
    r_c = abs(
        -q_dpsi(b_c)
        - psi0 * b_c[0]
        - (-q_rect(grad_c_pair) - q_rect(b_c) + q_rect(a_n) + q_rect(adv_c_pair))
    )
    r_u = abs(
        -q_dpsi(u_pair)
        - psi0 * u_pair[0]
        - params.fluid.kappa * q_rect(conv_pair)
        - (-q_rect(visc_pair) + q_rect(force_pair))
    )
    return {"r_n": r_n, "r_c": r_c, "r_u": r_u}
