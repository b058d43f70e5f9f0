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

from .fluid import (
    PoissonSolver,
    SolverFailure,
    diffusion_resolvent,
    helmholtz_project,
    laplacian_noslip,
    stencil_eigenvalues,
    yosida_apply,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _axis_slices,
    _mirror_pad,
    faces_to_cells,
    gradient_cc,
)
from .seeded import NormalStream
from .sensitivity import f_eps, rho_on_cells, rotation_matrix

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


def budget_check_series(series: DiagnosticsSeries, cfg: LyapunovConfig, tol_disc: float):
    """Fraction of recorded steps whose secant of L keeps the bound + ``tol_disc``.

    The secant is ``(L_{k+1} - L_k)/dt_k`` and the bound
    ``-a1 ||n - nbar||^2 - a2 ||grad c||^2`` is taken at the step's end, from
    the recorded deviation and gradient columns of row ``k+1``: backward
    Euler's diffusion obeys the discrete energy inequality
    ``<y_{k+1} - y_k, y_{k+1}> >= (||y_{k+1}||^2 - ||y_k||^2)/2``, so its
    dissipation is that of the new state.  Every step is checked, from t = 0.
    Returns ``(fraction_ok, checked_steps, worst_gap)``, the last the largest
    ``secant - bound`` over the checked steps (nan if none).
    """
    dt = np.diff(series.t)
    keep = dt > 0
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


# residual ``||P A x - lambda x||`` below which the eigen-solve is certified,
# relative to ``lambda ||x||``
EIGEN_TOL = 1e-8
# iterations after which an uncertified eigen-solve raises: the slowest case
# tested, a 9x31 box with extents 0.3 x 1.7, takes about 100
EIGEN_MAX_ITERATIONS = 1000


def stokes_eigenvalue(grid: Grid) -> float:
    """Smallest eigenvalue of the discrete no-slip Stokes operator.

    ``lambda_1`` is the minimum of ``<u, A u> / <u, u>`` over the discretely
    divergence-free face fields with zero wall flux, ``A = -laplacian_noslip``.
    It is found by LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on the
    run's own spectral core: the Helmholtz projection ``P`` keeps every
    iterate divergence-free, and ``P (I + c A)^{-1} P`` (``diffusion_resolvent``
    with ``c = 1/mu``, ``mu`` the smallest eigenvalue of ``A``: a shift below
    ``lambda_1``) preconditions each residual into a search direction.  Each
    step takes the lowest Rayleigh-Ritz pairs in the span of the block, its
    preconditioned residuals and the previous step's directions.  The block
    is a swirl and one seeded random field, so that every symmetry class is
    excited and the result is deterministic; the start is preconditioned
    twice, which smooths the random field.

    The projected residual ``||P A x - lambda x||`` of the lowest pair is the
    certificate: the solve returns once it lies below ``EIGEN_TOL * lambda
    ||x||``, and raises ``SolverFailure`` carrying it (relative to ``lambda
    ||x||``) after ``EIGEN_MAX_ITERATIONS`` steps.  Any dimension; at its
    peak the iteration holds about twenty velocity fields.  The velocity
    energy of an unforced flow decays asymptotically at twice this value.
    """
    solver = PoissonSolver(grid)
    shapes = [grid.face_shape(d) for d in range(grid.dim)]
    ends = np.cumsum([int(np.prod(s)) for s in shapes])
    parts = [(slice(end - int(np.prod(s)), end), s) for end, s in zip(ends, shapes)]
    coef = 1.0 / sum(stencil_eigenvalues(N, h, 1) for N, h in zip(grid.cells, grid.spacing))

    def flat(U, out=None):
        return np.concatenate([c.ravel() for c in U.components], out=out)

    def apply(op, X):
        """``op`` on each row of ``X``, a block of flattened face fields."""
        out = np.empty_like(X)
        for x, y in zip(X, out):
            flat(op(VectorField(grid, [x[part].reshape(s) for part, s in parts])), y)
        return out

    def project(X):
        return apply(lambda U: helmholtz_project(U, solver), X)

    def precondition(X):
        return project(apply(lambda U: diffusion_resolvent(U, coef, solver), X))

    def swirl(d, *x):
        # the curl of sin^2 sin^2 in the first plane, times sin along the others
        if d > 1:
            return 0.0
        L, e = grid.extents, 1 - d
        out = np.sin(np.pi * x[d] / L[d]) ** 2 * np.sin(2 * np.pi * x[e] / L[e]) / L[e]
        for a in range(2, grid.dim):
            out = out * np.sin(np.pi * x[a] / L[a])
        return out if d == 0 else -out

    first = flat(VectorField.from_function(grid, swirl))
    rng = NormalStream(0)
    X = np.stack([first, [rng.standard_normal() for _ in range(first.size)]])
    # the resolvent zeroes the random field's wall faces, the projection its divergence
    X = precondition(precondition(X))
    AX = -apply(laplacian_noslip, X)
    D = AD = X[:0]
    for iteration in range(EIGEN_MAX_ITERATIONS + 1):
        lam = (X * AX).sum(axis=1) / (X * X).sum(axis=1)
        R = project(AX)
        for r, x, lam_x in zip(R, X, lam):
            r -= lam_x * x
        i = int(np.argmin(lam))
        residual = float(np.linalg.norm(R[i]) / (lam[i] * np.linalg.norm(X[i])))
        if residual <= EIGEN_TOL:
            return float(lam[i])
        if iteration == EIGEN_MAX_ITERATIONS:
            raise SolverFailure(
                f"Stokes eigen-solve not certified after {iteration} iterations", residual
            )
        W = precondition(R)
        del R
        AW = -apply(laplacian_noslip, W)
        # Rayleigh-Ritz on span(X, W, D) from its Gram matrices alone: unit
        # rows, then an orthonormal basis from the Gram matrix's eigenvectors
        # without numerically dependent directions
        rows = (X, W, D)
        gram = np.block([[a @ b.T for b in rows] for a in rows])
        stiff = np.block([[a @ b.T for b in (AX, AW, AD)] for a in rows])
        scale = 1.0 / np.sqrt(np.diag(gram))
        g, V = np.linalg.eigh(gram * np.outer(scale, scale))
        keep = g > 1e-14 * g[-1]
        B = scale[:, None] * V[:, keep] / np.sqrt(g[keep])
        H = B.T @ stiff @ B
        k = len(X)
        CX, CW, CD = np.split(B @ np.linalg.eigh(0.5 * (H + H.T))[1][:, :k], [k, 2 * k])
        # the new directions first, so that the old ones can go before X is formed
        D, AD = CW.T @ W + CD.T @ D, CW.T @ AW + CD.T @ AD
        del W, AW
        X, AX = CX.T @ X + D, CX.T @ AX + AD


# ---------------------------------------------------------------------------
# Weak-form residuals
# ---------------------------------------------------------------------------


BUMP_FRACTION = 0.6
BUMP_POWER = 4


@dataclass(frozen=True)
class WeakTestSpec:
    """Mode numbers ``k_d`` of the scalar test's cosine factors.

    Scalar tests use products of ``cos(k_d pi x_d / L_d)``; the velocity test
    is the discrete-divergence-free curl of a sine-product stream function
    with one half-wave per axis.
    Both are multiplied by the time bump ``(1 - (t/T0)^2)^BUMP_POWER`` with
    ``T0 = BUMP_FRACTION * T``, supported on ``[0, T0)`` with value 1 at t = 0.
    """

    scalar_modes: tuple = (1, 1)


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


def _cos_factor(k, x, order):
    """Derivative ``order`` (0-1) of ``cos(k x)``."""
    if order == 0:
        return np.cos(k * x)
    return -k * np.sin(k * x)


def _sin2_factor(k, x, order):
    """Derivative ``order`` (0-3) of ``sin^2(k x)``."""
    if order == 0:
        return np.sin(k * x) ** 2
    if order == 1:
        return k * np.sin(2 * k * x)
    if order == 2:
        return 2 * k * k * np.cos(2 * k * x)
    return -4 * k**3 * np.sin(2 * k * x)


def _separable(grid: Grid, factor, ks, orders):
    """Cell values of ``prod_d factor(ks[d], x_d, orders[d])``, in axis order."""
    out = 1.0
    for k, x, order in zip(ks, grid.cell_center_mesh(), orders):
        out = out * factor(k, x, order)
    return np.broadcast_to(out, grid.shape).copy()


def _stream_test(grid: Grid):
    """Solenoidal velocity test vanishing on every wall.

    w = curl of the squared-sine stream function Psi = sin^2(pi x / Lx)
    sin^2(pi y / Ly) (times sin^2(pi z / Lz) in 3-D, third component zero):
    both the normal and the tangential traces vanish, so
    ``int grad(u):grad(w) = -int u . lap(w)`` holds for no-slip u with no
    boundary remainder.  Returns the cell values of ``w``, of ``lap(w)`` and
    of every ``d w_d / d x_e`` keyed ``(d, e)``.
    """
    ks = [np.pi / L for L in grid.extents]

    def planar(d, ox, oy):
        # x-y factors of w_0 = dPsi/dy and w_1 = -dPsi/dx, differentiated
        # further ox times in x and oy times in y
        out = _separable(grid, _sin2_factor, ks[:2], (ox + d, oy + 1 - d))
        return -out if d == 1 else out

    w = [planar(d, 0, 0) for d in range(2)]
    lap = [planar(d, 2, 0) + planar(d, 0, 2) for d in range(2)]
    grad = {(d, e): planar(d, 1 - e, e) for d in range(2) for e in range(2)}
    if grid.dim == 3:
        # the z factor multiplies the planar sums as a whole
        z = grid.cell_center_mesh()[2]
        gz, dgz, d2gz = (_sin2_factor(ks[2], z, order) for order in range(3))
        zero = np.zeros(grid.shape)
        grad = {key: v * gz for key, v in grad.items()}
        grad.update({(d, 2): w[d] * dgz for d in range(2)})
        grad.update({(2, e): zero for e in range(3)})
        lap = [lap[d] * gz + w[d] * d2gz for d in range(2)] + [zero]
        w = [w[d] * gz for d in range(2)] + [zero]
    return w, lap, grad


def _cell_gradient(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Centered cell gradient with mirror ghosts (zero-flux walls)."""
    s = _axis_slices(axis, grid.dim)
    pad = _mirror_pad(data, axis, 1.0)
    return (pad[s.hi2] - pad[s.lo2]) / (2.0 * grid.spacing[axis])


def _u_at_cells(U: VectorField) -> list:
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
    times = np.array([s.t for _, s in snaps])
    bump = _PolyBump(BUMP_FRACTION * times[-1], BUMP_POWER)
    if int(np.count_nonzero(times < bump.T0)) < 10:
        raise ValueError("fewer than 10 snapshots inside the time-bump support")

    modes = (tuple(test_spec.scalar_modes) + (0,) * g.dim)[: g.dim]
    ks = [m * np.pi / L for m, L in zip(modes, g.extents)]
    phi_cells = _separable(g, _cos_factor, ks, np.zeros(g.dim, dtype=int))
    phi_cgrads = [_separable(g, _cos_factor, ks, unit) for unit in np.eye(g.dim, dtype=int)]

    rho_cells = rho_on_cells(g, params.regularization)
    R = rotation_matrix(g.dim, spec.theta) if spec.kind == "rotational" else np.eye(g.dim)

    w_cells, lapw_cells, gradw_cells = _stream_test(g)
    gradphi_cells = None
    if params.fluid.phi is not None:
        gradphi_cells = [
            _cell_gradient(params.fluid.phi.data, g, d) for d in range(g.dim)
        ]

    solver = PoissonSolver(g)
    # per-snapshot space integrals, keyed by the term they enter
    names = "a_n b_c grad_n grad_c chemo adv_n adv_c u visc conv force".split()
    acc = {name: np.zeros(len(snaps)) for name in names}

    for k, (_, st) in enumerate(snaps):
        n, c = st.n.data, st.c.data
        acc["a_n"][k] = float((n * phi_cells).sum())
        acc["b_c"][k] = float((c * phi_cells).sum())
        gn = [_cell_gradient(n, g, d) for d in range(g.dim)]
        gc = [_cell_gradient(c, g, d) for d in range(g.dim)]
        u_cell = _u_at_cells(st.u)
        # drift vector S_eps grad(c) at cells
        scale = rho_cells * spec.C_S * (1.0 + n) ** (-spec.alpha)
        svec = [
            scale * sum(R[d, e] * gc[e] for e in range(g.dim) if R[d, e] != 0.0)
            for d in range(g.dim)
        ]
        feps_n = f_eps(n, params.regularization.eps)
        for d in range(g.dim):
            acc["grad_n"][k] += float((gn[d] * phi_cgrads[d]).sum())
            acc["grad_c"][k] += float((gc[d] * phi_cgrads[d]).sum())
            acc["chemo"][k] += float((n * feps_n * svec[d] * phi_cgrads[d]).sum())
            acc["adv_n"][k] += float((n * u_cell[d] * phi_cgrads[d]).sum())
            acc["adv_c"][k] += float((c * u_cell[d] * phi_cgrads[d]).sum())
            acc["u"][k] += float((u_cell[d] * w_cells[d]).sum())
            acc["visc"][k] -= float((u_cell[d] * lapw_cells[d]).sum())
        if params.fluid.kappa != 0.0:
            yu_cell = _u_at_cells(yosida_apply(st.u, params.fluid.eps, solver))
            for d in range(g.dim):
                for e in range(g.dim):
                    acc["conv"][k] += float(
                        (yu_cell[e] * u_cell[d] * gradw_cells[(d, e)]).sum()
                    )
        if gradphi_cells is not None:
            for d in range(g.dim):
                acc["force"][k] += float((n * gradphi_cells[d] * w_cells[d]).sum())

    # time integrals against psi (step-start states) and psi' (linear
    # interpolant); psi(0) = 1 weighs the initial pairings
    w_rect = _quad_weight_psi_rect(bump, times)
    w_dpsi = _quad_weight_dpsi(bump, times)
    rect, dpsi = {}, {}
    for name, vals in acc.items():
        vals *= g.volume_element
        rect[name] = float((w_rect * vals).sum())
        dpsi[name] = float((w_dpsi * vals).sum())

    r_n = abs(
        -dpsi["a_n"]
        - acc["a_n"][0]
        - (-rect["grad_n"] + rect["chemo"] + rect["adv_n"])
    )
    r_c = abs(
        -dpsi["b_c"]
        - acc["b_c"][0]
        - (-rect["grad_c"] - rect["b_c"] + rect["a_n"] + rect["adv_c"])
    )
    r_u = abs(
        -dpsi["u"]
        - acc["u"][0]
        - params.fluid.kappa * rect["conv"]
        - (-rect["visc"] + rect["force"])
    )
    return {"r_n": r_n, "r_c": r_c, "r_u": r_u}
