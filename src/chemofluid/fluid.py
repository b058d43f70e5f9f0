"""Incompressible flow: projection, Yosida smoothing, and the momentum substep.

The velocity update is a Chorin-style split: an explicit viscous + convective
+ forcing step produces a tentative field, which a discrete Helmholtz
projection returns to the divergence-free subspace.  Because the projection
subtracts ``gradient_cc`` of a pressure potential and the divergence is taken
by the same flux-form operator, the post-projection divergence is controlled
directly by the Poisson residual.  The pressure Poisson problem is solved
directly by fast cosine transforms and certified by one residual check.

Convection transports with the Yosida-smoothed velocity ``(I + eps*A)^{-1} u``,
realized as a componentwise Helmholtz resolvent ``(I - eps*Lap)^{-1}`` with
no-slip walls followed by a projection.  The resolvent is separable on the
staggered grid and is solved exactly by fast sine transforms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _axis_slices,
    _mirror_pad,
    _zero_walls,
    cells_to_faces,
    divergence_fc,
    face_component_at_faces,
    gradient_cc,
    laplacian_neumann,
    vector_inner,
    vector_l2_sq,
)

__all__ = [
    "SolverFailure",
    "stencil_eigenvalues",
    "separable_eigenvalues",
    "PoissonSolver",
    "FluidParams",
    "helmholtz_project",
    "project_with_potential",
    "yosida_apply",
    "laplacian_noslip",
    "convection_upwind",
    "dirichlet_energy",
    "divergence_max",
    "ns_substep",
    "energy_identity_residual",
]


class SolverFailure(RuntimeError):
    """Raised when a solve fails its residual certificate."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual={residual:.3e})")
        self.residual = residual


def stencil_eigenvalues(N: int, h: float, modes) -> np.ndarray:
    """Eigenvalues ``(4/h^2) sin^2(k pi / 2N)`` of the 1-D 3-point ``-Lap``
    stencil on ``N`` cells of width ``h``, for the integer ``modes`` k.

    This one table serves every box operator: zero-flux cells take the
    cosine modes ``range(N)`` (DCT-II), no-slip faces along their own axis
    the sine modes ``range(1, N)`` (DST-I) and no-slip cells tangentially the
    half-offset sine modes ``range(1, N + 1)`` (DST-II).
    """
    k = np.asarray(modes)
    return (4.0 / h**2) * np.sin(k * np.pi / (2 * N)) ** 2


def separable_eigenvalues(tables) -> np.ndarray:
    """Eigenvalues of a separable box operator: the outer sum of its 1-D
    tables, one per axis in axis order."""
    return functools.reduce(np.add.outer, tables)


class PoissonSolver:
    """Direct cosine-transform solve of the cell-centered zero-flux Laplacian.

    Solves ``Lap q = b`` in the mean-zero gauge.  On a uniform box the DCT-II
    diagonalizes the stencil exactly, so a solve is one forward transform, a
    scaling by the inverse eigenvalues precomputed here (zero at the k = 0
    nullspace entry, which also drops the mean of ``b``: the compatibility
    condition), one inverse transform and a mean subtraction.  One
    application of ``laplacian_neumann`` then certifies the result: its
    residual must lie below ``tol * ||b - mean(b)||`` or the solve raises, a
    NaN residual included.  That threshold is floored at the residual's
    roundoff level ``8 eps lambda_max ||q||`` (``lambda_max`` the largest
    eigenvalue), which otherwise outgrows a fixed ``tol`` like ``N^2``.  A
    direct solve makes no iterations: ``last_iterations`` is 0.
    """

    def __init__(self, grid: Grid, tol: float = 1e-10):
        self.grid = grid
        self.tol = tol
        lam = separable_eigenvalues(
            [stencil_eigenvalues(N, h, range(N)) for N, h in zip(grid.cells, grid.spacing)]
        )
        self._roundoff = 8.0 * np.finfo(np.float64).eps * float(lam.max())
        lam.flat[0] = np.inf  # constant nullspace: its coefficient maps to zero
        self._inv_eigs = 1.0 / lam
        self.last_iterations = 0
        self.last_residual = 0.0

    def solve(self, b: np.ndarray, abs_target: float = None) -> np.ndarray:
        """Return ``q`` with ``Lap q = b`` (mean-zero), raising if uncertified.

        The residual must lie below ``tol * ||b - mean(b)||`` and, when
        ``abs_target`` is given, below that absolute level as well (the
        projection uses it to pin the post-projection divergence); neither
        threshold goes below the roundoff floor ``8 eps lambda_max ||q||``.
        """
        b = np.asarray(b, dtype=np.float64)
        rhs = b.mean() - b  # -Lap q = rhs
        rhs_norm = float(np.sqrt((rhs * rhs).sum()))
        if rhs_norm == 0.0:
            self.last_residual = 0.0
            return np.zeros_like(rhs)
        target = self.tol * rhs_norm
        if abs_target is not None:
            target = min(target, abs_target)
        spec = scipy.fft.dctn(rhs, type=2, norm="ortho")
        spec *= self._inv_eigs
        q = scipy.fft.dctn(spec, type=3, norm="ortho", overwrite_x=True)
        q -= q.mean()
        r = rhs + laplacian_neumann(ScalarField(self.grid, q)).data
        res = float(np.sqrt((r * r).sum()))
        self.last_residual = res / rhs_norm
        # written so that a NaN residual fails too; the floor is only
        # evaluated when the target alone fails
        if not (res <= target or res <= self._roundoff * float(np.sqrt((q * q).sum()))):
            raise SolverFailure("pressure Poisson solve failed its residual check", res / rhs_norm)
        return q


@dataclass
class FluidParams:
    """Convection strength, Yosida smoothing, and the gravitational potential.

    ``phi`` is fixed for a run; its face gradient is precomputed here.
    ``kappa = 0`` is the Stokes limit: convection (and with it the Yosida
    smoothing) is bypassed entirely.
    """

    kappa: float = 0.0
    eps: float = 0.0
    phi: ScalarField = None
    grad_phi: VectorField = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.phi is not None:
            self.phi.check_finite("phi")
            self.grad_phi = gradient_cc(self.phi)


def project_with_potential(w: VectorField, solver: PoissonSolver):
    """Helmholtz projection returning also the potential and the solve's
    relative residual.

    The Poisson residual equals the post-projection divergence (flux-form
    composition is exact), so the solve's certificate checks it below
    ``1e-10 * ||w|| / sqrt(vol)`` in cell-l2, giving
    ``||div(P w)||_L2 <= 1e-10 * ||w||_L2``.
    """
    w.check_finite("projection input")
    rhs = divergence_fc(w)
    w_norm = np.sqrt(vector_l2_sq(w))
    abs_target = 1e-10 * w_norm / np.sqrt(w.grid.volume_element)
    q = solver.solve(rhs.data, abs_target=abs_target)
    qf = ScalarField(w.grid, q)
    gq = gradient_cc(qf)
    comps = [wc - gc for wc, gc in zip(w.components, gq.components)]
    return VectorField(w.grid, comps), qf, solver.last_residual


def helmholtz_project(w: VectorField, solver: PoissonSolver) -> VectorField:
    """Projection of a face field onto the discretely divergence-free subspace."""
    out, _, _ = project_with_potential(w, solver)
    return out


# ---------------------------------------------------------------------------
# No-slip componentwise operators
# ---------------------------------------------------------------------------


def laplacian_noslip(U: VectorField) -> VectorField:
    """Componentwise Laplacian with no-slip walls.

    Along the component's own axis the wall faces are genuine degrees of
    freedom pinned to zero; tangentially the wall sits half a cell outside
    the face line and is enforced by odd-mirror ghosts.
    """
    g = U.grid
    out = []
    for d in range(g.dim):
        arr = U.components[d]
        lap = np.zeros_like(arr)
        for e in range(g.dim):
            s = _axis_slices(e, g.dim)
            h2 = g.spacing[e] ** 2
            if e == d:
                lap[s.mid] += (arr[s.hi2] - 2.0 * arr[s.mid] + arr[s.lo2]) / h2
            else:
                pad = _mirror_pad(arr, e, -1.0)
                lap += (pad[s.hi2] - 2.0 * pad[s.mid] + pad[s.lo2]) / h2
        _zero_walls(lap, d)
        out.append(lap)
    return VectorField(g, out)


def dirichlet_energy(U: VectorField, lap=None) -> float:
    """Discrete ``integral |grad u|^2`` as the no-slip Dirichlet form ``-<u, Lap u>``.

    ``lap`` may carry a precomputed ``laplacian_noslip(U)``.
    """
    if lap is None:
        lap = laplacian_noslip(U)
    return -vector_inner(U, lap)


def convection_upwind(A: VectorField, U: VectorField) -> VectorField:
    """Advective-form upwind transport ``(A . grad) U`` on the staggered grid."""
    g = U.grid
    out = []
    for d in range(g.dim):
        arr = U.components[d]
        conv = np.zeros_like(arr)
        for e in range(g.dim):
            s = _axis_slices(e, g.dim)
            h = g.spacing[e]
            a_e = face_component_at_faces(A.components[e], g, e, d)
            if e == d:
                bwd = np.zeros_like(arr)
                fwd = np.zeros_like(arr)
                diff = np.diff(arr, axis=e) / h
                bwd[s.hi] = diff
                fwd[s.lo] = diff
            else:
                pad = _mirror_pad(arr, e, -1.0)
                bwd = (pad[s.mid] - pad[s.lo2]) / h
                fwd = (pad[s.hi2] - pad[s.mid]) / h
            conv += a_e * np.where(a_e > 0.0, bwd, fwd)
        _zero_walls(conv, d)
        out.append(conv)
    return VectorField(g, out)


# ---------------------------------------------------------------------------
# Yosida smoothing
# ---------------------------------------------------------------------------


def diffusion_resolvent(U: VectorField, eps: float) -> VectorField:
    """Exact componentwise solve of ``(I - eps*Lap) v = u`` with no-slip walls.

    The staggered no-slip Laplacian is separable: sine modes along the
    component's own axis (DST-I) and half-offset sine modes tangentially
    (DST-II/III pair), so the resolvent is a diagonal scaling in transform
    space.
    """
    if eps == 0.0:
        return U
    g = U.grid
    out = []
    for d in range(g.dim):
        # per axis: (forward DST type, inverse DST type, sine modes)
        axes = [
            (1, 1, range(1, N)) if e == d else (2, 3, range(1, N + 1))
            for e, N in enumerate(g.cells)
        ]
        arr = U.components[d]
        mid = _axis_slices(d, g.dim).mid
        spec = arr[mid]
        for e, (forward, _, _) in enumerate(axes):
            spec = scipy.fft.dst(spec, type=forward, axis=e, norm="ortho")
        lam = separable_eigenvalues(
            [
                stencil_eigenvalues(N, h, modes)
                for N, h, (_, _, modes) in zip(g.cells, g.spacing, axes)
            ]
        )
        spec = spec / (1.0 + eps * lam)
        for e, (_, inverse, _) in enumerate(axes):
            spec = scipy.fft.dst(spec, type=inverse, axis=e, norm="ortho")
        full = np.zeros_like(arr)
        full[mid] = spec
        out.append(full)
    return VectorField(g, out)


def yosida_apply(U: VectorField, eps: float, solver: PoissonSolver) -> VectorField:
    """Smoothed transport velocity ``(I + eps*A)^{-1} u``.

    ``eps = 0`` returns the input unchanged.  Otherwise the componentwise
    resolvent is followed by a Helmholtz projection; both stages are
    nonexpansive in the face L2 norm.
    """
    if eps == 0.0:
        return U
    v = diffusion_resolvent(U, eps)
    return helmholtz_project(v, solver)


# ---------------------------------------------------------------------------
# Momentum substep
# ---------------------------------------------------------------------------


def divergence_max(U: VectorField) -> float:
    return float(np.abs(divergence_fc(U).data).max())


def _incompressibility_tolerance(U: VectorField, tol: float = 1e-9) -> float:
    g = U.grid
    scale = (1.0 + U.max_abs()) / min(g.spacing)
    return tol * scale


def ns_substep(
    u: VectorField,
    n: ScalarField,
    params: FluidParams,
    dt: float,
    solver: PoissonSolver,
    forcing=None,
    t: float = 0.0,
    lap_u=None,
):
    """One explicit momentum step followed by projection.

    Returns ``(u_next, P, proj_residual)`` where the pressure is the
    projection potential divided by ``dt``.  ``forcing``, when given, is a
    callable ``forcing(coords, t, component) -> array`` sampled at face
    centers (manufactured-solution studies).  ``lap_u`` may carry a
    precomputed ``laplacian_noslip(u)``.
    """
    g = u.grid
    if divergence_max(u) > _incompressibility_tolerance(u):
        raise ValueError(
            f"ns_substep requires a divergence-free input (max div = {divergence_max(u):.3e})"
        )
    visc_limit = 0.5 / sum(1.0 / h**2 for h in g.spacing)
    if dt > visc_limit:
        raise ValueError(f"dt={dt} exceeds the explicit viscous stability limit {visc_limit}")

    visc = laplacian_noslip(u) if lap_u is None else lap_u
    comps = []
    if params.kappa != 0.0:
        a = yosida_apply(u, params.eps, solver)
        conv = convection_upwind(a, u)
    for d in range(g.dim):
        upd = visc.components[d].copy()
        if params.kappa != 0.0:
            upd -= params.kappa * conv.components[d]
        if params.grad_phi is not None:
            n_face = cells_to_faces(n.data, g, d)
            upd += n_face * params.grad_phi.components[d]
        if forcing is not None:
            coords = g.face_center_mesh(d)
            upd += np.broadcast_to(forcing(coords, t, d), g.face_shape(d))
        comp = u.components[d] + dt * upd
        _zero_walls(comp, d)
        comps.append(comp)
    u_star = VectorField(g, comps)
    u_next, q, proj_residual = project_with_potential(u_star, solver)
    P = ScalarField(g, q.data / dt)
    return u_next, P, proj_residual


def energy_identity_residual(
    u_prev: VectorField,
    u_next: VectorField,
    n: ScalarField,
    params: FluidParams,
    dt: float,
) -> float:
    """Per-step defect of the kinetic-energy balance.

    Compares the discrete rate ``(||u_next||^2 - ||u_prev||^2) / (2 dt)``
    against ``-integral |grad u|^2 + integral (n - n_mean) grad(phi) . u``
    evaluated at the step start; expected O(dt + h^2) along smooth flows.
    """
    rate = 0.5 * (vector_l2_sq(u_next) - vector_l2_sq(u_prev)) / dt
    rhs = -dirichlet_energy(u_prev)
    if params.grad_phi is not None:
        g = u_prev.grid
        nbar = n.mean()
        forcing = 0.0
        for d in range(g.dim):
            n_face = cells_to_faces(n.data - nbar, g, d)
            forcing += float(
                (n_face * params.grad_phi.components[d] * u_prev.components[d]).sum()
            )
        rhs += forcing * g.volume_element
    return abs(rate - rhs)
