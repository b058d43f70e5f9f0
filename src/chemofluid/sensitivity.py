"""Tensor-valued chemotactic sensitivity and its regularization.

The drift tensor S(x, n, c) is bounded in operator norm by
``C_S * (1 + n)**(-alpha)`` with ``alpha >= 1``.  Three ingredients tame the
coupling near walls and at large densities:

  * a saturation factor ``f_eps(s) = (1 + eps*s)**(-3)`` applied to the
    transported density,
  * a cutoff ``rho_eps(x)`` that vanishes on the walls and equals 1 at
    distance ``delta(eps)`` from them,
  * the product ``S_eps = rho_eps * S``.

``eps = 0`` switches all three off (``f_eps = 1``, ``rho_eps = 1``) and is
accepted as the documented "regularization disabled" limit used by the
manufactured-solution studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _zero_walls,
    cells_to_faces,
    face_component_at_faces,
    gradient_cc,
    upwind_cells_to_faces,
)

__all__ = [
    "SensitivitySpec",
    "RegularizationParams",
    "f_eps",
    "cutoff_rho",
    "rho_on_faces",
    "rotation_matrix",
    "eval_S_eps",
    "chemotactic_flux",
]

KINDS = ("scalar_saturating", "rotational", "user_table")


@dataclass(frozen=True)
class SensitivitySpec:
    """Which drift tensor to use and its bound parameters.

    ``scalar_saturating`` is ``C_S * (1+n)**(-alpha) * I``; ``rotational``
    multiplies that by a planar rotation through ``theta`` (about the z axis
    in 3-D).  ``user_table`` delegates to a callable
    ``table(x_coords, n, c) -> (..., dim, dim)`` whose output is clamped to
    the operator-norm bound.
    """

    kind: str
    C_S: float
    alpha: float = 1.0
    theta: float = 0.0
    table: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sensitivity kind {self.kind!r}, expected one of {KINDS}")
        if not (self.C_S > 0 and np.isfinite(self.C_S)):
            raise ValueError(f"C_S must be positive, got {self.C_S}")
        if not (self.alpha >= 1.0):
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.kind == "user_table" and not callable(self.table):
            raise ValueError("user_table kind requires a callable table")


@dataclass(frozen=True)
class RegularizationParams:
    """Regularization strength and wall-cutoff layer width.

    ``delta`` defaults to ``min(eps * min_i L_i, min_i L_i / 4)`` when not
    given.  ``eps`` lies in [0, 1]; 0 disables the regularization.
    """

    eps: float
    delta: float = None

    def __post_init__(self):
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError(f"eps must lie in [0, 1], got {self.eps}")
        if self.delta is not None and self.delta <= 0:
            raise ValueError(f"explicit delta must be positive, got {self.delta}")

    def layer_width(self, grid: Grid) -> float:
        lmin = min(grid.extents)
        if self.delta is not None:
            if self.delta > lmin / 4 + 1e-15:
                raise ValueError(
                    f"delta={self.delta} exceeds min extent / 4 = {lmin / 4}"
                )
            return self.delta
        return min(self.eps * lmin, lmin / 4)


def f_eps(s, eps: float):
    """Saturation factor ``(1 + eps*s)**(-3)``; 1 at s=0 and for eps=0."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("f_eps requires s >= 0")
    if eps < 0:
        raise ValueError("f_eps requires eps >= 0")
    q = 1.0 + eps * s
    out = 1.0 / (q * q * q)  # the cube by products, as in the drift kernel
    return float(out) if out.ndim == 0 else out


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _wall_distance(coords, grid: Grid):
    dist = None
    for d in range(grid.dim):
        x = coords[d]
        dd = np.minimum(x, grid.extents[d] - x)
        dist = dd if dist is None else np.minimum(dist, dd)
    return dist


def _rho_from_distance(dist, grid: Grid, reg: RegularizationParams):
    if reg.eps == 0.0:
        return np.ones_like(np.asarray(dist, dtype=np.float64))
    delta = reg.layer_width(grid)
    return _smoothstep(np.asarray(dist, dtype=np.float64) / delta)


def cutoff_rho(x, grid: Grid, reg: RegularizationParams) -> float:
    """Wall cutoff at a single point: 0 on walls, 1 beyond the layer width."""
    x = tuple(float(v) for v in x)
    if len(x) != grid.dim:
        raise ValueError(f"point has {len(x)} coordinates, grid has dim {grid.dim}")
    for d, v in enumerate(x):
        if v < -1e-15 or v > grid.extents[d] + 1e-15:
            raise ValueError(f"point {x} lies outside the box along axis {d}")
    dist = min(min(v, grid.extents[d] - v) for d, v in enumerate(x))
    return float(_rho_from_distance(max(dist, 0.0), grid, reg))


def rho_on_faces(grid: Grid, reg: RegularizationParams):
    """Cutoff values at face centers, one array per face orientation."""
    out = []
    for d in range(grid.dim):
        coords = grid.face_center_mesh(d)
        dist = _wall_distance(coords, grid)
        rho = np.broadcast_to(_rho_from_distance(dist, grid, reg), grid.face_shape(d)).copy()
        out.append(rho)
    return out


def rho_on_cells(grid: Grid, reg: RegularizationParams) -> np.ndarray:
    """Cutoff values at cell centers."""
    coords = grid.cell_center_mesh()
    dist = _wall_distance(coords, grid)
    return np.broadcast_to(_rho_from_distance(dist, grid, reg), grid.shape).copy()


def rotation_matrix(dim: int, theta: float) -> np.ndarray:
    """Planar rotation; in 3-D it acts in the x-y plane about the z axis."""
    c, s = np.cos(theta), np.sin(theta)
    if dim == 2:
        return np.array([[c, -s], [s, c]])
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _bound(spec: SensitivitySpec, n):
    return spec.C_S * (1.0 + np.asarray(n, dtype=np.float64)) ** (-spec.alpha)


def eval_S_eps(spec: SensitivitySpec, reg: RegularizationParams, x, n: float, c: float, grid: Grid) -> np.ndarray:
    """Full regularized tensor ``rho_eps(x) * S(x, n, c)`` at one point."""
    if not (np.isfinite(n) and np.isfinite(c)):
        raise ValueError("n and c must be finite")
    if n < 0 or c < 0:
        raise ValueError(f"n and c must be nonnegative, got n={n}, c={c}")
    rho = cutoff_rho(x, grid, reg)
    bound = float(_bound(spec, n))
    if spec.kind == "scalar_saturating":
        S = bound * np.eye(grid.dim)
    elif spec.kind == "rotational":
        S = bound * rotation_matrix(grid.dim, spec.theta)
    else:
        S = np.asarray(spec.table(x, n, c), dtype=np.float64)
        if S.shape != (grid.dim, grid.dim):
            raise ValueError(f"table returned shape {S.shape}, expected {(grid.dim,) * 2}")
        norm = np.linalg.norm(S, ord=2)
        if norm > bound:
            S = S * (bound / norm)
    return rho * S


def _clamped_table_matrices(spec: SensitivitySpec, coords, n, c):
    mats = np.asarray(spec.table(coords, n, c), dtype=np.float64)
    norms = np.linalg.norm(mats, ord=2, axis=(-2, -1))
    bound = _bound(spec, n)
    scale = np.minimum(1.0, bound / np.maximum(norms, 1e-300))
    return mats * scale[..., None, None]


def _rotated_gradient(grad_c: VectorField, R: np.ndarray, d: int) -> np.ndarray:
    """``(R grad c)_d`` at the ``d`` faces, off-axis gradients interpolated there.

    A unit row of ``R`` returns ``grad_c.components[d]`` itself, so callers
    must not write into the result.
    """
    g = grad_c.grid
    own = grad_c.components[d]
    sg = None
    for e in range(g.dim):
        r = R[d, e]
        if r == 0.0:
            continue
        if e == d:
            term = own if r == 1.0 else own * r
        else:
            term = face_component_at_faces(grad_c.components[e], g, e, d)
            term *= r
        if sg is None:
            sg = term
        elif sg is own:
            sg = sg + term
        else:
            sg += term
    return sg


def _face_drift_components(
    n: ScalarField,
    c: ScalarField,
    spec: SensitivitySpec,
    reg: RegularizationParams,
    rho_faces=None,
    grad_c=None,
):
    """Per-face drift velocity ``f_eps(n~) S_eps grad(c)`` and upwind density.

    Returns ``(n_up, drift)`` lists indexed by face orientation.  The upwind
    side is chosen from the sign of the drift direction; the density scalars
    ``(1+n)**(-alpha)`` and ``f_eps`` are positive, so the direction can be
    fixed before the upwind value is known.  ``grad_c`` may carry a
    precomputed ``gradient_cc(c)``.
    """
    g = n.grid
    if c.grid != g:
        raise ValueError("n and c live on different grids")
    if np.any(n.data < 0):
        raise ValueError("chemotactic flux requires n >= 0")
    if rho_faces is None:
        rho_faces = rho_on_faces(g, reg)
    if grad_c is None:
        grad_c = gradient_cc(c)

    if spec.kind == "rotational":
        R = rotation_matrix(g.dim, spec.theta)
    elif spec.kind == "scalar_saturating":
        R = np.eye(g.dim)

    n_up_list, drift_list = [], []
    for d in range(g.dim):
        if spec.kind == "user_table":
            coords = g.face_center_mesh(d)
            n_bar = cells_to_faces(n.data, g, d)
            c_bar = cells_to_faces(c.data, g, d)
            mats = _clamped_table_matrices(spec, coords, n_bar, c_bar)
            sg = np.zeros(g.face_shape(d))
            for e in range(g.dim):
                ge = face_component_at_faces(grad_c.components[e], g, e, d)
                sg += mats[..., d, e] * ge
            direction = rho_faces[d] * sg
            n_up = upwind_cells_to_faces(n.data, g, d, direction)
            mats_up = _clamped_table_matrices(spec, coords, n_up, c_bar)
            sg_up = np.zeros(g.face_shape(d))
            for e in range(g.dim):
                ge = face_component_at_faces(grad_c.components[e], g, e, d)
                sg_up += mats_up[..., d, e] * ge
            drift = rho_faces[d] * f_eps(n_up, reg.eps) * sg_up
        else:
            sg = _rotated_gradient(grad_c, R, d)
            work = np.multiply(rho_faces[d], sg)  # the drift direction
            n_up = upwind_cells_to_faces(n.data, g, d, work)
            # rho C_S (1 + n~)^(-alpha) f_eps(n~) (R grad c)_d, one pass per factor
            drift = np.multiply(rho_faces[d], spec.C_S)
            np.add(n_up, 1.0, out=work)
            np.power(work, -spec.alpha, out=work)
            drift *= work
            if reg.eps != 0.0:  # f_eps = 1 exactly otherwise
                np.multiply(n_up, reg.eps, out=work)
                work += 1.0
                cube = np.multiply(work, work)
                cube *= work
                np.divide(1.0, cube, out=cube)
                drift *= cube
            drift *= sg
        _zero_walls(drift, d)  # wall faces never carry chemotactic flux
        n_up_list.append(n_up)
        drift_list.append(drift)
    return n_up_list, drift_list


def chemotactic_flux(
    n: ScalarField,
    c: ScalarField,
    spec: SensitivitySpec,
    reg: RegularizationParams,
    rho_faces=None,
) -> VectorField:
    """Face flux ``n~ f_eps(n~) S_eps grad(c)`` with upwinded face density."""
    n_up, drift = _face_drift_components(n, c, spec, reg, rho_faces)
    comps = [n_up[d] * drift[d] for d in range(n.grid.dim)]
    return VectorField(n.grid, comps)
