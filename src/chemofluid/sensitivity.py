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

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _abs_max,
    _axis_slices,
    _upwind_select,
    _zero_walls,
    face_component_at_faces,
    gradient_cc,
    gradient_component,
)

__all__ = [
    "SensitivitySpec",
    "RegularizationParams",
    "f_eps",
    "cutoff_rho",
    "WallCutoff",
    "rotation_matrix",
    "eval_S_eps",
    "chemotactic_flux",
    "POSITIVITY_SLACK",
    "negative_beyond_slack",
]

KINDS = ("scalar_saturating", "rotational")

# how far below zero roundoff may take a density, relative to max(max n, 1);
# every n >= 0 guard (the drift, ``step_n``, ``State.validate``) allows it
POSITIVITY_SLACK = 1e-12


def negative_beyond_slack(data: np.ndarray) -> bool:
    """Whether ``data`` holds a value below ``-POSITIVITY_SLACK * max(max
    data, 1)``: a density or concentration that lost positivity by more than
    roundoff."""
    low = float(data.min())
    return low < 0.0 and low < -POSITIVITY_SLACK * max(float(data.max()), 1.0)


@dataclass(frozen=True)
class SensitivitySpec:
    """Which drift tensor to use and its bound parameters.

    ``scalar_saturating`` is ``C_S * (1+n)**(-alpha) * I``; ``rotational``
    multiplies that by a planar rotation through ``theta`` (about the z axis
    in 3-D).
    """

    kind: str
    C_S: float
    alpha: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sensitivity kind {self.kind!r}, expected one of {KINDS}")
        if not (self.C_S > 0 and np.isfinite(self.C_S)):
            raise ValueError(f"C_S must be positive, got {self.C_S}")
        if not (self.alpha >= 1.0):
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


@dataclass(frozen=True)
class RegularizationParams:
    """Regularization strength; it sets the wall-cutoff layer width.

    The layer width is ``min(eps * min_i L_i, min_i L_i / 4)``.  ``eps``
    lies in [0, 1]; 0 disables the regularization.
    """

    eps: float

    def __post_init__(self):
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError(f"eps must lie in [0, 1], got {self.eps}")

    def layer_width(self, grid: Grid) -> float:
        lmin = min(grid.extents)
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


class WallCutoff:
    """The cutoff ``rho_eps`` at the face centers, held as 1-D profiles.

    ``rho_eps`` is the smoothstep of the distance to the nearest wall, and
    the smoothstep is monotone in that distance, so at a face it is the
    minimum over the axes of the cutoff of the distance to that axis's two
    walls.  Each axis keeps that cutoff at its face coordinates and at its
    cell coordinates.  ``faces(d)`` broadcasts the minimum of the trailing
    axes' profiles (a row in 2-D, a plane in 3-D) and lowers it by the
    first axis's profile only in that profile's wall layers, where it lies
    below 1: the same bits as the smoothstep of each face center's wall
    distance, with no face array held for the run.
    """

    def __init__(self, grid: Grid, reg: RegularizationParams):
        self.grid = grid
        profiles = {}
        for e in range(grid.dim):
            shape = [1] * grid.dim
            shape[e] = -1
            for at_faces, x in ((True, grid.face_coords(e)), (False, grid.cell_coords(e))):
                dist = np.minimum(x, grid.extents[e] - x)
                profiles[e, at_faces] = _rho_from_distance(dist, grid, reg).reshape(shape)
        # per face orientation: the trailing axes' minimum, and the first
        # axis's wall layers as (index, profile values there)
        self._trailing, self._layers = [], []
        for d in range(grid.dim):
            first, *trailing = (profiles[e, e == d] for e in range(grid.dim))
            self._trailing.append(functools.reduce(np.minimum, trailing))
            self._layers.append([(index, first[index]) for index in _wall_layers(first)])

    def faces(self, d: int) -> np.ndarray:
        """``rho_eps`` at the ``d`` faces, as a new array."""
        out = np.empty(self.grid.face_shape(d))
        np.copyto(out, self._trailing[d])
        for index, p in self._layers[d]:
            layer = out[index]
            np.minimum(layer, p, out=layer)
        return out


def _wall_layers(profile: np.ndarray) -> list:
    """Slices of the runs along the first axis where ``profile`` lies below
    1: its wall layers."""
    below = np.flatnonzero(profile.ravel() < 1.0)
    runs = np.split(below, np.flatnonzero(np.diff(below) > 1) + 1)
    return [slice(int(run[0]), int(run[-1]) + 1) for run in runs if run.size]


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


def eval_S_eps(
    spec: SensitivitySpec, reg: RegularizationParams, x, n: float, grid: Grid
) -> np.ndarray:
    """Full regularized tensor ``rho_eps(x) * S(x, n)`` at one point (no
    kind depends on ``c``)."""
    if not np.isfinite(n):
        raise ValueError("n must be finite")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    rho = cutoff_rho(x, grid, reg)
    bound = float(_bound(spec, n))
    if spec.kind == "scalar_saturating":
        S = bound * np.eye(grid.dim)
    else:
        S = bound * rotation_matrix(grid.dim, spec.theta)
    return rho * S


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
    cutoff: WallCutoff = None,
    grad_c=None,
):
    """Per-face chemotactic flux ``n~ v`` of the drift velocity ``v =
    f_eps(n~) S_eps grad(c)``, and ``max |v|``.

    Returns ``(flux, vmax)``: ``flux`` is a list indexed by face
    orientation, ``vmax`` the largest of the per-axis maxima of ``|v|``
    (the CFL's drift limit).  Each axis takes its maximum of ``|v|`` and
    then multiplies the upwind density ``n~`` into ``v``, so ``v`` and ``n~``
    are never both held past their axis.  The upwind side is chosen from the
    sign of the drift direction ``rho (R grad c)_d``; the density scalars
    ``(1+n)**(-alpha)`` and ``f_eps`` are positive, so the direction can be
    fixed before the upwind value is known.  ``cutoff`` may carry the run's
    ``WallCutoff`` and ``grad_c`` a precomputed ``gradient_cc(c)``; without
    it the scalar kind computes, per axis, only the component that axis
    reads.
    """
    g = n.grid
    if c.grid != g:
        raise ValueError("n and c live on different grids")
    if negative_beyond_slack(n.data):
        raise ValueError("chemotactic flux requires n >= 0")
    if cutoff is None:
        cutoff = WallCutoff(g, reg)
    if grad_c is None and spec.kind != "scalar_saturating":
        grad_c = gradient_cc(c)  # every axis reads every component
    if spec.kind == "rotational":
        R = rotation_matrix(g.dim, spec.theta)
    if reg.eps != 0.0:
        # f_eps at the cells, once: upwinding selects cell values, so
        # selecting f_eps(n) gives the bits of f_eps(n~)
        q = np.multiply(n.data, reg.eps)
        q += 1.0
        feps = np.multiply(q, q)
        feps *= q
        del q
        np.divide(1.0, feps, out=feps)
    flux, maxima = [], []
    for d in range(g.dim):
        s = _axis_slices(d, g.dim)
        if spec.kind == "rotational":
            sg = _rotated_gradient(grad_c, R, d)
        elif grad_c is not None:
            sg = grad_c.components[d]
        else:  # only the component this axis reads, dropped with it
            sg = gradient_component(c.data, g, d)
        work = cutoff.faces(d)  # the one work array of this axis
        # rho C_S (1 + n~)^(-alpha) f_eps(n~) (R grad c)_d, one pass per factor
        drift = np.multiply(work, spec.C_S)
        work *= sg  # the drift direction
        upwind = work[s.mid] > 0.0
        n_up = np.empty(g.face_shape(d))
        _upwind_select(n_up[s.mid], n.data, d, upwind)
        _zero_walls(n_up, d)
        np.add(n_up, 1.0, out=work)
        if spec.alpha == 1.0:  # the same bits as the power, at half its cost
            np.divide(1.0, work, out=work)
        else:
            np.power(work, -spec.alpha, out=work)
        drift *= work
        if reg.eps != 0.0:  # f_eps = 1 exactly otherwise
            _upwind_select(work[s.mid], feps, d, upwind)  # the walls keep (1 + 0)^(-alpha) = 1
            drift *= work
        drift *= sg
        del sg, work, upwind
        _zero_walls(drift, d)  # wall faces never carry chemotactic flux
        maxima.append(_abs_max(drift))
        drift *= n_up  # the flux n~ v: multiplication commutes, so n~ v and v n~ agree
        del n_up  # before the next axis allocates its own
        flux.append(drift)
    return flux, max(maxima)


def chemotactic_flux(
    n: ScalarField,
    c: ScalarField,
    spec: SensitivitySpec,
    reg: RegularizationParams,
) -> VectorField:
    """Face flux ``n~ f_eps(n~) S_eps grad(c)`` with upwinded face density."""
    flux, _ = _face_drift_components(n, c, spec, reg)
    return VectorField(n.grid, flux)
