"""Uniform Cartesian box grids with MAC staggering and conservative operators.

Scalars (cell densities, chemical concentration, pressure, potentials) live at
cell centers; vector quantities (velocity, fluxes) live on cell faces, one
component per face orientation.  All differential operators are written in
flux form so that discrete conservation and summation-by-parts identities hold
exactly:

  * ``laplacian_neumann(f)`` equals ``divergence_fc(gradient_cc(f))`` bit
    for bit: it is that composition's stencil, written without the face pair.
  * For any face field F whose wall faces vanish,
    ``<gradient_cc(f), F> == -<f, divergence_fc(F)>`` up to roundoff.

Walls carry zero-normal-flux (Neumann) conditions for scalars and no-slip for
velocities; both are realized by the face layout, never by ghost cells.
"""

from __future__ import annotations

import functools
import struct
from typing import NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "make_grid",
    "gradient_cc",
    "gradient_component",
    "divergence_fc",
    "laplacian_neumann",
    "integrate",
    "l2_sq",
    "vector_l2_sq",
    "vector_inner",
    "write_field_snapshot",
    "read_field_snapshot",
]

SNAPSHOT_MAGIC = b"KSSF"
SNAPSHOT_VERSION = 1


class Grid:
    """Axis-aligned box partitioned into uniform cells.

    Parameters come validated through :func:`make_grid`.  ``spacing[d]`` is
    ``extents[d] / cells[d]`` and ``volume_element`` is the product of the
    spacings; these are the only metric quantities any operator needs.
    """

    __slots__ = ("dim", "extents", "cells", "spacing", "volume_element", "_face_shapes")

    def __init__(self, dim: int, extents: tuple, cells: tuple):
        self.dim = dim
        self.extents = tuple(float(L) for L in extents)
        self.cells = tuple(int(N) for N in cells)
        self.spacing = tuple(L / N for L, N in zip(self.extents, self.cells))
        self.volume_element = float(np.prod(self.spacing))
        self._face_shapes = tuple(
            self.cells[:d] + (self.cells[d] + 1,) + self.cells[d + 1 :]
            for d in range(len(self.cells))
        )

    @property
    def shape(self):
        return self.cells

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def total_volume(self) -> float:
        return float(np.prod(self.extents))

    def face_shape(self, axis: int) -> tuple:
        return self._face_shapes[axis]

    def cell_coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def face_coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return np.arange(self.cells[axis] + 1) * h

    def cell_center_mesh(self):
        """Broadcastable coordinate arrays at cell centers (open meshgrid)."""
        axes = [self.cell_coords(d) for d in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def face_center_mesh(self, axis: int):
        """Broadcastable coordinates at centers of the ``axis``-oriented faces."""
        coords = []
        for d in range(self.dim):
            c = self.face_coords(d) if d == axis else self.cell_coords(d)
            coords.append(c)
        return np.meshgrid(*coords, indexing="ij", sparse=True)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.extents == other.extents
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.dim, self.extents, self.cells))

    def __repr__(self):
        return f"Grid(dim={self.dim}, extents={self.extents}, cells={self.cells})"


def make_grid(dim: int, extents, cells) -> Grid:
    """Validated grid constructor.

    Requires ``dim in {2, 3}``, strictly positive extents, and at least four
    cells per axis (the operators' boundary treatment needs interior room).
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    extents = tuple(float(L) for L in extents)
    cells = tuple(int(N) for N in cells)
    if len(extents) != dim or len(cells) != dim:
        raise ValueError(
            f"extents/cells must have length dim={dim}, "
            f"got {len(extents)}/{len(cells)}"
        )
    for d, L in enumerate(extents):
        if not np.isfinite(L) or L <= 0:
            raise ValueError(f"extents must be positive, got {L} on axis {d}")
    for d, N in enumerate(cells):
        if N < 4:
            raise ValueError(f"need at least 4 cells per axis, got {N} on axis {d}")
    g = Grid(dim, extents, cells)
    # sanity: metric consistency
    assert abs(g.total_volume - g.n_cells * g.volume_element) <= 1e-14 * g.total_volume
    return g


class ScalarField:
    """Cell-centered real field bound to a grid."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: Grid, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.shape != grid.shape:
            raise ValueError(f"data shape {data.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.data = data

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample ``fn(*coords)`` at cell centers into one new C-ordered array."""
        mesh = grid.cell_center_mesh()
        return cls(grid, np.broadcast_to(fn(*mesh), grid.shape).astype(np.float64, order="C"))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy())

    def check_finite(self, label: str = "field"):
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError(f"{label} contains non-finite values")

    def mean(self) -> float:
        return float(self.data.mean())


class VectorField:
    """Face-staggered vector field (MAC layout).

    Component ``d`` lives on the faces orthogonal to axis ``d`` and has shape
    ``grid.face_shape(d)``.  The first and last slices along axis ``d`` are
    wall faces; for no-slip velocities and zero-flux fluxes they are zero.
    """

    __slots__ = ("grid", "components")

    def __init__(self, grid: Grid, components):
        comps = []
        for d, c in enumerate(components):
            c = np.asarray(c, dtype=np.float64)
            if c.shape != grid.face_shape(d):
                raise ValueError(
                    f"component {d} shape {c.shape} != face shape {grid.face_shape(d)}"
                )
            comps.append(c)
        if len(comps) != grid.dim:
            raise ValueError(f"need {grid.dim} components, got {len(comps)}")
        self.grid = grid
        self.components = tuple(comps)

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, [np.zeros(grid.face_shape(d)) for d in range(grid.dim)])

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "VectorField":
        """Sample ``fn(d, *coords)`` at the ``d``-face centers into one new
        C-ordered array per component, its wall faces zeroed in place."""
        comps = []
        for d in range(grid.dim):
            comp = np.broadcast_to(fn(d, *grid.face_center_mesh(d)), grid.face_shape(d))
            comps.append(_zero_walls(comp.astype(np.float64, order="C"), d))
        return cls(grid, comps)

    def copy(self) -> "VectorField":
        return VectorField(self.grid, [c.copy() for c in self.components])

    def check_finite(self, label: str = "vector field"):
        for d, c in enumerate(self.components):
            if not np.all(np.isfinite(c)):
                raise FloatingPointError(f"{label} component {d} is non-finite")

    def zero_wall_normal(self) -> "VectorField":
        """Return a copy with wall faces explicitly zeroed."""
        return VectorField(
            self.grid, [_zero_walls(c.copy(), d) for d, c in enumerate(self.components)]
        )

    def wall_normal_max(self) -> float:
        m = 0.0
        for d, c in enumerate(self.components):
            s = _axis_slices(d, self.grid.dim)
            m = max(m, float(np.abs(c[s.first]).max()), float(np.abs(c[s.last]).max()))
        return m

    def max_abs(self) -> float:
        """``max |u|`` over all components; NaN if any component holds one."""
        m = 0.0
        for c in self.components:
            a = _abs_max(c)
            if a != a:
                return a
            m = max(m, a)
        return m


class AxisSlices(NamedTuple):
    """Index tuples along one axis of a ``dim``-dimensional array.

    ``lo``/``hi`` select ``[:-1]``/``[1:]`` (the two cells beside each
    interior face, or the two faces bounding each cell), ``mid`` selects
    ``[1:-1]`` (the interior faces, or the centres of a 3-point stencil),
    ``lo2``/``hi2`` select ``[:-2]``/``[2:]`` (the stencil's neighbours of
    ``mid``) and ``first``/``last`` the wall slices.
    """

    lo: tuple
    hi: tuple
    mid: tuple
    lo2: tuple
    hi2: tuple
    first: tuple
    last: tuple


@functools.lru_cache(maxsize=None)
def _axis_slices(axis: int, dim: int) -> AxisSlices:
    """The one source of per-axis index tuples for every MAC kernel."""

    def along(index):
        sl = [slice(None)] * dim
        sl[axis] = index
        return tuple(sl)

    return AxisSlices(
        lo=along(slice(None, -1)),
        hi=along(slice(1, None)),
        mid=along(slice(1, -1)),
        lo2=along(slice(None, -2)),
        hi2=along(slice(2, None)),
        first=along(0),
        last=along(-1),
    )


def _abs_max(arr: np.ndarray) -> float:
    """``max |arr|`` from the two extremes, without an ``|arr|`` pass (NaN propagates)."""
    return max(abs(float(arr.max())), abs(float(arr.min())))


def _zero_walls(comp: np.ndarray, axis: int) -> np.ndarray:
    """Zero the two wall slices of ``comp`` along ``axis`` in place; returns ``comp``."""
    s = _axis_slices(axis, comp.ndim)
    comp[s.first] = 0.0
    comp[s.last] = 0.0
    return comp


def _mirror_pad(arr: np.ndarray, axis: int, sign: float) -> np.ndarray:
    """Pad one ghost layer on each side of ``axis``, mirroring the wall slices.

    ``sign = 1`` gives even ghosts (a zero-flux wall at the face between a
    ghost and its mirror image); ``sign = -1`` gives odd ghosts (a zero value
    there: no-slip walls half a cell outside a face line).
    """
    s = _axis_slices(axis, arr.ndim)
    shape = list(arr.shape)
    shape[axis] += 2
    out = np.empty(shape, dtype=arr.dtype)
    out[s.mid] = arr
    np.multiply(arr[s.first], sign, out=out[s.first])
    np.multiply(arr[s.last], sign, out=out[s.last])
    return out


def gradient_cc(f: ScalarField) -> VectorField:
    """Face-centered gradient of a cell field with zero-flux walls.

    Interior face between cells i-1 and i along axis d carries
    ``(f[i] - f[i-1]) / h_d``; wall faces carry 0, which is the discrete form
    of the homogeneous Neumann condition.
    """
    g = f.grid
    return VectorField(g, [gradient_component(f.data, g, d) for d in range(g.dim)])


def gradient_component(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """The ``axis`` face component of ``gradient_cc`` of the cell values ``data``."""
    s = _axis_slices(axis, grid.dim)
    out = np.zeros(grid.face_shape(axis))
    inner = out[s.mid]
    np.subtract(data[s.hi], data[s.lo], out=inner)
    inner /= grid.spacing[axis]
    return out


def divergence_fc(F: VectorField) -> ScalarField:
    """Cell-centered divergence of a face field (telescoping flux form)."""
    g = F.grid
    out = np.empty(g.shape)
    term = np.empty(g.shape)
    for d in range(g.dim):
        s = _axis_slices(d, g.dim)
        comp = F.components[d]
        dst = out if d == 0 else term  # the first axis goes straight into the output
        np.subtract(comp[s.hi], comp[s.lo], out=dst)
        dst /= g.spacing[d]
        if d > 0:
            out += term
    return ScalarField(g, out)


def laplacian_neumann(f: ScalarField, term: np.ndarray = None) -> ScalarField:
    """Zero-flux Laplacian with the bits of ``divergence_fc(gradient_cc(f))``.

    No face pair is formed.  Along each axis the differences ``D`` over the
    interior faces are divided by ``h`` (the gradient there), and a cell
    takes ``(D[i] - D[i-1]) / h`` with the wall faces' zero on either end,
    as the divergence does: ``D[0] - 0`` is ``D[0]`` and ``0 - D[-1]`` is
    computed as written.  The first axis goes straight into the output, each
    later one into ``term`` and is added: ``term`` may carry a cell-shaped
    scratch array of the caller's, whose contents are overwritten.
    """
    g = f.grid
    data = f.data
    out = np.empty(g.shape)
    if term is None:
        term = np.empty(g.shape)
    for d in range(g.dim):
        s = _axis_slices(d, g.dim)
        dst = out if d == 0 else term
        D = np.subtract(data[s.hi], data[s.lo])
        D /= g.spacing[d]
        np.subtract(D[s.hi], D[s.lo], out=dst[s.mid])
        dst[s.first] = D[s.first]
        np.subtract(0.0, D[s.last], out=dst[s.last])
        del D  # before the next axis allocates its own
        dst /= g.spacing[d]
        if d > 0:
            out += term
    return ScalarField(g, out)


def integrate(f: ScalarField) -> float:
    return float(f.data.sum()) * f.grid.volume_element


def l2_sq(f: ScalarField) -> float:
    """Squared L2 norm of a cell field."""
    return float((f.data * f.data).sum()) * f.grid.volume_element


def vector_inner(U: VectorField, V: VectorField) -> float:
    """Face inner product with the cell volume element as quadrature weight."""
    s = 0.0
    for cu, cv in zip(U.components, V.components):
        s += float((cu * cv).sum())
    return s * U.grid.volume_element


def vector_l2_sq(U: VectorField) -> float:
    return vector_inner(U, U)


# ---------------------------------------------------------------------------
# MAC interpolation helpers shared by the flux and fluid kernels
# ---------------------------------------------------------------------------


def cells_to_faces(data: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Arithmetic mean of the two cells adjacent to each interior face.

    Wall faces receive the adjacent cell value; callers that need zero-flux
    walls zero them afterwards.
    """
    s = _axis_slices(axis, grid.dim)
    out = np.empty(grid.face_shape(axis))
    mid = out[s.mid]
    np.add(data[s.lo], data[s.hi], out=mid)
    mid *= 0.5
    out[s.first] = data[s.first]
    out[s.last] = data[s.last]
    return out


def faces_to_cells(comp: np.ndarray, axis: int) -> np.ndarray:
    """Average the two faces bounding each cell along ``axis``."""
    s = _axis_slices(axis, comp.ndim)
    out = np.add(comp[s.lo], comp[s.hi])
    out *= 0.5
    return out


def face_component_at_faces(
    comp: np.ndarray, grid: Grid, src_axis: int, dst_axis: int
) -> np.ndarray:
    """Interpolate the ``src_axis`` face component to ``dst_axis`` face centers."""
    if src_axis == dst_axis:
        return comp
    at_cells = faces_to_cells(comp, src_axis)
    return cells_to_faces(at_cells, grid, dst_axis)


def upwind_cells_to_faces(
    data: np.ndarray, grid: Grid, axis: int, carrier: np.ndarray
) -> np.ndarray:
    """First-order upwind face state selected by the sign of ``carrier``.

    ``carrier`` lives on the ``axis`` faces; positive values transport from
    the lower-index cell.  Wall faces return 0 (their fluxes are zeroed by
    every caller).
    """
    s = _axis_slices(axis, grid.dim)
    out = np.empty(grid.face_shape(axis))
    _upwind_select(out[s.mid], data, axis, carrier[s.mid] > 0.0)
    return _zero_walls(out, axis)


def _upwind_select(out: np.ndarray, data: np.ndarray, axis: int, upwind: np.ndarray) -> None:
    """Write the upwind cell values of ``data`` into ``out``, the interior
    ``axis`` faces: the lower cell where ``upwind`` is set, the upper one
    elsewhere."""
    s = _axis_slices(axis, data.ndim)
    np.copyto(out, data[s.hi])
    np.copyto(out, data[s.lo], where=upwind)


# ---------------------------------------------------------------------------
# Binary snapshot format
#
# Header: magic "KSSF" | version u32 | dim u32 | N_1..N_dim u32 | L_1..L_dim f64,
# all little-endian, followed by the raw f64 values in x-fastest order.
# Arbitrary array shapes are allowed so staggered components can be stored
# with their own face-dimension sizes.
# ---------------------------------------------------------------------------


def write_field_snapshot(path, data: np.ndarray, extents) -> None:
    data = np.asarray(data, dtype="<f8")
    dim = data.ndim
    extents = tuple(float(L) for L in extents)
    if len(extents) != dim:
        raise ValueError("extents length must match array dimensionality")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", SNAPSHOT_VERSION))
        fh.write(struct.pack("<I", dim))
        fh.write(struct.pack(f"<{dim}I", *data.shape))
        fh.write(struct.pack(f"<{dim}d", *extents))
        # x-fastest order: first axis varies fastest
        fh.write(data.flatten(order="F").tobytes())


def read_field_snapshot(path):
    """Read a snapshot written by :func:`write_field_snapshot`.

    Returns ``(data, extents)`` with ``data`` shaped as written.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        (dim,) = struct.unpack("<I", fh.read(4))
        shape = struct.unpack(f"<{dim}I", fh.read(4 * dim))
        extents = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        count = int(np.prod(shape))
        raw = np.frombuffer(fh.read(8 * count), dtype="<f8")
        data = raw.reshape(shape, order="F").copy()
    return data, extents
