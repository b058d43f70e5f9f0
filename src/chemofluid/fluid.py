"""Incompressible flow: projection, Yosida smoothing, and the momentum substep.

The velocity update is a Chorin-style split: explicit convection, buoyancy
and forcing produce a tentative field, a backward-Euler viscous solve
``(I - dt*Lap)^{-1}`` smooths it, and a discrete Helmholtz projection returns
it to the divergence-free subspace.  Because the projection subtracts
``gradient_cc`` of a pressure potential and the divergence is taken by the
same flux-form operator, the post-projection divergence is controlled
directly by the Poisson residual.  The pressure Poisson problem is solved
directly in cosine modes and certified by one residual check.

Every linear solve here is diagonal in one spectral core, ``PoissonSolver``:
the zero-flux cell Laplacian in cosine modes, the no-slip componentwise
Laplacian in sine modes.  The same resolvent ``(I - coef*Lap)^{-1}`` serves
backward-Euler diffusion (``coef = dt``, for n and c in cosine modes and for
u in sine modes) and the Yosida smoothing of the convecting velocity
``(I + eps*A)^{-1} u`` (``coef = eps``, sine modes, then a projection).  The
core holds one basis per axis: an orthonormal matrix on axes of at most
``DENSE_MAX`` cells, where a matrix product costs less than a transform call,
and pocketfft's DCT/DST kernels on longer axes.

The kernels are scipy's compiled pocketfft binding, loaded from its file on
its own (``_load_kernels``): importing the ``scipy.fft`` package would pull in
``scipy.special`` and cost about 27 MiB per process.  scipy stays a
dependency.  The binding is called with the arguments ``scipy.fft`` itself
passes for ``norm="ortho"``, so every result has the same bits as through
``scipy.fft``, which serves as the fallback when the binding cannot be loaded.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    ScalarField,
    VectorField,
    _abs_max,
    _axis_slices,
    _mirror_pad,
    _zero_walls,
    cells_to_faces,
    divergence_fc,
    face_component_at_faces,
    gradient_cc,
    gradient_component,
    vector_l2_sq,
)

__all__ = [
    "SolverFailure",
    "stencil_eigenvalues",
    "separable_eigenvalues",
    "DENSE_MAX",
    "dense_basis",
    "SOLVE_TOL",
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


def _pocketfft_binding():
    """scipy's compiled pocketfft module, loaded from its file without running
    the ``scipy.fft`` package.  ``find_spec`` locates scipy without importing
    it.  The module gets a private name ending in ``.pypocketfft`` (its init
    symbol is ``PyInit_pypocketfft``) and is not registered in
    ``sys.modules``, so a later ``import scipy.fft`` makes its own module."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "pypocketfft" + suffix)
        if os.path.isfile(path):
            name = "chemofluid._kernels.pypocketfft"
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no pypocketfft extension in {folder}")


def _scipy_fft_kernels() -> dict:
    """The kernels' call form on top of the public ``scipy.fft``: what its
    ``dctn``/``dstn`` pass to pocketfft for ``norm="ortho"`` is exactly this
    call, so the bits are the same.  ``inorm`` is always 1 here."""
    import scipy.fft

    def adapter(transform):
        def kernel(a, type, axes, inorm, out, nthreads, ortho):
            return transform(
                a,
                type=type,
                axes=axes,
                norm="ortho",
                overwrite_x=out is a,
                workers=nthreads,
                orthogonalize=ortho,
            )

        return kernel

    return {"dct": adapter(scipy.fft.dctn), "dst": adapter(scipy.fft.dstn)}


def _load_kernels() -> dict:
    """pocketfft's ``dct``/``dst`` as ``kernel(a, type, axes, inorm, out,
    nthreads, ortho)``: the binding itself when it loads and accepts the
    call form ``PoissonSolver.transform`` uses, else ``scipy.fft``."""
    try:
        binding = _pocketfft_binding()
        kernels = {"dct": binding.dct, "dst": binding.dst}
        probe = np.ones((2, 3))
        for kernel in kernels.values():
            kernel(probe, 2, (1,), 1, None, 1, True)
            kernel(probe, 2, (0,), 1, probe, 1, True)
        return kernels
    except (ImportError, AttributeError, TypeError, ValueError, RuntimeError):
        return _scipy_fft_kernels()


# checked once, at import: every transform goes through these two
_KERNELS = _load_kernels()

# Axes of at most this many cells are transformed by a dense orthonormal
# matrix product, longer ones by a pocketfft kernel: up to here the product
# beats pocketfft's fixed cost per call for all three bases (single-thread
# table in CHANGES.md), beyond it the O(N log N) transform wins.
DENSE_MAX = 96

# The three 1-D bases of the spectral core: (pocketfft kernel in _KERNELS,
# forward type, inverse type, points relative to the N cells of the axis).
# Cosine modes of the zero-flux cell Laplacian (DCT-II), sine modes of the
# no-slip Laplacian along a face component's own axis (DST-I, interior faces)
# and half-offset sine modes across it (DST-II).
_BASES = {
    "cosine": ("dct", 2, 3, 0),
    "wall_sine": ("dst", 1, 1, -1),
    "sine": ("dst", 2, 3, 0),
}


def dense_basis(kind: str, N: int) -> np.ndarray:
    """Orthonormal matrix ``M`` of a basis on an axis of ``N`` cells: the
    forward transform along axis 0 is ``M @ x``, the inverse ``M.T @ x``.
    Built by running the kernel on the identity, so that the matrix and the
    transform path share mode order and normalisation."""
    kname, forward, _, extra = _BASES[kind]
    return _KERNELS[kname](np.eye(N + extra), forward, (0,), 1, None, 1, True)


def _outer_sum(tables: list, out: np.ndarray) -> np.ndarray:
    """``(t0 + t1) + t2 ...`` of 1-D tables shaped to broadcast, into ``out``:
    the bits of ``separable_eigenvalues(tables)``.  ``t1`` is copied in first
    and ``t0`` added to it (addition commutes): at 256^2 a broadcast copy and
    an add cost 65 us against 87 us for one broadcast add of two tables."""
    np.copyto(out, tables[1])
    out += tables[0]
    for t in tables[2:]:
        out += t
    return out


def _along_axis(M: np.ndarray, MT: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """``M`` applied to every 1-D line of ``x`` along ``axis`` as one matrix
    product, given also its transpose ``MT`` (C-contiguous, which BLAS takes
    faster than a transposed view): ``x @ MT`` on the last axis, a
    broadcast ``M @ x`` on the one before it, a reshape to ``(N, -1)`` on
    axis 0 of a 3-D field."""
    if axis == x.ndim - 1:
        return x @ MT
    if axis == x.ndim - 2:
        return M @ x
    return (M @ x.reshape(x.shape[0], -1)).reshape(x.shape)


# relative residual below which a Poisson solve is certified
SOLVE_TOL = 1e-10


class PoissonSolver:
    """Direct cosine-transform solve of the cell-centered zero-flux Laplacian.

    Solves ``Lap q = b`` in the mean-zero gauge.  On a uniform box the DCT-II
    diagonalizes the stencil exactly, so a solve is one forward transform, a
    scaling by the inverse eigenvalues (zero at the k = 0 nullspace entry,
    which also drops the mean of ``b``: the compatibility condition), one
    inverse transform and a mean subtraction.  One application of
    ``laplacian_neumann`` then certifies the result: its residual must lie
    below ``SOLVE_TOL * ||b - mean(b)||`` or the solve raises, a NaN residual
    included.  That threshold is floored at the residual's roundoff level
    ``8 eps lambda_max ||q||`` (``lambda_max`` the largest eigenvalue), which
    otherwise outgrows a fixed tolerance like ``N^2``.  A direct solve makes
    no iterations: ``last_iterations`` is 0.

    The solver is also the run's spectral core for the resolvents
    ``(I - coef*Lap)^{-1}``: it holds the 1-D eigenvalue tables, one
    field-sized scratch buffer and one basis per axis and operator, and
    applies the zero-flux resolvent itself (``neumann_resolvent``).  Every
    call forms its spectral table (``1/lambda`` for a solve, ``1 + coef *
    lambda`` for a resolvent) from the 1-D tables into that buffer, and every
    per-call result is a return value: after ``__init__`` no attribute is
    written.  Every transform goes through ``transform``: an axis of at most
    ``DENSE_MAX`` cells is a product with the basis's orthonormal matrix
    (``dense_basis``), a longer one a call of pocketfft's kernel (one ``dct``
    over the long axes for cells, one ``dst`` per long axis for faces) with
    ``workers`` threads.  The thread count never changes a result.
    """

    last_iterations = 0

    def __init__(self, grid: Grid, workers: int = 1):
        self.grid = grid
        self.workers = workers
        axes = list(zip(grid.cells, grid.spacing))
        # the 1-D tables of the spectral core: cosine modes 0..N-1, and sine
        # modes 1..N (DST-II) whose first N-1 entries are the DST-I modes
        cosine = [stencil_eigenvalues(N, h, range(N)) for N, h in axes]
        sine = [stencil_eigenvalues(N, h, range(1, N + 1)) for N, h in axes]
        # rounding is monotone, so the largest eigenvalue is the sum of the
        # tables' largest entries, added in separable_eigenvalues' order
        lam_max = functools.reduce(operator.add, (float(t.max()) for t in cosine))
        self._roundoff = 8.0 * np.finfo(np.float64).eps * lam_max
        # one scratch buffer for every spectral table (no spectrum holds
        # more entries than there are cells), and per operator its tables,
        # shaped to broadcast, its view of that buffer and its transform
        # plan: the cell Laplacian (None) and the no-slip Laplacian of each
        # component
        buffer = np.empty(grid.n_cells)
        matrices = {}  # (kind, N) -> dense basis and its transpose, shared by equal axes
        self._spectra = {}
        self._plans = {}
        for component in (None, *range(grid.dim)):
            tables = cosine if component is None else [
                table[: N - 1] if e == component else table
                for e, (table, N) in enumerate(zip(sine, grid.cells))
            ]
            kinds = [
                "cosine" if component is None else "wall_sine" if e == component else "sine"
                for e in range(grid.dim)
            ]
            shape = tuple(len(t) for t in tables)
            self._spectra[component] = (
                [t.reshape((-1,) + (1,) * (grid.dim - 1 - e)) for e, t in enumerate(tables)],
                buffer[: int(np.prod(shape))].reshape(shape),
            )
            dense, fft = [], []
            for e, (kind, N) in enumerate(zip(kinds, grid.cells)):
                if N <= DENSE_MAX:
                    if (kind, N) not in matrices:
                        M = dense_basis(kind, N)
                        matrices[kind, N] = (M, np.ascontiguousarray(M.T))
                    dense.append((e, matrices[kind, N]))
                elif kind != "cosine":  # faces: one DST per long axis
                    kname, forward, inverse, _ = _BASES[kind]
                    fft.append((_KERNELS[kname], forward, inverse, (e,)))
            long_axes = tuple(e for e, N in enumerate(grid.cells) if N > DENSE_MAX)
            if component is None and long_axes:  # cells: one DCT over the long axes
                kname, forward, inverse, _ = _BASES["cosine"]
                fft.append((_KERNELS[kname], forward, inverse, long_axes))
            self._plans[component] = (dense, fft)

    def transform(
        self, x: np.ndarray, component: int = None, inverse: bool = False, overwrite: bool = False
    ) -> np.ndarray:
        """``x`` into (``inverse=False``) or out of the orthonormal modes of an
        operator: the zero-flux cell Laplacian for ``component=None``, the
        no-slip Laplacian of velocity component ``d`` (on its interior faces)
        otherwise.

        Short axes are matrix products (the inverse uses the transpose), long
        axes kernel calls with ``inorm=1, ortho=True``: the orthonormal
        transform.  ``overwrite`` lets the first transform write into ``x``;
        later ones always reuse their input.
        """
        dense, fft = self._plans[component]
        for axis, (M, MT) in dense:
            x = _along_axis(MT, M, x, axis) if inverse else _along_axis(M, MT, x, axis)
            overwrite = True
        for kernel, forward, backward, axes in fft:
            kind = backward if inverse else forward
            x = kernel(x, kind, axes, 1, x if overwrite else None, self.workers, True)
            overwrite = True
        return x

    def solve(self, b: np.ndarray, abs_target: float = None):
        """``(q, gradient_cc(q), residual)`` with ``Lap q = b`` (mean-zero),
        raising if uncertified.

        The residual must lie below ``SOLVE_TOL * ||b - mean(b)||`` and, when
        ``abs_target`` is given, below that absolute level as well (the
        projection uses it to pin the post-projection divergence); neither
        threshold goes below the roundoff floor ``8 eps lambda_max ||q||``.
        The residual applies ``laplacian_neumann`` as its two halves,
        ``divergence_fc(gradient_cc(q))``, and that gradient is returned for a
        projection to subtract; ``residual`` is relative to
        ``||b - mean(b)||`` (0 for a constant ``b``).  ``b`` is only read; the
        solve drops its reference once ``mean(b) - b`` is formed, so a ``b``
        the caller holds no reference to is freed there.
        """
        b = np.asarray(b, dtype=np.float64)
        rhs = b.mean() - b  # -Lap q = rhs
        del b
        rhs_norm = float(np.sqrt((rhs * rhs).sum()))
        if rhs_norm == 0.0:
            q = np.zeros_like(rhs)
            return q, gradient_cc(ScalarField(self.grid, q)), 0.0
        target = SOLVE_TOL * rhs_norm
        if abs_target is not None:
            target = min(target, abs_target)
        spec = self.transform(rhs)
        spec *= self._inverse_eigenvalues()
        q = self.transform(spec, inverse=True, overwrite=True)
        q -= q.mean()
        grad_q = gradient_cc(ScalarField(self.grid, q))
        r = divergence_fc(grad_q).data
        r += rhs
        res = float(np.sqrt((r * r).sum()))
        # written so that a NaN residual fails too; the floor is only
        # evaluated when the target alone fails
        if not (res <= target or res <= self._roundoff * float(np.sqrt((q * q).sum()))):
            raise SolverFailure("pressure Poisson solve failed its residual check", res / rhs_norm)
        return q, grad_q, res / rhs_norm

    def _inverse_eigenvalues(self) -> np.ndarray:
        """``1 / lambda`` of the zero-flux cell Laplacian's cosine modes, 0 at
        the constant mode: the bits of ``1 / separable_eigenvalues(cosine)``,
        formed into the solver's scratch buffer and valid until its next
        call."""
        tables, out = self._spectra[None]
        _outer_sum(tables, out)
        out.flat[0] = np.inf  # constant nullspace: its coefficient maps to zero
        return np.divide(1.0, out, out=out)

    def resolvent_denominators(self, coef: float, component: int = None) -> np.ndarray:
        """``1 + coef * lambda``: the transform-space denominators of the
        resolvent ``(I - coef*Lap)^{-1}``.

        ``component=None`` takes the zero-flux cell Laplacian (cosine modes),
        an axis ``d`` the no-slip Laplacian of velocity component ``d`` (sine
        modes 1..N-1 along ``d``, 1..N tangentially).  The result is formed
        from the 1-D tables into the solver's scratch buffer and is valid
        until its next call.
        """
        tables, out = self._spectra[component]
        first = coef * tables[0]
        first += 1.0
        return _outer_sum([first] + [coef * t for t in tables[1:]], out)

    def neumann_resolvent(self, data: np.ndarray, coef: float) -> np.ndarray:
        """``(I - coef*Lap)^{-1} data`` with zero-flux walls, overwriting ``data``.

        A forward transform into cosine modes, a division by
        ``resolvent_denominators(coef)`` and the inverse transform.  The
        transforms carry only the deviation from the mean: the mean's
        multiplier is 1, so it is summed from the data (anchored at one cell),
        its mode is zeroed and it is added back afterwards.  A constant field
        comes back exactly, and the cell sum moves only by the roundoff of the
        deviation.
        """
        anchor = float(data.flat[0])
        data -= anchor
        mean = anchor + float(data.sum()) / data.size
        spec = self.transform(data, overwrite=True)
        spec.flat[0] = 0.0
        spec /= self.resolvent_denominators(coef)
        out = self.transform(spec, inverse=True, overwrite=True)
        out += mean
        return out


@dataclass
class FluidParams:
    """Convection strength, Yosida smoothing, and the gravitational potential.

    ``phi`` is fixed for a run; its mean is precomputed here, and each face
    component of its gradient is formed where the buoyancy uses it
    (``gradient_component``), so no face pair is held for the run.
    ``kappa = 0`` is the Stokes limit: convection (and with it the Yosida
    smoothing) is bypassed entirely.
    """

    kappa: float = 0.0
    eps: float = 0.0
    phi: ScalarField = None
    phi_mean: float = field(init=False, default=0.0, repr=False)

    def __post_init__(self):
        if self.phi is not None:
            self.phi.check_finite("phi")
            self.phi_mean = self.phi.mean()


def project_with_potential(w: VectorField, solver: PoissonSolver):
    """Helmholtz projection returning also the potential and the solve's
    relative residual.

    The Poisson residual equals the post-projection divergence (flux-form
    composition is exact), so the solve's certificate checks it below
    ``1e-10 * ||w|| / sqrt(vol)`` in cell-l2, giving
    ``||div(P w)||_L2 <= 1e-10 * ||w||_L2``.  The certificate's residual is
    ``divergence_fc`` of the very ``gradient_cc(q)`` subtracted here: the
    solve hands it over instead of it being computed twice.  ``div(w)`` goes
    to the solve without a name here, so it dies once the solve has formed
    its right-hand side.
    """
    w.check_finite("projection input")
    w_norm = np.sqrt(vector_l2_sq(w))
    abs_target = 1e-10 * w_norm / np.sqrt(w.grid.volume_element)
    q, grad_q, residual = solver.solve(divergence_fc(w).data, abs_target=abs_target)
    comps = [np.subtract(wc, gc, out=gc) for wc, gc in zip(w.components, grad_q.components)]
    return VectorField(w.grid, comps), ScalarField(w.grid, q), residual


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
        lap = np.empty_like(arr)
        term = np.empty_like(arr)
        for e in range(g.dim):
            s = _axis_slices(e, g.dim)
            dst = lap if e == 0 else term  # the first axis goes straight into lap
            if e == d:  # own axis: interior faces only, the walls are pinned
                _zero_walls(dst, e)
                mid = dst[s.mid]
                np.multiply(arr[s.mid], -2.0, out=mid)
                mid += arr[s.hi2]
                mid += arr[s.lo2]
                mid /= g.spacing[e] ** 2
            else:  # the odd ghosts beyond the wall slices are their negatives
                np.multiply(arr, -2.0, out=dst)
                dst[s.lo] += arr[s.hi]
                dst[s.last] -= arr[s.last]
                dst[s.hi] += arr[s.lo]
                dst[s.first] -= arr[s.first]
                dst /= g.spacing[e] ** 2
            if e > 0:
                lap += term
        _zero_walls(lap, d)
        out.append(lap)
    return VectorField(g, out)


def dirichlet_energy(U: VectorField) -> float:
    """Discrete ``integral |grad u|^2``: the no-slip Dirichlet form ``-<u, Lap u>``.

    Summed by parts, with no Laplacian field: along a component's own axis
    the squared differences of all its faces, across it the squared
    differences of neighbouring face lines plus ``2 (first^2 + last^2)`` for
    the odd ghosts beyond the walls, each over ``h^2``.  This equals
    ``-vector_inner(U, laplacian_noslip(U))`` to roundoff provided the wall
    faces of ``U`` are zero, as they are for every no-slip velocity.
    """
    g = U.grid
    total = 0.0
    for d, arr in enumerate(U.components):
        for e in range(g.dim):
            s = _axis_slices(e, g.dim)
            D = np.subtract(arr[s.hi], arr[s.lo])
            D *= D
            part = float(D.sum())
            if e != d:  # the odd ghosts beyond the two walls
                first, last = np.square(arr[s.first]), np.square(arr[s.last])
                part += 2.0 * (float(first.sum()) + float(last.sum()))
            total += part / g.spacing[e] ** 2
    return total * g.volume_element


def convection_upwind(A: VectorField, U: VectorField) -> VectorField:
    """Advective-form upwind transport ``(A . grad) U`` on the staggered grid.

    Along each axis one pass of differences ``D`` serves both sides: the
    backward difference at a face is ``D[lo]``, the forward one ``D[hi]``.
    """
    g = U.grid
    out = []
    for d in range(g.dim):
        arr = U.components[d]
        conv = np.empty_like(arr)
        term = np.empty_like(arr)
        for e in range(g.dim):
            s = _axis_slices(e, g.dim)
            a_e = face_component_at_faces(A.components[e], g, e, d)
            sel = conv if e == 0 else term  # the first axis goes straight into conv
            if e == d:  # own axis: interior faces only, the walls are zeroed below
                D = np.subtract(arr[s.hi], arr[s.lo])
                _zero_walls(sel, e)
                dst, carrier = sel[s.mid], a_e[s.mid]
            else:
                pad = _mirror_pad(arr, e, -1.0)
                D = np.subtract(pad[s.hi], pad[s.lo])
                dst, carrier = sel, a_e
            D /= g.spacing[e]
            np.copyto(dst, D[s.hi])
            np.copyto(dst, D[s.lo], where=carrier > 0.0)
            sel *= a_e
            if e > 0:
                conv += term
        _zero_walls(conv, d)
        out.append(conv)
    return VectorField(g, out)


# ---------------------------------------------------------------------------
# No-slip resolvent and Yosida smoothing
# ---------------------------------------------------------------------------


def diffusion_resolvent(
    U: VectorField, coef: float, solver: PoissonSolver = None, overwrite: bool = False
) -> VectorField:
    """Exact componentwise solve of ``(I - coef*Lap) v = u`` with no-slip walls.

    The staggered no-slip Laplacian is separable: sine modes along the
    component's own axis (DST-I) and half-offset sine modes tangentially
    (DST-II/III pair), so the resolvent is a diagonal scaling in
    ``solver.transform(., d)`` space by ``solver.resolvent_denominators(coef,
    d)``.  Only the interior faces of ``U`` are read; the walls of the result
    are zero.  ``overwrite`` writes the result into ``U``'s own arrays, for a
    caller that owns them; otherwise ``U`` is left unchanged.
    """
    if coef == 0.0:
        return U
    g = U.grid
    if solver is None:
        solver = PoissonSolver(g)
    out = []
    for d in range(g.dim):
        arr = U.components[d]
        mid = _axis_slices(d, g.dim).mid
        # the forward transform reads the caller's array; later ones own theirs
        spec = solver.transform(arr[mid], d)
        spec /= solver.resolvent_denominators(coef, d)
        spec = solver.transform(spec, d, inverse=True, overwrite=True)
        full = arr if overwrite else np.empty_like(arr)
        full[mid] = spec
        del spec  # free this spectrum before the next component allocates its own
        out.append(_zero_walls(full, d))
    return VectorField(g, out)


def yosida_apply(U: VectorField, eps: float, solver: PoissonSolver) -> VectorField:
    """Smoothed transport velocity ``(I + eps*A)^{-1} u``.

    ``eps = 0`` returns the input unchanged.  Otherwise the componentwise
    resolvent is followed by a Helmholtz projection; both stages are
    nonexpansive in the face L2 norm.
    """
    if eps == 0.0:
        return U
    v = diffusion_resolvent(U, eps, solver)
    return helmholtz_project(v, solver)


# ---------------------------------------------------------------------------
# Momentum substep
# ---------------------------------------------------------------------------


def divergence_max(U: VectorField) -> float:
    return _abs_max(divergence_fc(U).data)


def _incompressibility_tolerance(grid: Grid, umax: float, tol: float = 1e-9) -> float:
    """Divergence allowed in a velocity on ``grid`` whose ``max |u|`` is ``umax``."""
    return tol * (1.0 + umax) / min(grid.spacing)


def ns_substep(
    u: VectorField,
    n: ScalarField,
    params: FluidParams,
    dt: float,
    solver: PoissonSolver,
    forcing=None,
    t: float = 0.0,
):
    """One momentum step: explicit convection, buoyancy and forcing, then
    backward-Euler viscosity and the projection.

    ``u* = u + dt (-kappa (Y u . grad) u + (n - n_mean) grad(phi) + f)`` goes
    through the no-slip resolvent ``(I - dt*Lap)^{-1}`` and is projected.  The
    buoyancy's remaining part ``n_mean grad(phi)`` is the exact discrete
    gradient of ``n_mean phi``: the projection would absorb it, but the
    resolvent would first turn it into a spurious wall flow, so it goes to
    the pressure directly.  Returns ``(u_next, P, proj_residual)`` with
    ``P = q / dt + n_mean (phi - mean(phi))``, ``q`` the projection
    potential.  ``forcing``, when given, is a callable
    ``forcing(coords, t, component) -> array`` sampled at face centers
    (manufactured-solution studies).

    A fluid at rest (``max |u| = 0``) has no convective term, so the Yosida
    smoothing and the upwind convection are skipped.  If no buoyancy or
    forcing term is active either, ``u* = 0``: the resolvent and the
    projection could only return zeros, so the step returns ``u = 0``,
    ``P = 0`` and the residual 0, as projecting a zero field does.
    """
    g = u.grid
    umax = u.max_abs()
    if umax == 0.0:
        if params.phi is None and forcing is None:
            return VectorField.zeros(g), ScalarField.zeros(g), 0.0
    elif divergence_max(u) > _incompressibility_tolerance(g, umax):
        raise ValueError(
            f"ns_substep requires a divergence-free input (max div = {divergence_max(u):.3e})"
        )
    convective = params.kappa != 0.0 and umax != 0.0
    if convective:
        conv = convection_upwind(yosida_apply(u, params.eps, solver), u)
    if params.phi is not None:
        # anchored at one cell, so that a constant n has no buoyancy at all
        anchor = float(n.data.flat[0])
        nbar = anchor + float((n.data - anchor).mean())
    if convective or params.phi is not None or forcing is not None:
        comps = []
        for d in range(g.dim):
            # -kappa conv + (n - n_mean) grad(phi) + forcing, accumulated in place
            upd = None
            if convective:
                upd = conv.components[d]
                upd *= -params.kappa
            if params.phi is not None:
                n_face = cells_to_faces(n.data, g, d)
                n_face -= nbar
                n_face *= gradient_component(params.phi.data, g, d)
                upd = n_face if upd is None else np.add(upd, n_face, out=upd)
                # dropped here, or the last component's would live through
                # the viscous solve and the projection
                del n_face
            if forcing is not None:
                f = np.broadcast_to(forcing(g.face_center_mesh(d), t, d), g.face_shape(d))
                upd = f.copy() if upd is None else np.add(upd, f, out=upd)
                del f
            upd *= dt
            upd += u.components[d]
            comps.append(upd)
        # the step owns these arrays, so u* overwrites them: no dead velocity
        # pair stays alive through the projection
        u_star = diffusion_resolvent(VectorField(g, comps), dt, solver, overwrite=True)
    else:  # no explicit term: u* solves from the caller's u, which stays as it is
        u_star = diffusion_resolvent(u, dt, solver)
    u_next, q, proj_residual = project_with_potential(u_star, solver)
    P = q.data
    P /= dt
    if params.phi is not None:
        pot = params.phi.data - params.phi_mean
        pot *= nbar
        P += pot
    return u_next, ScalarField(g, P), proj_residual


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
    if params.phi is not None:
        g = u_prev.grid
        nbar = n.mean()
        forcing = 0.0
        for d in range(g.dim):
            n_face = cells_to_faces(n.data - nbar, g, d)
            n_face *= gradient_component(params.phi.data, g, d)
            forcing += float((n_face * u_prev.components[d]).sum())
        rhs += forcing * g.volume_element
    return abs(rate - rhs)
