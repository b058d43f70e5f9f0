"""The step's lean kernels against the formulas they replaced, bit for bit;
the caller's fields left as they were by a projection; and the memory
high-water mark of one full step."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from chemofluid import diagnostics
from chemofluid.fluid import (
    DENSE_MAX,
    FluidParams,
    PoissonSolver,
    convection_upwind,
    helmholtz_project,
    project_with_potential,
)
from chemofluid.grid import (
    ScalarField,
    VectorField,
    _abs_max,
    _axis_slices,
    _mirror_pad,
    _upwind_select,
    _zero_walls,
    divergence_fc,
    face_component_at_faces,
    gradient_cc,
    gradient_component,
    laplacian_neumann,
    make_grid,
)
from chemofluid.sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    WallCutoff,
    _face_drift_components,
    _rotated_gradient,
    rotation_matrix,
)
from chemofluid.stepper import _accuracy_cap, _cfl_parts, advance
from chemofluid.verify import scenario_library

from conftest import random_vector

# 64^2 and 16^3 take the dense bases, 256^2 pocketfft's kernels, the last
# grid one axis of each
GRIDS = {
    "64x64": ((1.0, 1.0), (64, 64)),
    "256x256": ((1.0, 1.0), (256, 256)),
    "16x16x16": ((1.0, 1.0, 1.0), (16, 16, 16)),
    "mixed": ((1.3, 0.7), (DENSE_MAX + 4, 10)),
}


@pytest.fixture(params=sorted(GRIDS), ids=sorted(GRIDS))
def grid(request):
    extents, cells = GRIDS[request.param]
    return make_grid(len(cells), extents, cells)


def assert_same_bits(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# --- the formulas as they were -------------------------------------------------


def old_solve(solver, b):
    """``PoissonSolver.solve`` as it was: the certificate as
    ``divergence_fc(gradient_cc(q))``, the gradient returned with ``q``."""
    rhs = b.mean() - b
    rhs_norm = float(np.sqrt((rhs * rhs).sum()))
    spec = solver.transform(rhs)
    spec *= solver._inverse_eigenvalues()
    q = solver.transform(spec, inverse=True, overwrite=True)
    q -= q.mean()
    grad_q = gradient_cc(ScalarField(solver.grid, q))
    r = divergence_fc(grad_q).data
    r += rhs
    return q, grad_q, float(np.sqrt((r * r).sum())) / rhs_norm


def old_project(w, solver):
    """The projection as it was: ``w - gradient_cc(q)`` with the solve's
    gradient pair."""
    q, grad_q, residual = old_solve(solver, divergence_fc(w).data)
    return [wc - gc for wc, gc in zip(w.components, grad_q.components)], q, residual


def old_face_drift_components(n, c, spec, reg):
    """The drift kernel as it was: ``(n_up, drift)`` face pairs."""
    g = n.grid
    cutoff = WallCutoff(g, reg)
    grad_c = gradient_cc(c) if spec.kind != "scalar_saturating" else None
    if spec.kind == "rotational":
        R = rotation_matrix(g.dim, spec.theta)
    if reg.eps != 0.0:
        q = np.multiply(n.data, reg.eps)
        q += 1.0
        feps = np.multiply(q, q)
        feps *= q
        np.divide(1.0, feps, out=feps)
    n_up_list, drift_list = [], []
    for d in range(g.dim):
        s = _axis_slices(d, g.dim)
        if spec.kind == "rotational":
            sg = _rotated_gradient(grad_c, R, d)
        else:
            sg = gradient_component(c.data, g, d)
        work = cutoff.faces(d)
        drift = np.multiply(work, spec.C_S)
        work *= sg
        upwind = work[s.mid] > 0.0
        n_up = np.empty(g.face_shape(d))
        _upwind_select(n_up[s.mid], n.data, d, upwind)
        _zero_walls(n_up, d)
        np.add(n_up, 1.0, out=work)
        if spec.alpha == 1.0:
            np.divide(1.0, work, out=work)
        else:
            np.power(work, -spec.alpha, out=work)
        drift *= work
        if reg.eps != 0.0:
            _upwind_select(work[s.mid], feps, d, upwind)
            drift *= work
        drift *= sg
        _zero_walls(drift, d)
        n_up_list.append(n_up)
        drift_list.append(drift)
    return n_up_list, drift_list


def old_convection_upwind(A, U):
    """``convection_upwind`` as it was: the differences across an axis taken
    on a mirror-padded copy with odd ghosts."""
    g = U.grid
    out = []
    for d in range(g.dim):
        arr = U.components[d]
        conv = np.empty_like(arr)
        term = np.empty_like(arr)
        for e in range(g.dim):
            s = _axis_slices(e, g.dim)
            a_e = face_component_at_faces(A.components[e], g, e, d)
            sel = conv if e == 0 else term
            if e == d:
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
    return out


# --- same bits ------------------------------------------------------------------


class TestSameBits:
    def test_solve_certificate_equals_the_composition(self, grid, rng):
        solver = PoissonSolver(grid)
        for _ in range(4):  # one solver: its scratch buffer carries over
            b = rng.standard_normal(grid.shape)
            q, residual = solver.solve(b)
            q_old, _, residual_old = old_solve(PoissonSolver(grid), b)
            assert q.tobytes() == q_old.tobytes()
            assert residual == residual_old

    def test_laplacian_equals_the_composition(self, grid, rng):
        # rounded data: equal neighbours give zero differences, so the
        # signs of zero are compared too
        f = ScalarField(grid, np.round(rng.standard_normal(grid.shape)))
        old = divergence_fc(gradient_cc(f)).data
        scratch = np.full(grid.shape, np.nan)
        for lap in (laplacian_neumann(f), laplacian_neumann(f, term=scratch)):
            assert lap.data.tobytes() == old.tobytes()

    def test_projection_equals_w_minus_the_gradient(self, grid, rng):
        w = random_vector(grid, rng)
        u, q, residual = project_with_potential(w, PoissonSolver(grid))
        comps, q_old, residual_old = old_project(w, PoissonSolver(grid))
        assert_same_bits(u.components, comps)
        assert q.data.tobytes() == q_old.tobytes()
        assert residual == residual_old

    @pytest.mark.parametrize("kind", ["scalar_saturating", "rotational"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_drift_flux_equals_n_up_times_drift(self, grid, kind, eps, rng):
        n = ScalarField(grid, rng.uniform(0.0, 3.0, grid.shape))
        n.data[rng.uniform(size=grid.shape) < 0.1] = 0.0
        c = ScalarField(grid, rng.uniform(0.0, 2.0, grid.shape))
        spec = SensitivitySpec(kind=kind, C_S=0.7, alpha=1.0, theta=np.pi / 3)
        reg = RegularizationParams(eps=eps)
        flux, vmax = _face_drift_components(n, c, spec, reg)
        n_up, drift = old_face_drift_components(n, c, spec, reg)
        assert_same_bits(flux, [np.multiply(a, v) for a, v in zip(n_up, drift)])
        assert vmax == max(_abs_max(v) for v in drift)

    def test_convection_equals_the_mirror_padded_version(self, grid, rng):
        A = random_vector(grid, rng)
        U = random_vector(grid, rng)
        assert_same_bits(convection_upwind(A, U).components, old_convection_upwind(A, U))


# --- the caller's field -----------------------------------------------------------


class TestCallerFieldsUnchanged:
    def test_helmholtz_project_only_reads_its_input(self, grid, rng):
        w = random_vector(grid, rng)
        before = [c.copy() for c in w.components]
        helmholtz_project(w, PoissonSolver(grid))
        assert_same_bits(w.components, before)

    def test_stokes_eigenvalue_projects_row_views_without_writing(self, monkeypatch):
        real = diagnostics.helmholtz_project
        seen = []

        def checked(U, solver):
            before = [c.copy() for c in U.components]
            out = real(U, solver)
            assert_same_bits(U.components, before)
            seen.append(all(c.base is not None for c in U.components))
            return out

        monkeypatch.setattr(diagnostics, "helmholtz_project", checked)
        diagnostics.stokes_eigenvalue(make_grid(2, (1.0, 1.0), (12, 12)))
        assert seen and all(seen)  # each projection took views of a row block


# --- the step's high-water mark ------------------------------------------------------


def step_peak(cells, kappa):
    """Traced peak of one full step, ``_cfl_parts`` and ``advance``, above the
    state it starts from, in cell fields: ``random_perturbation`` at ``kappa``
    from rest, after two warm-up steps (so that the flow is moving and
    one-time allocations are made)."""
    params, initial = scenario_library(cells)["random_perturbation"].build(1)
    fluid = FluidParams(kappa=kappa, eps=params.fluid.eps, phi=params.fluid.phi)
    params = dataclasses.replace(params, fluid=fluid)
    g = params.grid
    solver = PoissonSolver(g)
    cutoff = WallCutoff(g, params.regularization)
    state = dataclasses.replace(initial, u=VectorField.zeros(g))

    def step(state):
        limit, _, drift = _cfl_parts(state, params, cutoff)
        dt = min(limit, _accuracy_cap(params))
        return advance(state, params, dt, solver, cutoff, drift=drift)[0]

    for _ in range(2):
        state = step(state)
    assert state.u.max_abs() > 0.0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (g.n_cells * 8)


# each bound lies at least a quarter field above the measured peak and below
# the peak of the step that held face pairs and dead temporaries (13.15,
# 16.26, 15.48 and 18.89 fields); measured: 11.00, 12.13, 12.28, 14.73
@pytest.mark.parametrize(
    "cells, kappa, bound",
    [
        ((64, 64), 0.0, 11.5),
        ((64, 64), 1.0, 12.75),
        ((16, 16, 16), 0.0, 12.75),
        ((16, 16, 16), 1.0, 15.25),
    ],
    ids=["64x64-stokes", "64x64-convective", "16x16x16-stokes", "16x16x16-convective"],
)
def test_step_high_water_mark(cells, kappa, bound):
    assert step_peak(cells, kappa) <= bound
