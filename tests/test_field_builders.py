"""The closed-form initial fields against their earlier formulas, bit for bit,
and the independence of every scenario's initial arrays."""

import itertools

import numpy as np
import pytest

from chemofluid.grid import ScalarField, VectorField, make_grid
from chemofluid.manufactured import mms_cases, sample_exact_state
from chemofluid.seeded import NormalStream
from chemofluid.verify import default_phi, random_smooth_field, scenario_library, swirl_velocity

GRIDS = {
    "8x8": (2, (1.0, 1.0), (8, 8)),
    "64x64": (2, (1.0, 1.0), (64, 64)),
    "12x20-box": (2, (1.5, 0.7), (12, 20)),
    "6x6x6": (3, (1.0, 1.0, 1.0), (6, 6, 6)),
    "6x10x12-box": (3, (1.0, 2.0, 0.5), (6, 10, 12)),
}
SEEDS = range(5)


@pytest.fixture(params=sorted(GRIDS), ids=sorted(GRIDS))
def grid(request):
    return make_grid(*GRIDS[request.param])


# --- the formulas as they were: one fresh full field per factor --------------


def old_from_function(grid, fn):
    mesh = grid.cell_center_mesh()
    return np.broadcast_to(fn(*mesh), grid.shape).astype(np.float64).copy()


def old_random_smooth_field(grid, rng, amp):
    data = np.zeros(grid.shape)
    mesh = grid.cell_center_mesh()
    modes = [m for m in np.ndindex(*(4,) * grid.dim) if any(mi > 0 for mi in m)]
    for m in modes:
        a = rng.standard_normal()
        term = np.ones(grid.shape)
        for d in range(grid.dim):
            term = term * np.cos(m[d] * np.pi * mesh[d] / grid.extents[d])
        data += a * term
    peak = np.abs(data).max()
    if peak > 0:
        data *= amp / peak
    return data


def old_swirl_velocity(grid, amplitude):
    Lx, Ly = grid.extents[0], grid.extents[1]

    def comp(coords, d):
        x, y = coords[0], coords[1]
        sx2 = np.sin(np.pi * x / Lx) ** 2
        sy2 = np.sin(np.pi * y / Ly) ** 2
        if d == 0:
            out = amplitude * sx2 * np.sin(2 * np.pi * y / Ly)
        elif d == 1:
            out = -amplitude * np.sin(2 * np.pi * x / Lx) * sy2
        else:
            return np.zeros(1)
        if grid.dim == 3:
            out = out * np.cos(np.pi * coords[2] / grid.extents[2])
        return out

    comps = []
    for d in range(grid.dim):
        coords = grid.face_center_mesh(d)
        comps.append(np.broadcast_to(comp(coords, d), grid.face_shape(d)).copy())
    return VectorField(grid, comps).zero_wall_normal().components


def old_default_phi(grid, strength=0.1):
    def fn(*coords):
        out = coords[0] * strength
        for d in range(1, grid.dim):
            out = out + 0.5 * strength * coords[d]
        return out

    return old_from_function(grid, fn)


def assert_same_bits(new, old):
    assert new.flags.c_contiguous and new.dtype == np.float64
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# --- bit-for-bit ------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_random_smooth_field_matches_old_formula(grid, seed):
    new = random_smooth_field(grid, np.random.default_rng(seed), 0.3)
    old = old_random_smooth_field(grid, np.random.default_rng(seed), 0.3)
    assert_same_bits(new.data, old)


def test_random_smooth_field_draws_as_many_numbers(grid):
    rng_new, rng_old = np.random.default_rng(7), np.random.default_rng(7)
    random_smooth_field(grid, rng_new, 1.0)
    old_random_smooth_field(grid, rng_old, 1.0)
    assert rng_new.standard_normal() == rng_old.standard_normal()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_smooth_field_from_the_package_stream_matches_numpy(grid, seed):
    # the scenarios draw from NormalStream; numpy's Generator is the oracle
    rng_new, rng_old = NormalStream(seed), np.random.default_rng(seed)
    new = random_smooth_field(grid, rng_new, 0.3)
    assert_same_bits(new.data, random_smooth_field(grid, rng_old, 0.3).data)
    assert rng_new.standard_normal() == rng_old.standard_normal()


@pytest.mark.parametrize("amplitude", [0.1, 0.2])
def test_swirl_velocity_matches_old_formula(grid, amplitude):
    new = swirl_velocity(grid, amplitude)
    for a, b in zip(new.components, old_swirl_velocity(grid, amplitude)):
        assert_same_bits(a, b)
    assert new.wall_normal_max() == 0.0


@pytest.mark.parametrize("strength", [0.1, 0.35])
def test_default_phi_matches_old_formula(grid, strength):
    assert_same_bits(default_phi(grid, strength).data, old_default_phi(grid, strength))


@pytest.mark.parametrize(
    "fn",
    [
        lambda *c: 2.5,  # a constant: broadcast along every axis
        lambda *c: np.cos(np.pi * c[0]),  # varies along the first axis only
        lambda *c: np.sin(c[-1]),  # along the last axis only
        lambda *c: np.exp(-sum(x * x for x in c)),  # a full field
    ],
    ids=["constant", "first-axis", "last-axis", "full"],
)
def test_from_function_matches_old_formula(grid, fn):
    new = ScalarField.from_function(grid, fn).data
    assert_same_bits(new, old_from_function(grid, fn))
    assert new.flags.writeable and new.base is None


@pytest.mark.parametrize("name", sorted(mms_cases()))
@pytest.mark.parametrize("N", [8, 12])
def test_sample_exact_state_matches_old_formula(name, N):
    case = mms_cases()[name]
    grid = make_grid(2, (1.0, 1.0), (N, N))
    state = sample_exact_state(case, grid, 0.3)
    comps = [
        np.broadcast_to(case.u_exact(*grid.face_center_mesh(d), 0.3, d), grid.face_shape(d)).copy()
        for d in range(grid.dim)
    ]
    for a, b in zip(state.u.components, VectorField(grid, comps).zero_wall_normal().components):
        assert_same_bits(a, b)
    assert_same_bits(state.n.data, old_from_function(grid, lambda x, y: case.n_exact(x, y, 0.3)))


# --- independence -----------------------------------------------------------


def initial_arrays(state):
    return {"n": state.n.data, "c": state.c.data, "P": state.P.data} | {
        f"u{d}": comp for d, comp in enumerate(state.u.components)
    }


@pytest.mark.parametrize("cells", [(8, 8), (6, 6, 6)], ids=["8x8", "6x6x6"])
def test_scenario_initial_fields_are_independent_and_writable(cells):
    lib = scenario_library(cells)
    assert lib
    for name, scenario in lib.items():
        params, state = scenario.build(0)
        for seed in (0, 1):
            built = initial_arrays(scenario.build(seed)[1])
            for label, arr in initial_arrays(scenario.initial(seed)).items():
                assert_same_bits(arr, built[label])
        arrays = initial_arrays(state)
        if params.fluid.phi is not None:
            arrays["phi"] = params.fluid.phi.data
        for label, arr in arrays.items():
            assert arr.flags.writeable, (name, label)
        for (la, a), (lb, b) in itertools.combinations(arrays.items(), 2):
            assert not np.shares_memory(a, b), (name, la, lb)
