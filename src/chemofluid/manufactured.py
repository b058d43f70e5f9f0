"""Manufactured-solution catalogue for convergence verification.

Each case fixes closed-form fields (n*, c*, u*) on the unit square, with u*
built from a stream function so it is solenoidal and no-slip exactly, and
carries the forcing terms that make those fields an exact solution of the
forced equations.  The forcings were derived by hand from the closed forms;
``tests`` cross-check them against high-order numerical differentiation at
random points, so a transcription slip cannot survive.

The fully coupled case runs with the regularization disabled (eps = 0, so the
saturation and cutoff factors are identically one and the smoothed transport
velocity is the velocity itself); that keeps the forcing expressions exact
for the scheme actually stepped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluid import FluidParams
from .grid import Grid, ScalarField, VectorField, l2_sq, make_grid, vector_l2_sq
from .sensitivity import RegularizationParams, SensitivitySpec
from .stepper import SimParams, State

__all__ = ["MmsCase", "mms_cases", "sample_exact_state", "mms_error"]

PI = np.pi


@dataclass(frozen=True)
class MmsCase:
    """A manufactured solution with its induced forcings."""

    name: str
    n_exact: object  # (x, y, t) -> array
    c_exact: object
    u_exact: object  # (x, y, t, component) -> array
    forcing_n: object  # (coords, t) -> array, or None
    forcing_c: object
    forcing_u: object  # (coords, t, component) -> array, or None
    C_S: float
    kappa: float
    eps: float
    alpha: float
    phi_amplitude: float
    T: float
    expected_order: tuple  # (lo, hi) or None when errors sit at roundoff

    def make_params(self, N: int) -> SimParams:
        grid = make_grid(2, (1.0, 1.0), (N, N))
        spec = SensitivitySpec(kind="scalar_saturating", C_S=self.C_S, alpha=self.alpha)
        reg = RegularizationParams(eps=self.eps)
        phi = None
        if self.phi_amplitude != 0.0:
            phi = ScalarField.from_function(
                grid,
                lambda x, y: self.phi_amplitude * np.cos(PI * x) * np.cos(PI * y),
            )
        fluid = FluidParams(kappa=self.kappa, eps=self.eps, phi=phi)
        return SimParams(
            grid=grid,
            sensitivity=spec,
            regularization=reg,
            fluid=fluid,
            T=self.T,
            forcing_n=self.forcing_n,
            forcing_c=self.forcing_c,
            forcing_u=self.forcing_u,
        )

    def initial_state(self, grid: Grid) -> State:
        return sample_exact_state(self, grid, 0.0)


def sample_exact_state(case: MmsCase, grid: Grid, t: float) -> State:
    n = ScalarField.from_function(grid, lambda x, y: case.n_exact(x, y, t))
    c = ScalarField.from_function(grid, lambda x, y: case.c_exact(x, y, t))
    u = VectorField.from_function(grid, lambda d, x, y: case.u_exact(x, y, t, d))
    return State(t=t, n=n, c=c, u=u, P=ScalarField.zeros(grid))


def mms_error(case: MmsCase, state: State) -> float:
    """Combined L2 error of (n, c, u) against the manufactured fields."""
    g = state.n.grid
    exact = sample_exact_state(case, g, state.t)
    en = np.sqrt(l2_sq(ScalarField(g, state.n.data - exact.n.data)))
    ec = np.sqrt(l2_sq(ScalarField(g, state.c.data - exact.c.data)))
    du = VectorField(
        g, [a - b for a, b in zip(state.u.components, exact.u.components)]
    )
    eu = np.sqrt(vector_l2_sq(du))
    return float(en + ec + eu)


# ---------------------------------------------------------------------------
# Case 1: pure diffusion-reaction (no velocity, no chemotaxis) -- second order
# ---------------------------------------------------------------------------

_AN, _AC = 0.5, 0.4


def _diff_n(x, y, t):
    return 1.0 + _AN * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)


def _diff_c(x, y, t):
    return 1.0 + _AC * np.cos(2 * PI * x) * np.cos(PI * y) * np.exp(-t / 2)


def _diff_u(x, y, t, d):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _diff_forcing_n(coords, t):
    x, y = coords[0], coords[1]
    # n_t - lap(n)
    return (-1.0 + 2.0 * PI**2) * _AN * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)


def _diff_forcing_c(coords, t):
    x, y = coords[0], coords[1]
    # c_t - lap(c) + c - n
    mode_c = _AC * np.cos(2 * PI * x) * np.cos(PI * y) * np.exp(-t / 2)
    mode_n = _AN * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)
    return (-0.5 + 5.0 * PI**2 + 1.0) * mode_c - mode_n


# ---------------------------------------------------------------------------
# Case 2: fully coupled (advection + chemotaxis + forced momentum) -- first order
# ---------------------------------------------------------------------------

_BN0, _BN = 1.2, 0.4
_BC0, _BC = 1.0, 0.3
_UAMP = 0.1
_CS_COUPLED = 0.3
_PHI0 = 0.2


def _cpl_n(x, y, t):
    return _BN0 + _BN * np.cos(PI * x) * np.cos(PI * y) * np.exp(-t)


def _cpl_c(x, y, t):
    return _BC0 + _BC * np.cos(PI * x) * np.cos(2 * PI * y) * np.exp(-t / 2)


def _cpl_u(x, y, t, d):
    q = np.exp(-t)
    if d == 0:
        return _UAMP * np.sin(PI * x) ** 2 * np.sin(2 * PI * y) * q
    return -_UAMP * np.sin(2 * PI * x) * np.sin(PI * y) ** 2 * q


def _cpl_n_derivs(x, y, t):
    g = np.exp(-t)
    cc = np.cos(PI * x) * np.cos(PI * y)
    n = _BN0 + _BN * cc * g
    n_t = -_BN * cc * g
    n_x = -_BN * PI * np.sin(PI * x) * np.cos(PI * y) * g
    n_y = -_BN * PI * np.cos(PI * x) * np.sin(PI * y) * g
    lap_n = -2.0 * PI**2 * _BN * cc * g
    return n, n_t, n_x, n_y, lap_n


def _cpl_c_derivs(x, y, t):
    h = np.exp(-t / 2)
    cc = np.cos(PI * x) * np.cos(2 * PI * y)
    c = _BC0 + _BC * cc * h
    c_t = -0.5 * _BC * cc * h
    c_x = -_BC * PI * np.sin(PI * x) * np.cos(2 * PI * y) * h
    c_y = -2.0 * PI * _BC * np.cos(PI * x) * np.sin(2 * PI * y) * h
    lap_c = -5.0 * PI**2 * _BC * cc * h
    return c, c_t, c_x, c_y, lap_c


def _cpl_u_derivs(x, y, t, d):
    """Both components of u*, and component ``d``'s time derivative,
    gradient and Laplacian: ``(ux, uy, u_t, u_x, u_y, lap_u)``."""
    q = np.exp(-t)
    sx, s2x, c2x = np.sin(PI * x), np.sin(2 * PI * x), np.cos(2 * PI * x)
    sy, s2y, c2y = np.sin(PI * y), np.sin(2 * PI * y), np.cos(2 * PI * y)
    ux = _UAMP * sx**2 * s2y * q
    uy = -_UAMP * s2x * sy**2 * q
    if d == 0:
        u_x = _UAMP * PI * s2x * s2y * q
        u_y = 2.0 * PI * _UAMP * sx**2 * c2y * q
        lap_u = 2.0 * PI**2 * _UAMP * (c2x - 2.0 * sx**2) * s2y * q
        return ux, uy, -ux, u_x, u_y, lap_u
    u_x = -2.0 * PI * _UAMP * c2x * sy**2 * q
    u_y = -_UAMP * PI * s2x * s2y * q
    lap_u = 2.0 * PI**2 * _UAMP * s2x * (2.0 * sy**2 - c2y) * q
    return ux, uy, -uy, u_x, u_y, lap_u


def _cpl_forcing_n(coords, t):
    x, y = coords[0], coords[1]
    n, n_t, n_x, n_y, lap_n = _cpl_n_derivs(x, y, t)
    _, _, c_x, c_y, lap_c = _cpl_c_derivs(x, y, t)
    ux = _cpl_u(x, y, t, 0)
    uy = _cpl_u(x, y, t, 1)
    a = _CS_COUPLED * n / (1.0 + n)
    da = _CS_COUPLED / (1.0 + n) ** 2
    div_chemo = da * (n_x * c_x + n_y * c_y) + a * lap_c
    return n_t + ux * n_x + uy * n_y - lap_n + div_chemo


def _cpl_forcing_c(coords, t):
    x, y = coords[0], coords[1]
    n, *_ = _cpl_n_derivs(x, y, t)
    c, c_t, c_x, c_y, lap_c = _cpl_c_derivs(x, y, t)
    ux = _cpl_u(x, y, t, 0)
    uy = _cpl_u(x, y, t, 1)
    return c_t + ux * c_x + uy * c_y - lap_c + c - n


def _cpl_forcing_u(coords, t, d):
    """Momentum forcing of component ``d``: only the fields that ``d`` uses
    are evaluated."""
    x, y = coords[0], coords[1]
    ux, uy, u_t, u_x, u_y, lap_u = _cpl_u_derivs(x, y, t, d)
    cx, cy = np.cos(PI * x), np.cos(PI * y)
    n = _BN0 + _BN * (cx * cy) * np.exp(-t)  # as _cpl_n_derivs forms it
    if d == 0:
        grad_phi = -_PHI0 * PI * np.sin(PI * x) * cy
    else:
        grad_phi = -_PHI0 * PI * cx * np.sin(PI * y)
    return u_t + (ux * u_x + uy * u_y) - lap_u - n * grad_phi


# ---------------------------------------------------------------------------
# Case 3: exact constant steady state -- errors at roundoff, order undefined
# ---------------------------------------------------------------------------


def _steady_n(x, y, t):
    return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), 1.3)


def _steady_u(x, y, t, d):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def mms_cases() -> dict:
    return {
        "diffusion_only": MmsCase(
            name="diffusion_only",
            n_exact=_diff_n,
            c_exact=_diff_c,
            u_exact=_diff_u,
            forcing_n=_diff_forcing_n,
            forcing_c=_diff_forcing_c,
            forcing_u=None,
            C_S=1e-12,
            kappa=0.0,
            eps=0.0,
            alpha=1.0,
            phi_amplitude=0.0,
            T=0.25,
            expected_order=(1.8, 2.2),
        ),
        "coupled": MmsCase(
            name="coupled",
            n_exact=_cpl_n,
            c_exact=_cpl_c,
            u_exact=_cpl_u,
            forcing_n=_cpl_forcing_n,
            forcing_c=_cpl_forcing_c,
            forcing_u=_cpl_forcing_u,
            C_S=_CS_COUPLED,
            kappa=1.0,
            eps=0.0,
            alpha=1.0,
            phi_amplitude=_PHI0,
            T=0.05,
            expected_order=(0.9, None),
        ),
        "exact_steady": MmsCase(
            name="exact_steady",
            n_exact=_steady_n,
            c_exact=_steady_n,
            u_exact=_steady_u,
            forcing_n=None,
            forcing_c=None,
            forcing_u=None,
            C_S=0.5,
            kappa=1.0,
            eps=0.1,
            alpha=1.0,
            phi_amplitude=0.0,
            T=0.02,
            expected_order=None,
        ),
    }
