"""Conservative updates of the cell density n and the chemical c.

Each update takes its transport (and, for c, the reaction) explicitly in
pure flux form, then its diffusion by backward Euler: the zero-flux resolvent
``(I - dt*Lap)^{-1}``, diagonal in cosine modes, whose mean multiplier is 1.
So the cell sum of n is constant to roundoff at every step, and the cell sum
of c obeys the convex-combination bound ``sum(c_next) = (1-dt) sum(c) +
dt sum(n)`` to roundoff.  Advective and chemotactic face states are
first-order upwinded; the diffusion stencil is centered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluid import PoissonSolver, dirichlet_energy
from .grid import (
    ScalarField,
    VectorField,
    _axis_slices,
    cells_to_faces,
    divergence_fc,
    gradient_cc,
    upwind_cells_to_faces,
)
from .sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    _face_drift_components,
    negative_beyond_slack,
)

__all__ = [
    "PositivityError",
    "advective_flux",
    "step_n",
    "step_c",
    "DissipationRecord",
    "dissipation_integrals",
]


class PositivityError(RuntimeError):
    """A density update produced values below the allowed negative slack."""

    def __init__(self, message: str, min_value: float):
        super().__init__(f"{message} (min = {min_value:.3e})")
        self.min_value = min_value


def advective_flux(q: ScalarField, u: VectorField) -> VectorField:
    """Upwind face flux ``q~ u``; wall faces vanish because u does."""
    g = q.grid
    comps = []
    for d in range(g.dim):
        q_up = upwind_cells_to_faces(q.data, g, d, u.components[d])
        q_up *= u.components[d]
        comps.append(q_up)
    return VectorField(g, comps)


def step_n(
    n: ScalarField,
    c: ScalarField,
    u: VectorField,
    spec: SensitivitySpec,
    reg: RegularizationParams,
    dt: float,
    cutoff=None,
    drift=None,
    forcing=None,
    t: float = 0.0,
    solver: PoissonSolver = None,
) -> ScalarField:
    """Advance n by explicit chemotaxis and advection in flux form, then
    backward-Euler diffusion.

    ``drift`` may carry the ``(flux, vmax)`` pair of
    ``_face_drift_components`` from the CFL evaluation, to avoid recomputing
    the chemotactic flux; the step consumes it: each flux array is added to
    its advective face flux and the list is emptied before the divergence.
    ``cutoff`` may carry the run's ``WallCutoff`` and ``solver`` its spectral
    core for the diffusion resolvent.
    ``forcing`` (manufactured solutions) adds ``dt * f(coords, t)`` and
    intentionally breaks mass conservation.
    """
    g = n.grid
    if negative_beyond_slack(n.data):
        raise PositivityError("step_n received negative density", float(n.data.min()))
    if solver is None:
        solver = PoissonSolver(g)

    if drift is None:
        drift = _face_drift_components(n, c, spec, reg, cutoff)
    flux, _ = drift

    adv = advective_flux(n, u)
    for comp, chemo in zip(adv.components, flux):  # n~ u + the chemotactic flux, in place
        comp += chemo
    del chemo
    flux.clear()  # emptied, not unbound, so that the caller's reference frees it too
    data = divergence_fc(adv).data
    data *= -dt
    data += n.data
    if forcing is not None:
        data += dt * np.broadcast_to(forcing(g.cell_center_mesh(), t), g.shape)
    data = solver.neumann_resolvent(data, dt)
    out = ScalarField(g, data)
    out.check_finite("n")
    if forcing is None and negative_beyond_slack(data):
        raise PositivityError("n lost positivity", float(data.min()))
    return out


def step_c(
    c: ScalarField,
    n: ScalarField,
    u: VectorField,
    dt: float,
    forcing=None,
    t: float = 0.0,
    solver: PoissonSolver = None,
) -> ScalarField:
    """Advance c by explicit advection, decay and production by n, then
    backward-Euler diffusion.

    ``solver`` may carry the run's spectral core for the diffusion resolvent.
    """
    g = c.grid
    if dt >= 1.0:
        raise ValueError(f"dt={dt} violates the reaction stability bound dt < 1")
    if solver is None:
        solver = PoissonSolver(g)

    adv = advective_flux(c, u)
    data = divergence_fc(adv).data
    data += c.data
    data -= n.data
    data *= -dt
    data += c.data
    if forcing is not None:
        data += dt * np.broadcast_to(forcing(g.cell_center_mesh(), t), g.shape)
    data = solver.neumann_resolvent(data, dt)
    out = ScalarField(g, data)
    out.check_finite("c")
    return out


@dataclass(frozen=True)
class DissipationRecord:
    D_n: float
    D_c: float
    D_u: float


def dissipation_integrals(
    n: ScalarField,
    c: ScalarField,
    u: VectorField,
    alpha: float,
    grad_c=None,
) -> DissipationRecord:
    """Quadratic gradient functionals driving the decay estimates.

    ``D_n`` weights the face gradient of n by the arithmetic face mean raised
    to ``2*alpha - 2`` (the exponent vanishes at alpha = 1, where the weight
    is identically one, including at n = 0).  ``D_c`` is the plain face
    Dirichlet sum and ``D_u`` the no-slip Dirichlet form of the velocity
    (``dirichlet_energy``, summed by parts).  ``grad_c`` may carry a
    precomputed ``gradient_cc(c)``.
    """
    g = n.grid
    vol = g.volume_element
    expo = 2.0 * alpha - 2.0
    D_n = 0.0
    if expo == 0.0:  # unit weight: the squared cell differences over h^2
        for d in range(g.dim):
            s = _axis_slices(d, g.dim)
            D = np.subtract(n.data[s.hi], n.data[s.lo])
            D *= D
            D_n += float(D.sum()) / g.spacing[d] ** 2
    else:
        gn = gradient_cc(n)
        for d in range(g.dim):
            gd = gn.components[d]
            w = np.maximum(cells_to_faces(n.data, g, d), 0.0) ** expo
            D_n += float((w * gd * gd).sum())
    D_n *= vol
    gc = gradient_cc(c) if grad_c is None else grad_c
    D_c = sum(float((comp * comp).sum()) for comp in gc.components) * vol
    return DissipationRecord(D_n=D_n, D_c=D_c, D_u=dirichlet_energy(u))
