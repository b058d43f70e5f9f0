"""Conservative updates of the cell density n and the chemical c.

Both updates are written in pure flux form, so the cell sum of n is constant
to roundoff at every step, and the cell sum of c obeys the convex-combination
bound ``sum(c_next) = (1-dt) sum(c) + dt sum(n)`` exactly.  Advective and
chemotactic face states are first-order upwinded; diffusion is centered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluid import dirichlet_energy
from .grid import (
    ScalarField,
    VectorField,
    divergence_fc,
    gradient_cc,
    upwind_cells_to_faces,
)
from .sensitivity import (
    RegularizationParams,
    SensitivitySpec,
    _face_drift_components,
)

__all__ = [
    "PositivityError",
    "advective_flux",
    "TransportTerms",
    "transport_terms",
    "step_n",
    "step_c",
    "DissipationRecord",
    "dissipation_integrals",
]

POSITIVITY_SLACK = 1e-12


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


@dataclass(frozen=True)
class TransportTerms:
    """Assembled face fluxes and the reaction source of one coupled step.

    Every flux field carries exactly zero wall faces, which is what makes the
    cell-sum identities exact.
    """

    diffusive_n: VectorField
    chemotactic: VectorField
    advective_n: VectorField
    diffusive_c: VectorField
    advective_c: VectorField
    reaction: ScalarField  # -c + n


def transport_terms(
    n: ScalarField,
    c: ScalarField,
    u: VectorField,
    spec: SensitivitySpec,
    reg: RegularizationParams,
    rho_faces=None,
) -> TransportTerms:
    """Build the named flux bundle (diagnostic view of what the steps use)."""
    from .sensitivity import chemotactic_flux

    return TransportTerms(
        diffusive_n=gradient_cc(n),
        chemotactic=chemotactic_flux(n, c, spec, reg, rho_faces),
        advective_n=advective_flux(n, u),
        diffusive_c=gradient_cc(c),
        advective_c=advective_flux(c, u),
        reaction=ScalarField(n.grid, n.data - c.data),
    )


def _hard_diffusion_limit(grid) -> float:
    return 0.5 / sum(1.0 / h**2 for h in grid.spacing)


def step_n(
    n: ScalarField,
    c: ScalarField,
    u: VectorField,
    spec: SensitivitySpec,
    reg: RegularizationParams,
    dt: float,
    rho_faces=None,
    drift=None,
    forcing=None,
    t: float = 0.0,
    grad_n=None,
) -> ScalarField:
    """Advance n by diffusion, chemotaxis, and advection in flux form.

    ``drift`` may carry precomputed ``(n_up, drift)`` face states from the
    CFL evaluation to avoid recomputing the chemotactic velocity, and
    ``grad_n`` a precomputed ``gradient_cc(n)``.  ``forcing``
    (manufactured solutions) adds ``dt * f(coords, t)`` and intentionally
    breaks mass conservation.
    """
    g = n.grid
    nmax = float(n.data.max(initial=0.0))
    if float(n.data.min()) < -POSITIVITY_SLACK * max(nmax, 1.0):
        raise PositivityError("step_n received negative density", float(n.data.min()))
    if dt > _hard_diffusion_limit(g):
        raise ValueError(f"dt={dt} exceeds the diffusion stability limit")

    if drift is None:
        drift = _face_drift_components(n, c, spec, reg, rho_faces)
    n_up, vel = drift

    flux = gradient_cc(n) if grad_n is None else grad_n
    adv = advective_flux(n, u)
    comps = []
    for d in range(g.dim):  # grad n - n~ drift - n~ u, accumulated in place
        comp = np.multiply(n_up[d], vel[d])
        np.subtract(flux.components[d], comp, out=comp)
        comp -= adv.components[d]
        comps.append(comp)
    data = divergence_fc(VectorField(g, comps)).data
    data *= dt
    data += n.data
    if forcing is not None:
        data += dt * np.broadcast_to(forcing(g.cell_center_mesh(), t), g.shape)
    out = ScalarField(g, data)
    out.check_finite("n")
    if forcing is None:
        mn = float(data.min())
        if mn < -POSITIVITY_SLACK * max(float(data.max()), 1.0):
            raise PositivityError("n lost positivity", mn)
    return out


def step_c(
    c: ScalarField,
    n: ScalarField,
    u: VectorField,
    dt: float,
    forcing=None,
    t: float = 0.0,
    grad_c=None,
) -> ScalarField:
    """Advance c by diffusion, advection, decay, and production by n.

    ``grad_c`` may carry a precomputed ``gradient_cc(c)``.
    """
    g = c.grid
    if dt > _hard_diffusion_limit(g):
        raise ValueError(f"dt={dt} exceeds the diffusion stability limit")
    if dt >= 1.0:
        raise ValueError(f"dt={dt} violates the reaction stability bound dt < 1")

    flux = gradient_cc(c) if grad_c is None else grad_c
    adv = advective_flux(c, u)
    for d in range(g.dim):  # grad c - c~ u, in place
        np.subtract(flux.components[d], adv.components[d], out=adv.components[d])
    data = divergence_fc(adv).data
    data -= c.data
    data += n.data
    data *= dt
    data += c.data
    if forcing is not None:
        data += dt * np.broadcast_to(forcing(g.cell_center_mesh(), t), g.shape)
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
    grad_n=None,
    grad_c=None,
    lap_u=None,
) -> DissipationRecord:
    """Quadratic gradient functionals driving the decay estimates.

    ``D_n`` weights the face gradient of n by the arithmetic face mean raised
    to ``2*alpha - 2`` (the exponent vanishes at alpha = 1, where the weight
    is identically one, including at n = 0).  ``D_c`` is the plain face
    Dirichlet sum and ``D_u`` the no-slip Dirichlet form of the velocity.
    ``grad_n``, ``grad_c`` and ``lap_u`` may carry the precomputed
    ``gradient_cc(n)``, ``gradient_cc(c)`` and ``laplacian_noslip(u)``.
    """
    g = n.grid
    vol = g.volume_element
    expo = 2.0 * alpha - 2.0
    gn = gradient_cc(n) if grad_n is None else grad_n
    D_n = 0.0
    for d in range(g.dim):
        gd = gn.components[d]
        if expo == 0.0:
            w = 1.0
        else:
            from .grid import cells_to_faces

            n_face = np.maximum(cells_to_faces(n.data, g, d), 0.0)
            w = n_face**expo
        D_n += float((w * gd * gd).sum())
    D_n *= vol
    gc = gradient_cc(c) if grad_c is None else grad_c
    D_c = sum(float((comp * comp).sum()) for comp in gc.components) * vol
    D_u = dirichlet_energy(u, lap_u)
    return DissipationRecord(D_n=D_n, D_c=D_c, D_u=max(D_u, 0.0))
