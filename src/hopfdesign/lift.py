"""Horizontal lifting of S^2 curves to S^3, holonomy, and generator phases.

The horizontal lift has a closed form: over the base curve alpha = (xi, eta)
it is beta = sigma(alpha) e^{i theta}, where sigma is a section of the
fibration and theta integrates the connection form.  Two sections cover S^2:

    S chart, xi >= 0:  sigma   = (sqrt(1+xi), conj(eta)/sqrt(1+xi)) / sqrt(2),
                       theta'  = Im(conj(eta) eta') / (2 (1 + xi));
    N chart, xi < 0:   sigma_N = sigma eta/|eta| = (eta/sqrt(1-xi), sqrt(1-xi)) / sqrt(2),
                       theta'  = -Im(conj(eta) eta') / (2 (1 - xi)).

Each knot of a fixed grid (KNOTS_PER_UNIT per unit parameter) takes the chart
of its sign of xi, each cell that of its left knot; theta gains -+arg(eta)
where the chart switches.  theta is 8-point Gauss-Legendre per cell, checked
against the half-density grid to PHASE_TOL.  The exact knot points and
velocities beta' = (sigma' + i theta' sigma) e^{i theta} form a Hermite curve.

A closed base curve generally lifts to an open curve; the endpoint mismatch
along the fiber is the holonomy, and correcting it by the best (t+1)-th root
of unity drawn from the cyclic group's generators yields the residual phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PiecewiseCurve, arc_length, gauss_cells, hermite_segment, running_total, segment_quadrature
from .errors import DomainError, NumericError
from .hopf import TAU_FIBER, SpherePoint3, fiber_angle, hopf_map, principal_angle

__all__ = [
    "LiftResult",
    "HolonomyResult",
    "horizontal_lift",
    "holonomy",
    "generators",
    "generator_bound",
    "enclosed_area_check",
]

# Knot density of the lift; every segment gets at least 32 knot cells.
KNOTS_PER_UNIT = 4096
# Largest allowed gap between the end phases on the knot grid and on its halving.
PHASE_TOL = 1e-10

_ROOT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LiftResult:
    """Horizontal lift of a closed S^2 curve: open curve on S^3 plus bookkeeping."""

    beta: PiecewiseCurve
    start_point: SpherePoint3
    lift_length: float
    diagnostics: dict


@dataclass(frozen=True)
class HolonomyResult:
    """Fiber phase data of a lift endpoint: raw angle, chosen generator, residual."""

    holonomy_angle: float
    generator: int
    residual_phase: float


def _dtheta(pos, vel, sign):
    """theta' in the S chart (sign +1) or the N chart (sign -1); coordinates on the last axis."""
    twist = pos[..., 1] * vel[..., 2] - pos[..., 2] * vel[..., 1]
    return sign * twist / (2.0 * (1.0 + sign * pos[..., 0]))


def _section(pos, vel, sign):
    """Chart section sigma and its derivative as (k, 2) complex arrays."""
    north = sign < 0
    eta = pos[:, 1] + 1j * pos[:, 2]
    deta = vel[:, 1] + 1j * vel[:, 2]
    zeta = np.where(north, eta, eta.conj())
    dzeta = np.where(north, deta, deta.conj())
    r = np.sqrt(1.0 + sign * pos[:, 0])
    dr = sign * vel[:, 0] / (2.0 * r)
    # S chart (r, zeta/r)/sqrt(2) with zeta = conj(eta); N chart (zeta/r, r)/sqrt(2) with zeta = eta.
    sigma = np.stack([r + 0j, zeta / r], axis=1) / _ROOT2
    dsigma = np.stack([dr + 0j, (dzeta - zeta * dr / r) / r], axis=1) / _ROOT2
    sigma[north], dsigma[north] = sigma[north, ::-1], dsigma[north, ::-1]
    return sigma, dsigma


def _phase(seg, grid, sign, eta):
    """theta at the knots, from 0 at the first; each knot's value is in its own chart."""
    cell_sign = sign[:-1]
    steps = gauss_cells(
        seg.func, grid[:-1], grid[1:], lambda cells, pos, vel: _dtheta(pos, vel, cell_sign[cells, None])
    )
    # theta_S = theta_N + arg(eta) on the overlap of the charts.
    switch = sign[1:] != cell_sign
    steps[switch] += sign[1:][switch] * np.angle(eta[1:][switch])
    return running_total(steps)


def horizontal_lift(alpha: PiecewiseCurve, start: SpherePoint3) -> LiftResult:
    """Lift a closed S^2 curve to the horizontal curve on S^3 through `start`.

    One closed-form pass per segment on the fixed knot grid; raises
    NumericError when theta on the half-density grid differs by more than
    PHASE_TOL at the segment ends (summed over segments).
    """
    if alpha.ambient_dim != 3:
        raise DomainError("horizontal lift expects a curve in R^3")
    base0, _ = alpha.point_velocity(0.0)
    gap = float(np.linalg.norm(hopf_map(start).to_r3() - base0[0]))
    if gap > TAU_FIBER:
        raise DomainError(f"start point lies over base-point gap {gap:.3e}, not on the fiber")

    end = np.array([start.a, start.b])
    phase_error = 0.0
    beta_segments = []
    for seg in alpha.segments:
        cells = 2 * max(16, math.ceil(KNOTS_PER_UNIT / 2 * (seg.s_hi - seg.s_lo)))
        grid = np.linspace(seg.s_lo, seg.s_hi, cells + 1)
        pos, vel = seg.func(grid)
        sign = np.where(pos[:, 0] < 0.0, -1.0, 1.0)
        eta = pos[:, 1] + 1j * pos[:, 2]
        theta = _phase(seg, grid, sign, eta)
        coarse = _phase(seg, grid[::2], sign[::2], eta[::2])
        phase_error += abs(principal_angle(theta[-1] - coarse[-1]))

        sigma, dsigma = _section(pos, vel, sign)
        # The segment starts where the previous one ended: e^{i theta(s_lo)} = <end, sigma>.
        z = np.vdot(sigma[0], end)
        rotation = (z / abs(z) * np.exp(1j * theta))[:, None]
        beta = sigma * rotation
        dbeta = (dsigma + 1j * _dtheta(pos, vel, sign)[:, None] * sigma) * rotation
        # (a, b) complex rows viewed as (Re a, Im a, Re b, Im b).
        beta_segments.append(
            hermite_segment(grid, beta.view(float), dbeta.view(float), oscillation=seg.oscillation)
        )
        end = beta[-1]

    diagnostics = {"knots_per_unit": KNOTS_PER_UNIT, "phase_error": phase_error}
    if not phase_error <= PHASE_TOL:  # NaN fails too
        raise NumericError("lift phase differs between the knot grid and its halving", diagnostics)
    beta = PiecewiseCurve(beta_segments, ambient_dim=4, closed=False)
    return LiftResult(beta=beta, start_point=start, lift_length=arc_length(beta), diagnostics=diagnostics)


def _endpoint(beta: PiecewiseCurve, s: float) -> SpherePoint3:
    pos, _ = beta.point_velocity(s)
    return SpherePoint3.from_r4(pos[0])


def generators(n: int) -> set[int]:
    """Generators of the cyclic group of order n: units modulo n."""
    if n < 2:
        raise DomainError(f"cyclic group order must be at least 2, got {n}")
    return {k for k in range(1, n) if math.gcd(k, n) == 1}


def generator_bound(t: int) -> float:
    """Worst-case residual phase over generator choices, for t > 2.

    The phases reachable by generator corrections are {2 pi g / (t+1)}; the
    residual phase can never exceed half the widest circular gap between
    consecutive reachable phases.  Equals 2 pi / (t+1) whenever t+1 is prime.
    """
    if t <= 2:
        raise DomainError("the generator bound is stated for t > 2")
    gens = sorted(generators(t + 1))
    gaps = [b - a for a, b in zip(gens, gens[1:])]
    gaps.append(gens[0] + (t + 1) - gens[-1])
    return math.pi / (t + 1) * max(gaps)


def holonomy(lift: LiftResult, t: int) -> HolonomyResult:
    """Endpoint fiber angle of the lift and the best generator correction.

    Picks g among the generators of the order-(t+1) cyclic group minimizing
    |holonomy + 2 pi g / (t+1)| reduced to (-pi, pi]; ties (within 1e-9, so
    floating-point noise cannot flip the choice) go to the smallest g.
    """
    if t < 1:
        raise DomainError("degree must be a positive integer")
    beta0 = _endpoint(lift.beta, 0.0)
    beta1 = _endpoint(lift.beta, 1.0)
    angle = fiber_angle(beta1, beta0)
    best_g, best_phase = None, None
    for g in sorted(generators(t + 1)):
        phase = principal_angle(angle + 2.0 * math.pi * g / (t + 1))
        if best_phase is None or abs(phase) < abs(best_phase) - 1e-9:
            best_g, best_phase = g, phase
    return HolonomyResult(holonomy_angle=angle, generator=best_g, residual_phase=best_phase)


def enclosed_area_check(alpha: PiecewiseCurve, lift: LiftResult) -> float:
    """Distance (mod 2 pi) of the lift holonomy from minus half the enclosed area.

    The signed spherical area on the first-pole side of a simple closed curve
    is the line integral of Im(conj(eta) eta') / (1 + xi).
    """
    from .curves import self_intersection_parameters

    crossings = alpha.declared_self_intersections
    if crossings is None:
        crossings = self_intersection_parameters(alpha, tol=1e-7)
    if crossings:
        raise DomainError("enclosed area is defined for simple curves only")

    def integrand(s, pos, vel):
        eta_re, eta_im = pos[:, 1], pos[:, 2]
        deta_re, deta_im = vel[:, 1], vel[:, 2]
        return (eta_re * deta_im - eta_im * deta_re) / (1.0 + pos[:, 0])

    area = sum(
        segment_quadrature(seg, integrand, tol=1e-12, initial_nodes=max(16, math.ceil(4 * seg.oscillation)))
        for seg in alpha.segments
    )
    angle = fiber_angle(_endpoint(lift.beta, 1.0), _endpoint(lift.beta, 0.0))
    return abs(principal_angle(angle + 0.5 * area))
