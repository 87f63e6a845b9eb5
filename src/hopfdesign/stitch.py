"""Assembly of degree-t design curves on S^3 from lifted S^2 curves.

The construction runs t+1 compressed copies of the horizontal lift, each
rotated along the fibers: a continuous piecewise-linear phase profile with
slopes of one fixed magnitude absorbs the lift's residual phase, while a
per-copy rotation by a (t+1)-th root of unity (a generator power) closes the
curve.  A kink-offset parameter slides the profile's turn points to shake off
self-intersections once the curve is lengthened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import (
    PiecewiseCurve,
    Segment,
    reparameterize_constant_speed,
    self_intersection_parameters,
)
from .errors import ConstructionError, DomainError, NumericError, SelectionExhaustedError
from .hopf import SpherePoint2, SpherePoint3, fiber_section
from .lift import HolonomyResult, LiftResult, holonomy, horizontal_lift

__all__ = [
    "StitchPlan",
    "PhaseProfile",
    "StitchedCurve",
    "build_plan",
    "build_theta",
    "assemble",
    "select_delta",
    "stitch_curve",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20240901
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class StitchPlan:
    """Everything needed to assemble the stitched curve, as plain numbers."""

    t: int
    epsilon: float
    residual_phase: float  # net fiber phase the profile must accumulate
    slope_magnitude: float  # |slope| of the phase profile
    generator: int
    holonomy_angle: float
    lift_length: float
    partition: tuple[float, ...]  # 0 = s_0 < ... < s_m = 1
    turn_points: tuple[float, ...]  # r_1 .. r_m at the stored offset
    delta: float  # kink offset actually used
    max_offset: float  # upper end of the admissible offset range

    @property
    def copies(self) -> int:
        return self.t + 1


@dataclass(frozen=True)
class PhaseProfile:
    """Continuous piecewise-linear phase with slopes +-slope_magnitude."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        breaks = np.asarray(self.breakpoints)
        i = np.clip(np.searchsorted(breaks, r, side="right") - 1, 0, len(self.slopes) - 1)
        return np.asarray(self.values)[i] + np.asarray(self.slopes)[i] * (r - breaks[i])

    def slope_at(self, interval_index: int) -> float:
        return self.slopes[interval_index]


@dataclass(frozen=True)
class StitchedCurve:
    """Assembled closed curve plus the plan and ingredients that built it."""

    gamma: PiecewiseCurve
    plan: StitchPlan
    theta: PhaseProfile
    lift: LiftResult
    claimed_length: float


def _is_constant_speed(curve: PiecewiseCurve, rel_tol: float = 1e-9) -> bool:
    s = np.linspace(0.0, 1.0, 513)[:-1]
    _, vel = curve.point_velocity(s)
    speeds = np.linalg.norm(vel, axis=1)
    mean = float(np.mean(speeds))
    return mean > 0 and float(np.max(np.abs(speeds - mean))) <= rel_tol * mean


def ensure_constant_speed(curve: PiecewiseCurve) -> PiecewiseCurve:
    return curve if _is_constant_speed(curve) else reparameterize_constant_speed(curve)


def _turn_points(partition, ratio, delta, m):
    points = []
    for j in range(1, m):
        lo, hi = partition[j - 1], partition[j]
        points.append(0.5 * (lo + hi + (hi - lo) * ratio) + delta)
    lo = partition[m - 1]
    points.append(0.5 * (lo + 1.0 + (1.0 - lo) * ratio) - (m - 1) * delta)
    return tuple(points)


def build_plan(
    alpha: PiecewiseCurve,
    t: int,
    epsilon: float,
    lift: LiftResult | None = None,
    start: SpherePoint3 | None = None,
) -> tuple[StitchPlan, LiftResult]:
    """Phases, partition, and offset range for stitching a closed S^2 curve.

    `alpha` is reparameterized to constant speed if needed (which invalidates
    any supplied lift); the lift is computed when not supplied.  Returns the
    plan together with the lift it refers to.
    """
    if t < 1:
        raise DomainError("stitching needs degree t >= 1")
    if epsilon < 0:
        raise DomainError("extra length must be nonnegative")

    alpha_cs = ensure_constant_speed(alpha)
    if alpha_cs is not alpha:
        lift = None
    if lift is None:
        if start is None:
            base0, _ = alpha_cs.point_velocity(0.0)
            start = fiber_section(SpherePoint2.from_r3(base0[0]))
        lift = horizontal_lift(alpha_cs, start)

    hol: HolonomyResult = holonomy(lift, t)
    length = lift.lift_length
    phi = hol.residual_phase
    phi_eps = math.sqrt(
        phi * phi
        + 2.0 * epsilon * math.sqrt(length * length + phi * phi) / (t + 1)
        + (epsilon / (t + 1)) ** 2
    )

    crossings = alpha_cs.declared_self_intersections
    if crossings is None:
        crossings = self_intersection_parameters(alpha_cs, tol=1e-8)
    marks = {0.0, 1.0}
    for a, b in crossings:
        marks.add(float(a))
        marks.add(float(b))
    partition = tuple(sorted(marks))
    m = len(partition) - 1

    ratio = phi / phi_eps if phi_eps > 0 else 0.0
    base_turns = _turn_points(partition, ratio, 0.0, m)
    if m == 1:
        max_offset = 0.0
    else:
        slack = [partition[j] - base_turns[j - 1] for j in range(1, m)]
        slack.append((base_turns[m - 1] - partition[m - 1]) / (m - 1))
        max_offset = max(0.0, min(slack))

    delta = 0.0 if (epsilon == 0.0 or m == 1) else 0.5 * max_offset
    plan = StitchPlan(
        t=t,
        epsilon=float(epsilon),
        residual_phase=phi,
        slope_magnitude=phi_eps,
        generator=hol.generator,
        holonomy_angle=hol.holonomy_angle,
        lift_length=length,
        partition=partition,
        turn_points=_turn_points(partition, ratio, delta, m),
        delta=delta,
        max_offset=max_offset,
    )
    _check_turns(plan)
    return plan, lift


def _check_turns(plan: StitchPlan) -> None:
    for j, r in enumerate(plan.turn_points, start=1):
        lo, hi = plan.partition[j - 1], plan.partition[j]
        if not (lo - 1e-12 <= r <= hi + 1e-12):
            raise NumericError(
                f"turn point {r} escaped its partition cell [{lo}, {hi}]",
                {"delta": plan.delta, "max_offset": plan.max_offset},
            )


def with_offset(plan: StitchPlan) -> StitchPlan:
    """Recompute turn points from the plan's stored offset."""
    m = len(plan.partition) - 1
    ratio = plan.residual_phase / plan.slope_magnitude if plan.slope_magnitude > 0 else 0.0
    updated = replace(plan, turn_points=_turn_points(plan.partition, ratio, plan.delta, m))
    _check_turns(updated)
    return updated


def build_theta(plan: StitchPlan) -> PhaseProfile:
    """Phase profile rising at +slope before each turn point and falling after.

    Ends at the residual phase, so the assembled curve closes.
    """
    phi, phi_eps = plan.residual_phase, plan.slope_magnitude
    if phi_eps == 0.0:
        if abs(phi) > 1e-12:
            raise NumericError("zero slope cannot realize a nonzero residual phase")
        return PhaseProfile(breakpoints=(0.0, 1.0), values=(0.0, 0.0), slopes=(0.0,))

    breaks = [0.0]
    slopes = []
    m = len(plan.partition) - 1
    for j in range(1, m + 1):
        for point, slope in ((plan.turn_points[j - 1], phi_eps), (plan.partition[j], -phi_eps)):
            if point > breaks[-1] + 1e-15:
                breaks.append(point)
                slopes.append(slope)
    breaks[-1] = 1.0
    values = [0.0]
    for i, slope in enumerate(slopes):
        values.append(values[-1] + slope * (breaks[i + 1] - breaks[i]))
    if abs(values[-1] - phi) > 1e-10:
        raise NumericError(
            "phase profile misses the residual phase",
            {"end_value": values[-1], "residual_phase": phi},
        )
    return PhaseProfile(tuple(breaks), tuple(values), tuple(slopes))


def _rotate(points: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Multiply (x1+ix2, x3+ix4) rows by e^{i angle}."""
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty_like(points)
    out[:, 0] = points[:, 0] * c - points[:, 1] * s
    out[:, 1] = points[:, 0] * s + points[:, 1] * c
    out[:, 2] = points[:, 2] * c - points[:, 3] * s
    out[:, 3] = points[:, 2] * s + points[:, 3] * c
    return out


def _times_i(points: np.ndarray) -> np.ndarray:
    out = np.empty_like(points)
    out[:, 0] = -points[:, 1]
    out[:, 1] = points[:, 0]
    out[:, 2] = -points[:, 3]
    out[:, 3] = points[:, 2]
    return out


def assemble(plan: StitchPlan, theta: PhaseProfile, lift: LiftResult) -> StitchedCurve:
    """Concatenate t+1 fiber-rotated copies of the lift into one closed curve."""
    copies = plan.copies
    beta = lift.beta
    g = plan.generator

    r_breaks = sorted(set(np.concatenate([beta.breakpoints, theta.breakpoints])))
    merged = [r_breaks[0]]
    for r in r_breaks[1:]:
        if r > merged[-1] + 1e-15:
            merged.append(r)
    merged[0], merged[-1] = 0.0, 1.0

    segments = []
    for k in range(copies):
        phase_k = _TWO_PI * g * k / copies
        for r_lo, r_hi in zip(merged[:-1], merged[1:]):
            mid = 0.5 * (r_lo + r_hi)
            slope = theta.slopes[
                min(
                    np.searchsorted(np.asarray(theta.breakpoints), mid, side="right") - 1,
                    len(theta.slopes) - 1,
                )
            ]

            def func(s, k=k, phase_k=phase_k, slope=slope):
                r = copies * np.asarray(s, dtype=float) - k
                pos_b, vel_b = beta.point_velocity(r)
                angles = theta(r) + phase_k
                pos = _rotate(pos_b, angles)
                vel = copies * _rotate(vel_b + slope * _times_i(pos_b), angles)
                return pos, vel

            osc = copies * (beta.max_oscillation() + abs(slope) / _TWO_PI + 1.0)
            segments.append(Segment((k + r_lo) / copies, (k + r_hi) / copies, func, oscillation=osc))

    first_pos, _ = segments[0].func(np.array([0.0]))
    last_pos, _ = segments[-1].func(np.array([1.0]))
    gap = float(np.linalg.norm(first_pos - last_pos))
    if gap > 1e-9:
        raise ConstructionError(
            f"stitched curve failed to close (endpoint gap {gap:.3e})", {"gap": gap}
        )

    gamma = PiecewiseCurve(segments, ambient_dim=4, closed=True)
    claimed = copies * math.sqrt(plan.lift_length**2 + plan.residual_phase**2) + plan.epsilon
    return StitchedCurve(gamma=gamma, plan=plan, theta=theta, lift=lift, claimed_length=claimed)


def candidate_parameters(plan: StitchPlan) -> np.ndarray:
    """The finite set of parameters where the assembled curve could self-intersect."""
    copies = plan.copies
    values = sorted(
        {
            math.fmod((s_j + k) / copies, 1.0)
            for s_j in plan.partition
            for k in range(copies)
        }
    )
    out = [values[0]]
    for v in values[1:]:
        if v > out[-1] + 1e-12:
            out.append(v)
    return np.asarray(out)


def _candidate_collisions(curve: PiecewiseCurve, plan: StitchPlan, tol: float = 1e-9):
    params = candidate_parameters(plan)
    pos, _ = curve.point_velocity(params)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    ii, jj = np.where(dist < tol)
    return [(float(params[i]), float(params[j])) for i, j in zip(ii, jj) if i < j]


def select_delta(
    plan: StitchPlan,
    lift: LiftResult,
    theta_builder=build_theta,
    seed: int = DEFAULT_SEED,
    max_draws: int = 32,
) -> StitchedCurve:
    """Assemble with an offset that leaves the curve free of self-intersections.

    Tries the midpoint of the admissible range first, then seeded uniform
    draws; each candidate is screened on the finite collision set and then by
    a global proximity scan.  With epsilon = 0 assembly happens directly at
    offset 0 and no simplicity is promised.
    """
    if plan.epsilon == 0.0:
        zero_plan = with_offset(replace(plan, delta=0.0))
        return assemble(zero_plan, theta_builder(zero_plan), lift)

    if plan.max_offset == 0.0:
        deltas = [0.0]
    else:
        rng = np.random.default_rng(seed)
        draws = plan.max_offset - rng.uniform(0.0, plan.max_offset, size=max_draws)
        deltas = [0.5 * plan.max_offset, *draws.tolist()]

    all_collisions = []
    for delta in deltas:
        candidate_plan = with_offset(replace(plan, delta=float(delta)))
        theta = theta_builder(candidate_plan)
        stitched = assemble(candidate_plan, theta, lift)
        collisions = _candidate_collisions(stitched.gamma, candidate_plan)
        if collisions:
            all_collisions.append((delta, collisions))
            continue
        if self_intersection_parameters(stitched.gamma, tol=1e-9):
            all_collisions.append((delta, "global scan hit"))
            continue
        gamma = stitched.gamma.with_declared_self_intersections([])
        return StitchedCurve(
            gamma=gamma,
            plan=candidate_plan,
            theta=theta,
            lift=lift,
            claimed_length=stitched.claimed_length,
        )
    raise SelectionExhaustedError(
        f"no offset among {len(deltas)} candidates gave a simple curve",
        colliding_pairs=all_collisions,
    )


def stitch_curve(
    alpha: PiecewiseCurve,
    t: int,
    epsilon: float,
    start: SpherePoint3 | None = None,
    seed: int = DEFAULT_SEED,
) -> StitchedCurve:
    """Full pipeline: constant speed, lift, plan, phase profile, assembly."""
    plan, lift = build_plan(alpha, t, epsilon, start=start)
    if epsilon == 0.0:
        return assemble(plan, build_theta(plan), lift)
    return select_delta(plan, lift, seed=seed)
