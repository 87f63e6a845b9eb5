"""Horizontal lifts: closed forms, holonomy, generators, enclosed area."""

import cmath
import math
import warnings

import numpy as np
import pytest

from hopfdesign.catalog import equator_curve, latitude_circle
from hopfdesign.curves import PiecewiseCurve, analytic_segment, arc_length
from hopfdesign.errors import DomainError, NumericError
from hopfdesign.hopf import (
    SpherePoint2,
    SpherePoint3,
    fiber_multiply,
    fiber_section,
    principal_angle,
)
from hopfdesign.lift import (
    enclosed_area_check,
    generator_bound,
    generators,
    holonomy,
    horizontal_lift,
)

from conftest import make_figure_eight, section_start

ROOT2 = math.sqrt(2.0)


def as_complex_pairs(points):
    return points[:, 0] + 1j * points[:, 1], points[:, 2] + 1j * points[:, 3]


def test_equator_lift_matches_closed_form(equator_lift):
    # The horizontality condition solved by hand: (e^{i pi r}, e^{-i pi r})/sqrt(2).
    s = np.linspace(0.0, 1.0, 10001)
    pos, vel = equator_lift.beta.point_velocity(s)
    a, b = as_complex_pairs(pos)
    assert np.max(np.abs(a - np.exp(1j * math.pi * s) / ROOT2)) < 1e-8
    assert np.max(np.abs(b - np.exp(-1j * math.pi * s) / ROOT2)) < 1e-8

    da, db = as_complex_pairs(vel)
    defect = np.abs((da * np.conj(a) + db * np.conj(b)).imag)
    assert np.max(defect) < 1e-8


def test_equator_lift_projects_back(equator, equator_lift):
    s = np.linspace(0.0, 1.0, 10001)
    pos, _ = equator_lift.beta.point_velocity(s)
    base, _ = equator.point_velocity(s)
    a, b = as_complex_pairs(pos)
    xi = np.abs(a) ** 2 - np.abs(b) ** 2
    eta = 2.0 * a * np.conj(b)
    gap = np.sqrt(
        (xi - base[:, 0]) ** 2
        + (eta.real - base[:, 1]) ** 2
        + (eta.imag - base[:, 2]) ** 2
    )
    assert np.max(gap) < 1e-8


def test_latitude_lift_matches_closed_form():
    # In the section frame the phase obeys psi' = pi (1 - cos(polar)).
    polar = 1.1
    alpha = latitude_circle(polar)
    lift = horizontal_lift(alpha, section_start(alpha))
    c = math.cos(polar)
    s = np.linspace(0.0, 1.0, 2001)
    pos, _ = lift.beta.point_velocity(s)
    a, b = as_complex_pairs(pos)
    phase = np.exp(1j * math.pi * (1 - c) * s)
    root = math.sqrt(1 + c)
    expect_a = root / ROOT2 * phase
    expect_b = math.sin(polar) / (root * ROOT2) * np.exp(-2j * math.pi * s) * phase
    assert np.max(np.abs(a - expect_a)) < 1e-9
    assert np.max(np.abs(b - expect_b)) < 1e-9


def test_constant_curve_lifts_to_constant():
    w = np.array([0.6, 0.8, 0.0])

    def position(s):
        return np.broadcast_to(w, (s.size, 3)).copy()

    def velocity(s):
        return np.zeros((s.size, 3))

    alpha = PiecewiseCurve([analytic_segment(position, velocity)], 3)
    start = fiber_section(SpherePoint2.from_r3(w))
    lift = horizontal_lift(alpha, start)
    s = np.linspace(0.0, 1.0, 101)
    pos, _ = lift.beta.point_velocity(s)
    assert np.max(np.linalg.norm(pos - start.to_r4(), axis=1)) < 1e-12
    assert lift.lift_length < 1e-12


def test_lift_speed_is_half_base_speed(equator_lift):
    s = np.linspace(0.0, 1.0, 4001)
    _, vel = equator_lift.beta.point_velocity(s)
    speeds = np.linalg.norm(vel, axis=1)
    assert np.max(np.abs(speeds - math.pi)) < 1e-7 * math.pi


def test_lift_length_is_half_base_length():
    for alpha in (equator_curve(), latitude_circle(0.7), latitude_circle(2.2)):
        lift = horizontal_lift(alpha, section_start(alpha))
        expect = arc_length(alpha) / 2.0
        assert abs(lift.lift_length - expect) < 1e-7 * expect


def test_lift_rejects_start_off_fiber(equator):
    with pytest.raises(DomainError):
        horizontal_lift(equator, SpherePoint3(1.0, 0.0))


def test_lift_equivariance(equator, equator_lift):
    theta = 0.8128
    rotated = horizontal_lift(
        equator,
        fiber_multiply(equator_lift.start_point, cmath.exp(1j * theta)),
    )
    s = np.linspace(0.0, 1.0, 1001)
    p0, _ = equator_lift.beta.point_velocity(s)
    p1, _ = rotated.beta.point_velocity(s)
    a0, b0 = as_complex_pairs(p0)
    a1, b1 = as_complex_pairs(p1)
    phase = cmath.exp(1j * theta)
    assert np.max(np.abs(a1 - a0 * phase)) < 1e-8
    assert np.max(np.abs(b1 - b0 * phase)) < 1e-8


def test_holonomy_values(equator_lift):
    h3 = holonomy(equator_lift, 3)
    assert abs(h3.holonomy_angle - math.pi) < 1e-10
    assert abs(abs(h3.residual_phase) - math.pi / 2) < 1e-10
    assert h3.generator == 1

    h2 = holonomy(equator_lift, 2)
    assert abs(abs(h2.residual_phase) - math.pi / 3) < 1e-10
    assert h2.generator == 1


def test_holonomy_consistency_identity(equator_lift):
    for t in range(1, 11):
        h = holonomy(equator_lift, t)
        lhs = cmath.exp(1j * h.residual_phase)
        rhs = cmath.exp(1j * h.holonomy_angle) * cmath.exp(2j * math.pi * h.generator / (t + 1))
        assert abs(lhs - rhs) < 1e-10
        assert math.gcd(h.generator, t + 1) == 1


def test_antipodal_holonomy_cancels_at_degree_one(equator_lift):
    # beta(1) = -beta(0) here, and e^{i pi} e^{i pi} = 1.
    h = holonomy(equator_lift, 1)
    assert abs(h.residual_phase) < 1e-10


def test_generators_examples():
    assert generators(4) == {1, 3}
    assert generators(5) == {1, 2, 3, 4}
    assert generators(6) == {1, 5}
    with pytest.raises(DomainError):
        generators(1)


def test_generator_bound_values():
    assert abs(generator_bound(3) - math.pi / 2) < 1e-15
    assert abs(generator_bound(4) - 2 * math.pi / 5) < 1e-15
    assert abs(generator_bound(6) - 2 * math.pi / 7) < 1e-15
    with pytest.raises(DomainError):
        generator_bound(2)


def test_residual_phase_respects_generator_bound():
    curves = [equator_curve(), latitude_circle(0.9), latitude_circle(2.0)]
    lifts = [horizontal_lift(c, section_start(c)) for c in curves]
    for lift in lifts:
        for t in range(3, 13):
            h = holonomy(lift, t)
            assert abs(h.residual_phase) <= generator_bound(t) + 1e-12


def test_enclosed_area_equator(equator, equator_lift):
    assert enclosed_area_check(equator, equator_lift) < 1e-9


@pytest.mark.parametrize("polar", [0.35, 0.8, 1.9, 3.0, 3.13])
def test_enclosed_area_caps(polar):
    # Cap area 2 pi (1 - cos polar); holonomy must sit at minus half of it.
    alpha = latitude_circle(polar)
    lift = horizontal_lift(alpha, section_start(alpha))
    assert enclosed_area_check(alpha, lift) < 1e-6
    angle = holonomy(lift, 3).holonomy_angle
    assert abs(principal_angle(angle + math.pi * (1.0 - math.cos(polar)))) < 1e-12


def test_lift_through_south_pole():
    # The great circle (cos 2 pi s, sin 2 pi s, 0) passes through xi = -1,
    # where the S-chart section is singular; it bounds a hemisphere, so the
    # holonomy is pi.
    def position(s):
        ang = 2 * np.pi * s
        return np.stack([np.cos(ang), np.sin(ang), np.zeros_like(s)], axis=1)

    def velocity(s):
        ang = 2 * np.pi * s
        return 2 * np.pi * np.stack([-np.sin(ang), np.cos(ang), np.zeros_like(s)], axis=1)

    alpha = PiecewiseCurve([analytic_segment(position, velocity)], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lift = horizontal_lift(alpha, section_start(alpha))
        angle = holonomy(lift, 3).holonomy_angle
    s = np.linspace(0.0, 1.0, 10001)
    pos, _ = lift.beta.point_velocity(s)
    base, _ = alpha.point_velocity(s)
    a, b = as_complex_pairs(pos)
    eta = 2.0 * a * np.conj(b)
    projected = np.stack([np.abs(a) ** 2 - np.abs(b) ** 2, eta.real, eta.imag], axis=1)
    assert np.max(np.linalg.norm(projected - base, axis=1)) < 1e-11
    assert abs(principal_angle(angle - math.pi)) < 1e-12


def test_enclosed_area_point_curve():
    w = np.array([0.6, 0.8, 0.0])

    def position(s):
        return np.broadcast_to(w, (s.size, 3)).copy()

    def velocity(s):
        return np.zeros((s.size, 3))

    alpha = PiecewiseCurve(
        [analytic_segment(position, velocity)], 3, declared_self_intersections=[]
    )
    lift = horizontal_lift(alpha, fiber_section(SpherePoint2.from_r3(w)))
    assert enclosed_area_check(alpha, lift) < 1e-12


def test_enclosed_area_rejects_non_simple():
    eight = make_figure_eight()
    lift = horizontal_lift(eight, section_start(eight))
    with pytest.raises(DomainError):
        enclosed_area_check(eight, lift)


def test_figure_eight_lift_projects_back():
    eight = make_figure_eight()
    lift = horizontal_lift(eight, section_start(eight))
    s = np.linspace(0.0, 1.0, 10001)
    pos, vel = lift.beta.point_velocity(s)
    base, base_vel = eight.point_velocity(s)
    a, b = as_complex_pairs(pos)
    xi = np.abs(a) ** 2 - np.abs(b) ** 2
    eta = 2.0 * a * np.conj(b)
    gap = np.sqrt(
        (xi - base[:, 0]) ** 2
        + (eta.real - base[:, 1]) ** 2
        + (eta.imag - base[:, 2]) ** 2
    )
    assert np.max(gap) < 1e-8

    da, db = as_complex_pairs(vel)
    defect = np.abs((da * np.conj(a) + db * np.conj(b)).imag)
    assert np.max(defect) < 1e-8
    speeds = np.sqrt(np.abs(da) ** 2 + np.abs(db) ** 2)
    base_speeds = np.linalg.norm(base_vel, axis=1)
    assert np.max(np.abs(speeds - base_speeds / 2) / (base_speeds / 2)) < 1e-7


def test_lift_step_cap_raises(equator):
    # A velocity field with a jump inside one knot cell: Gauss-Legendre on the
    # knot grid and on its halving disagree, so the lift must give up cleanly.
    kink, slow = 0.37, 0.8
    fast = (1.0 - slow * kink) / (1.0 - kink)

    def warp(s):
        return np.where(s < kink, slow * s, slow * kink + fast * (s - kink))

    def position(s):
        ang = 2 * np.pi * warp(s)
        return np.stack([np.zeros_like(s), np.cos(ang), np.sin(ang)], axis=1)

    def velocity(s):
        rate = 2 * np.pi * np.where(s < kink, slow, fast)
        ang = 2 * np.pi * warp(s)
        return np.stack([np.zeros_like(s), -rate * np.sin(ang), rate * np.cos(ang)], axis=1)

    kinked = PiecewiseCurve([analytic_segment(position, velocity)], 3)
    with pytest.raises(NumericError) as excinfo:
        horizontal_lift(kinked, section_start(kinked))
    assert excinfo.value.diagnostics["phase_error"] > 1e-10
