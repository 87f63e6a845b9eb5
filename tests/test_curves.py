"""Curve model: evaluation, lengths, reparameterization, self-intersections."""

import math

import numpy as np
import pytest

from hopfdesign.catalog import equator_curve, explicit_s3_curve, torus_curve
from hopfdesign.curves import (
    PiecewiseCurve,
    analytic_segment,
    arc_length,
    evaluate,
    hermite_segment,
    reparameterize_constant_speed,
    running_total,
    self_intersection_parameters,
)
from hopfdesign.errors import DegenerateCurveError, DomainError, NumericError

from conftest import make_figure_eight, make_speed_profile_circle


def central_difference(curve, s, h=1e-6):
    lo, _ = curve.point_velocity(s - h)
    hi, _ = curve.point_velocity(s + h)
    return (hi - lo) / (2 * h)


def two_arc_circle(split_angle=math.pi / 2):
    """Unit circle in the plane as two arcs with different parameter speeds.

    Arc 1 covers angle [0, split_angle] on s in [0, 1/2]; arc 2 covers the rest.
    """

    def make(phase_lo, phase_hi, s_lo, s_hi):
        rate = (phase_hi - phase_lo) / (s_hi - s_lo)

        def position(s):
            ang = phase_lo + rate * (s - s_lo)
            return np.stack([np.cos(ang), np.sin(ang), np.zeros_like(s)], axis=1)

        def velocity(s):
            ang = phase_lo + rate * (s - s_lo)
            return np.stack([-rate * np.sin(ang), rate * np.cos(ang), np.zeros_like(s)], axis=1)

        return analytic_segment(position, velocity, s_lo, s_hi)

    return PiecewiseCurve(
        [make(0.0, split_angle, 0.0, 0.5), make(split_angle, 2 * math.pi, 0.5, 1.0)],
        ambient_dim=3,
    )


def test_evaluate_start_and_closure():
    c = equator_curve()
    pos, vel = evaluate(c, 0.0)
    assert np.allclose(pos, [0.0, 1.0, 0.0], atol=1e-15)
    assert abs(np.linalg.norm(vel) - 2 * math.pi) < 1e-12
    end, _ = evaluate(c, 1.0)
    assert np.linalg.norm(end - pos) < 1e-12


def test_evaluate_rejects_out_of_range():
    c = equator_curve()
    with pytest.raises(DomainError):
        evaluate(c, -0.1)
    with pytest.raises(DomainError):
        evaluate(c, 1.1)


def test_velocity_matches_finite_differences():
    rng = np.random.default_rng(10)
    for curve in (equator_curve(), explicit_s3_curve(3), make_figure_eight()):
        for s in rng.uniform(0.05, 0.95, size=8):
            _, vel = curve.point_velocity(s)
            approx = central_difference(curve, s)
            assert np.linalg.norm(vel[0] - approx) <= 1e-6 * max(1.0, np.linalg.norm(vel[0]))


def test_velocity_right_limit_at_breakpoints():
    c = two_arc_circle()
    _, vel = evaluate(c, 0.5)
    # Right limit: second arc's rate is (2 pi - pi/2) / (1/2) = 3 pi.
    assert abs(np.linalg.norm(vel) - 3 * math.pi) < 1e-12


def test_hermite_segment_matches_its_data():
    s = np.linspace(0.0, 1.0, 65)
    pos = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=1)
    vel = 2 * np.pi * np.stack([-np.sin(2 * np.pi * s), np.cos(2 * np.pi * s)], axis=1)
    seg = hermite_segment(s, pos, vel)
    p, v = seg.func(s)
    assert np.allclose(p, pos, atol=1e-14)
    assert np.allclose(v, vel, atol=1e-12)
    mid = np.array([0.015625])
    p, _ = seg.func(mid)
    exact = np.array([[math.cos(2 * math.pi * mid[0]), math.sin(2 * math.pi * mid[0])]])
    assert np.linalg.norm(p - exact) < 1e-6


def test_arc_length_known_values():
    assert abs(arc_length(equator_curve()) - 2 * math.pi) < 1e-10
    assert abs(arc_length(explicit_s3_curve(3)) - math.pi * math.sqrt(20)) < 1e-8
    assert abs(arc_length(torus_curve(3, 2)) - 2 * math.pi * math.sqrt(17)) < 1e-8


def test_arc_length_additive_over_splits():
    whole = equator_curve()
    split = two_arc_circle()  # same image, different segmentation and speeds
    assert abs(arc_length(whole) - arc_length(split)) < 1e-12


def test_running_total_matches_exact_prefix_sums():
    # Reference: math.fsum of every prefix, exact up to the final rounding.
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1e-3, 2000)
    x[0] = math.pi
    exact = np.array([math.fsum(x[: k + 1]) for k in range(x.size)])
    total = running_total(x)
    assert total[0] == 0.0
    assert np.all(np.abs(total[1:] - exact) <= np.spacing(exact))


def test_reparameterize_constant_speed_is_identity_on_circles():
    c = equator_curve()
    cs = reparameterize_constant_speed(c)
    s = np.linspace(0.0, 1.0, 257)
    p0, _ = c.point_velocity(s)
    p1, _ = cs.point_velocity(s)
    assert np.max(np.linalg.norm(p0 - p1, axis=1)) < 1e-10


def test_reparameterize_speed_profile_circle():
    # Oracle: the cumulative arc length of the warped circle inverts to the
    # plain equator, so the reparameterized curve must equal it pointwise.
    warped = make_speed_profile_circle()
    cs = reparameterize_constant_speed(warped)
    s = np.linspace(0.0, 1.0, 513)
    got, vel = cs.point_velocity(s)
    want, _ = equator_curve().point_velocity(s)
    assert np.max(np.linalg.norm(got - want, axis=1)) < 1e-12
    speeds = np.linalg.norm(vel, axis=1)
    assert np.max(np.abs(speeds - 2 * math.pi)) < 1e-6 * 2 * math.pi
    assert abs(arc_length(cs) - arc_length(warped)) < 1e-9 * arc_length(warped)


def test_reparameterize_moves_junction_proportionally():
    c = two_arc_circle(split_angle=math.pi / 2)
    cs = reparameterize_constant_speed(c)
    # Arc 1 is a quarter of the circle, so its junction lands at parameter 1/4.
    assert abs(cs.breakpoints[1] - 0.25) < 1e-12


def test_reparameterize_maps_declared_crossings():
    eight = make_figure_eight().with_declared_self_intersections([(0.0, 0.5)])
    cs = reparameterize_constant_speed(eight)
    pairs = cs.declared_self_intersections
    assert len(pairs) == 1
    a, b = pairs[0]
    pa, _ = cs.point_velocity(a)
    pb, _ = cs.point_velocity(b)
    assert np.linalg.norm(pa - pb) < 1e-9

    # The velocities are the derivative of the positions: 4th-order central differences.
    s = np.linspace(0.01, 0.99, 97)
    h = 1e-6

    def at(x):
        return cs.point_velocity(x)[0]

    approx = (at(s - 2 * h) - 8 * at(s - h) + 8 * at(s + h) - at(s + 2 * h)) / (12 * h)
    _, vel = cs.point_velocity(s)
    rel = np.linalg.norm(vel - approx, axis=1) / np.linalg.norm(vel, axis=1)
    assert np.max(rel) < 1e-8


def test_reparameterize_rejects_degenerate_curve():
    def position(s):
        ang = 2 * np.pi * s**3
        return np.stack([np.zeros_like(s), np.cos(ang), np.sin(ang)], axis=1)

    def velocity(s):
        ang = 2 * np.pi * s**3
        rate = 6 * np.pi * s**2
        return np.stack([np.zeros_like(s), -rate * np.sin(ang), rate * np.cos(ang)], axis=1)

    stalled = PiecewiseCurve([analytic_segment(position, velocity)], 3)
    with pytest.raises(DegenerateCurveError):
        reparameterize_constant_speed(stalled)


def test_reparameterize_raises_when_inverse_does_not_converge():
    # The speed oscillates faster than the arc-length table resolves, so
    # Newton's method cannot meet its tolerance; it must say so.
    def position(s):
        return np.stack([np.zeros_like(s), np.cos(2 * np.pi * s), np.sin(2 * np.pi * s)], axis=1)

    def velocity(s):
        rate = 2 * np.pi * (1.0 + 0.9 * np.sin(1e5 * s))
        return np.stack([np.zeros_like(s), -rate * np.sin(2 * np.pi * s), rate * np.cos(2 * np.pi * s)], axis=1)

    wild = PiecewiseCurve([analytic_segment(position, velocity)], 3)
    with pytest.raises(NumericError) as excinfo:
        reparameterize_constant_speed(wild).point_velocity(np.linspace(0.0, 1.0, 101))
    assert excinfo.value.diagnostics["residual"] > excinfo.value.diagnostics["tol"]


def test_self_intersections_simple_curves_empty():
    assert self_intersection_parameters(equator_curve(), tol=1e-9) == []
    assert self_intersection_parameters(explicit_s3_curve(3), tol=1e-9) == []


def test_self_intersections_figure_eight():
    pairs = self_intersection_parameters(make_figure_eight(), tol=1e-9)
    assert len(pairs) == 1
    a, b = pairs[0]
    assert abs(a - 0.0) < 1e-6 and abs(b - 0.5) < 1e-6


def test_evaluation_is_deterministic():
    c = explicit_s3_curve(3)
    s = np.linspace(0.0, 1.0, 101)
    p1, v1 = c.point_velocity(s)
    p2, v2 = c.point_velocity(s)
    assert np.array_equal(p1, p2) and np.array_equal(v1, v2)


def test_closure_validation():
    def position(s):
        return np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=1)

    def velocity(s):
        return np.stack([np.ones_like(s), np.zeros_like(s), np.zeros_like(s)], axis=1)

    with pytest.raises(DomainError):
        PiecewiseCurve([analytic_segment(position, velocity)], 3)
    PiecewiseCurve([analytic_segment(position, velocity)], 3, closed=False)


def test_quadrature_nonconvergence_diagnostics():
    from hopfdesign.curves import segment_quadrature
    from hopfdesign.errors import NumericError

    def position(s):
        return np.stack([s, np.zeros_like(s)], axis=1)

    def wild_velocity(s):
        # Highly oscillatory speed that two refinement levels cannot resolve.
        return np.stack([np.cos(5000.0 * s) ** 2 + 0.1, np.zeros_like(s)], axis=1)

    seg = analytic_segment(position, wild_velocity, 0.0, 1.0)
    with pytest.raises(NumericError) as excinfo:
        segment_quadrature(seg, lambda s, p, v: np.linalg.norm(v, axis=1), tol=1e-14, max_refinements=2)
    assert "panels" in excinfo.value.diagnostics


def test_arc_length_additive_same_evaluator_split():
    from hopfdesign.curves import Segment

    whole = explicit_s3_curve(3)
    seg = whole.segments[0]
    split = PiecewiseCurve(
        [
            Segment(0.0, 0.37, seg.func, oscillation=seg.oscillation),
            Segment(0.37, 1.0, seg.func, oscillation=seg.oscillation),
        ],
        ambient_dim=4,
    )
    assert abs(arc_length(whole) - arc_length(split)) < 1e-12
