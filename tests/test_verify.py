"""Design certification and the supporting averaging identities."""

import math
from math import comb

import numpy as np
import pytest

from hopfdesign.catalog import equator_curve, explicit_s3_curve, torus_curve
from hopfdesign.curves import PiecewiseCurve, analytic_segment
from hopfdesign.errors import DomainError, NumericError
from hopfdesign.hopf import SpherePoint2, SpherePoint3, fiber_multiply
from hopfdesign.verify import (
    MonomialBasis,
    Polynomial,
    average_exchange_check,
    certify,
    curve_average,
    degree_halving_check,
    design_chain_residual,
    fiber_average,
    polygon_design_check,
    random_polynomial,
    sphere_monomial_average,
    torus_monomial_average,
)
from hopfdesign.verify import _monomial_values, _power_table

from conftest import make_speed_profile_circle


def test_basis_count_and_order():
    basis = MonomialBasis.build(4, 3)
    assert len(basis) == comb(4 + 3, 4) == 35
    assert basis.exponents[0] == (0, 0, 0, 0)
    # Degree-1 block in graded lex: x1 before x2 before x3 before x4.
    assert basis.exponents[1:5] == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert basis.exponents[5] == (2, 0, 0, 0)


def test_sphere_monomial_averages():
    assert sphere_monomial_average((2, 0, 0, 0), 4) == 0.25
    assert sphere_monomial_average((1, 1, 0, 0), 4) == 0.0
    assert sphere_monomial_average((4, 0, 0, 0), 4) == 0.125
    assert sphere_monomial_average((2, 2, 0, 0), 4) == 1.0 / 24.0
    assert sphere_monomial_average((0, 0, 0), 3) == 1.0


def test_sphere_monomial_average_monte_carlo():
    # Chunked Monte Carlo on 10^7 uniform points; 50 random indices within
    # four standard errors, and x1^4 well within three.
    rng = np.random.default_rng(13)
    indices = []
    while len(indices) < 50:
        a = tuple(rng.integers(0, 5, size=4).tolist())
        if sum(a) <= 8:
            indices.append(a)
    total = 10_000_000
    chunk = 500_000
    sums = np.zeros(50)
    sums_sq = np.zeros(50)
    max_pow = max(max(a) for a in indices)
    for _ in range(total // chunk):
        x = rng.normal(size=(chunk, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        table = np.empty((4, chunk, max_pow + 1))
        table[:, :, 0] = 1.0
        for k in range(1, max_pow + 1):
            table[:, :, k] = table[:, :, k - 1] * x.T
        for i, a in enumerate(indices):
            vals = table[0, :, a[0]] * table[1, :, a[1]] * table[2, :, a[2]] * table[3, :, a[3]]
            sums[i] += vals.sum()
            sums_sq[i] += (vals * vals).sum()
    means = sums / total
    std_err = np.sqrt((sums_sq / total - means**2) / total)
    for i, a in enumerate(indices):
        exact = sphere_monomial_average(a, 4)
        assert abs(means[i] - exact) <= 4.0 * max(std_err[i], 1e-12)
        if a == (4, 0, 0, 0):
            assert abs(means[i] - exact) <= 3.0 * std_err[i]


def test_torus_monomial_averages():
    assert torus_monomial_average((2, 0, 0, 0), 2) == 0.5
    assert torus_monomial_average((1, 0, 0, 0), 2) == 0.0
    assert torus_monomial_average((2, 0, 0, 2), 2) == 0.25
    assert torus_monomial_average((2, 2), 1) == 0.125


def test_curve_average_examples():
    assert abs(curve_average(equator_curve(), (0, 0, 0)) - 1.0) < 1e-12
    assert abs(curve_average(explicit_s3_curve(3), (2, 0, 0, 0)) - 0.25) < 1e-10
    assert abs(curve_average(equator_curve(), (1, 0, 0))) < 1e-12


def test_curve_average_reparameterization_invariant():
    warped = make_speed_profile_circle()
    plain = equator_curve()
    for a in ((2, 0, 0), (0, 2, 0), (0, 1, 1), (0, 4, 0)):
        assert abs(curve_average(warped, a) - curve_average(plain, a)) < 1e-9


@pytest.mark.parametrize("t", [2, 3])
def test_certify_explicit_curves(t):
    cert = certify(explicit_s3_curve(t), t, "sphere")
    assert cert.verdict and cert.max_residual < 1e-9


def test_certify_monotone_in_degree():
    for t in (1, 2, 3):
        assert certify(explicit_s3_curve(3), t, "sphere").verdict


def test_certify_explicit_fails_at_next_degree():
    cert = certify(explicit_s3_curve(3), 4, "sphere")
    assert not cert.verdict
    worst_a, worst_r = cert.worst_monomial()
    assert worst_r > 1e-3
    # Direct quadrature oracle: avg of x3^4 = (3/8)/4 along the curve, 1/8 on S^3.
    assert abs(curve_average(explicit_s3_curve(3), (0, 0, 4, 0)) - 3.0 / 32.0) < 1e-10
    assert abs(sphere_monomial_average((0, 0, 4, 0), 4) - 4.0 / 32.0) < 1e-15


@pytest.mark.parametrize("t", [1, 2, 3])
def test_certify_stitched_curves(t, stitched_cache):
    cert = certify(stitched_cache(t, 0.0).gamma, t, "sphere")
    assert cert.verdict and cert.max_residual < 1e-8


def test_certify_equator_degree_one():
    cert = certify(equator_curve(), 1, "sphere")
    assert cert.max_residual < 1e-10


def test_certify_space_validation():
    with pytest.raises(DomainError):
        certify(equator_curve(), 2, "torus")  # odd ambient dimension
    with pytest.raises(DomainError):
        certify(equator_curve(), 2, "hyperbolic")


def test_certificate_report_shape():
    cert = certify(explicit_s3_curve(2), 2, "sphere")
    payload = cert.to_dict()
    assert payload["verdict"] == "pass"
    assert len(payload["monomials"]) == comb(4 + 2, 4)
    assert payload["monomials"][0]["exponents"] == [0, 0, 0, 0]


def test_fiber_average_constants():
    one = Polynomial(4, ((0, 0, 0, 0),), (1.0,))
    assert fiber_average(one, SpherePoint2(0.0, 1.0), 7) == 1.0
    # x1^2 + x2^2 is identically 1 on the fiber over (1, 0).
    f = Polynomial(4, ((2, 0, 0, 0), (0, 2, 0, 0)), (1.0, 1.0))
    assert abs(fiber_average(f, SpherePoint2(1.0, 0.0), 11) - 1.0) < 1e-14


def test_fiber_average_trapezoid_exactness():
    rng = np.random.default_rng(14)
    w = SpherePoint2.from_r3(np.array([0.2, -0.5, math.sqrt(1 - 0.04 - 0.25)]))
    f = random_polynomial(4, 3, rng)
    coarse = fiber_average(f, w, 4)
    dense = fiber_average(f, w, 10_000)
    assert abs(coarse - dense) < 1e-12
    for t in range(1, 9):
        g = random_polynomial(4, t, rng)
        assert abs(fiber_average(g, w, t + 1) - fiber_average(g, w, 10_000)) < 1e-12


def test_polygon_design_check_examples():
    one = Polynomial(4, ((0, 0, 0, 0),), (1.0,))
    omega = SpherePoint3(complex(1 / math.sqrt(2)), complex(1 / math.sqrt(2)))
    assert polygon_design_check(omega, 3, one) < 1e-15

    rng = np.random.default_rng(15)
    cubic = random_polynomial(4, 3, rng)
    assert polygon_design_check(omega, 3, cubic) < 1e-12

    rotated = fiber_multiply(omega, complex(math.cos(0.37), math.sin(0.37)))
    a = polygon_design_check(omega, 3, cubic)
    b = polygon_design_check(rotated, 3, cubic)
    assert abs(a - b) < 1e-13


def test_polygon_design_check_degree_guard():
    rng = np.random.default_rng(16)
    f = random_polynomial(4, 4, rng)
    with pytest.raises(DomainError):
        polygon_design_check(SpherePoint3(1.0, 0.0), 3, f)


def test_average_exchange_examples():
    one = Polynomial(4, ((0, 0, 0, 0),), (1.0,))
    assert average_exchange_check(one) < 1e-14
    x1sq = Polynomial(4, ((2, 0, 0, 0),), (1.0,))
    assert average_exchange_check(x1sq) < 1e-12
    rng = np.random.default_rng(17)
    assert average_exchange_check(random_polynomial(4, 6, rng)) < 1e-10


def test_degree_halving_examples():
    one = Polynomial(4, ((0, 0, 0, 0),), (1.0,))
    assert degree_halving_check(4, f=one) < 1e-12
    # |a|^2 - |b|^2 fiber-averages to the base height coordinate exactly.
    height = Polynomial(
        4, ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), (1.0, 1.0, -1.0, -1.0)
    )
    assert degree_halving_check(2, f=height) < 1e-12
    assert degree_halving_check(5, seed=3) < 1e-8


def test_degree_halving_guards():
    with pytest.raises(DomainError):
        degree_halving_check(13)
    rng = np.random.default_rng(18)
    with pytest.raises(DomainError):
        degree_halving_check(2, f=random_polynomial(4, 4, rng))


@pytest.mark.parametrize("t", [2, 3])
def test_design_chain(t, stitched_cache):
    gamma = stitched_cache(t, 0.0).gamma
    alpha = equator_curve()
    rng = np.random.default_rng(19)
    worst = max(
        design_chain_residual(gamma, alpha, random_polynomial(4, t, rng)) for _ in range(5)
    )
    assert worst < 1e-8


@pytest.mark.parametrize("t,d", [(1, 1), (3, 2), (2, 3), (5, 2)])
def test_certify_torus_curves(t, d):
    cert = certify(torus_curve(t, d), t, "torus")
    assert cert.verdict and cert.max_residual < 1e-9
    expect = 2 * math.pi * math.sqrt(sum((t + 1) ** (2 * j) for j in range(d)))
    assert abs(cert.curve_length - expect) < 1e-9 * expect


def test_degree_one_stitching_needs_no_design_input():
    # Fiber averages kill all linear functionals, so stitching any closed
    # curve at degree 1 produces a genuine degree-1 design curve.
    from hopfdesign.catalog import latitude_circle
    from hopfdesign.stitch import stitch_curve

    st = stitch_curve(latitude_circle(math.pi / 3), 1, 0.0)
    cert = certify(st.gamma, 1, "sphere")
    assert cert.verdict and cert.max_residual < 1e-8


def test_non_design_base_fails_at_degree_two():
    from hopfdesign.stitch import stitch_curve
    from conftest import make_figure_eight

    st = stitch_curve(make_figure_eight(), 2, 0.0)
    cert = certify(st.gamma, 2, "sphere")
    assert not cert.verdict
    assert cert.max_residual > 1e-2


@pytest.mark.parametrize(
    "curve,t,space",
    [
        (torus_curve(6, 3), 6, "torus"),  # n = 6
        (explicit_s3_curve(3), 3, "sphere"),  # n = 4
        (equator_curve(), 4, "sphere"),  # n = 3: the halves have 2 and 1 coordinates
        (explicit_s3_curve(2), 0, "sphere"),
    ],
)
def test_certify_matches_per_monomial_averages(curve, t, space):
    # The factored moment kernel against one adaptive quadrature per monomial.
    cert = certify(curve, t, space)
    for a, avg in zip(cert.exponents, cert.curve_averages):
        assert abs(avg - curve_average(curve, a)) < 1e-13, a


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_polynomial_call_matches_term_sum(n):
    rng = np.random.default_rng(20 + n)
    # 1100 rows span three kernel blocks.
    points = rng.uniform(-1.2, 1.2, size=(1100, n))
    for degree in range(9):
        basis = MonomialBasis.build(n, degree)
        # A random subset of the basis, with one exponent repeated.
        keep = sorted(rng.choice(len(basis), size=max(1, len(basis) // 2), replace=False))
        exponents = [basis.exponents[i] for i in keep] + [basis.exponents[keep[0]]]
        coeffs = rng.uniform(-1.0, 1.0, size=len(exponents))
        f = Polynomial(n, tuple(exponents), tuple(coeffs.tolist()))
        table = _power_table(points, degree)
        terms = np.stack([c * _monomial_values(table, a) for a, c in zip(exponents, coeffs)])
        scale = np.sum(np.abs(terms), axis=0)
        assert np.all(np.abs(f(points) - terms.sum(axis=0)) <= 1e-12 * scale), degree


def test_certify_torus_residual_stays_at_rounding_level():
    # Guards the kernel's row-block length: longer blocks accumulate more
    # rounding per moment (2048 rows gave 2.2e-15 here, 512 rows 1.3e-15).
    cert = certify(torus_curve(8, 3), 8, "torus")
    assert cert.verdict and cert.max_residual < 2e-15


def test_certify_reports_nodes_evaluated(stitched_cache):
    for curve, t, space in (
        (stitched_cache(2, 0.0).gamma, 2, "sphere"),
        (torus_curve(5, 2), 5, "torus"),
    ):
        cert = certify(curve, t, space)
        levels = cert.settings["refinement_levels"]
        panels = sum(cert.settings["initial_panels"])
        assert cert.settings["nodes"] == 16 * panels * (2**levels - 1)


def test_certify_stops_at_first_non_finite_level():
    def position(s):
        p = np.stack([np.cos(2 * np.pi * s), np.sin(2 * np.pi * s), np.zeros_like(s)], axis=1)
        p[(s > 0.4) & (s < 0.6)] = np.nan
        return p

    def velocity(s):
        return 2 * np.pi * np.stack(
            [-np.sin(2 * np.pi * s), np.cos(2 * np.pi * s), np.zeros_like(s)], axis=1
        )

    curve = PiecewiseCurve([analytic_segment(position, velocity)], ambient_dim=3)
    with pytest.raises(NumericError) as info:
        certify(curve, 2, "sphere")
    assert info.value.diagnostics["levels"] == 1
