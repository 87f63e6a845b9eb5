"""The two workloads as lists of cases, and the checks on their outputs.

A case's `run` makes the timed calls into the package; its `check` runs
outside the timed region and returns an `Outcome`.  Every call into a public
function sits in a span named `<module>.<function>`, so a traced pass
(see spans.py) splits each case by layer.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hopfdesign import catalog
from hopfdesign.curve_io import (
    build_curve,
    describe_curve,
    describe_stitched,
    parse_curve,
    serialize_curve,
)
from hopfdesign.curves import PiecewiseCurve, arc_length
from hopfdesign.hopf import SpherePoint3
from hopfdesign.lift import enclosed_area_check, horizontal_lift
from hopfdesign.stitch import (
    assemble,
    build_plan,
    build_theta,
    candidate_parameters,
    ensure_constant_speed,
    select_delta,
    stitch_curve,
)
from hopfdesign.verify import (
    average_exchange_check,
    certify,
    degree_halving_check,
    design_chain_residual,
    polygon_design_check,
    random_polynomial,
)

from inputs import axial_rotation, figure_eight, octahedral_curve, random_rotation, rotate_curve

WORKLOADS = ("construct", "certify")

# Certification cut of the program, and the cut for the benchmark's own
# identity checks: lemma residuals and certificate averages recomputed here.
DESIGN_TOL = 1e-8
IDENTITY_TOL = 1e-10
# Measured and claimed lengths must agree to LENGTH_TOL; the length margin is
# counted from LENGTH_MARGIN_CUT.
LENGTH_TOL = 1e-9
LENGTH_MARGIN_CUT = 1e-8
CLOSURE_TOL = 1e-9
LEMMA_DEGREE = 8
# Certificate averages the benchmark recomputes itself: all of them up to
# CROSS_CHECK_FULL monomials, else a fixed sample.
CROSS_CHECK_FULL = 128
CROSS_CHECK_SAMPLE = 64
_CHUNK = 16384
# Residuals below double-precision round-off are noise: margins count them as
# round-off, which also keeps an exact zero finite.
_FLOOR = float(np.finfo(float).eps)


@dataclass
class Outcome:
    """What the checks of one case found."""

    problems: list[str] = field(default_factory=list)
    design_residuals: list[float] = field(default_factory=list)  # expected-pass certificates
    length_errors: list[float] = field(default_factory=list)  # relative
    identity_residuals: list[float] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def merge(self, other: "Outcome") -> None:
        self.problems += other.problems
        self.design_residuals += other.design_residuals
        self.length_errors += other.length_errors
        self.identity_residuals += other.identity_residuals


@dataclass
class Case:
    name: str
    run: Callable  # tracer -> output, timed
    check: Callable  # output -> Outcome, untimed
    fingerprint: Callable  # output -> tuple; equal fingerprints need no second check


@dataclass
class Workload:
    cases: list[Case]
    setup_outcome: Outcome  # the set-up check, counted as one attempted item


def margin_dec(cut: float, values: list[float]) -> float:
    """Decades by which the worst value stays under the cut."""
    return math.log10(cut / max(max(values), _FLOOR))


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def _dense_averages(curve: PiecewiseCurve, exponents, panels_per_cycle: int = 256, order: int = 20):
    """Normalized line integrals of monomials by a fixed composite Gauss-Legendre rule.

    Independent of the certifier's adaptive rule: another order, panels
    aligned only with the curve's breakpoints, and evaluation through the
    public `point_velocity`.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    powers = np.asarray(exponents)
    top = int(powers.max())
    nodes, weights = [], []
    for seg in curve.segments:
        width = seg.s_hi - seg.s_lo
        panels = max(2, math.ceil(panels_per_cycle * width * max(1.0, seg.oscillation)))
        h = width / panels
        nodes.append((seg.s_lo + h * np.arange(panels)[:, None] + h * x[None, :]).ravel())
        weights.append(np.tile(h * w, panels))
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    num = np.zeros(len(powers))
    length = 0.0
    for lo in range(0, nodes.size, _CHUNK):  # chunks bound the checker's memory
        pos, vel = curve.point_velocity(nodes[lo : lo + _CHUNK])
        wt = weights[lo : lo + _CHUNK] * np.linalg.norm(vel, axis=1)
        length += float(np.sum(wt))
        table = pos[None, :, :] ** np.arange(top + 1)[:, None, None]  # (power, node, coordinate)
        for i, a in enumerate(powers):
            values = table[a[0], :, 0].copy()
            for k in range(1, len(a)):
                values *= table[a[k], :, k]
            num[i] += values @ wt
    return num / length


def check_certificate(
    out: Outcome, label: str, curve: PiecewiseCurve, cert, expect_pass: bool
) -> None:
    """Verdict as expected, and the averages recomputed independently.

    Every average is recomputed when the basis is small; a fixed sample of
    CROSS_CHECK_SAMPLE, chosen from the case label alone, otherwise.
    """
    out.expect(
        cert.verdict == expect_pass,
        f"{label}: verdict {cert.verdict}, expected {expect_pass} (max residual {cert.max_residual:.3e})",
    )
    if expect_pass:
        out.design_residuals.append(cert.max_residual)
    count = len(cert.exponents)
    if count <= CROSS_CHECK_FULL:
        sample = np.arange(count)
    else:
        rng = np.random.default_rng(zlib.crc32(label.encode("utf-8")))
        sample = np.sort(rng.choice(count, size=CROSS_CHECK_SAMPLE, replace=False))
    ours = _dense_averages(curve, [cert.exponents[i] for i in sample])
    theirs = np.asarray(cert.curve_averages)[sample]
    gap = float(np.max(np.abs(ours - theirs)))
    out.identity_residuals.append(gap)
    out.expect(gap < IDENTITY_TOL, f"{label}: certificate averages differ from a dense rule by {gap:.3e}")


def check_length(out: Outcome, label: str, measured: float, reference: float) -> None:
    rel = abs(measured - reference) / reference
    out.length_errors.append(rel)
    out.expect(rel < LENGTH_TOL, f"{label}: length {measured!r} vs {reference!r} (relative {rel:.3e})")


def start_over(alpha: PiecewiseCurve) -> SpherePoint3:
    """A point of S^3 over alpha(0), from the chart away from alpha(0)'s antipode.

    Written out here rather than taken from `hopf.fiber_section`, so that the
    benchmark survives a change of that function's point types.  Any point
    of the fiber gives the same design curve up to a fiber rotation.
    """
    pos, _ = alpha.point_velocity(0.0)
    xi, eta = float(pos[0, 0]), complex(pos[0, 1], pos[0, 2])
    if xi >= 0.0:
        return SpherePoint3(complex(math.sqrt(0.5 * (1.0 + xi))), eta.conjugate() / math.sqrt(2.0 * (1.0 + xi)))
    return SpherePoint3(eta / math.sqrt(2.0 * (1.0 - xi)), complex(math.sqrt(0.5 * (1.0 - xi))))


def traced_certify(tr, curve: PiecewiseCurve, t: int, space: str, trig_nodes_needed: int = 0):
    """`certify` in a span, counting the points it evaluates.

    `trig_nodes_needed` is t * max|winding| + 1 for a single trigonometric
    primitive, the node count of a trapezoid rule exact on the whole basis.
    """
    counted = tr.counted_curve(curve, "pending.points")
    with tr.span("verify.certify"):
        cert = certify(counted, t, space)
    points = tr.take("pending.points")
    tr.count("verify.curve_points", points)
    tr.count("verify.monomial_points", points * len(cert.exponents))
    if trig_nodes_needed:
        tr.count("verify.trig_points", points)
        tr.count("verify.trig_points_needed", trig_nodes_needed)
    return cert


def octahedral_setup_check(alpha: PiecewiseCurve) -> Outcome:
    """The octahedral base must certify on S^2 at degree 3 and fail at degree 4."""
    out = Outcome()
    for degree, expect_pass in ((3, True), (4, False)):
        cert = certify(alpha, degree, "sphere")
        check_certificate(out, f"octahedral base, degree {degree}", alpha, cert, expect_pass)
    return out


# ---------------------------------------------------------------------------
# construct: stitch -> curve file -> verify, as the CLI runs it


@dataclass
class Base:
    """An S^2 base curve and the highest degree it is a design of (-1: none)."""

    name: str
    curve: PiecewiseCurve
    design_degree: int


@dataclass
class ConstructOutput:
    claimed: float
    measured: float
    gamma: PiecewiseCurve
    cert: object


def construct_case(base: Base, t: int, epsilon: float) -> Case:
    label = f"{base.name}-t{t}-eps{epsilon:g}"

    def run(tr) -> ConstructOutput:
        with tr.case(label):
            with tr.span("stitch.ensure_constant_speed"):
                alpha = ensure_constant_speed(base.curve)
            counted = tr.counted_curve(alpha, "lift.base_points")
            with tr.span("lift.horizontal_lift"):
                lift = horizontal_lift(counted, start_over(alpha))
            with tr.span("stitch.build_plan"):
                plan, lift = build_plan(alpha, t, epsilon, lift=lift)
            if epsilon > 0:
                tr.count("stitch.collision_candidates", len(candidate_parameters(plan)))
                with tr.span("stitch.select_delta"):
                    stitched = select_delta(plan, lift)
            else:
                with tr.span("stitch.build_theta"):
                    theta = build_theta(plan)
                with tr.span("stitch.assemble"):
                    stitched = assemble(plan, theta, lift)
            tr.count("stitch.segments", len(stitched.gamma.segments))
            with tr.span("curves.arc_length"):
                measured = arc_length(stitched.gamma)
            with tr.span("curve_io.describe_stitched"):
                desc = describe_stitched(stitched, name=label)
            with tr.span("curve_io.serialize_curve"):
                text = serialize_curve(desc)
            tr.count("curve_io.bytes", len(text.encode("utf-8")))
            with tr.span("curve_io.parse_curve"):
                parsed = parse_curve(text)
            with tr.span("curve_io.build_curve"):
                gamma = build_curve(parsed)
            cert = traced_certify(tr, gamma, t, "sphere")
        return ConstructOutput(stitched.claimed_length, measured, gamma, cert)

    def check(o: ConstructOutput) -> Outcome:
        out = Outcome()
        expect_pass = t // 2 <= base.design_degree
        check_certificate(out, label, o.gamma, o.cert, expect_pass)
        check_length(out, f"{label} measured vs claimed", o.measured, o.claimed)
        if base.name == "equator":
            oracle = math.pi * math.sqrt(2 * t * t + 2)
            check_length(out, f"{label} measured vs pi sqrt(2t^2+2)", o.measured, oracle)
        ends, _ = o.gamma.point_velocity(np.array([0.0, 1.0]))
        gap = float(np.linalg.norm(ends[0] - ends[1]))
        out.expect(gap < CLOSURE_TOL, f"{label}: gamma(0) and gamma(1) differ by {gap:.3e}")
        return out

    def fingerprint(o: ConstructOutput) -> tuple:
        return (o.cert.verdict, o.cert.max_residual, o.cert.curve_averages, o.measured, o.claimed)

    return Case(label, run, check, fingerprint)


def build_construct(seed: int) -> Workload:
    """The CLI flows: stitch -> curve file -> verify, and `hopfdesign lemmas --t 8`.

    Stitching: octahedral x t=4..7 x eps {0, 0.1}, figure-eight x t {3, 5} x
    eps 0.1, equator x t {2, 3} x eps 0.  Lemmas: see `lemma_cases`.
    """
    rng = np.random.default_rng(seed)
    octahedral = Base("octahedral", octahedral_curve(random_rotation(rng)), 3)
    eight = Base("figure-eight", rotate_curve(figure_eight(), random_rotation(rng)), -1)
    equator = Base("equator", rotate_curve(catalog.equator_curve(), random_rotation(rng)), 1)
    plan = [(octahedral, t, eps) for t in (4, 5, 6, 7) for eps in (0.0, 0.1)]
    plan += [(eight, t, 0.1) for t in (3, 5)] + [(equator, t, 0.0) for t in (2, 3)]
    cases = [construct_case(b, t, eps) for b, t, eps in plan]
    cases += lemma_cases(octahedral.curve, rng)
    return Workload(_shuffled(cases, rng), octahedral_setup_check(octahedral.curve))


# ---------------------------------------------------------------------------
# certify: certification alone, on curves as `hopfdesign example` writes them


def _example_file_curve(curve: PiecewiseCurve, label: str) -> PiecewiseCurve:
    """Write the curve as the CLI example command does, and read it back."""
    return build_curve(parse_curve(serialize_curve(describe_curve(curve, name=label))))


def certify_case(
    label: str, curve: PiecewiseCurve, t: int, space: str, expect_pass: bool,
    length: float, trig_nodes_needed: int,
) -> Case:
    def run(tr):
        with tr.case(label):
            return traced_certify(tr, curve, t, space, trig_nodes_needed)

    def check(cert) -> Outcome:
        out = Outcome()
        check_certificate(out, label, curve, cert, expect_pass)
        check_length(out, f"{label} certificate length", cert.curve_length, length)
        if not expect_pass:
            # A real failure, far above quadrature noise.
            out.expect(cert.max_residual > 1e-3, f"{label}: failing residual only {cert.max_residual:.3e}")
        return out

    def fingerprint(cert) -> tuple:
        return (cert.verdict, cert.max_residual, cert.curve_averages, cert.curve_length)

    return Case(label, run, check, fingerprint)


def build_certify(seed: int) -> Workload:
    """Torus t=10 d {2, 3}, torus t=8 d=3, s3-explicit t {2, 3}, octahedral base at 3 and 4."""
    rng = np.random.default_rng(seed)
    octahedral = octahedral_curve(random_rotation(rng))
    specs = []
    for t, d in ((10, 2), (10, 3), (8, 3)):
        windings = [(t + 1) ** (d - 1 - k) for k in range(d)]
        curve = _example_file_curve(catalog.torus_curve(t, d), f"torus-t{t}-d{d}")
        length = 2.0 * math.pi * math.sqrt(sum(n * n for n in windings))
        specs.append((f"torus-t{t}-d{d}", curve, t, "torus", True, length, t * max(windings) + 1))
    for t in (2, 3):
        curve = _example_file_curve(catalog.explicit_s3_curve(t), f"s3-explicit-t{t}")
        length = math.pi * math.sqrt(2 * t * t + 2)
        specs.append((f"s3-explicit-t{t}", curve, t, "sphere", True, length, t * t + 1))
    for t in (3, 4):
        specs.append((f"octahedral-s2-t{t}", octahedral, t, "sphere", t <= 3, 6.0 * math.pi, 0))
    cases = [certify_case(*spec) for spec in specs]
    return Workload(_shuffled(cases, rng), octahedral_setup_check(octahedral))


# ---------------------------------------------------------------------------
# the identity checks behind `hopfdesign lemmas --t 8`, run within construct


def lemma_case(label: str, call: Callable) -> Case:
    """A case whose output is one residual that must stay below IDENTITY_TOL."""

    def run(tr):
        with tr.case(label):
            return call(tr)

    def check(residual: float) -> Outcome:
        out = Outcome(identity_residuals=[residual])
        out.expect(residual < IDENTITY_TOL, f"{label}: residual {residual:.3e}")
        return out

    return Case(label, run, check, lambda residual: (residual,))


def lift_area_case(label: str, alpha: PiecewiseCurve, polar_angle: float) -> Case:
    """Lift plus holonomy-vs-area; the lift length must be half the base length."""

    def run(tr):
        with tr.case(label):
            counted = tr.counted_curve(alpha, "lift.base_points")
            with tr.span("lift.horizontal_lift"):
                lift = horizontal_lift(counted, start_over(alpha))
            with tr.span("lift.enclosed_area_check"):
                residual = enclosed_area_check(alpha, lift)
        return residual, lift.lift_length

    def check(o) -> Outcome:
        residual, lift_length = o
        out = Outcome(identity_residuals=[residual])
        out.expect(residual < IDENTITY_TOL, f"{label}: holonomy vs area residual {residual:.3e}")
        check_length(out, f"{label} lift length", lift_length, math.pi * math.sin(polar_angle))
        return out

    return Case(label, run, check, lambda o: o)


def lemma_cases(octahedral: PiecewiseCurve, rng: np.random.Generator) -> list[Case]:
    """5 polygon checks, 5 exchange checks, degree halving, 2 lift/area, 2 design chains.

    The design chains run on curves stitched from `octahedral` during set-up.
    """
    t = LEMMA_DEGREE
    cases = []
    for i in range(5):
        v = rng.normal(size=4)
        omega = SpherePoint3.from_r4(v / np.linalg.norm(v))
        poly = random_polynomial(4, t, rng)

        def polygon(tr, omega=omega, poly=poly):
            with tr.span("verify.polygon_design_check"):
                return polygon_design_check(omega, t, tr.counted_polynomial(poly))

        cases.append(lemma_case(f"polygon-{i}", polygon))
    for i in range(5):
        poly = random_polynomial(4, t, rng)

        def exchange(tr, poly=poly):
            with tr.span("verify.average_exchange_check"):
                return average_exchange_check(tr.counted_polynomial(poly))

        cases.append(lemma_case(f"exchange-{i}", exchange))
    halving_poly = random_polynomial(4, t, rng)

    def halving(tr):
        with tr.span("verify.degree_halving_check"):
            return degree_halving_check(t, f=tr.counted_polynomial(halving_poly))

    cases.append(lemma_case("halving", halving))
    for label, polar in (("equator", 0.5 * math.pi), ("latitude-0.8", 0.8)):
        # The area formula charts S^2 from the first pole and is singular at
        # xi = -1, so these circles turn about the first axis only: tilted to
        # within 1e-3 rad of xi = -1, one check takes 20 s; through it, the
        # check is off by pi.
        alpha = rotate_curve(catalog.latitude_circle(polar), axial_rotation(rng))
        cases.append(lift_area_case(f"lift-area-{label}", alpha, polar))

    for degree in (4, 5):
        gamma = stitch_curve(octahedral, degree, 0.0).gamma
        poly = random_polynomial(4, degree, rng)

        def chain(tr, gamma=gamma, poly=poly):
            with tr.span("verify.design_chain_residual"):
                return design_chain_residual(gamma, octahedral, tr.counted_polynomial(poly))

        cases.append(lemma_case(f"design-chain-t{degree}", chain))
    return cases


def _shuffled(cases: list[Case], rng: np.random.Generator) -> list[Case]:
    return [cases[i] for i in rng.permutation(len(cases))]


BUILDERS = {"construct": build_construct, "certify": build_certify}
