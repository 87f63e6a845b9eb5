"""Design certification by exact monomial averaging, plus supporting checks.

A closed curve is a degree-t design for a space when its normalized line
integral of every polynomial of degree at most t equals the space average.
Monomials span that polynomial space and their uniform-measure averages have
closed forms on spheres and on circle products, so certification reduces to
one adaptive quadrature of the whole monomial basis against exact constants.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .curves import PiecewiseCurve, _panel_nodes
from .errors import DomainError, NumericError
from .hopf import SpherePoint2, SpherePoint3, fiber_section, hopf_map

__all__ = [
    "MonomialBasis",
    "Polynomial",
    "DesignCertificate",
    "random_polynomial",
    "sphere_monomial_average",
    "torus_monomial_average",
    "curve_average",
    "curve_function_average",
    "certify",
    "fiber_average",
    "polygon_design_check",
    "average_exchange_check",
    "degree_halving_check",
    "design_chain_residual",
    "TAU_QUAD",
    "TAU_CERT",
]

# Absolute quadrature tolerance; three orders below the certification cut.
TAU_QUAD = 1e-11
TAU_CERT = 1e-8

_MAX_LEVELS = 10
# Node rows per block of the factored monomial kernel.  Blocks bound the half
# tables' memory, and BLAS sums at most this many products per entry before
# the blocks are added: 2048-row blocks raised the torus t=8, d=3 residual
# from 1.3e-15 to 2.2e-15.
_KERNEL_ROWS = 512


def _exponents_up_to(n: int, t: int) -> list[tuple[int, ...]]:
    """Multi-indices |a| <= t over n variables in graded lexicographic order."""
    out: list[tuple[int, ...]] = []
    for degree in range(t + 1):
        block = []
        for combo in combinations_with_replacement(range(n), degree):
            a = [0] * n
            for i in combo:
                a[i] += 1
            block.append(tuple(a))
        block.sort(reverse=True)
        out.extend(block)
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of degree at most t on R^n, graded lexicographically."""

    ambient_dim: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, ambient_dim: int, degree: int) -> "MonomialBasis":
        if ambient_dim < 1 or degree < 0:
            raise DomainError("basis needs ambient_dim >= 1 and degree >= 0")
        return cls(ambient_dim, degree, tuple(_exponents_up_to(ambient_dim, degree)))

    def __len__(self) -> int:
        return len(self.exponents)


def _power_table(coords: np.ndarray, max_degree: int) -> np.ndarray:
    """coords (N, n) -> powers (n, N, max_degree+1)."""
    n = coords.shape[1]
    table = np.empty((n, coords.shape[0], max_degree + 1))
    table[:, :, 0] = 1.0
    for k in range(1, max_degree + 1):
        table[:, :, k] = table[:, :, k - 1] * coords.T
    return table


def _monomial_values(table: np.ndarray, a: tuple[int, ...]) -> np.ndarray:
    """Per-monomial reference evaluation of x^a from a power table."""
    values = table[0, :, a[0]].copy()
    for i in range(1, len(a)):
        if a[i]:
            values *= table[i, :, a[i]]
    return values


def _fill_half_table(out: np.ndarray, scratch: np.ndarray, table: np.ndarray, exps) -> None:
    """out[j] = prod_i table[i, :, exps[j, i]]; `scratch` is flat, at least out.size long."""
    factor = scratch[: out.size].reshape(out.shape)
    out.fill(1.0)
    for i in range(exps.shape[1]):
        # Whole rows of the transposed powers are contiguous copies; the indices
        # are in range, and mode="clip" skips the buffered copy "raise" makes.
        np.take(np.ascontiguousarray(table[i].T), exps[:, i], axis=0, out=factor, mode="clip")
        out *= factor


@dataclass(frozen=True)
class _SplitExponents:
    """Exponents a = (a_L, a_R) split over the first ceil(n/2) and last
    floor(n/2) coordinates, so x^a = L[a_L] * R[a_R].

    `left` and `right` hold every half exponent of degree at most `degree` in
    graded order; `rows` and `cols` locate each split exponent in them.  The
    two half tables have C(degree + n/2, n/2) columns each, far fewer than the
    C(degree + n, n) monomials they generate.
    """

    degree: int
    left: np.ndarray  # (|L|, ceil(n/2))
    right: np.ndarray  # (|R|, floor(n/2))
    rows: np.ndarray
    cols: np.ndarray
    # Per left degree k: the columns [first, stop) of L with |a_L| = k, and
    # the number of leading columns of R with |a_R| <= degree - k.
    degree_blocks: tuple[tuple[int, int, int], ...]

    @classmethod
    def build(cls, exponents, ambient_dim: int) -> "_SplitExponents":
        degree = max(sum(a) for a in exponents)
        cut = (ambient_dim + 1) // 2
        left = _exponents_up_to(cut, degree)
        right = _exponents_up_to(ambient_dim - cut, degree)
        left_index = {a: i for i, a in enumerate(left)}
        right_index = {a: i for i, a in enumerate(right)}
        rows = np.array([left_index[tuple(a[:cut])] for a in exponents], dtype=np.intp)
        cols = np.array([right_index[tuple(a[cut:])] for a in exponents], dtype=np.intp)
        left_degree = [sum(a) for a in left]
        right_degree = [sum(a) for a in right]
        degree_blocks = tuple(
            (
                bisect_left(left_degree, k),
                bisect_right(left_degree, k),
                bisect_right(right_degree, degree - k),
            )
            for k in range(degree + 1)
        )
        return cls(
            degree,
            np.array(left, dtype=np.intp).reshape(len(left), cut),
            np.array(right, dtype=np.intp).reshape(len(right), ambient_dim - cut),
            rows,
            cols,
            degree_blocks,
        )

    def half_tables(self, points: np.ndarray):
        """Yield (block, L^T, R^T) for consecutive slices of at most _KERNEL_ROWS points.

        For a block of m points L^T is (|L|, m) and R^T is (|R|, m).  Both live
        in buffers that the next block overwrites, so consume them first.
        Reusing them keeps each block from faulting in fresh pages.
        """
        size = min(points.shape[0], _KERNEL_ROWS)
        cut = self.left.shape[1]
        n_left, n_right = self.left.shape[0], self.right.shape[0]
        left_buf = np.empty(n_left * size)
        right_buf = np.empty(n_right * size)
        scratch = np.empty(max(n_left, n_right) * size)
        for lo in range(0, points.shape[0], _KERNEL_ROWS):
            block = slice(lo, lo + _KERNEL_ROWS)
            table = _power_table(points[block], self.degree)
            m = table.shape[1]
            left = left_buf[: n_left * m].reshape(n_left, m)
            right = right_buf[: n_right * m].reshape(n_right, m)
            _fill_half_table(left, scratch, table[:cut], self.left)
            _fill_half_table(right, scratch, table[cut:], self.right)
            yield block, left, right


@dataclass(frozen=True)
class Polynomial:
    """Fixed linear combination of monomials on R^n."""

    ambient_dim: int
    exponents: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]
    _split: _SplitExponents = field(init=False, repr=False, compare=False)
    _coeff_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        split = _SplitExponents.build(self.exponents, self.ambient_dim)
        matrix = np.zeros((split.left.shape[0], split.right.shape[0]))
        np.add.at(matrix, (split.rows, split.cols), np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "_split", split)
        object.__setattr__(self, "_coeff_matrix", matrix)

    @property
    def degree(self) -> int:
        return self._split.degree

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Sum_a c_a x^a at each row, as rowsum(L * (R @ C^T)) with C[a_L, a_R] = c_a."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(points.shape[0])
        for block, left, right in self._split.half_tables(points):
            out[block] = np.einsum("ij,ij->j", left, self._coeff_matrix @ right)
        return out


def random_polynomial(ambient_dim: int, degree: int, rng: np.random.Generator) -> Polynomial:
    """Coefficients i.i.d. uniform in [-1, 1] over the full monomial basis."""
    basis = MonomialBasis.build(ambient_dim, degree)
    coeffs = rng.uniform(-1.0, 1.0, size=len(basis))
    return Polynomial(ambient_dim, basis.exponents, tuple(coeffs.tolist()))


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_monomial_average(a, n: int) -> float:
    """Average of x^a over the unit sphere of R^n: zero unless all powers are
    even, else prod (a_i - 1)!! / (n (n+2) ... (n + |a| - 2))."""
    if n < 2:
        raise DomainError("sphere average needs ambient dimension >= 2")
    a = tuple(int(k) for k in a)
    if any(k < 0 for k in a):
        raise DomainError("exponents must be nonnegative")
    if any(k % 2 for k in a):
        return 0.0
    total = sum(a)
    numerator = 1
    for k in a:
        numerator *= _double_factorial(k - 1)
    denominator = 1
    for j in range(total // 2):
        denominator *= n + 2 * j
    return numerator / denominator


def _circle_average(p: int, q: int) -> float:
    """Average of cos^p sin^q over one uniform circle."""
    if p % 2 or q % 2:
        return 0.0
    return (
        _double_factorial(p - 1) * _double_factorial(q - 1) / _double_factorial(p + q)
    )


def torus_monomial_average(a, d: int) -> float:
    """Average of x^a over (S^1)^d in R^{2d} with the product measure."""
    a = tuple(int(k) for k in a)
    if len(a) != 2 * d:
        raise DomainError(f"expected {2 * d} exponents for {d} circle factors, got {len(a)}")
    out = 1.0
    for k in range(d):
        out *= _circle_average(a[2 * k], a[2 * k + 1])
        if out == 0.0:
            return 0.0
    return out


def _initial_panels(seg, degree: int) -> int:
    nodes = max(32, math.ceil(4 * max(degree, 1) * seg.oscillation))
    return max(2, math.ceil(nodes / 16))


def curve_function_average(
    c: PiecewiseCurve, fn, tol: float = TAU_QUAD, degree_hint: int = 1
) -> float:
    """(1/length) integral of fn(position) along the curve, adaptive GL panels."""
    total_num = 0.0
    total_len = 0.0
    for seg in c.segments:
        panels = _initial_panels(seg, degree_hint)
        prev = None
        for _ in range(_MAX_LEVELS):
            nodes, weights = _panel_nodes(seg.s_lo, seg.s_hi, panels)
            pos, vel = seg.func(nodes)
            w = weights * np.linalg.norm(vel, axis=1)
            num = float(np.dot(w, fn(pos)))
            length = float(np.sum(w))
            if prev is not None and abs(num - prev[0]) < tol and abs(length - prev[1]) < tol:
                break
            prev = (num, length)
            panels *= 2
        else:
            raise NumericError("curve average quadrature did not converge", {"panels": panels})
        total_num += num
        total_len += length
    return total_num / total_len


def curve_average(c: PiecewiseCurve, a, tol: float = TAU_QUAD) -> float:
    """Normalized line integral of the monomial x^a along the curve."""
    a = tuple(int(k) for k in a)
    if len(a) != c.ambient_dim:
        raise DomainError("monomial arity does not match the curve's ambient dimension")

    def fn(points):
        table = _power_table(points, max(a) if a else 0)
        return _monomial_values(table, a)

    return curve_function_average(c, fn, tol=tol, degree_hint=max(sum(a), 1))


def _segment_moments(seg, split: _SplitExponents, panels: int):
    """Weighted sums of every split monomial over one segment's GL nodes.

    The moment matrix M[a_L, a_R] = sum_k w_k L[k, a_L] R[k, a_R] is built by
    degree blocks, so only pairs with |a_L| + |a_R| <= degree are multiplied.
    Returns (sums per monomial, segment length, node count).
    """
    nodes, weights = _panel_nodes(seg.s_lo, seg.s_hi, panels)
    pos, vel = seg.func(nodes)
    w = weights * np.linalg.norm(vel, axis=1)
    moments = np.zeros((split.left.shape[0], split.right.shape[0]))
    for block, left, right in split.half_tables(pos):
        left *= w[block]
        for first, stop, width in split.degree_blocks:
            moments[first:stop, :width] += left[first:stop] @ right[:width].T
    return moments[split.rows, split.cols], float(np.sum(w)), w.size


@dataclass(frozen=True)
class DesignCertificate:
    """Per-monomial residuals of curve averages against exact space averages."""

    degree: int
    space: str
    exponents: tuple[tuple[int, ...], ...]
    curve_averages: tuple[float, ...]
    space_averages: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    curve_length: float
    tolerance: float
    verdict: bool
    settings: dict

    def worst_monomial(self) -> tuple[tuple[int, ...], float]:
        i = int(np.argmax(self.residuals))
        return self.exponents[i], self.residuals[i]

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "space": self.space,
            "verdict": "pass" if self.verdict else "fail",
            "max_residual": self.max_residual,
            "curve_length": self.curve_length,
            "tolerance": self.tolerance,
            "settings": self.settings,
            "monomials": [
                {
                    "exponents": list(a),
                    "curve_average": ca,
                    "space_average": sa,
                    "residual": r,
                }
                for a, ca, sa, r in zip(
                    self.exponents, self.curve_averages, self.space_averages, self.residuals
                )
            ],
        }


def certify(c: PiecewiseCurve, t: int, space: str, tol: float = TAU_CERT) -> DesignCertificate:
    """Certify the degree-t design property of a curve on a sphere or torus.

    Every monomial of degree at most t is averaged along the curve on a shared
    adaptive node set and compared with its exact closed-form space average.
    """
    basis = MonomialBasis.build(c.ambient_dim, t)
    if space == "sphere":
        if c.ambient_dim < 2:
            raise DomainError("sphere certification needs ambient dimension >= 2")
        space_avg = [sphere_monomial_average(a, c.ambient_dim) for a in basis.exponents]
    elif space == "torus":
        if c.ambient_dim % 2:
            raise DomainError("torus certification needs an even ambient dimension")
        d = c.ambient_dim // 2
        space_avg = [torus_monomial_average(a, d) for a in basis.exponents]
    else:
        raise DomainError(f"unknown space {space!r}; expected 'sphere' or 'torus'")
    split = _SplitExponents.build(basis.exponents, c.ambient_dim)
    panel_counts = [_initial_panels(seg, t) for seg in c.segments]
    prev_avgs = None
    levels = 0
    nodes = 0
    for level in range(_MAX_LEVELS):
        levels = level + 1
        sums = np.zeros(len(basis))
        length = 0.0
        for seg, panels in zip(c.segments, panel_counts):
            seg_sums, seg_len, seg_nodes = _segment_moments(seg, split, panels << level)
            sums += seg_sums
            length += seg_len
            nodes += seg_nodes
        avgs = sums / length
        if not np.all(np.isfinite(avgs)):
            raise NumericError(
                "certification quadrature produced non-finite values",
                {"levels": levels, "nodes": nodes},
            )
        if prev_avgs is not None and float(np.max(np.abs(avgs - prev_avgs))) < TAU_QUAD:
            break
        prev_avgs = avgs
    else:
        raise NumericError(
            "certification quadrature did not converge",
            {"levels": levels, "last_delta": float(np.max(np.abs(avgs - prev_avgs)))},
        )

    space_avg = np.asarray(space_avg)
    residuals = np.abs(avgs - space_avg)
    max_residual = float(np.max(residuals))
    return DesignCertificate(
        degree=t,
        space=space,
        exponents=basis.exponents,
        curve_averages=tuple(avgs.tolist()),
        space_averages=tuple(space_avg.tolist()),
        residuals=tuple(residuals.tolist()),
        max_residual=max_residual,
        curve_length=length,
        tolerance=tol,
        verdict=bool(max_residual < tol),
        settings={
            "quad_tol": TAU_QUAD,
            "refinement_levels": levels,
            "nodes": nodes,
            "initial_panels": panel_counts,
            "basis_size": len(basis),
        },
    )


def _fiber_points(base: SpherePoint3, angles: np.ndarray) -> np.ndarray:
    a = complex(base.a)
    b = complex(base.b)
    phase = np.exp(1j * angles)
    out = np.empty((angles.size, 4))
    out[:, 0] = (a * phase).real
    out[:, 1] = (a * phase).imag
    out[:, 2] = (b * phase).real
    out[:, 3] = (b * phase).imag
    return out


def fiber_average(f, w: SpherePoint2, nodes: int) -> float:
    """Uniform average of f over the fiber above w, sampled at `nodes` points.

    Exact for restrictions of polynomials of degree < nodes, since the sample
    is a uniform trapezoid rule on the fiber circle.
    """
    if nodes < 1:
        raise DomainError("need at least one fiber node")
    base = fiber_section(w)
    angles = 2.0 * math.pi * np.arange(nodes) / nodes
    return float(np.mean(f(_fiber_points(base, angles))))


def polygon_design_check(omega: SpherePoint3, t: int, f: Polynomial) -> float:
    """Gap between the regular-(t+1)-gon average on a fiber and the full fiber average."""
    if f.degree > t:
        raise DomainError(f"polynomial degree {f.degree} exceeds the stated bound {t}")
    angles = 2.0 * math.pi * np.arange(t + 1) / (t + 1)
    polygon = float(np.mean(f(_fiber_points(omega, angles))))
    dense = fiber_average(f, hopf_map(omega), 10_000)
    return abs(polygon - dense)


def _sphere2_product_nodes(n_xi: int, n_phi: int):
    xi, w = np.polynomial.legendre.leggauss(n_xi)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return xi, w / 2.0, phi  # weights normalized so they sum to 1


def average_exchange_check(f: Polynomial) -> float:
    """Difference between the fiber-averaged S^2 mean of f and its S^3 mean.

    The left side uses a Gauss-Legendre (polar) x trapezoid (azimuth) product
    rule exact for the fiber average's polynomial degree; the right side is
    the closed-form monomial average, by linearity.
    """
    if f.ambient_dim != 4:
        raise DomainError("exchange check expects a polynomial on R^4")
    degree = f.degree
    n_xi, n_phi = degree + 2, 2 * degree + 4
    fiber_nodes = degree + 2
    xi, w_xi, phi = _sphere2_product_nodes(n_xi, n_phi)

    base_angles = 2.0 * math.pi * np.arange(fiber_nodes) / fiber_nodes
    left = 0.0
    for x, wx in zip(xi, w_xi):
        row = 0.0
        radial = math.sqrt(max(0.0, 1.0 - x * x))
        for p in phi:
            w_pt = SpherePoint2(x, radial * complex(math.cos(p), math.sin(p)))
            row += float(np.mean(f(_fiber_points(fiber_section(w_pt), base_angles))))
        left += wx * row / n_phi

    right = sum(
        c * sphere_monomial_average(a, 4) for a, c in zip(f.exponents, f.coefficients)
    )
    return abs(left - right)


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    angle = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([z, radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def degree_halving_check(t: int, seed: int = 20240901, f: Polynomial | None = None) -> float:
    """RMS misfit of the fiber average of a degree-t polynomial on S^3 against
    the polynomial space of degree floor(t/2) on S^2.

    Draws a seeded random polynomial unless one is supplied.
    """
    if t > 12:
        raise DomainError("degree-halving check supports t <= 12")
    if f is None:
        rng = np.random.default_rng(seed)
        f = random_polynomial(4, t, rng)
    elif f.degree > t:
        raise DomainError(f"polynomial degree {f.degree} exceeds the stated bound {t}")
    half = t // 2
    basis = MonomialBasis.build(3, half)
    count = max(200, 4 * len(basis))
    nodes = _fibonacci_sphere(count)

    samples = np.array(
        [fiber_average(f, SpherePoint2.from_r3(p), t + 2) for p in nodes]
    )
    table = _power_table(nodes, half)
    design = np.stack([_monomial_values(table, a) for a in basis.exponents], axis=1)
    coeffs, _, rank, singular = np.linalg.lstsq(design, samples, rcond=None)
    # Monomials restricted to the sphere are linearly dependent, so the matrix
    # is rank-deficient by design; condition only matters above the cutoff rank.
    effective_cond = singular[0] / singular[max(rank - 1, 0)]
    if effective_cond > 1e12:
        warnings.warn(
            f"degree-halving fit is ill-conditioned (cond ~ {effective_cond:.2e})",
            RuntimeWarning,
        )
    misfit = design @ coeffs - samples
    return float(np.sqrt(np.mean(misfit**2)))


def _vector_fiber_average(f, base_points: np.ndarray, nodes: int) -> np.ndarray:
    """Fiber average of f above each row of base_points (N, 3)."""
    angles = 2.0 * math.pi * np.arange(nodes) / nodes
    values = np.empty(base_points.shape[0])
    for i, p in enumerate(base_points):
        values[i] = np.mean(f(_fiber_points(fiber_section(SpherePoint2.from_r3(p)), angles)))
    return values


def design_chain_residual(gamma: PiecewiseCurve, alpha: PiecewiseCurve, f: Polynomial) -> float:
    """|average of f along gamma - average of the fiber-averaged f along alpha|."""
    lhs = curve_function_average(gamma, f, degree_hint=f.degree)
    nodes = f.degree + 2

    def h(points):
        return _vector_fiber_average(f, points, nodes)

    rhs = curve_function_average(alpha, h, degree_hint=max(1, f.degree // 2))
    return abs(lhs - rhs)
