"""Piecewise-smooth closed curves in R^n: evaluation, length, reparameterization.

A curve is an ordered list of smooth segments over a partition of [0, 1].
Segment evaluators are vectorized (arrays of parameters in, stacked points
and velocities out) and work in the curve's global parameter, so curves are
immutable and reentrant once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateCurveError, DomainError, NumericError

__all__ = [
    "Segment",
    "PiecewiseCurve",
    "analytic_segment",
    "hermite_segment",
    "evaluate",
    "arc_length",
    "reparameterize_constant_speed",
    "self_intersection_parameters",
    "TAU_LEN",
    "TAU_SEP",
    "TAU_JOIN",
]

# Absolute arc-length quadrature tolerance.
TAU_LEN = 1e-10
# Parameter separation distinguishing a self-intersection from curve closure.
TAU_SEP = 1e-4
# Junction continuity / closure tolerance.
TAU_JOIN = 1e-9
# Cells per batch of node evaluations in gauss_cells.
_GAUSS_CHUNK = 512

# Evaluator signature: params (k,) -> (points (k, n), velocities (k, n)).
SegmentFunc = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a curve, on the global parameter interval [s_lo, s_hi]."""

    s_lo: float
    s_hi: float
    func: SegmentFunc
    oscillation: float = 1.0  # winding hint: highest frequency (in cycles) of coordinates
    meta: dict | None = None  # serialization descriptor, when one exists

    def __post_init__(self):
        if not self.s_lo < self.s_hi:
            raise DomainError(f"segment interval [{self.s_lo}, {self.s_hi}] is empty")


def analytic_segment(
    position: Callable[[np.ndarray], np.ndarray],
    velocity: Callable[[np.ndarray], np.ndarray],
    s_lo: float = 0.0,
    s_hi: float = 1.0,
    oscillation: float = 1.0,
    meta: dict | None = None,
) -> Segment:
    """Segment from separate vectorized position/velocity callables."""

    def func(s: np.ndarray):
        return position(s), velocity(s)

    return Segment(s_lo, s_hi, func, oscillation=oscillation, meta=meta)


def hermite_segment(
    knots: np.ndarray,
    points: np.ndarray,
    velocities: np.ndarray,
    oscillation: float = 1.0,
    meta: dict | None = None,
) -> Segment:
    """Cubic-Hermite segment through (knots, points, velocities).

    Knots are global curve parameters, strictly increasing; points and
    velocities are (k, n) arrays.
    """
    knots = np.asarray(knots, dtype=float)
    points = np.asarray(points, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    if knots.ndim != 1 or knots.size < 2 or not np.all(np.diff(knots) > 0):
        raise DomainError("hermite knots must be strictly increasing with at least 2 entries")
    if points.ndim != 2 or points.shape[0] != knots.size or velocities.shape != points.shape:
        raise DomainError("hermite points/velocities must be (num_knots, dim) arrays")

    def func(s: np.ndarray):
        i = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, knots.size - 2)
        h = knots[i + 1] - knots[i]
        u = (s - knots[i]) / h
        u2 = u * u
        d00 = (6 * u2 - 6 * u) / h
        d10 = 3 * u2 - 4 * u + 1
        d11 = 3 * u2 - 2 * u
        p0, p1 = points[i], points[i + 1]
        v0, v1 = velocities[i], velocities[i + 1]
        hc = h[:, None]
        pos = _hermite_value(u[:, None], p0, p1, hc * v0, hc * v1)
        vel = d00[:, None] * (p0 - p1) + d10[:, None] * v0 + d11[:, None] * v1
        return pos, vel

    if meta is None:
        meta = {
            "type": "hermite",
            "knots": knots.tolist(),
            "points": points.tolist(),
            "velocities": velocities.tolist(),
        }
    return Segment(float(knots[0]), float(knots[-1]), func, oscillation=oscillation, meta=meta)


class PiecewiseCurve:
    """Continuous piecewise-smooth curve; closed unless built with closed=False."""

    def __init__(
        self,
        segments: Sequence[Segment],
        ambient_dim: int,
        declared_self_intersections: Sequence[tuple[float, float]] | None = None,
        closed: bool = True,
    ):
        if not segments:
            raise DomainError("curve needs at least one segment")
        segments = tuple(segments)
        breaks = [segments[0].s_lo]
        for seg in segments:
            if not math.isclose(seg.s_lo, breaks[-1], abs_tol=1e-12):
                raise DomainError("segments must tile the parameter interval without gaps")
            breaks.append(seg.s_hi)
        if abs(breaks[0]) > 1e-12 or abs(breaks[-1] - 1.0) > 1e-12:
            raise DomainError("curve parameter range must be exactly [0, 1]")
        breaks[0], breaks[-1] = 0.0, 1.0

        self.segments = segments
        self.breakpoints = np.asarray(breaks, dtype=float)
        self.ambient_dim = int(ambient_dim)
        self.closed = bool(closed)
        self.declared_self_intersections = (
            None
            if declared_self_intersections is None
            else tuple((float(a), float(b)) for a, b in declared_self_intersections)
        )
        self._validate_continuity()

    def _validate_continuity(self) -> None:
        for left, right in zip(self.segments[:-1], self.segments[1:]):
            s = np.array([left.s_hi])
            pl, _ = left.func(s)
            pr, _ = right.func(s)
            gap = float(np.linalg.norm(pl - pr))
            if not gap <= TAU_JOIN:  # NaN fails too
                raise DomainError(f"segments disagree at s={left.s_hi}: gap {gap:.3e}")
        if self.closed:
            p0, _ = self.segments[0].func(np.array([0.0]))
            p1, _ = self.segments[-1].func(np.array([1.0]))
            gap = float(np.linalg.norm(p1 - p0))
            if not gap <= TAU_JOIN:  # NaN fails too
                raise DomainError(f"curve is not closed: endpoint gap {gap:.3e}")

    def point_velocity(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized evaluation; right-limits at interior breakpoints."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        idx = np.clip(
            np.searchsorted(self.breakpoints, s, side="right") - 1, 0, len(self.segments) - 1
        )
        pos = np.empty((s.size, self.ambient_dim))
        vel = np.empty((s.size, self.ambient_dim))
        for k in np.unique(idx):
            mask = idx == k
            pos[mask], vel[mask] = self.segments[k].func(s[mask])
        return pos, vel

    def max_oscillation(self) -> float:
        return max(seg.oscillation for seg in self.segments)

    def with_declared_self_intersections(self, pairs) -> "PiecewiseCurve":
        return PiecewiseCurve(self.segments, self.ambient_dim, pairs, closed=self.closed)


def evaluate(c: PiecewiseCurve, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Position and one-sided (right-limit) velocity at parameter s in [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"parameter {s!r} outside [0, 1]")
    pos, vel = c.point_velocity(float(s))
    return pos[0], vel[0]


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], cached by order."""
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _GL_CACHE[order]


def _panel_nodes(lo: float, hi: float, panels: int, order: int = 16):
    """Composite GL node/weight arrays over [lo, hi] split into equal panels."""
    x, w = gauss_nodes(order)
    width = (hi - lo) / panels
    starts = lo + width * np.arange(panels)
    nodes = (starts[:, None] + width * x[None, :]).ravel()
    weights = np.broadcast_to(width * w, (panels, order)).ravel()
    return nodes, weights


def segment_quadrature(
    seg: Segment,
    integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    tol: float,
    initial_nodes: int = 16,
    max_refinements: int = 24,
) -> float:
    """Adaptive composite 16-point Gauss-Legendre integral over one segment.

    `integrand(s, pos, vel)` returns per-node values; panel count doubles
    until two successive estimates differ by less than `tol`.
    """
    panels = max(1, math.ceil(initial_nodes / 16))
    nodes, weights = _panel_nodes(seg.s_lo, seg.s_hi, panels)
    pos, vel = seg.func(nodes)
    estimate = float(np.dot(weights, integrand(nodes, pos, vel)))
    for _ in range(max_refinements):
        panels *= 2
        nodes, weights = _panel_nodes(seg.s_lo, seg.s_hi, panels)
        pos, vel = seg.func(nodes)
        refined = float(np.dot(weights, integrand(nodes, pos, vel)))
        if abs(refined - estimate) < tol:
            return refined
        estimate = refined
    raise NumericError(
        "quadrature failed to converge",
        diagnostics={"segment": (seg.s_lo, seg.s_hi), "panels": panels, "last_delta": abs(refined - estimate)},
    )


def _speed(s, pos, vel):
    return np.linalg.norm(vel, axis=-1)


def arc_length(c: PiecewiseCurve, tol: float = TAU_LEN) -> float:
    """Curve length by adaptive per-segment Gauss-Legendre quadrature."""
    total = 0.0
    for seg in c.segments:
        initial = max(16, math.ceil(4 * seg.oscillation))
        total += segment_quadrature(seg, _speed, tol, initial_nodes=initial)
    return total


def gauss_cells(func: SegmentFunc, lo, hi, integrand) -> np.ndarray:
    """Integral over each cell [lo[j], hi[j]] by 8-point Gauss-Legendre.

    `integrand(cells, pos, vel)` gets the slice `cells` and the (k, 8, n)
    node positions and velocities of those cells, and returns their (k, 8)
    values.  Nodes are evaluated _GAUSS_CHUNK cells at a time to bound memory.
    """
    x, w = gauss_nodes(8)
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(hi, dtype=float) - lo
    out = np.empty(width.size)
    for first in range(0, width.size, _GAUSS_CHUNK):
        cells = slice(first, first + _GAUSS_CHUNK)
        nodes = lo[cells, None] + width[cells, None] * x
        pos, vel = func(nodes.ravel())
        shape = nodes.shape + (-1,)
        out[cells] = width[cells] * (integrand(cells, pos.reshape(shape), vel.reshape(shape)) @ w)
    return out


def running_total(steps) -> np.ndarray:
    """Prefix sums 0, x0, x0 + x1, ... of `steps`, each addition's rounding error added back (TwoSum)."""
    x = np.concatenate([[0.0], steps])
    total = np.cumsum(x)
    part = total[1:] - total[:-1]
    lost = (total[:-1] - (total[1:] - part)) + (x[1:] - part)
    return total + np.concatenate([[0.0], np.cumsum(lost)])


def _hermite_value(u, p0, p1, d0, d1):
    """Cubic Hermite on [0, 1] with end values p0, p1 and end slopes d0, d1."""
    u2 = u * u
    u3 = u2 * u
    return (2 * u3 - 3 * u2 + 1) * p0 + (u3 - 2 * u2 + u) * d0 + (3 * u2 - 2 * u3) * p1 + (u3 - u2) * d1


def reparameterize_constant_speed(c: PiecewiseCurve, samples: int = 8192) -> PiecewiseCurve:
    """Same image, constant speed; breakpoints and declared crossings mapped along.

    Each segment gets an exact table of cumulative arc length on `samples`
    equispaced cells.  Arc length at any parameter is a table value plus a
    local Gauss-Legendre step, and its inverse is Newton's method started
    from the cubic Hermite through the table's values and slopes (at the
    default density, mostly within tolerance already).
    """
    tables = []
    for seg in c.segments:
        grid = np.linspace(seg.s_lo, seg.s_hi, samples + 1)
        cum = running_total(gauss_cells(seg.func, grid[:-1], grid[1:], _speed))
        speeds = np.linalg.norm(seg.func(grid)[1], axis=1)
        tables.append((grid, cum, speeds))
    seg_lengths = [float(cum[-1]) for _, cum, _ in tables]
    total = float(sum(seg_lengths))
    if total <= 0.0:
        raise DegenerateCurveError("curve has zero length")
    tol = 1e-13 * max(total, 1.0)

    offsets = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    new_segments = []
    param_maps = []  # (old segment range, forward map old->new) for bookkeeping

    for seg, (grid, cum, speeds), offset in zip(c.segments, tables, offsets):
        if np.min(speeds) < 1e-9 * total:
            raise DegenerateCurveError(f"velocity vanishes near s={grid[int(np.argmin(speeds))]:.6f}")

        def forward(s, seg=seg, grid=grid, cum=cum):
            i = np.clip(np.searchsorted(grid, s, side="right") - 1, 0, samples - 1)
            return cum[i] + gauss_cells(seg.func, grid[i], s, _speed)

        lo = offset / total
        hi = (offset + cum[-1]) / total

        def invert(tau, seg=seg, grid=grid, cum=cum, speeds=speeds, offset=offset, forward=forward):
            target = tau * total - offset
            j = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, samples - 1)
            h = cum[j + 1] - cum[j]
            s = _hermite_value((target - cum[j]) / h, grid[j], grid[j + 1], h / speeds[j], h / speeds[j + 1])
            s = np.clip(s, grid[0], grid[-1])
            todo = np.arange(s.size)  # points whose last Newton residual was not below tol
            for _ in range(30):
                _, vel = seg.func(s[todo])
                residual = forward(s[todo]) - target[todo]
                s[todo] = np.clip(s[todo] - residual / np.linalg.norm(vel, axis=1), grid[0], grid[-1])
                todo = todo[~(np.abs(residual) < tol)]  # NaN stays unconverged
                if todo.size == 0:
                    return s
            raise NumericError(
                "arc-length inverse did not converge",
                {"residual": float(np.max(np.abs(residual))), "tol": tol},
            )

        def func(tau, invert=invert, seg=seg):
            s = invert(np.asarray(tau, dtype=float))
            pos, vel = seg.func(s)
            scale = total / np.linalg.norm(vel, axis=1)
            return pos, vel * scale[:, None]

        new_segments.append(Segment(lo, hi, func, oscillation=seg.oscillation, meta=None))
        param_maps.append((seg.s_lo, seg.s_hi, forward, offset))

    def map_parameter(s_old: float) -> float:
        for (s_lo, s_hi, forward, offset) in param_maps:
            if s_lo <= s_old <= s_hi:
                return float((offset + forward(np.array([s_old]))[0]) / total)
        return float(s_old)

    declared = None
    if c.declared_self_intersections is not None:
        declared = [(map_parameter(a), map_parameter(b)) for a, b in c.declared_self_intersections]
    return PiecewiseCurve(new_segments, c.ambient_dim, declared, closed=c.closed)


def _cyclic_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def self_intersection_parameters(
    c: PiecewiseCurve,
    tol: float,
    grid_size: int = 1024,
) -> list[tuple[float, float]]:
    """Parameter pairs (s, s~) with |c(s) - c(s~)| < tol, s < s~.

    Coarse proximity scan on a uniform grid, then local minimization of the
    pairwise squared distance.  Pairs closer than TAU_SEP in cyclic parameter
    distance are treated as curve continuity, not intersections.
    """
    grid_size = max(grid_size, 64 * len(c.segments))
    s_grid = np.arange(grid_size) / grid_size
    pos, _ = c.point_velocity(s_grid)
    spacing = 1.0 / grid_size

    # Coarse threshold: a crossing can hide at most half a grid cell from a sample.
    step = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    max_step = float(np.max(step)) if step.size else 0.0
    coarse = max(2.5 * max_step, 10.0 * tol)
    sep_floor = max(TAU_SEP, 4.0 * spacing)

    tree = cKDTree(pos)
    candidates = []
    for i, j in tree.query_pairs(r=coarse):
        if _cyclic_gap(s_grid[i], s_grid[j]) > sep_floor:
            d = float(np.linalg.norm(pos[i] - pos[j]))
            candidates.append((d, s_grid[i], s_grid[j]))
    candidates.sort(key=lambda item: item[0])

    def refine(sa: float, sb: float) -> tuple[float, float, float]:
        """Gauss-Newton on the residual c(s) - c(s~); velocities give the Jacobian."""
        x = np.array([sa, sb])
        best = (math.inf, sa, sb)
        for _ in range(60):
            p, v = c.point_velocity(np.mod(x, 1.0))
            r = p[0] - p[1]
            dist = float(np.linalg.norm(r))
            if dist < best[0]:
                best = (dist, x[0], x[1])
            jac = np.stack([v[0], -v[1]], axis=1)
            jtj = jac.T @ jac
            jtr = jac.T @ r
            try:
                step = np.linalg.solve(jtj + 1e-14 * np.eye(2), jtr)
            except np.linalg.LinAlgError:
                break
            norm = float(np.linalg.norm(step))
            cap = 4.0 * spacing
            if norm > cap:
                step *= cap / norm
            x = x - step
            if norm < 1e-14:
                break
        return best

    cluster_radius = 8.0 * spacing
    found: list[tuple[float, float]] = []
    visited: list[tuple[float, float]] = []
    for _, sa, sb in candidates:
        if any(
            (_cyclic_gap(sa, va) < cluster_radius and _cyclic_gap(sb, vb) < cluster_radius)
            or (_cyclic_gap(sa, vb) < cluster_radius and _cyclic_gap(sb, va) < cluster_radius)
            for va, vb in visited
        ):
            continue
        visited.append((sa, sb))
        dist, ra, rb = refine(sa, sb)
        ra, rb = ra % 1.0, rb % 1.0
        if _cyclic_gap(ra, rb) <= TAU_SEP or dist >= tol:
            continue
        pair = (min(ra, rb), max(ra, rb))
        duplicate = any(
            (_cyclic_gap(pair[0], fa) < 1e-3 and _cyclic_gap(pair[1], fb) < 1e-3)
            or (_cyclic_gap(pair[0], fb) < 1e-3 and _cyclic_gap(pair[1], fa) < 1e-3)
            for fa, fb in found
        )
        if not duplicate:
            found.append(pair)
    return sorted(found)
