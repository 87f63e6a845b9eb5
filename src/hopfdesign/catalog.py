"""Generators for the explicit design curves used throughout the package.

All generators return immutable PiecewiseCurve objects with serialization
metadata attached, so the CLI can write them to curve files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PiecewiseCurve, Segment, analytic_segment
from .errors import DomainError

__all__ = [
    "TorusPoint",
    "equator_curve",
    "latitude_circle",
    "explicit_s3_curve",
    "torus_curve",
    "winding_torus_curve",
    "product_curve",
]

_TWO_PI = 2.0 * math.pi
_TAU_UNIT = 1e-9


@dataclass(frozen=True)
class TorusPoint:
    """Point on (S^1)^d as a tuple of angles, embedded pairwise in R^{2d}."""

    angles: tuple[float, ...]

    def to_r2d(self) -> np.ndarray:
        out = np.empty(2 * len(self.angles))
        for k, angle in enumerate(self.angles):
            out[2 * k] = math.cos(angle)
            out[2 * k + 1] = math.sin(angle)
        return out

    @classmethod
    def from_r2d(cls, x) -> "TorusPoint":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 2:
            raise DomainError("embedded torus point needs an even number of coordinates")
        angles = []
        for k in range(x.size // 2):
            pair = x[2 * k : 2 * k + 2]
            if abs(np.dot(pair, pair) - 1.0) > 2 * _TAU_UNIT:
                raise DomainError(f"circle factor {k} is off the unit circle")
            angles.append(math.atan2(pair[1], pair[0]))
        return cls(tuple(angles))


def latitude_circle(polar_angle: float) -> PiecewiseCurve:
    """Circle on S^2 at angle `polar_angle` from the first-coordinate pole.

    Runs (cos a, sin a cos 2 pi s, sin a sin 2 pi s); the equator is a = pi/2.
    """
    if not 0.0 < polar_angle < math.pi:
        raise DomainError("polar angle must lie strictly between 0 and pi")
    height = math.cos(polar_angle)
    radius = math.sin(polar_angle)

    def position(s):
        phase = _TWO_PI * s
        return np.stack(
            [np.full_like(s, height), radius * np.cos(phase), radius * np.sin(phase)], axis=1
        )

    def velocity(s):
        phase = _TWO_PI * s
        return np.stack(
            [np.zeros_like(s), -_TWO_PI * radius * np.sin(phase), _TWO_PI * radius * np.cos(phase)],
            axis=1,
        )

    meta = {"type": "analytic", "primitive": "latitude-circle", "params": {"polar_angle": polar_angle}}
    if polar_angle == math.pi / 2.0:
        meta = {"type": "analytic", "primitive": "equator", "params": {}}
    seg = analytic_segment(position, velocity, oscillation=1.0, meta=meta)
    return PiecewiseCurve([seg], ambient_dim=3, declared_self_intersections=[])


def equator_curve() -> PiecewiseCurve:
    """The great circle (0, cos 2 pi s, sin 2 pi s), a degree-1 design curve on S^2."""
    return latitude_circle(math.pi / 2.0)


def explicit_s3_curve(t: int) -> PiecewiseCurve:
    """The closed-form design curve on S^3 of degree t, for t in {2, 3}.

    (cos 2 pi s, sin 2 pi s, cos 2 pi t s, -sin 2 pi t s) / sqrt(2); smooth,
    simple, of length pi sqrt(2 t^2 + 2).
    """
    if t not in (2, 3):
        raise DomainError(f"closed-form S^3 curve exists for degree 2 or 3, not {t}")
    scale = 1.0 / math.sqrt(2.0)

    def position(s):
        p, q = _TWO_PI * s, _TWO_PI * t * s
        return scale * np.stack([np.cos(p), np.sin(p), np.cos(q), -np.sin(q)], axis=1)

    def velocity(s):
        p, q = _TWO_PI * s, _TWO_PI * t * s
        return scale * np.stack(
            [-_TWO_PI * np.sin(p), _TWO_PI * np.cos(p), -_TWO_PI * t * np.sin(q), -_TWO_PI * t * np.cos(q)],
            axis=1,
        )

    meta = {"type": "analytic", "primitive": "s3-explicit", "params": {"t": t}}
    seg = analytic_segment(position, velocity, oscillation=float(t), meta=meta)
    return PiecewiseCurve([seg], ambient_dim=4, declared_self_intersections=[])


def winding_torus_curve(windings: list[int]) -> PiecewiseCurve:
    """Closed curve on (S^1)^d winding `windings[k]` times around factor k."""
    if not windings:
        raise DomainError("need at least one circle factor")
    wind = [int(n) for n in windings]
    if any(n == 0 for n in wind):
        raise DomainError("winding numbers must be nonzero")
    if max(abs(n) for n in wind) > 2**53:
        raise DomainError("winding number exceeds exact machine-integer range")

    def position(s):
        cols = []
        for n in wind:
            phase = _TWO_PI * n * s
            cols.extend([np.cos(phase), np.sin(phase)])
        return np.stack(cols, axis=1)

    def velocity(s):
        cols = []
        for n in wind:
            phase = _TWO_PI * n * s
            rate = _TWO_PI * n
            cols.extend([-rate * np.sin(phase), rate * np.cos(phase)])
        return np.stack(cols, axis=1)

    meta = {"type": "analytic", "primitive": "torus", "params": {"windings": wind}}
    seg = analytic_segment(position, velocity, oscillation=float(max(abs(n) for n in wind)), meta=meta)
    return PiecewiseCurve([seg], ambient_dim=2 * len(wind), declared_self_intersections=[])


def torus_curve(t: int, d: int) -> PiecewiseCurve:
    """Degree-t design curve on (S^1)^d with windings ((t+1)^{d-1}, ..., t+1, 1)."""
    if t < 1 or d < 1:
        raise DomainError("torus curve needs t >= 1 and d >= 1")
    if (t + 1) ** (d - 1) > 2**53:
        raise DomainError(f"winding number (t+1)^(d-1) overflows for t={t}, d={d}")
    return winding_torus_curve([(t + 1) ** (d - 1 - k) for k in range(d)])


def product_curve(alpha: PiecewiseCurve, t: int) -> PiecewiseCurve:
    """Curve s -> (alpha((t+1)s mod 1), e^{2 pi i s}) on (base space) x S^1.

    Runs t+1 compressed copies of alpha while the extra circle factor winds
    once, so the result is closed and simple whenever alpha is closed.
    """
    if t < 0:
        raise DomainError("degree must be nonnegative")
    copies = t + 1
    dim = alpha.ambient_dim + 2
    segments = []
    for k in range(copies):
        for seg in alpha.segments:

            def func(s, seg=seg, k=k):
                r = copies * s - k
                pos_a, vel_a = seg.func(r)
                phase = _TWO_PI * s
                pos = np.concatenate(
                    [pos_a, np.cos(phase)[:, None], np.sin(phase)[:, None]], axis=1
                )
                vel = np.concatenate(
                    [
                        copies * vel_a,
                        -_TWO_PI * np.sin(phase)[:, None],
                        _TWO_PI * np.cos(phase)[:, None],
                    ],
                    axis=1,
                )
                return pos, vel

            segments.append(
                Segment(
                    (k + seg.s_lo) / copies,
                    (k + seg.s_hi) / copies,
                    func,
                    oscillation=copies * seg.oscillation,
                )
            )
    return PiecewiseCurve(segments, ambient_dim=dim, declared_self_intersections=[])
