"""S^2 base curves for the benchmark, built from the public curve API.

Rotations drawn from a seeded generator, and the two base curves the package
catalogue lacks: the octahedral circuit and the figure-eight.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from hopfdesign.curves import PiecewiseCurve, analytic_segment

# Vertex walk of an Eulerian circuit through the 12 edges of the octahedron
# (X = +e1, x = -e1, ...).  Consecutive vertices are orthogonal, so each step
# is a quarter arc of one coordinate great circle, and the circuit covers each
# of the three circles exactly once.
_OCTAHEDRAL_WALK = "XYZxYzxyzXZyX"
_VERTICES = {
    "X": (1.0, 0.0, 0.0), "x": (-1.0, 0.0, 0.0),
    "Y": (0.0, 1.0, 0.0), "y": (0.0, -1.0, 0.0),
    "Z": (0.0, 0.0, 1.0), "z": (0.0, 0.0, -1.0),
}


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SO(3) matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def axial_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation about the first coordinate axis."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotate_curve(curve: PiecewiseCurve, rotation: np.ndarray) -> PiecewiseCurve:
    """The curve R c(s); same parameters, so declared crossings carry over.

    Serialization metadata is dropped because it names the unrotated curve.
    """
    segments = []
    for seg in curve.segments:

        def func(s, inner=seg.func):
            pos, vel = inner(s)
            return pos @ rotation.T, vel @ rotation.T

        segments.append(dataclasses.replace(seg, func=func, meta=None))
    return PiecewiseCurve(
        segments, curve.ambient_dim, curve.declared_self_intersections, closed=curve.closed
    )


def octahedral_curve(rotation: np.ndarray) -> PiecewiseCurve:
    """Eulerian circuit of the octahedron's 12 edge arcs: a degree-3 design curve on S^2.

    Each arc is one constant-speed segment of parameter length 1/12.  The
    walk passes every vertex twice, and the two passes are the declared
    self-intersections.
    """
    count = len(_OCTAHEDRAL_WALK) - 1
    quarter = 0.5 * math.pi
    segments = []
    for k in range(count):
        u = rotation @ np.asarray(_VERTICES[_OCTAHEDRAL_WALK[k]])
        v = rotation @ np.asarray(_VERTICES[_OCTAHEDRAL_WALK[k + 1]])

        def position(s, k=k, u=u, v=v):
            theta = quarter * (count * np.asarray(s, dtype=float) - k)
            return np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v

        def velocity(s, k=k, u=u, v=v):
            theta = quarter * (count * np.asarray(s, dtype=float) - k)
            rate = quarter * count
            return rate * (-np.sin(theta)[:, None] * u + np.cos(theta)[:, None] * v)

        # A quarter turn per 1/12 of parameter is 3 cycles per unit.
        segments.append(
            analytic_segment(position, velocity, k / count, (k + 1) / count, oscillation=count / 4.0)
        )
    visits: dict[str, list[float]] = {}
    for k, name in enumerate(_OCTAHEDRAL_WALK[:-1]):
        visits.setdefault(name, []).append(k / count)
    crossings = sorted(tuple(v) for v in visits.values())
    return PiecewiseCurve(segments, ambient_dim=3, declared_self_intersections=crossings)


def figure_eight() -> PiecewiseCurve:
    """Closed analytic curve on S^2 with one transversal self-crossing.

    A planar figure-eight (A sin 4 pi u, B sin 2 pi u) pushed onto the sphere
    through the gnomonic chart at (0, 0, 1); its speed is not constant, and
    its crossing is left for the program to find.
    """
    amp_x, amp_y = 0.6, 0.9

    def flat(u):
        return np.stack(
            [amp_x * np.sin(4 * np.pi * u), amp_y * np.sin(2 * np.pi * u), np.ones_like(u)],
            axis=1,
        )

    def dflat(u):
        return np.stack(
            [
                4 * np.pi * amp_x * np.cos(4 * np.pi * u),
                2 * np.pi * amp_y * np.cos(2 * np.pi * u),
                np.zeros_like(u),
            ],
            axis=1,
        )

    def position(u):
        q = flat(u)
        return q / np.linalg.norm(q, axis=1, keepdims=True)

    def velocity(u):
        q, dq = flat(u), dflat(u)
        norm = np.linalg.norm(q, axis=1, keepdims=True)
        radial = np.sum(q * dq, axis=1, keepdims=True)
        return dq / norm - q * radial / norm**3

    seg = analytic_segment(position, velocity, oscillation=2.0)
    return PiecewiseCurve([seg], ambient_dim=3)
