"""Curve description files: a strict JSON schema with exact round-tripping.

Three representations cover every curve the package produces: named analytic
primitives with parameters, lists of cubic-Hermite segments, and stitched
curves stored as their lift data plus phase profile (so reconstruction goes
through the same assembly code and loses nothing).  Serialization is
canonical (sorted keys, indent 2), so serialize(parse(text)) == text for
files this module wrote.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import catalog
from .curves import PiecewiseCurve, hermite_segment
from .errors import ParseError
from .hopf import SpherePoint3
from .lift import LiftResult
from .stitch import PhaseProfile, StitchedCurve, StitchPlan, assemble

__all__ = [
    "CurveDescription",
    "parse_curve",
    "serialize_curve",
    "describe_curve",
    "describe_stitched",
    "build_curve",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1

_PRIMITIVES = {
    "equator": {"params": {}},
    "latitude-circle": {"params": {"polar_angle": float}},
    "s3-explicit": {"params": {"t": int}},
    "torus": {"params": {"windings": list}},
}


@dataclass(frozen=True)
class CurveDescription:
    """Validated curve file content; `data` is the canonical JSON structure."""

    data: dict

    @property
    def space(self) -> str:
        return self.data["space"]

    @property
    def ambient_dim(self) -> int:
        return self.data["ambient_dim"]

    @property
    def name(self) -> str:
        return self.data.get("name", "")


def _fail(message: str, field: str) -> ParseError:
    return ParseError(message, field=field)


def _expect_keys(obj: dict, required: dict, optional: dict, where: str) -> None:
    for key, kind in required.items():
        if key not in obj:
            raise _fail(f"missing required field '{key}'", f"{where}.{key}")
        _check_type(obj[key], kind, f"{where}.{key}")
    for key in obj:
        if key not in required and key not in optional:
            raise _fail(f"unknown field '{key}'", f"{where}.{key}")
        if key in optional and obj[key] is not None:
            _check_type(obj[key], optional[key], f"{where}.{key}")


def _check_type(value, kind, where: str) -> None:
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _fail("expected a number", where)
        if not abs(value) <= sys.float_info.max:  # NaN, +-Inf, or an int no float can hold
            raise _fail("expected a finite number", where)
    elif kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise _fail("expected an integer", where)
    elif kind is str:
        if not isinstance(value, str):
            raise _fail("expected a string", where)
    elif kind is list:
        if not isinstance(value, list):
            raise _fail("expected a list", where)
    elif kind is dict:
        if not isinstance(value, dict):
            raise _fail("expected an object", where)
    elif kind is bool:
        if not isinstance(value, bool):
            raise _fail("expected a boolean", where)


def _check_matrix(rows, where: str, width: int | None = None) -> None:
    if not isinstance(rows, list) or not rows:
        raise _fail("expected a non-empty list of rows", where)
    length = width
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise _fail("expected a list of numbers", f"{where}[{i}]")
        if length is None:
            length = len(row)
        if len(row) != length:
            raise _fail("ragged rows", f"{where}[{i}]")
        for j, x in enumerate(row):
            _check_type(x, float, f"{where}[{i}][{j}]")


def _check_vector(values, where: str) -> None:
    if not isinstance(values, list) or not values:
        raise _fail("expected a non-empty list of numbers", where)
    for i, x in enumerate(values):
        _check_type(x, float, f"{where}[{i}]")


def _validate_hermite_block(block: dict, where: str) -> None:
    _expect_keys(
        block,
        required={"knots": list, "points": list, "velocities": list},
        optional={"oscillation": float},
        where=where,
    )
    _check_vector(block["knots"], f"{where}.knots")
    _check_matrix(block["points"], f"{where}.points")
    _check_matrix(block["velocities"], f"{where}.velocities", width=len(block["points"][0]))
    if len(block["points"]) != len(block["knots"]) or len(block["velocities"]) != len(block["knots"]):
        raise _fail("knots, points, and velocities must have equal length", where)


def _validate_representation(rep: dict, ambient_dim: int) -> None:
    _check_type(rep, dict, "$.representation")
    if "type" not in rep:
        raise _fail("missing required field 'type'", "$.representation.type")
    kind = rep["type"]
    if kind == "primitive":
        _expect_keys(rep, {"type": str, "name": str, "params": dict}, {}, "$.representation")
        if rep["name"] not in _PRIMITIVES:
            raise _fail(f"unknown primitive '{rep['name']}'", "$.representation.name")
        param_schema = _PRIMITIVES[rep["name"]]["params"]
        _expect_keys(rep["params"], param_schema, {}, "$.representation.params")
        if rep["name"] == "torus":
            _check_vector(rep["params"]["windings"], "$.representation.params.windings")
            for i, w in enumerate(rep["params"]["windings"]):
                _check_type(w, int, f"$.representation.params.windings[{i}]")
    elif kind == "hermite":
        _expect_keys(rep, {"type": str, "segments": list}, {}, "$.representation")
        if not rep["segments"]:
            raise _fail("expected at least one segment", "$.representation.segments")
        for i, block in enumerate(rep["segments"]):
            _check_type(block, dict, f"$.representation.segments[{i}]")
            _validate_hermite_block(block, f"$.representation.segments[{i}]")
            if len(block["points"][0]) != ambient_dim:
                raise _fail(
                    f"segment dimension {len(block['points'][0])} != ambient_dim {ambient_dim}",
                    f"$.representation.segments[{i}].points",
                )
    elif kind == "stitched":
        required = {
            "type": str,
            "t": int,
            "epsilon": float,
            "generator": int,
            "residual_phase": float,
            "slope_magnitude": float,
            "holonomy_angle": float,
            "lift_length": float,
            "partition": list,
            "turn_points": list,
            "delta": float,
            "max_offset": float,
            "theta": dict,
            "beta_segments": list,
            "claimed_length": float,
        }
        _expect_keys(rep, required, {}, "$.representation")
        _check_vector(rep["partition"], "$.representation.partition")
        _check_vector(rep["turn_points"], "$.representation.turn_points")
        _expect_keys(
            rep["theta"],
            {"breakpoints": list, "values": list, "slopes": list},
            {},
            "$.representation.theta",
        )
        _check_vector(rep["theta"]["breakpoints"], "$.representation.theta.breakpoints")
        _check_vector(rep["theta"]["values"], "$.representation.theta.values")
        if rep["theta"]["slopes"]:
            _check_vector(rep["theta"]["slopes"], "$.representation.theta.slopes")
        for i, block in enumerate(rep["beta_segments"]):
            _check_type(block, dict, f"$.representation.beta_segments[{i}]")
            _validate_hermite_block(block, f"$.representation.beta_segments[{i}]")
            if len(block["points"][0]) != 4:
                raise _fail("lift data must be 4-dimensional", f"$.representation.beta_segments[{i}].points")
        if ambient_dim != 4:
            raise _fail("stitched curves live on S^3 (ambient_dim 4)", "$.ambient_dim")
    else:
        raise _fail(f"unknown representation type '{kind}'", "$.representation.type")


_SPACES = ("s2", "s3", "product")


def _validate(data: dict) -> None:
    _check_type(data, dict, "$")
    _expect_keys(
        data,
        required={
            "format_version": int,
            "space": str,
            "ambient_dim": int,
            "representation": dict,
        },
        optional={
            "name": str,
            "provenance": str,
            "self_intersections": list,
            "closed": bool,
        },
        where="$",
    )
    if data["format_version"] != FORMAT_VERSION:
        raise _fail(f"unsupported format_version {data['format_version']}", "$.format_version")
    space = data["space"]
    dim = data["ambient_dim"]
    if space.startswith("torus-"):
        try:
            d = int(space.split("-", 1)[1])
        except ValueError:
            raise _fail(f"bad torus space tag '{space}'", "$.space") from None
        if dim != 2 * d:
            raise _fail(f"space {space} needs ambient_dim {2 * d}, got {dim}", "$.ambient_dim")
    elif space not in _SPACES:
        raise _fail(f"unknown space '{space}'", "$.space")
    elif space == "s2" and dim != 3:
        raise _fail("space s2 needs ambient_dim 3", "$.ambient_dim")
    elif space == "s3" and dim != 4:
        raise _fail("space s3 needs ambient_dim 4", "$.ambient_dim")
    if data.get("self_intersections") is not None:
        for i, pair in enumerate(data["self_intersections"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise _fail("expected [s, s~] pairs", f"$.self_intersections[{i}]")
            for j, x in enumerate(pair):
                _check_type(x, float, f"$.self_intersections[{i}][{j}]")
    _validate_representation(data["representation"], dim)


def parse_curve(text: str) -> CurveDescription:
    """Parse and validate a curve description; rejects unknown fields."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    _validate(data)
    return CurveDescription(data)


def serialize_curve(desc: CurveDescription) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(desc.data, sort_keys=True, indent=2) + "\n"


def _primitive_curve(name: str, params: dict) -> PiecewiseCurve:
    if name == "equator":
        return catalog.equator_curve()
    if name == "latitude-circle":
        return catalog.latitude_circle(params["polar_angle"])
    if name == "s3-explicit":
        return catalog.explicit_s3_curve(params["t"])
    if name == "torus":
        return catalog.winding_torus_curve(params["windings"])
    raise ParseError(f"unknown primitive '{name}'", field="$.representation.name")


def build_curve(desc: CurveDescription) -> PiecewiseCurve:
    """Reconstruct the runtime curve a description denotes."""
    rep = desc.data["representation"]
    declared = desc.data.get("self_intersections")
    closed = desc.data.get("closed", True)
    if rep["type"] == "primitive":
        curve = _primitive_curve(rep["name"], rep["params"])
    elif rep["type"] == "hermite":
        segments = [
            hermite_segment(
                np.asarray(block["knots"]),
                np.asarray(block["points"]),
                np.asarray(block["velocities"]),
                oscillation=block.get("oscillation", 1.0),
            )
            for block in rep["segments"]
        ]
        curve = PiecewiseCurve(segments, len(rep["segments"][0]["points"][0]), closed=closed)
    else:
        curve = _rebuild_stitched(rep).gamma
    if declared is not None:
        curve = curve.with_declared_self_intersections([tuple(p) for p in declared])
    return curve


def _rebuild_stitched(rep: dict) -> StitchedCurve:
    beta_segments = [
        hermite_segment(
            np.asarray(block["knots"]),
            np.asarray(block["points"]),
            np.asarray(block["velocities"]),
            oscillation=block.get("oscillation", 1.0),
        )
        for block in rep["beta_segments"]
    ]
    beta = PiecewiseCurve(beta_segments, 4, closed=False)
    pos0, _ = beta.point_velocity(0.0)
    lift = LiftResult(
        beta=beta,
        start_point=SpherePoint3.from_r4(pos0[0]),
        lift_length=rep["lift_length"],
        diagnostics={},
    )
    plan = StitchPlan(
        t=rep["t"],
        epsilon=rep["epsilon"],
        residual_phase=rep["residual_phase"],
        slope_magnitude=rep["slope_magnitude"],
        generator=rep["generator"],
        holonomy_angle=rep["holonomy_angle"],
        lift_length=rep["lift_length"],
        partition=tuple(rep["partition"]),
        turn_points=tuple(rep["turn_points"]),
        delta=rep["delta"],
        max_offset=rep["max_offset"],
    )
    theta = PhaseProfile(
        breakpoints=tuple(rep["theta"]["breakpoints"]),
        values=tuple(rep["theta"]["values"]),
        slopes=tuple(rep["theta"]["slopes"]),
    )
    return assemble(plan, theta, lift)


def _space_tag(curve: PiecewiseCurve, space: str | None) -> str:
    if space is not None:
        return space
    if curve.ambient_dim == 3:
        return "s2"
    if curve.ambient_dim == 4:
        return "s3"
    if curve.ambient_dim % 2 == 0:
        return f"torus-{curve.ambient_dim // 2}"
    return "product"


def _hermite_blocks_from_segments(segments) -> list[dict]:
    blocks = []
    for seg in segments:
        meta = seg.meta
        if meta is None or meta.get("type") != "hermite":
            return []
        blocks.append(
            {
                "knots": meta["knots"],
                "points": meta["points"],
                "velocities": meta["velocities"],
                "oscillation": seg.oscillation,
            }
        )
    return blocks


def _resample_hermite(curve: PiecewiseCurve, knots_per_segment: int = 257) -> list[dict]:
    blocks = []
    for seg in curve.segments:
        count = max(knots_per_segment, math.ceil(64 * seg.oscillation) | 1)
        knots = np.linspace(seg.s_lo, seg.s_hi, count)
        pos, vel = seg.func(knots)
        blocks.append(
            {
                "knots": knots.tolist(),
                "points": pos.tolist(),
                "velocities": vel.tolist(),
                "oscillation": seg.oscillation,
            }
        )
    return blocks


def describe_curve(
    curve: PiecewiseCurve,
    name: str = "",
    space: str | None = None,
    provenance: str = "",
) -> CurveDescription:
    """Description of a curve: its primitive if it has one, else Hermite data.

    Curves without analytic metadata (reparameterizations, products) are
    resampled onto dense Hermite knots; that is an approximation, tight for
    smooth segments but still an approximation.
    """
    first_meta = curve.segments[0].meta
    if (
        len(curve.segments) == 1
        and first_meta is not None
        and first_meta.get("type") == "analytic"
    ):
        representation = {
            "type": "primitive",
            "name": first_meta["primitive"],
            "params": first_meta["params"],
        }
    else:
        blocks = _hermite_blocks_from_segments(curve.segments)
        if not blocks:
            blocks = _resample_hermite(curve)
        representation = {"type": "hermite", "segments": blocks}

    data = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "provenance": provenance,
        "space": _space_tag(curve, space),
        "ambient_dim": curve.ambient_dim,
        "closed": curve.closed,
        "self_intersections": None
        if curve.declared_self_intersections is None
        else [list(p) for p in curve.declared_self_intersections],
        "representation": representation,
    }
    _validate(data)
    return CurveDescription(data)


def describe_stitched(
    stitched: StitchedCurve, name: str = "", provenance: str = ""
) -> CurveDescription:
    """Exact description of a stitched curve: lift Hermite data plus phases."""
    plan, theta = stitched.plan, stitched.theta
    beta_blocks = _hermite_blocks_from_segments(stitched.lift.beta.segments)
    if not beta_blocks:
        beta_blocks = _resample_hermite(stitched.lift.beta)
    data = {
        "format_version": FORMAT_VERSION,
        "name": name,
        "provenance": provenance,
        "space": "s3",
        "ambient_dim": 4,
        "closed": True,
        "self_intersections": None
        if stitched.gamma.declared_self_intersections is None
        else [list(p) for p in stitched.gamma.declared_self_intersections],
        "representation": {
            "type": "stitched",
            "t": plan.t,
            "epsilon": plan.epsilon,
            "generator": plan.generator,
            "residual_phase": plan.residual_phase,
            "slope_magnitude": plan.slope_magnitude,
            "holonomy_angle": plan.holonomy_angle,
            "lift_length": plan.lift_length,
            "partition": list(plan.partition),
            "turn_points": list(plan.turn_points),
            "delta": plan.delta,
            "max_offset": plan.max_offset,
            "theta": {
                "breakpoints": list(theta.breakpoints),
                "values": list(theta.values),
                "slopes": list(theta.slopes),
            },
            "beta_segments": beta_blocks,
            "claimed_length": stitched.claimed_length,
        },
    }
    _validate(data)
    return CurveDescription(data)
