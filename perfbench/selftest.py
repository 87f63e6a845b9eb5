"""Self-test of the benchmark at a tiny size; exits non-zero on failure.

    python3 perfbench/selftest.py

Checks that the result line carries exactly the metrics of BENCHMARK.json
with their units, that a correct tiny workload reports no failure, that the
checks are live (a latitude-0.8 base curve labelled a 1-design must fail),
and that two traced passes give identical counts.
"""

from __future__ import annotations

import json
import math
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402
from hopfdesign import catalog  # noqa: E402
from hopfdesign.hopf import SpherePoint3  # noqa: E402
from hopfdesign.verify import polygon_design_check, random_polynomial  # noqa: E402

import cases  # noqa: E402
import inputs  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SPEED = HostSpeed("construct")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_case_s": "s",
    "peak_rss_mb": "MB",
    "design_margin_dec": "decades",
    "length_margin_dec": "decades",
    "lemma_margin_dec": "decades",
}
PER_LAYER = {
    "lift.horizontal_lift_s": "s",
    "lift.base_points": "count",
    "lift.enclosed_area_s": "s",
    "stitch.build_plan_s": "s",
    "stitch.select_delta_s": "s",
    "stitch.collision_candidates": "count",
    "stitch.segments": "count",
    "curves.reparameterize_s": "s",
    "curves.arc_length_s": "s",
    "curve_io.write_s": "s",
    "curve_io.read_s": "s",
    "curve_io.bytes": "bytes",
    "verify.certify_s": "s",
    "verify.curve_points": "count",
    "verify.monomial_points": "count",
    "verify.point_overhead": "1",
    "verify.average_exchange_s": "s",
    "verify.degree_halving_s": "s",
    "verify.polygon_design_s": "s",
    "verify.design_chain_s": "s",
    "verify.poly_calls": "count",
    "verify.points_per_poly_call": "count",
    "trace_overhead_ratio": "1",
}


def tiny_workload(bases):
    """Construct cases at t=2, eps=0 plus one tiny case of every other kind."""
    rng = np.random.default_rng(7)
    items = [cases.construct_case(base, 2, 0.0) for base in bases]
    items.append(cases.certify_case(
        "s3-explicit-t2", catalog.explicit_s3_curve(2), 2, "sphere", True, math.pi * math.sqrt(10.0), 5
    ))
    poly = random_polynomial(4, 2, rng)

    def polygon(tr):
        with tr.span("verify.polygon_design_check"):
            return polygon_design_check(SpherePoint3(1.0, 0.0), 2, tr.counted_polynomial(poly))

    items.append(cases.lemma_case("polygon", polygon))
    equator = inputs.rotate_curve(catalog.equator_curve(), inputs.random_rotation(rng))
    items.append(cases.lift_area_case("lift-area-equator", equator, 0.5 * math.pi))
    return cases.Workload(items, cases.Outcome())


def result_for(workload, trace: int) -> dict:
    measurement = run.measure(workload, SPEED, seconds=0.0, trace=trace)
    metrics = run.per_layer(measurement) if trace else run.end_to_end(measurement, [1.0])
    return run.result_line(measurement.ledger, metrics)


def require(ok: bool, message) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(declared_e2e == END_TO_END, f"BENCHMARK.json end_to_end {declared_e2e}")
    require(declared_layer == PER_LAYER, f"BENCHMARK.json per_layer {declared_layer}")
    require({w["name"] for w in spec["workloads"]} == set(cases.WORKLOADS), spec["workloads"])

    rotation = inputs.random_rotation(np.random.default_rng(3))
    equator = cases.Base("equator", inputs.rotate_curve(catalog.equator_curve(), rotation), 1)
    good = tiny_workload([equator])

    result = result_for(good, trace=0)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    require(units == END_TO_END, f"untraced metrics {units}")
    require(result["failed"] == 0 and result["correct"], result)
    require(all(m["value"] > 0 for m in result["metrics"].values()), result)

    first = result_for(good, trace=1)
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    require(units == PER_LAYER, f"traced metrics {units}")
    second = result_for(good, trace=1)
    for name in run.LAYER_UNITS:
        if name not in run.LAYER_TIMES and name != "trace_overhead_ratio":
            require(first["metrics"][name] == second["metrics"][name], f"count {name} did not repeat")
    for name in ("lift.base_points", "verify.curve_points", "verify.poly_calls", "curve_io.bytes"):
        require(first["metrics"][name]["value"] > 0, f"{name} counted nothing")

    mislabelled = cases.Base("latitude-0.8-as-1-design", catalog.latitude_circle(0.8), 1)
    bad = result_for(tiny_workload([equator, mislabelled]), trace=0)
    require(bad["failed"] > 0 and not bad["correct"], f"mislabelled base passed: {bad}")
    print(f"selftest ok: fail_ratio {bad['failed']}/{bad['attempted']} with the mislabelled base")
    return 0


if __name__ == "__main__":
    sys.exit(main())
