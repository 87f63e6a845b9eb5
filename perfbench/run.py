"""Benchmark of hopfdesign: one workload and one seed per run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 35 --trace 0
    python3 perfbench/selftest.py        # the benchmark's own tiny self-test

Workloads (see cases.py): `construct` runs the CLI flows, stitch -> curve
file -> verify per case plus the identity checks behind `hopfdesign lemmas
--t 8`; `certify` runs certification alone on catalogue curves.  Cases run
one at a time in a closed loop, pass after pass, until the timed part reaches
`--seconds`; the first pass and traced passes always run whole.  Every
output is checked outside the timed region.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones:

    setup_s            import of hopfdesign plus input generation; median of
                       this process and four fresh interpreters doing the same
    wall_s             time of a typical pass over all cases: the sum over
                       cases of each case's median time over the passes
    slowest_case_s     the largest of those per-case medians
    peak_rss_mb        high-water resident set of this process
    design_margin_dec  min over expected-pass certificates of
                       log10(1e-8 / max_residual), set-up check included
    length_margin_dec  min over length checks of log10(1e-8 / relative error)
    lemma_margin_dec   log10(1e-10 / worst identity residual): lemma
                       residuals, and certificate averages recomputed by the
                       benchmark's own quadrature

The failure ratio is `failed / attempted` of the result line; it is not a
metric because it is zero on a correct program.  With `--trace 1` passes
alternate untraced and traced, the metrics are the per-layer ones in
LAYER_UNITS, and the spans go to perfbench/out/.  Per-layer times are
self times of the named spans, medians over the traced passes; counts must
repeat exactly from one traced pass to the next.

Every reported time is scaled to a reference host speed (hostspeed.py):
each case is divided by the time of the workload's fixed reference kernel
sampled just before and after it, each set-up by the kernel's time right
after it, and multiplied by the kernel's nominal time.  The `#` lines give
the raw times as well.

BLAS is pinned to one thread.  The host's speed drifts: on a 2-core KVM
guest (Intel Xeon, Python 3.11, numpy 2.4) identical passes of the lemma
checks took 3.6-6.8 s within 300 s, in regimes lasting seconds to minutes,
and identical passes of the stitch flow 10-16 s, with no steal time, CPU time
equal to wall time and every layer scaling together.  A regime can cover a
whole run, which per-case medians cannot drop; scaling by the reference
kernel does (hostspeed.py gives the spreads with and without it).  The
scalar lemma checks drift most, so they share a workload with the stitch
flow rather than having one of their own.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5

# Per-layer time metrics: the spans whose self times each one sums.
LAYER_TIMES = {
    "lift.horizontal_lift_s": ("lift.horizontal_lift",),
    "lift.enclosed_area_s": ("lift.enclosed_area_check",),
    "stitch.build_plan_s": ("stitch.build_plan",),
    "stitch.select_delta_s": ("stitch.select_delta",),
    # ensure_constant_speed is the construct flow's way into
    # curves.reparameterize_constant_speed.
    "curves.reparameterize_s": ("stitch.ensure_constant_speed",),
    "curves.arc_length_s": ("curves.arc_length",),
    "curve_io.write_s": ("curve_io.describe_stitched", "curve_io.serialize_curve"),
    "curve_io.read_s": ("curve_io.parse_curve", "curve_io.build_curve"),
    "verify.certify_s": ("verify.certify",),
    "verify.average_exchange_s": ("verify.average_exchange_check",),
    "verify.degree_halving_s": ("verify.degree_halving_check",),
    "verify.polygon_design_s": ("verify.polygon_design_check",),
    "verify.design_chain_s": ("verify.design_chain_residual",),
}
LAYER_COUNTS = (
    "lift.base_points",
    "stitch.collision_candidates",
    "stitch.segments",
    "curve_io.bytes",
    "verify.curve_points",
    "verify.monomial_points",
    "verify.poly_calls",
)
LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "curve_io.bytes": "bytes",
    "verify.point_overhead": "1",
    "verify.points_per_poly_call": "count",
    "trace_overhead_ratio": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name: str, seed: int):
    """Import the package and build the workload's inputs.

    Returns the workload, the reference kernel, and the set-up time raw and
    scaled by kernel samples taken right after it.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cases

    workload = cases.BUILDERS[name](seed)
    setup = time.perf_counter() - start
    from hostspeed import HostSpeed

    speed = HostSpeed(name)
    kernel = speed.settled()
    return workload, speed, (setup, speed.scaled(setup, kernel, kernel))


def probe_setup(args) -> tuple[float, float]:
    """Raw and scaled set-up time of a fresh interpreter doing what this process did before its passes."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class Ledger:
    """Checks every case output and keeps the outcomes.

    Outputs are deterministic, so a later pass whose output fingerprint equals
    the first pass's reuses that pass's outcome instead of checking again.
    """

    def __init__(self, workload):
        self.seen: dict[int, tuple] = {}
        self.outcomes = [workload.setup_outcome]
        self.attempted = 1
        self.failed = int(bool(workload.setup_outcome.problems))

    def record(self, index: int, case, output) -> None:
        fingerprint = case.fingerprint(output)
        if index in self.seen and self.seen[index][0] == fingerprint:
            outcome = self.seen[index][1]
        else:
            try:
                outcome = case.check(output)
            except Exception:  # a check that cannot run is a failed check
                outcome = self._failure(f"{case.name}: check raised\n{traceback.format_exc()}")
            self.seen[index] = (fingerprint, outcome)
            self.outcomes.append(outcome)
        self.attempted += 1
        self.failed += int(bool(outcome.problems))

    def fail(self, message: str) -> None:
        self.outcomes.append(self._failure(message))
        self.attempted += 1
        self.failed += 1

    @staticmethod
    def _failure(message: str):
        from cases import Outcome

        return Outcome(problems=[message])


@dataclass
class Measurement:
    """Scaled case times of one run's passes, split by whether the pass was traced.

    The last untraced pass may stop before its end, when the run's time is up.
    """

    ledger: Ledger
    case_times: list[list[float]] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)  # complete untraced passes, unscaled
    traced_walls: list[float] = field(default_factory=list)
    traced_scale: list[float] = field(default_factory=list)  # scaled / raw wall of each traced pass
    tracers: list = field(default_factory=list)

    @property
    def walls(self) -> list[float]:
        """Scaled walls of the complete untraced passes."""
        cases = len(self.case_times[0])
        return [sum(times) for times in self.case_times if len(times) == cases]

    def typical_case_times(self) -> list[float]:
        """Each case's median time over the untraced passes that ran it."""
        return [
            statistics.median(times[index] for times in self.case_times if len(times) > index)
            for index in range(len(self.case_times[0]))
        ]


def run_pass(workload, tracer, ledger, speed, stop=lambda raw: False) -> tuple[list[float], list[float]]:
    """A pass over the cases, until `stop(raw times so far)`; returns each case's raw and scaled time.

    Checks and kernel samples are excluded from the times.
    """
    gc.collect()
    raw, scaled = [], []
    for index, case in enumerate(workload.cases):
        if stop(raw):
            break
        before = speed.sample()
        start = time.perf_counter()
        try:
            output = case.run(tracer)
        except Exception:  # the run goes on and reports the case as failed
            output = None
            message = f"{case.name}: raised\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(speed.scaled(elapsed, before, speed.sample()))
        if output is None:
            ledger.fail(message)
            continue
        ledger.record(index, case, output)
        del output
    return raw, scaled


def measure(workload, speed, seconds: float, trace: int) -> Measurement:
    """Cases until their timed part reaches `seconds`, after at least one whole pass.

    With `trace`, passes alternate untraced and traced and end whole, the
    last one traced.
    """
    from spans import NullTracer, Tracer

    m = Measurement(Ledger(workload))
    timed = 0.0
    traced = False

    def out_of_time(raw: list[float]) -> bool:
        return not trace and bool(m.case_times) and timed + sum(raw) >= seconds

    while True:
        tracer = Tracer() if traced else NullTracer()
        raw, times = run_pass(workload, tracer, m.ledger, speed, out_of_time)
        timed += sum(raw)
        if traced:
            m.traced_walls.append(sum(times))
            m.traced_scale.append(sum(times) / sum(raw))
            m.tracers.append(tracer)
        elif times:
            m.case_times.append(times)
            if len(times) == len(workload.cases):
                m.raw_walls.append(sum(raw))
        if timed >= seconds and (not trace or m.tracers):
            return m
        traced = bool(trace) and not traced


def end_to_end(m: Measurement, setup_samples: list[float]) -> dict:
    import cases

    everything = cases.Outcome()
    for outcome in m.ledger.outcomes:
        everything.merge(outcome)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(m.typical_case_times()), "s"),
        "slowest_case_s": (max(m.typical_case_times()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "design_margin_dec": (cases.margin_dec(cases.DESIGN_TOL, everything.design_residuals), "decades"),
        "length_margin_dec": (cases.margin_dec(cases.LENGTH_MARGIN_CUT, everything.length_errors), "decades"),
        "lemma_margin_dec": (cases.margin_dec(cases.IDENTITY_TOL, everything.identity_residuals), "decades"),
    }


def layer_values(tracer, scale: float) -> dict[str, float]:
    """Layer metrics of one traced pass; self times multiplied by the pass's scale."""
    self_times = tracer.self_times()
    values = {
        name: scale * sum(self_times.get(span, 0.0) for span in spans)
        for name, spans in LAYER_TIMES.items()
    }
    counters = tracer.counters
    for name in LAYER_COUNTS:
        values[name] = counters.get(name, 0.0)
    needed = counters.get("verify.trig_points_needed", 0.0)
    values["verify.point_overhead"] = counters.get("verify.trig_points", 0.0) / needed if needed else 0.0
    calls = counters.get("verify.poly_calls", 0.0)
    values["verify.points_per_poly_call"] = counters.get("verify.poly_points", 0.0) / calls if calls else 0.0
    return values


def per_layer(m: Measurement) -> dict:
    """Median scaled self times over traced passes; counts, which must agree between passes."""
    per_pass = [layer_values(t, scale) for t, scale in zip(m.tracers, m.traced_scale)]
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name not in LAYER_TIMES and len(set(values)) != 1:
            m.ledger.fail(f"count {name} differs between traced passes: {values}")
        metrics[name] = (statistics.median(values), LAYER_UNITS[name])
    overhead = statistics.median(m.traced_walls) / statistics.median(m.walls)
    metrics["trace_overhead_ratio"] = (overhead, LAYER_UNITS["trace_overhead_ratio"])
    return metrics


def result_line(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def write_trace(args, m: Measurement) -> None:
    import machine

    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine.describe(),
        "passes": [
            {"wall_s": wall, "scale": scale, "counters": dict(t.counters), "spans": t.to_records()}
            for t, wall, scale in zip(m.tracers, m.traced_walls, m.traced_scale)
        ],
    }
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    print(f"# spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, speed, setup_own = load_workload(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import hopfdesign from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(*setup_own)
        return 0

    import machine

    print("# machine " + json.dumps(machine.describe()))
    m = measure(workload, speed, args.seconds, args.trace)
    if args.trace:
        metrics = per_layer(m)
        write_trace(args, m)
        print(f"# passes untraced {len(m.walls)}, traced {len(m.traced_walls)}")
    else:
        setup = [setup_own] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(m, [s for _, s in setup])
        print(f"# pass walls raw {[round(w, 3) for w in m.raw_walls]}, scaled {[round(w, 3) for w in m.walls]}")
        print(f"# setup samples raw, scaled {[(round(r, 3), round(s, 3)) for r, s in setup]}")
    for outcome in m.ledger.outcomes:
        for problem in outcome.problems:
            print(f"# FAILED {problem}", file=sys.stderr)
    ledger = m.ledger
    print(f"# fail_ratio {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.4g}")
    print(json.dumps(result_line(ledger, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
