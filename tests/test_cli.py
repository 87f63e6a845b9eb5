"""Command-line surface: flows, exit codes, report and export formats."""

import json
import math

from click.testing import CliRunner

from hopfdesign.cli import cli


def run(*args):
    return CliRunner().invoke(cli, [str(a) for a in args])


def test_example_and_verify_flow(tmp_path):
    curve = tmp_path / "explicit.curve"
    report = tmp_path / "report.json"
    result = run("example", "--name", "s3-explicit", "--t", 3, "--out", curve)
    assert result.exit_code == 0, result.output
    result = run("verify", "--curve", curve, "--t", 3, "--space", "s3", "--report", report)
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert payload["verdict"] == "pass"
    assert payload["max_residual"] < 1e-8


def test_verify_failure_exits_4(tmp_path):
    curve = tmp_path / "explicit.curve"
    report = tmp_path / "report.json"
    run("example", "--name", "s3-explicit", "--t", 3, "--out", curve)
    result = run("verify", "--curve", curve, "--t", 4, "--space", "s3", "--report", report)
    assert result.exit_code == 4
    assert "E_VERIFY" in result.output
    assert json.loads(report.read_text())["verdict"] == "fail"


def test_stitch_pipeline(tmp_path):
    alpha = tmp_path / "equator.curve"
    gamma = tmp_path / "gamma.curve"
    st_report = tmp_path / "stitch.json"
    v_report = tmp_path / "verify.json"
    run("example", "--name", "equator", "--out", alpha)
    result = run(
        "stitch", "--alpha", alpha, "--t", 3, "--epsilon", 0, "--out", gamma,
        "--report", st_report,
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(st_report.read_text())
    assert abs(payload["claimed_length"] - math.pi * math.sqrt(20)) < 1e-8
    assert payload["seed"] is not None

    result = run("verify", "--curve", gamma, "--t", 3, "--space", "s3", "--report", v_report)
    assert result.exit_code == 0, result.output


def test_lift_report_fields(tmp_path):
    alpha = tmp_path / "equator.curve"
    beta = tmp_path / "beta.curve"
    report = tmp_path / "lift.json"
    run("example", "--name", "equator", "--out", alpha)
    result = run(
        "lift", "--alpha", alpha, "--t", 3, "--out", beta, "--report", report
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert abs(payload["holonomy_angle"] - math.pi) < 1e-9
    assert payload["generator"] == 1
    assert abs(abs(payload["residual_phase"]) - math.pi / 2) < 1e-9
    assert abs(payload["lift_length"] - math.pi) < 1e-9
    assert abs(payload["generator_bound"] - math.pi / 2) < 1e-12
    assert payload["settings"]["knots_per_unit"] == 4096
    assert payload["settings"]["phase_error"] < 1e-10


def test_lift_with_explicit_start(tmp_path):
    alpha = tmp_path / "equator.curve"
    beta = tmp_path / "beta.curve"
    report = tmp_path / "lift.json"
    run("example", "--name", "equator", "--out", alpha)
    root_half = 1 / math.sqrt(2)
    result = run(
        "lift", "--alpha", alpha, "--start", f"{root_half},0,{root_half},0",
        "--t", 2, "--out", beta, "--report", report,
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert abs(abs(payload["residual_phase"]) - math.pi / 3) < 1e-9


def test_export_rows_and_monotone_s(tmp_path):
    curve = tmp_path / "torus.curve"
    out = tmp_path / "samples.csv"
    run("example", "--name", "torus", "--t", 3, "--d", 2, "--out", curve)
    result = run("export", "--curve", curve, "--samples", 64, "--out", out)
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,x1,x2,x3,x4"
    assert len(lines) == 1 + 65
    s_vals = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(s_vals, s_vals[1:]))
    first = [float(v) for v in lines[1].split(",")[1:]]
    last = [float(v) for v in lines[-1].split(",")[1:]]
    assert max(abs(a - b) for a, b in zip(first, last)) < 1e-9


def test_export_stereographic(tmp_path):
    curve = tmp_path / "explicit.curve"
    out = tmp_path / "proj.csv"
    run("example", "--name", "s3-explicit", "--t", 3, "--out", curve)
    result = run(
        "export", "--curve", curve, "--samples", 10, "--projection", "stereographic",
        "--out", out,
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,x,y,z"
    assert len(lines) == 12


def test_export_projection_requires_s3(tmp_path):
    curve = tmp_path / "equator.curve"
    run("example", "--name", "equator", "--out", curve)
    result = run(
        "export", "--curve", curve, "--samples", 10, "--projection", "stereographic"
    )
    assert result.exit_code == 2
    assert "E_DOMAIN" in result.output


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.curve"
    bad.write_text('{"format_version": 1}')
    result = run("verify", "--curve", bad, "--t", 2, "--space", "s2", "--report", tmp_path / "r.json")
    assert result.exit_code == 2
    assert "E_PARSE" in result.output


def test_parse_rejects_non_finite_numbers(tmp_path):
    knots = [k / 8 for k in range(9)]
    points = [[math.cos(2 * math.pi * s), math.sin(2 * math.pi * s), 0.0] for s in knots]
    velocities = [
        [-2 * math.pi * math.sin(2 * math.pi * s), 2 * math.pi * math.cos(2 * math.pi * s), 0.0]
        for s in knots
    ]
    segment = {"knots": knots, "points": points, "velocities": velocities}
    curve = {
        "format_version": 1,
        "space": "s2",
        "ambient_dim": 3,
        "representation": {"type": "hermite", "segments": [segment]},
    }
    path = tmp_path / "hermite.curve"
    path.write_text(json.dumps(curve))
    args = ("verify", "--curve", path, "--t", 1, "--space", "s2", "--report", tmp_path / "r.json")
    result = run(*args)
    assert result.exit_code in (0, 4), result.output
    nan, inf = float("nan"), float("inf")
    cases = (
        ("points", nan), ("velocities", inf), ("knots", nan), ("points", -inf), ("points", 10**400)
    )
    for field, bad in cases:
        broken = json.loads(json.dumps(curve))
        target = broken["representation"]["segments"][0][field]
        if field == "knots":
            target[3] = bad
        else:
            target[3][1] = bad
        path.write_text(json.dumps(broken))
        result = run(*args)
        assert result.exit_code == 2, (field, result.output)
        assert "E_PARSE" in result.output


def test_stitch_determinism(tmp_path):
    alpha = tmp_path / "equator.curve"
    run("example", "--name", "equator", "--out", alpha)
    outputs = []
    for tag in ("a", "b"):
        gamma = tmp_path / f"gamma-{tag}.curve"
        report = tmp_path / f"report-{tag}.json"
        result = run(
            "stitch", "--alpha", alpha, "--t", 2, "--epsilon", 0.5, "--seed", 99,
            "--out", gamma, "--report", report,
        )
        assert result.exit_code == 0, result.output
        outputs.append(gamma.read_text())
    assert outputs[0] == outputs[1]


def test_lemmas_output():
    result = run("lemmas", "--t", 2)
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        residual = float(line.rsplit(":", 1)[1])
        assert residual < 1e-6


def test_verify_space_dimension_mismatch(tmp_path):
    curve = tmp_path / "explicit.curve"
    run("example", "--name", "s3-explicit", "--t", 2, "--out", curve)
    result = run("verify", "--curve", curve, "--t", 2, "--space", "s2", "--report", tmp_path / "r.json")
    assert result.exit_code == 2
    assert "E_DOMAIN" in result.output
