"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os

import numpy as np
import pytest

from plasmeig.cli import canonical_json, main

from test_perturb import random_shape

KITE = {"kind": "fourier", "cos": [1.0, 0.25, 0.15], "sin": [0.0, 0.0, 0.05]}
ELLIPSE = {"kind": "ellipse", "a": 2.0, "b": 1.0}
NAN = float("nan")
INF = float("inf")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_record(out_dir, command):
    path = os.path.join(str(out_dir), command.replace("-", "_") + ".json")
    with open(path, "rb") as handle:
        raw = handle.read()
    return json.loads(raw.decode()), raw


def test_spectrum_job_writes_versioned_artifacts(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"curve": KITE, "N": 64, "num_eigs": 8})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    record, raw = read_record(out, "spectrum")
    assert record["artifact_version"] == 1
    assert record["command"] == "spectrum"
    assert record["passed"] is True
    assert record["job"]["N"] == 64
    eigs = record["outputs"]["spectrum"]["eigenvalues"]
    assert len(eigs) == 8
    assert b"wall" not in raw  # timings go to stdout, never into artifacts
    csv_lines = (out / "spectrum.csv").read_text().splitlines()
    assert csv_lines[0] == "k,epsilon,residual"
    assert len(csv_lines) == 9
    assert float(csv_lines[1].split(",")[1]) == eigs[0]


def test_identical_jobs_yield_identical_bytes(tmp_path):
    cfg = write_config(tmp_path, "job.json", {"curve": KITE, "N": 48})
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        outs.append(read_record(out, "spectrum")[1])
    assert outs[0] == outs[1]


def test_seed_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"checks": ["rayleigh_identity"]})
    raws = []
    for seed, sub in ((0, "s0"), (7, "s7")):
        out = tmp_path / sub
        code = main(["validate", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)])
        assert code == 0
        record, raw = read_record(out, "validate")
        assert record["flags"] == {"rayleigh_identity": True}
        raws.append(record["passed"])
    assert raws[0] == raws[1]


def test_spectrum_scale_leaves_eigenvalues_unchanged(tmp_path):
    values = {}
    for scale, sub in ((1.0, "base"), (2.0, "scaled")):
        cfg = write_config(tmp_path, "job_%s.json" % sub,
                           {"curve": KITE, "N": 64, "num_eigs": 8,
                            "scale": scale})
        out = tmp_path / sub
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        record, _ = read_record(out, "spectrum")
        values[sub] = np.array(record["outputs"]["spectrum"]["eigenvalues"])
    assert np.max(np.abs(values["base"] - values["scaled"])) < 1e-8


def test_spectrum_routes_agree(tmp_path):
    values = {}
    for route in ("dtn", "np"):
        cfg = write_config(tmp_path, "job_%s.json" % route,
                           {"curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
                            "N": 64, "num_eigs": 8, "route": route})
        out = tmp_path / route
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        record, _ = read_record(out, "spectrum")
        assert record["outputs"]["spectrum"]["route"] == route
        values[route] = np.array(record["outputs"]["spectrum"]["eigenvalues"])
    assert np.max(np.abs(values["dtn"] - values["np"])) < 1e-9


def test_perturb_sphere_uniform_shift(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 1, "a": {"uniform": 1.0},
                        "branch": 0, "order": 2})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["passed"] is True
    assert abs(record["outputs"]["second_order"]["epsddot"]) < 1e-8
    assert record["outputs"]["route_gap"] <= 1e-8
    assert set(record["flags"]) == {"q1_symmetric", "gauge_independent",
                                    "compatible", "routes_agree"}


def test_perturb_sphere_flags_scale_with_the_terms(tmp_path):
    # k = L = 30: the route gap (~1.4e-8) and the gauge residual (~4.7e-10)
    # are roundoff on quadrature terms summing to ~2.8e6 in magnitude
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 30, "branch": 0, "order": 2,
                        "a": random_shape(30, seed=0).to_json_dict()})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert all(record["flags"].values())
    scale = sum(abs(x) for x in record["outputs"]["second_order"]["lines"])
    assert scale > 1e6
    assert record["outputs"]["route_gap"] <= 1e-8 * scale


def test_perturb_sphere_first_order_only(tmp_path):
    field = {"L": 2, "coeffs": [{"l": 2, "m": 0, "c": 1.0}]}
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 1, "a": field, "order": 1})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert "second_order" not in record["outputs"]
    branches = record["outputs"]["first_order"]["branches"]
    assert len(branches) == 3
    assert abs(sum(branches)) < 1e-10


def test_perturb_2d_matches_finite_differences(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d", "curve": KITE,
                        "a": {"cos": [0.0, 1.0], "sin": []},
                        "N": 64, "eps_index": 0, "h_list": [1e-2, 5e-3]})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["flags"]["fd_slope_ok"] is True
    assert abs(record["outputs"]["slope"] - 2.0) <= 0.2


def test_dn_derivative_job(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
                        "a": {"cos": [0.0, 1.0]}, "N": 96,
                        "h_list": [1e-2, 5e-3]})
    out = tmp_path / "out"
    assert main(["dn-derivative", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "dn_derivative")
    assert record["flags"]["central_slope_ok"] is True
    assert record["outputs"]["report"]["band"] == 24


def test_dn_derivative_zero_deformation(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"curve": {"kind": "circle", "radius": 2.0},
                        "a": {"cos": [0.0]}, "N": 32,
                        "h_list": [1e-2, 5e-3]})
    out = tmp_path / "out"
    assert main(["dn-derivative", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "dn_derivative")
    assert record["flags"] == {"zero_deformation_ok": True}


def test_validate_subset_passes_and_writes_csv(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"checks": ["ball_spectrum", "first_order_sphere"]})
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "validate")
    names = [c["name"] for c in record["outputs"]["checks"]]
    assert names == ["ball_spectrum", "first_order_sphere"]
    csv_lines = (out / "validate.csv").read_text().splitlines()
    assert csv_lines == ["check,passed", "ball_spectrum,pass",
                         "first_order_sphere,pass"]


def test_validate_underresolved_grid_fails(tmp_path):
    cfg = write_config(tmp_path, "job.json",
                       {"N": 16, "checks": ["ellipse_oracle"]})
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    record, _ = read_record(out, "validate")
    assert record["passed"] is False
    assert record["flags"]["ellipse_oracle"] is False


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad_key.json", {"curve": KITE, "M": 4})
    assert main(["spectrum", "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--config", str(bad)]) == 2

    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["spectrum"]) == 2  # --config required except for validate
    cfg = write_config(tmp_path, "no_curve.json", {"N": 64})
    assert main(["spectrum", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "bad_route.json",
                       {"curve": KITE, "route": "magic"})
    assert main(["spectrum", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "bad_checks.json", {"checks": ["nope"]})
    assert main(["validate", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "ok.json", {"curve": KITE})
    assert main(["spectrum", "--config", cfg, "--seed", "-1"]) == 2
    assert main(["spectrum", "--config", cfg, "--threads", "0"]) == 2


@pytest.mark.parametrize("command, payload, key", [
    ("spectrum", {"curve": {"kind": "circle", "radius": NAN}}, "radius"),
    ("spectrum", {"curve": {"kind": "circle", "radius": "1"}}, "radius"),
    ("spectrum", {"curve": {"kind": "circle", "radius": 10 ** 400}},
     "radius"),
    ("spectrum", {"curve": KITE, "scale": NAN}, "scale"),
    ("spectrum", {"curve": KITE, "scale": INF}, "scale"),
    ("spectrum", {"curve": {"kind": "fourier", "cos": ["a"]}}, "cos"),
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": {"cos": "ab"}}, "cos"),
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                 "h_list": [True, 0.01]}, "h_list"),
    ("dn-derivative", {"curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                       "h_list": [INF, 0.01]}, "h_list"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"uniform": "abc"}},
     "uniform"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"uniform": None}},
     "uniform"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"L": "x", "coeffs": []}},
     "L"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"L": 2, "coeffs": 5}},
     "coeffs"),
    ("validate", {"N": 7}, "N"),
])
def test_malformed_config_values_exit_2(tmp_path, capsys, command, payload,
                                        key):
    cfg = write_config(tmp_path, "job.json", payload)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert key in err and "contract" in err


def test_numerical_errors_exit_3(tmp_path, capsys):
    # a shift large enough to break star-shapedness fails while sampling
    cfg = write_config(tmp_path, "job.json",
                       {"curve": {"kind": "ellipse", "a": 4.0, "b": 1.0},
                        "a": {"sin": [0.0, 1.0]}, "N": 32,
                        "h_list": [0.8, 0.4]})
    assert main(["dn-derivative", "--config", cfg]) == 3
    assert "star-shaped" in capsys.readouterr().err


def test_stdout_mode_prints_record_and_wall_time(tmp_path, capsys):
    cfg = write_config(tmp_path, "job.json", {"curve": KITE, "N": 48,
                                              "num_eigs": 4})
    assert main(["spectrum", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[0])
    assert record["command"] == "spectrum"
    assert lines[0] + "\n" == canonical_json(record)
    assert lines[-1].startswith("wall time:")


def test_threads_flag_pins_environment(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "sentinel")
    cfg = write_config(tmp_path, "job.json", {"curve": KITE, "N": 48,
                                              "num_eigs": 4})
    assert main(["spectrum", "--config", cfg, "--threads", "2"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_unknown_command_is_rejected_by_the_parser():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
