"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

import plasmeig
from plasmeig import cli, validate
from plasmeig.cli import canonical_json, cmd_perturb, main
from plasmeig.curve2d import CurveParam
from plasmeig.errors import NumericalError, PlasmeigError
from plasmeig.validate import CHECK_NAMES, GOLDEN_EPSDDOT_Y20

from test_perturb import random_shape
from test_spectrum2d import count_block_steps
from test_sphere3d import field_json

KITE = {"kind": "fourier", "cos": [1.0, 0.25, 0.15], "sin": [0.0, 0.0, 0.05]}
ELLIPSE = {"kind": "ellipse", "a": 2.0, "b": 1.0}
NAN = float("nan")
INF = float("inf")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def refuse_constant(token):
    raise ValueError("artifact holds %s, which is not JSON" % token)


def read_record(out_dir, command):
    # strict JSON: NaN and Infinity tokens fail every CLI test that reads
    # the artifact
    path = os.path.join(str(out_dir), command.replace("-", "_") + ".json")
    with open(path, "rb") as handle:
        raw = handle.read()
    return json.loads(raw.decode(), parse_constant=refuse_constant), raw


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
    assert record["outputs"]["spectrum"]["curve"] == \
        CurveParam.from_config(KITE).to_config()
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


def test_spectrum_at_extreme_scales(tmp_path, capsys):
    # the eigenvalues do not depend on the size of the curve until the
    # squared node offsets leave the normal float range, which exits 3
    def job(scale):
        cfg = write_config(tmp_path, "job.json",
                           {"curve": ELLIPSE, "N": 128, "num_eigs": 4,
                            "scale": scale})
        out = tmp_path / str(scale)
        code = main(["spectrum", "--config", cfg, "--out", str(out)])
        if code:
            return code, None
        record, _ = read_record(out, "spectrum")
        return code, np.array(record["outputs"]["spectrum"]["eigenvalues"])

    _, base = job(1.0)
    for scale in (1e110, 1e-150):
        code, values = job(scale)
        assert code == 0
        assert np.max(np.abs(values - base)) <= 1e-12
    capsys.readouterr()
    for scale in (1e200, 1e-200):
        assert job(scale) == (3, None)
        assert "squared node offsets" in capsys.readouterr().err


def test_spectrum_dtn_route_factors_nothing(tmp_path, monkeypatch):
    # both spectrum routes and 2D perturb work on eigendensities, which
    # need only S and K*: the bordered single-layer system is never
    # factored. The only LU is 2D perturb's shifted pencil, (N - 1) square,
    # one per shifted curve
    calls = []
    getrf = scipy.linalg.lapack.dgetrf

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return getrf(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counting)
    jobs = {"dtn": ("spectrum", {"curve": KITE, "N": 64, "num_eigs": 8}),
            "np": ("spectrum", {"curve": KITE, "N": 64, "num_eigs": 8,
                                "route": "np"}),
            "2d": ("perturb", {"mode": "2d", "curve": KITE, "N": 64,
                               "a": {"cos": [0.0, 1.0]},
                               "h_list": [1e-2, 5e-3]})}
    for name, (command, job) in jobs.items():
        cfg = write_config(tmp_path, "job_%s.json" % name, job)
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / name)]) == 0
    assert calls == [63] * 4


def test_spectrum_takes_arnoldi_only_at_large_n(tmp_path, monkeypatch):
    # the kite's one block of N = 1024 rows solves by the block Arnoldi
    # step on K* (one converged block solve per spectrum); 128 rows for num
    # 40 by the dense pencil
    calls = count_block_steps(monkeypatch)
    for n, expected in ((1024, [True]), (128, [])):
        calls.clear()
        cfg = write_config(tmp_path, "job_%d.json" % n,
                           {"curve": KITE, "N": n, "num_eigs": 40})
        assert main(["spectrum", "--config", cfg, "--out",
                     str(tmp_path / str(n))]) == 0
        assert calls == expected
    # the README 2D perturb job at N = 512: the base spectrum by the block
    # step; each of the 6 followed eigenvalues on its mirror block's pencil,
    # which costs less than a block step on both blocks; epsdot is the dense
    # pencil's value
    job = {"mode": "2d", "curve": ELLIPSE,
           "a": {"cos": [0.0, 0.0, 1.0], "sin": []}, "N": 512,
           "eps_index": 0, "h_list": [1e-2, 5e-3, 2.5e-3]}
    cfg = write_config(tmp_path, "perturb.json", job)
    calls.clear()
    assert main(["perturb", "--config", cfg, "--out",
                 str(tmp_path / "perturb")]) == 0
    assert calls == [True]
    record, _ = read_record(tmp_path / "perturb", "perturb")
    assert record["flags"] == {"fd_slope_ok": True}
    dense = -0.7179890884119251
    assert abs(record["outputs"]["epsdot"] - dense) <= 1e-10 * abs(dense)


def test_spectrum_imports_no_sparse_solver(tmp_path):
    # ellipse(20, 1) needs the largest Krylov space of the tested curves; the
    # job runs in a fresh interpreter, so no other test's imports count
    cfg = write_config(tmp_path, "job.json",
                       {"curve": {"kind": "ellipse", "a": 20.0, "b": 1.0},
                        "N": 1024, "num_eigs": 40})
    script = ("import sys\n"
              "from plasmeig.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('scipy.sparse' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmeig.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", script, "spectrum", "--config", cfg, "--out",
         str(tmp_path / "out")], env=env, capture_output=True, text=True,
        check=True)
    assert run.stdout.splitlines()[-1] == "False"


def test_cli_import_loads_no_numerical_module():
    # --threads pins BLAS through the environment, which only works when
    # importing the CLI has not loaded numpy yet
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmeig.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, plasmeig.cli\n"
         "print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert run.stdout.strip() == "False"


def test_plane_jobs_do_not_load_the_acceptance_suite(tmp_path):
    # the 2D perturb and dn-derivative engines live in dtn_shape; only the
    # validate command loads the acceptance suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmeig.__file__)))
    jobs = {"perturb": {"mode": "2d", "curve": ELLIPSE,
                        "a": {"cos": [0, 0, 1]}, "N": 32, "num_eigs": 4},
            "dn-derivative": {"curve": ELLIPSE, "a": {"cos": [0, 0, 1]},
                              "N": 32}}
    for command, job in jobs.items():
        cfg = write_config(tmp_path, "job.json", job)
        run = subprocess.run(
            [sys.executable, "-c", "import sys\n"
             "from plasmeig.cli import main\n"
             "code = main([%r, '--config', %r, '--out', %r])\n"
             "print(code in (0, 1), 'plasmeig.validate' in sys.modules)"
             % (command, cfg, str(tmp_path / "out"))],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        assert run.stdout.split()[-2:] == ["True", "False"], command


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
    assert set(record["flags"]) == {"gauge_independent", "routes_agree"}


def test_perturb_sphere_flags_scale_with_the_terms(tmp_path):
    # k = L = 30: the route gap (~3.5e-8) and the gauge residual (~4.7e-10)
    # are roundoff on quadrature terms summing to ~2.8e6 in magnitude
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 30, "branch": 0, "order": 2,
                        "a": field_json(random_shape(30, seed=0))})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert all(record["flags"].values())
    scale = sum(abs(x) for x in record["outputs"]["second_order"]["lines"])
    assert scale > 1e6
    assert record["outputs"]["route_gap"] <= 1e-8 * scale


def coeff_list(c, *indices):
    return [{"l": l, "m": m, "c": c} for l, m in indices]


@pytest.mark.parametrize("k, branch, shape", [
    # compatibility residuals 1.49e-8 and 2.1e-8: roundoff on coefficients
    # of the shape's size, which an absolute bound of 1e-8 refused (exit 3)
    (1, 2, {"L": 2, "coeffs": coeff_list(1e7, (2, 0))}),
    (3, 1, {"L": 4, "coeffs": coeff_list(3e6, (2, 1), (4, -3), (3, 0))})])
def test_perturb_sphere_compatibility_scales_with_the_shape(tmp_path, k,
                                                            branch, shape):
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": k, "branch": branch,
                        "order": 2, "a": shape})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["passed"] is True
    assert len(record["flags"]) == 2 and all(record["flags"].values())
    if k == 1:
        # epsddot is quadratic in the shape: 1e14 times the golden value
        want = 1e14 * GOLDEN_EPSDDOT_Y20
        got = record["outputs"]["second_order"]["epsddot"]
        assert abs(got - want) <= 1e-8 * want


@given(k=st.integers(1, 4), L=st.integers(0, 4),
       seed=st.integers(0, 10_000), exponent=st.floats(0.0, 8.0))
def test_perturb_sphere_is_homogeneous_in_the_shape(k, L, seed, exponent):
    # a job either passes with every flag true or names its error, whatever
    # the shape's amplitude; q1 is linear and epsddot quadratic in it
    amp = 10.0 ** exponent
    unit = random_shape(L, seed)

    def job(a):
        config = {"mode": "sphere", "k": k, "branch": seed % (2 * k + 1),
                  "order": 2, "a": field_json(a)}
        return cmd_perturb(config, 0)[0]

    try:
        base = job(unit)
    except PlasmeigError as err:
        with pytest.raises(type(err)):
            job(unit.scaled(amp))
        return
    big = job(unit.scaled(amp))
    assert len(base.flags) == len(big.flags) == 2
    assert all(base.flags.values()) and all(big.flags.values())
    q1 = np.array(base.outputs["first_order"]["q1_matrix"])
    q1_big = np.array(big.outputs["first_order"]["q1_matrix"])
    assert np.max(np.abs(q1_big - amp * q1)) \
        <= 1e-8 * amp * max(1.0, float(np.max(np.abs(q1))))
    second = base.outputs["second_order"]
    scale = max(1.0, sum(abs(x) for x in second["lines"]))
    assert abs(big.outputs["second_order"]["epsddot"]
               - amp * amp * second["epsddot"]) <= 1e-8 * amp * amp * scale


@pytest.mark.parametrize("c", [1e160, 1e300])
def test_perturb_sphere_overflow_writes_no_artifact(tmp_path, c):
    # epsddot is quadratic in the shape, so a huge quadrupole overflows to
    # inf and nan, which the chain refuses where it forms them (here the
    # compatibility scale of solve_udot): the job exits 3 naming the
    # contract, and writes nothing. A fresh interpreter runs it at numpy's
    # default warning filter, as a user would
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 1, "branch": 0, "order": 2,
                        "a": {"L": 2, "coeffs": coeff_list(c, (2, 0))}})
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmeig.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "from plasmeig.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n",
         "perturb", "--config", cfg, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 3
    assert "perturb.solve_udot" in run.stderr
    assert "must be finite" in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("c, stage", [
    (1e155, "solve_udot"), (1.5e154, "epsddot"),
    (8e153, "epsddot_flux_route"), (1e308, "q1_matrix")])
def test_perturb_sphere_overflow_is_one_named_line(tmp_path, capsys, c,
                                                   stage):
    # each stage computes under np.errstate, so the named error is all
    # that reaches stderr; the suite turns numpy warnings into errors, as
    # `python -W error::RuntimeWarning` does, so a leaked warning would end
    # the job in a traceback (exit 1, the code of a failed check)
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 1, "branch": 0, "order": 2,
                        "a": {"L": 2, "coeffs": coeff_list(c, (2, 0))}})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("perturb.%s: " % stage)
    assert "must be finite" in err[0]
    assert not out.exists()


def test_artifact_numbers_must_be_finite():
    # the last guard on every artifact: strict JSON holds no NaN or inf
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NumericalError, match="must be finite"):
            canonical_json({"outputs": [1.0, bad]})


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


def test_perturb_2d_elongated_ellipse(tmp_path):
    # the shifted sample keeps the node images of the base grid, so the
    # tips of an aspect-5 ellipse stay resolved at N = 128
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d",
                        "curve": {"kind": "ellipse", "a": 5.0, "b": 1.0},
                        "a": {"cos": [0.0, 0.0, 1.0]}, "N": 128,
                        "eps_index": 0})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert 1.8 <= record["outputs"]["slope"] <= 2.2


def test_perturb_2d_zero_deformation(tmp_path):
    # a = 0 leaves every finite difference at exactly zero: no slope to fit
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d", "curve": ELLIPSE, "a": {"cos": []},
                        "N": 64, "num_eigs": 4})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, raw = read_record(out, "perturb")
    assert b"NaN" not in raw
    assert record["outputs"]["slope"] is None
    assert record["flags"] == {"zero_deformation_ok": True}


C3 = {"kind": "fourier", "cos": [1.0, 0.0, 0.0, 0.1]}


@pytest.mark.parametrize("curve, shape, index, n", [
    (C3, {"sin": [0.0, 1.0]}, 2, 128),
    (C3, {"sin": [0.0, 1.0]}, 2, 256),
    (C3, {"sin": [0.0, 1.0]}, 7, 128),
    ({"kind": "ellipse", "a": 10.0, "b": 1.0}, {"cos": [0.0, 1.0]}, 9, 128)],
    ids=["threefold-2-N128", "threefold-2-N256", "threefold-7-N128",
         "ellipse10-9-N128"])
def test_perturb_2d_roundoff_derivative_has_no_slope(tmp_path, curve, shape,
                                                     index, n):
    # a mirror symmetry of the curve maps the shape to its negative, so
    # eps(h) = eps(-h): the central differences are roundoff of about
    # u max(1, |eps|) / h, below their floors, with no slope to fit
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d", "curve": curve, "a": shape, "N": n,
                        "num_eigs": 10, "eps_index": index})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["outputs"]["slope"] is None
    assert record["flags"] == {"zero_deformation_ok": True}


@pytest.mark.parametrize("shape, index, n, num", [
    ({"cos": [0.0, 0.0, 1.0]}, 0, 128, 10),
    ({"cos": [0.0, 1.0]}, 4, 128, 10),
    ({"sin": [0.0, 1.0]}, 8, 128, 10),
    ({"cos": [0.0, 0.0, 1.0]}, 1, 512, 10),
    ({"cos": [0.0, 0.0, 1.0]}, 3, 128, 8),
    ({"cos": [0.0, 0.0, 1.0]}, 4, 128, 8),
    ({"cos": [0.0, 0.0, 1.0]}, 3, 128, 9)],
    ids=["cos2-0-N128", "cos1-4-N128", "sin1-8-N128", "cos2-1-N512",
         "cos2-3-num8", "cos2-4-num8", "cos2-3-num9"])
def test_perturb_2d_clustered_eigenvalue_takes_its_branch(tmp_path, shape,
                                                          index, n, num):
    # each index is one member of a 2-fold cluster of the threefold curve:
    # epsdot is its branch of the first-order form on the cluster, and the
    # finite differences follow that branch, also when it leaves the base
    # selection of num eigenvalues at +-h; with num 9 the selection keeps
    # only one member of the pair at index 3
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d", "curve": C3, "a": shape, "N": n,
                        "num_eigs": num, "eps_index": index})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["flags"] == {"fd_slope_ok": True}


FIVEFOLD = {"kind": "fourier", "cos": [1.0, 0.0, 0.0, 0.0, 0.0, 0.1]}


@pytest.mark.parametrize("index", [4, 5])
def test_perturb_2d_fast_convergence_passes(tmp_path, index):
    # on the fivefold curve under cos 2t, epsdot at these indices is 0 by
    # symmetry (1.6e-12) and the central differences fall as h^4: a slope
    # above 2 is faster convergence, not a fault
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d", "curve": FIVEFOLD,
                        "a": {"cos": [0.0, 0.0, 1.0]}, "N": 128,
                        "eps_index": index})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["flags"] == {"fd_slope_ok": True}
    assert abs(record["outputs"]["slope"] - 3.98) < 0.01


@pytest.mark.parametrize("command, job, flags", [
    # the followed branch of a 2-fold cluster of the threefold curve under
    # cos 6t: at the default steps the errors (0.19, 0.24, 0.30) grow as h
    # falls (slope -0.32). Overlap tracking picks the same eigenvalues as
    # nearest-value tracking did; the steps lie outside the h^2 range (see
    # test_perturb_2d_threefold_cos6_converges_at_small_steps)
    ("perturb", {"mode": "2d", "curve": C3,
                 "a": {"cos": [0, 0, 0, 0, 0, 0, 1]}, "N": 128,
                 "eps_index": 2}, {"fd_slope_ok": False}),
    # one one-sided error clears its floor, so that series has no slope
    # and an error above roundoff
    ("dn-derivative", {"curve": ELLIPSE, "a": {"cos": [0, 1e-4]},
                       "N": 128}, {"zero_deformation_ok": False})],
    ids=["threefold-cos6-2", "dn-cos1e-4"])
def test_known_fd_failures_exit_1(tmp_path, command, job, flags):
    cfg = write_config(tmp_path, "job.json", job)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    record, _ = read_record(out, command)
    assert record["flags"] == flags


def test_perturb_2d_threefold_cos6_converges_at_small_steps(tmp_path):
    # the known failure above with steps 50 times smaller: the followed
    # branch converges to epsdot as h^2, so that failure is the default
    # steps lying outside the asymptotic range, not a lost branch
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "2d", "curve": C3,
                        "a": {"cos": [0, 0, 0, 0, 0, 0, 1]}, "N": 128,
                        "eps_index": 2, "h_list": [2e-4, 1e-4, 5e-5]})
    out = tmp_path / "out"
    assert main(["perturb", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "perturb")
    assert record["flags"] == {"fd_slope_ok": True}
    assert abs(record["outputs"]["slope"] - 2.0) < 0.01


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


def test_dn_derivative_roundoff_has_no_slope(tmp_path):
    # a tiny shape leaves every error at roundoff growing like 1/h, below
    # the floors 1e4 u max(1, ||N||_band) / h written with the report
    cfg = write_config(tmp_path, "job.json",
                       {"curve": ELLIPSE, "a": {"cos": [0.0, 1e-9]},
                        "N": 128, "h_list": [1e-2, 5e-3, 2.5e-3]})
    out = tmp_path / "out"
    assert main(["dn-derivative", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "dn_derivative")
    report = record["outputs"]["report"]
    assert report["slopes"] == {"one_sided": None, "central": None}
    assert len(report["fd_floors"]) == 3
    assert record["flags"] == {"zero_deformation_ok": True}


def test_dn_derivative_judges_each_series(tmp_path):
    # a small shape: the one-sided errors converge with slope 1 while the
    # central ones (5.5e-9) sit below their floors (5.9e-9 and up), so the
    # central series passes with no slope
    cfg = write_config(tmp_path, "job.json",
                       {"curve": ELLIPSE, "a": {"cos": [0.0, 1e-3]},
                        "N": 128})
    out = tmp_path / "out"
    assert main(["dn-derivative", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "dn_derivative")
    slopes = record["outputs"]["report"]["slopes"]
    assert slopes["central"] is None
    assert abs(slopes["one_sided"] - 1.0) < 0.05
    assert record["flags"] == {"one_sided_slope_ok": True,
                               "central_slope_ok": True}


@pytest.mark.parametrize("side, slopes", [
    ("interior", (1.0051556843485525, 2.000244011339093)),
    ("exterior", (1.0051557362073358, 2.0002438585964697))])
def test_dn_derivative_readme_job_keeps_its_slopes(tmp_path, side, slopes):
    # the README job: both slopes as fitted before the floors scaled with
    # the operator norm, since every error stays far above its floor
    cfg = write_config(tmp_path, "job.json",
                       {"curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                        "N": 128, "side": side,
                        "h_list": [1e-2, 5e-3, 2.5e-3]})
    out = tmp_path / "out"
    assert main(["dn-derivative", "--config", cfg, "--out", str(out)]) == 0
    record, _ = read_record(out, "dn_derivative")
    assert record["flags"] == {"one_sided_slope_ok": True,
                               "central_slope_ok": True}
    got = record["outputs"]["report"]["slopes"]
    assert abs(got["one_sided"] - slopes[0]) < 1e-8
    assert abs(got["central"] - slopes[1]) < 1e-8


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


def test_bare_validate_runs_the_whole_suite(tmp_path, monkeypatch):
    # no --config: the README's first example, every check in suite order
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--out", "out"]) == 0
    record, _ = read_record(tmp_path / "out", "validate")
    assert record["job"] == {} and record["passed"] is True
    assert [c["name"] for c in record["outputs"]["checks"]] == CHECK_NAMES
    assert list(record["flags"]) == sorted(CHECK_NAMES)
    csv_lines = (tmp_path / "out" / "validate.csv").read_text().splitlines()
    assert csv_lines == ["check,passed"] + ["%s,pass" % name
                                            for name in CHECK_NAMES]


def test_check_raising_a_numerical_error_fails_with_exit_1(tmp_path,
                                                          monkeypatch):
    # a check that raises is a failed check, not a numerical-error exit
    def broken():
        raise NumericalError("sphere3d", "ball_spectrum", "a contract",
                             "broken on purpose")

    monkeypatch.setattr(validate, "check_ball_spectrum", broken)
    cfg = write_config(tmp_path, "job.json",
                       {"checks": ["ball_spectrum", "first_order_sphere"]})
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    record, _ = read_record(out, "validate")
    assert record["passed"] is False
    assert record["flags"] == {"ball_spectrum": False,
                               "first_order_sphere": True}
    failed = record["outputs"]["checks"][0]
    assert failed == {"name": "ball_spectrum", "passed": False,
                      "details": {"error": str(NumericalError(
                          "sphere3d", "ball_spectrum", "a contract",
                          "broken on purpose"))}}
    assert (out / "validate.csv").read_text().splitlines()[1] == \
        "ball_spectrum,fail"


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
    # N = 16 leaves too few mean-zero modes for the 20 this check asks for
    ("validate", {"N": 16, "checks": ["disk_degeneracy"]}, "N"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"uniform": 1.0},
                 "order": True}, "order"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"uniform": 1.0},
                 "order": 2.0}, "order"),
    ("perturb", {"mode": "sphere", "k": 1, "a": {"uniform": 1.0},
                 "order": 1, "branch": "x"}, "branch"),
    # a release gate that runs no check must not pass
    ("validate", {"checks": []}, "checks"),
    # a repeated (l, m) would silently keep only its last value
    ("perturb", {"mode": "sphere", "k": 1,
                 "a": {"L": 2, "coeffs": [{"l": 2, "m": 0, "c": 1.0},
                                          {"l": 2, "m": 0, "c": 5.0}]}},
     "coeffs"),
    ("dn-derivative", {"curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                       "side": "both"}, "side"),
    # N = 64 has 63 mean-zero modes: 100 eigenvalues cannot be computed,
    # whichever of them eps_index picks
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                 "N": 64, "num_eigs": 100}, "num"),
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                 "N": 64, "num_eigs": 100, "eps_index": 70}, "num"),
    # a null shape function is refused by ShapeFn2D.from_config itself
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": None},
     "shape function"),
    ("dn-derivative", {"curve": ELLIPSE, "a": None}, "shape function"),
    # one repeated step leaves the slope fit a single abscissa
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                 "h_list": [1e-2, 1e-2]}, "h_list"),
    ("dn-derivative", {"curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                       "h_list": [1e-2, 1e-2]}, "h_list"),
    # a step must be positive, in both jobs
    ("perturb", {"mode": "2d", "curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                 "h_list": [1e-2, -5e-3]}, "h_list"),
    ("dn-derivative", {"curve": ELLIPSE, "a": {"cos": [0.0, 1.0]},
                       "h_list": [1e-2, 0.0]}, "h_list"),
    ("spectrum", [KITE], "JSON object"),
    ("spectrum", {"curve": KITE, "N": 0}, "N"),
    ("spectrum", {"curve": KITE, "num_eigs": True}, "num_eigs"),
    ("perturb", {"mode": "sphere", "k": 1, "a": 5}, "sphere shape"),
    ("spectrum", {"curve": KITE, "scale": 0.0}, "scale"),
    ("spectrum", {"curve": KITE, "scale": -2.0}, "scale"),
    ("perturb", {"curve": ELLIPSE, "a": {"cos": [0.0, 1.0]}}, "mode"),
    ("perturb", {"mode": "3d", "curve": ELLIPSE, "a": {"cos": [0.0, 1.0]}},
     "mode"),
    ("spectrum", {"curve": {"radius": 1.0}}, "'kind'"),
    ("perturb", {"mode": "2d", "curve": ELLIPSE,
                 "a": {"cos": [0.0, 1.0], "tan": [1.0]}}, "tan"),
    # a coefficient table numpy cannot address is refused before allocating
    ("perturb", {"mode": "sphere", "k": 1,
                 "a": {"L": 10000000000, "coeffs": []}}, "addressable"),
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
    # radius 1 - 1.5 < 0 folds the circle onto its opposite side
    cfg = write_config(tmp_path, "fold.json",
                       {"curve": {"kind": "circle", "radius": 1.0},
                        "a": {"cos": [-1.0]}, "N": 64,
                        "h_list": [1.5, 1.2]})
    assert main(["dn-derivative", "--config", cfg]) == 3
    assert "must not fold the boundary" in capsys.readouterr().err
    # the sevenfold curve at N = 64: the discrete Gauss integral
    # w^T K* = w^T / 2 is off by the quadrature error, so eight K*
    # eigendensities besides that of 1/2 carry a flux cosine above 1e-6
    # (4e-9 at N = 96); the np route names under-resolution
    cfg = write_config(tmp_path, "seven.json",
                       {"curve": {"kind": "fourier",
                                  "cos": [1, 0, 0, 0, 0, 0, 0, 0.15]},
                        "N": 64, "num_eigs": 8, "route": "np"})
    assert main(["spectrum", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "found 9 at N=64, largest extra flux cosine 1.77e-06" in err
    assert "extra carriers mean N does not resolve the curve" in err


def test_failed_allocation_exits_3_naming_the_job(tmp_path, capsys,
                                                  monkeypatch):
    # a job too large for memory (a sphere perturbation at k = 1e10 asks
    # for such arrays) exits 3, not with a traceback and exit 1, which
    # means a failed check
    def too_large(config, seed):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setitem(cli._COMMANDS, "perturb", too_large)
    cfg = write_config(tmp_path, "job.json",
                       {"mode": "sphere", "k": 10 ** 10,
                        "a": {"uniform": 1.0}, "order": 1})
    assert main(["perturb", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "perturb job" in err and cfg in err
    assert "ran out of memory. Unable to allocate 745. GiB" in err


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
