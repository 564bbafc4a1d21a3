"""Command line front end.

Subcommands: spectrum | perturb | dn-derivative | validate. Every job is
described by a JSON config (strict schemas, unknown keys rejected) and
produces a ResultRecord serialized as canonical, strict JSON, so identical
(config, seed) pairs yield byte-identical artifacts and a NaN or infinity
among the outputs is a numerical error. The finite-difference jobs take
their verdicts from dtn_shape.fd_flags. Wall-clock times are printed to
stdout and never written into artifacts. Exit codes: 0 pass, 1 validation
failure, 2 config error, 3 numerical error.

Numerical modules are imported inside the handlers so that --threads can
pin the BLAS thread count through the environment before anything loads;
only errors, which imports no numerical module, loads with this one.
"""

import argparse
import json
import os
import sys
import time

from .errors import (ConfigError, NumericalError, PlasmeigError,
                     finite_number, finite_numbers)

ARTIFACT_VERSION = 1

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ResultRecord:
    """Deterministic job outcome: echo of the job, outputs, check flags."""

    def __init__(self, command, job, outputs, flags):
        self.command = command
        self.job = job
        self.outputs = outputs
        self.flags = flags
        self.passed = all(flags.values()) if flags else True

    def to_json_dict(self):
        return {"artifact_version": ARTIFACT_VERSION,
                "command": self.command,
                "job": self.job,
                "outputs": self.outputs,
                "flags": self.flags,
                "passed": self.passed}


def canonical_json(obj):
    """obj as strict JSON; a NaN or infinity is a NumericalError, since the
    JSON tokens for them do not exist."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError("cli", "canonical_json",
                             "artifact numbers must be finite", str(exc))


def _check_keys(config, required, optional, operation):
    if not isinstance(config, dict):
        raise ConfigError("cli", operation, "job config must be a JSON object",
                          "got %r" % type(config).__name__)
    missing = required - set(config)
    if missing:
        raise ConfigError("cli", operation, "missing required config keys",
                          "%s" % sorted(missing))
    unknown = set(config) - required - optional
    if unknown:
        raise ConfigError("cli", operation, "unknown config keys rejected",
                          "%s" % sorted(unknown))


def _positive_int(config, key, default, operation):
    value = config.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigError("cli", operation,
                          "%s must be a positive integer" % key,
                          "%s=%r" % (key, value))
    return value


def _int_choice(config, key, default, choices, contract, operation):
    """An integer config value (not a boolean) that lies in choices."""
    value = config.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value not in choices:
        raise ConfigError("cli", operation, contract, "%s=%r" % (key, value))
    return value


def _step_list(config, operation):
    return finite_numbers(config.get("h_list", [1e-2, 5e-3, 2.5e-3]),
                          "h_list", "cli", operation)


def _shape_sphere(obj, operation):
    from .perturb import uniform_shape
    from .sphere3d import SHField
    if isinstance(obj, dict) and set(obj) == {"uniform"}:
        return uniform_shape(finite_number(obj["uniform"], "uniform", "cli",
                                           operation))
    if isinstance(obj, dict):
        return SHField.from_json_dict(obj)
    raise ConfigError("cli", operation,
                      "sphere shape must be {'uniform': v} or an SH field",
                      "got %r" % (obj,))


def cmd_spectrum(config, seed):
    from .bem2d import build_dtn
    from .curve2d import CurveParam, sample_curve
    from .spectrum2d import np_route, solve_plasmonic
    _check_keys(config, {"curve"}, {"N", "num_eigs", "route", "scale"},
                "cmd_spectrum")
    curve = CurveParam.from_config(config["curve"])
    n = _positive_int(config, "N", 128, "cmd_spectrum")
    num = _positive_int(config, "num_eigs", 20, "cmd_spectrum")
    route = config.get("route", "dtn")
    if route not in ("dtn", "np"):
        raise ConfigError("cli", "cmd_spectrum",
                          "route must be 'dtn' or 'np'", "route=%r" % route)
    scale = finite_number(config.get("scale", 1.0), "scale", "cli",
                          "cmd_spectrum")
    if scale <= 0:
        raise ConfigError("cli", "cmd_spectrum",
                          "scale must be a positive number",
                          "scale=%r" % (scale,))
    if scale != 1.0:
        curve = curve.scaled(scale)
    dtn = build_dtn(sample_curve(curve, n))
    solver = solve_plasmonic if route == "dtn" else np_route
    spec = solver(dtn, num=num)
    outputs = {"spectrum": dict(spec.to_json_dict(), curve=curve.to_config())}
    record = ResultRecord("spectrum", config, outputs, {})
    return record, [("spectrum.csv", spec.csv_text())]


def _perturb_sphere(config, seed):
    from .perturb import epsddot, epsddot_flux_route, q1_matrix, solve_udot
    _check_keys(config, {"mode", "k", "a"}, {"branch", "order"},
                "cmd_perturb")
    k = _positive_int(config, "k", None, "cmd_perturb")
    a = _shape_sphere(config["a"], "cmd_perturb")
    order = _int_choice(config, "order", 2, (1, 2), "order must be 1 or 2",
                        "cmd_perturb")
    branch = _int_choice(config, "branch", 0, range(2 * k + 1),
                         "branch must be an index into the 2k+1 branches",
                         "cmd_perturb")
    first = q1_matrix(k, a)
    outputs = {"first_order": first.to_json_dict()}
    flags = {}
    if order == 2:
        udot = solve_udot(first, branch)
        second = epsddot(udot)
        flux = epsddot_flux_route(udot)
        gap = abs(second.epsddot - flux)
        outputs["second_order"] = second.to_json_dict()
        outputs["second_order_flux_route"] = flux
        outputs["route_gap"] = gap
        # roundoff in the route gap and the gauge residual grows with the
        # magnitude of the quadrature terms, so their tolerances scale;
        # solve_udot itself refuses an incompatible branch
        scale = max(1.0, sum(abs(x) for x in second.lines))
        flags["gauge_independent"] = second.gauge_residual <= 1e-10 * scale
        flags["routes_agree"] = gap <= 1e-8 * scale
    record = ResultRecord("perturb", config, outputs, flags)
    return record, []


def _perturb_2d(config, seed):
    from .curve2d import CurveParam, ShapeFn2D
    from .dtn_shape import fd_flags
    from .validate import epsdot_fd_report
    _check_keys(config, {"mode", "curve", "a"},
                {"N", "num_eigs", "eps_index", "h_list"}, "cmd_perturb")
    curve = CurveParam.from_config(config["curve"])
    a = ShapeFn2D.from_config(config["a"])
    n = _positive_int(config, "N", 128, "cmd_perturb")
    num = _positive_int(config, "num_eigs", 10, "cmd_perturb")
    index = _int_choice(config, "eps_index", 0, range(num),
                        "eps_index must index the computed spectrum",
                        "cmd_perturb")
    outputs = epsdot_fd_report(curve, a, _step_list(config, "cmd_perturb"),
                               n=n, num=num, index=index)
    flags = fd_flags({"fd": (outputs["slope"], outputs["fd_errors"], 2)},
                     outputs["fd_floors"])
    record = ResultRecord("perturb", config, outputs, flags)
    return record, []


def cmd_perturb(config, seed):
    if not isinstance(config, dict) or "mode" not in config:
        raise ConfigError("cli", "cmd_perturb",
                          "perturb config needs mode 'sphere' or '2d'",
                          "got %r" % (config,))
    if config["mode"] == "sphere":
        return _perturb_sphere(config, seed)
    if config["mode"] == "2d":
        return _perturb_2d(config, seed)
    raise ConfigError("cli", "cmd_perturb", "mode must be 'sphere' or '2d'",
                      "mode=%r" % (config["mode"],))


def cmd_dn_derivative(config, seed):
    from .curve2d import CurveParam, ShapeFn2D
    from .dtn_shape import SIDES, fd_flags, fd_operator_check
    _check_keys(config, {"curve", "a"}, {"N", "h_list", "side"},
                "cmd_dn_derivative")
    curve = CurveParam.from_config(config["curve"])
    a = ShapeFn2D.from_config(config["a"])
    n = _positive_int(config, "N", 128, "cmd_dn_derivative")
    side = config.get("side", "interior")
    if side not in SIDES:
        raise ConfigError("cli", "cmd_dn_derivative",
                          "side must be 'interior' or 'exterior'",
                          "side=%r" % (side,))
    h_list = _step_list(config, "cmd_dn_derivative")
    report = fd_operator_check(curve, a, n, h_list, (side,))[side]
    flags = fd_flags({series: (report["slopes"][series],
                               report[series + "_errors"], order)
                      for series, order in (("one_sided", 1), ("central", 2))},
                     report["fd_floors"])
    record = ResultRecord("dn-derivative", config, {"report": report}, flags)
    return record, []


def cmd_validate(config, seed):
    from .validate import CHECK_NAMES, run_all
    _check_keys(config, set(), {"N", "checks"}, "cmd_validate")
    n = _positive_int(config, "N", 128, "cmd_validate")
    if n % 2 != 0 or n < 4:
        raise ConfigError("cli", "cmd_validate",
                          "N must be an even node count of at least 4",
                          "N=%r" % (n,))
    results = run_all(seed=seed, n=n, names=config.get("checks"))
    width = max(len(name) for name in CHECK_NAMES)
    for res in results:
        print("%-*s  %s  (%.2f s)" % (width, res.name,
                                      "PASS" if res.passed else "FAIL",
                                      res.runtime))
    outputs = {"checks": [res.to_json_dict() for res in results]}
    flags = {res.name: res.passed for res in results}
    record = ResultRecord("validate", config, outputs, flags)
    csv_lines = ["check,passed"]
    csv_lines += ["%s,%s" % (res.name, "pass" if res.passed else "fail")
                  for res in results]
    return record, [("validate.csv", "\n".join(csv_lines) + "\n")]


_COMMANDS = {"spectrum": cmd_spectrum,
             "perturb": cmd_perturb,
             "dn-derivative": cmd_dn_derivative,
             "validate": cmd_validate}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plasmeig",
        description="Plasmonic eigenvalues of smooth domains via "
                    "Dirichlet-to-Neumann operators, with shape "
                    "perturbation theory.")
    parser.add_argument("command", choices=sorted(_COMMANDS),
                        help="job type to run")
    parser.add_argument("--config", help="path to the JSON job config")
    parser.add_argument("--out", help="directory for result artifacts")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probe vectors")
    parser.add_argument("--threads", type=int,
                        help="pin linear-algebra thread count")
    return parser


def _load_config(path, command):
    if path is None:
        if command == "validate":
            return {}
        raise ConfigError("cli", "main", "--config is required",
                          "command %r" % command)
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError("cli", "main", "config file must be readable",
                          str(exc))
    except ValueError as exc:
        raise ConfigError("cli", "main", "config file must be valid JSON",
                          str(exc))


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads <= 0:
            print("cli.main: --threads must be positive", file=sys.stderr)
            return 2
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    if args.seed < 0:
        print("cli.main: --seed must be nonnegative", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        config = _load_config(args.config, args.command)
        record, extras = _COMMANDS[args.command](config, args.seed)
        text = canonical_json(record.to_json_dict())
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except PlasmeigError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = args.command.replace("-", "_")
        with open(os.path.join(args.out, base + ".json"), "w") as handle:
            handle.write(text)
        for name, payload in extras:
            with open(os.path.join(args.out, name), "w") as handle:
                handle.write(payload)
    else:
        sys.stdout.write(text)
    print("wall time: %.3f s" % elapsed)
    if not record.passed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
