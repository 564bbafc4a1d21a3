"""Correctness checks on the artifacts each op leaves on disk.

An op fails when its exit code is not 0, when its artifact says
``passed: false``, or when a check of the benchmark's own rejects its
numbers. The checks use only the standard library, so they share no code with
the program they check.
"""

import json
import math
import os

ELLIPSE_TOL = 1e-8      # absolute, against the closed form
PARTNER_RTOL = 1e-10    # |eps * partner - 1| for every selected eps < 1


def ellipse_closed_form(a, b, num):
    """The ``num`` plasmonic eigenvalues of an ellipse farthest from 1.

    Separation of variables in elliptic coordinates: with
    mu0 = atanh(b / a) for a >= b, mode k gives eps = coth(k mu0) (even
    family) and eps = tanh(k mu0) (odd family). Returned ascending.
    """
    a, b = max(a, b), min(a, b)
    mu0 = math.atanh(b / a)
    values = []
    k = 1
    while len(values) < 2 * num:
        t = math.tanh(k * mu0)
        values += [t, 1.0 / t]
        k += 1
    values.sort(key=lambda e: -abs(e - 1.0))
    return sorted(values[:num])


def missing_partners(eigenvalues):
    """Selected eps < 1 whose partner 1/eps is not among the selection."""
    return [e for e in eigenvalues if e < 1.0
            and not any(abs(e * f - 1.0) <= PARTNER_RTOL for f in eigenvalues)]


def check_op(command, config, exit_code, artifact_dir):
    """Verdict on one op as two lists of reasons, both empty for a good op.

    ``reported``: failures the program itself reports (a nonzero exit code,
    ``passed: false``, no artifact). ``wrong``: outputs the benchmark finds
    wrong although the program did not say so, or an exit code that
    disagrees with the artifact. The op failed if either list is non-empty.
    """
    reported = []
    wrong = []
    if exit_code != 0:
        reported.append("exit code %r" % (exit_code,))
    path = os.path.join(artifact_dir, command.replace("-", "_") + ".json")
    try:
        with open(path) as handle:
            artifact = json.load(handle)
    except (OSError, ValueError) as exc:
        if exit_code == 0:
            wrong.append("no readable artifact: %s" % exc)
        return reported, wrong
    if artifact.get("job") != config:
        wrong.append("artifact does not echo the job config")
    passed = artifact.get("passed")
    if not passed:
        reported.append("passed false: %s" % ",".join(
            sorted(k for k, v in artifact.get("flags", {}).items() if not v)))
    if (exit_code == 0) != bool(passed):
        wrong.append("exit code %r disagrees with passed=%r"
                     % (exit_code, passed))
    if command == "spectrum":
        wrong += _check_spectrum(config, artifact)
    return reported, wrong


def _check_spectrum(config, artifact):
    eps = artifact["outputs"]["spectrum"]["eigenvalues"]
    out = []
    if len(eps) != config["num_eigs"]:
        out.append("expected %d eigenvalues, got %d"
                   % (config["num_eigs"], len(eps)))
    curve = config["curve"]
    if curve["kind"] == "ellipse":
        oracle = ellipse_closed_form(curve["a"], curve["b"], len(eps))
        worst = max(abs(x - y) for x, y in zip(eps, oracle))
        if worst > ELLIPSE_TOL:
            out.append("closed-form gap %.3g > %g" % (worst, ELLIPSE_TOL))
    lonely = missing_partners(eps)
    if lonely:
        out.append("%d eigenvalues < 1 without partner 1/eps" % len(lonely))
    return out
