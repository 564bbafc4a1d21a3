"""Quick self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Exercises the job generators, the correctness checks and failure counting,
the traced run and its span file, and the ``BENCHMARK.json`` schema, with
N = 64, k <= 3 and two acceptance checks. Exits 0 when everything holds.
"""

import argparse
import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class SelfTestError(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestError(message)


def check_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= len(spec["paths"]) <= 16, "paths count")
    for path in spec["paths"]:
        expect(PATH.match(path) and not path.startswith("/")
               and ".." not in path.split("/")
               and os.path.isdir(os.path.join(ROOT, path)), "path %r" % path)
    expect(len(spec["command"]) <= 32
           and all(len(a) <= 200 for a in spec["command"]), "command")
    expect(isinstance(spec["run_seconds"], int)
           and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in spec["workloads"]]
    expect(2 <= len(names) <= 8, "workload count")
    expect(tuple(names) == workloads.BENCHMARKED
           and set(names) <= set(workloads.make_workloads()),
           "workloads match workloads.BENCHMARKED")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], "workload %r" % w)
    e2e = spec["end_to_end"]
    expect([(m["name"], m["unit"]) for m in e2e] == list(run.END_TO_END),
           "end_to_end matches run.END_TO_END")
    for m in e2e:
        expect(set(m) == {"name", "unit", "better", "bound"}
               and m["better"] in ("lower", "higher")
               and 0 < m["bound"] <= 0.25, "end_to_end %r" % m)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s has unit s, lower is better and the largest bound")
    layer = spec["per_layer"]
    expect([(m["name"], m["unit"]) for m in layer]
           == tracing.per_layer_names(),
           "per_layer matches tracing.per_layer_names")
    for m in layer:
        expect(set(m) == {"name", "unit", "better"}
               and m["better"] in ("lower", "higher"), "per_layer %r" % m)
    every = names + [m["name"] for m in e2e] + [m["name"] for m in layer]
    expect(all(NAME.match(n) for n in every) and len(set(every)) == len(every),
           "names are well formed and unique")
    expect(all(UNIT.match(m["unit"]) for m in e2e + layer), "units")
    expect(len(json.dumps(spec)) <= 64 * 1024, "size")


def check_generators():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from plasmeig import validate
    expect(tuple(validate.CHECK_NAMES) == workloads.CHECK_NAMES,
           "CHECK_NAMES copy is current")
    wls = workloads.make_workloads()
    for name, wl in wls.items():
        expect(wl.job(3, 5) == wl.job(3, 5), "%s is deterministic" % name)
        if name != "acceptance":
            expect(wl.job(3, 5) != wl.job(4, 5), "%s depends on seed" % name)
    rescale = wls["spectrum_large"].job(7, 1)[1]["curve"]
    expect(abs(rescale["a"] + rescale["b"] - 2.0) < 1e-15,
           "slot 1 is a capacity-1 ellipse")
    acc = [wls["acceptance"].job(2, i) for i in range(11)]
    expect([j[1]["checks"][0] for j in acc] == list(workloads.CHECK_NAMES)
           and all(j[2] == 2 for j in acc),
           "acceptance runs the suite in order with the workload seed")


def check_checks():
    oracle = checks.ellipse_closed_form(2.0, 1.0, 10)
    from plasmeig import validate
    expect(max(abs(a - b) for a, b in zip(
        oracle, validate.elliptic_eigenvalues(2.0, 1.0, 10))) < 1e-14,
        "closed form agrees with the program's own oracle")
    expect(checks.missing_partners([0.5, 2.0]) == [], "partners found")
    expect(checks.missing_partners([0.5, 3.0]) == [0.5], "partner missing")
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, "bench"))
    try:
        config = {"curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
                  "N": 64, "num_eigs": 10, "route": "dtn"}

        def artifact(eigs, passed=True):
            with open(os.path.join(tmp, "spectrum.json"), "w") as handle:
                json.dump({"job": config, "passed": passed, "flags": {},
                           "outputs": {"spectrum": {"eigenvalues": eigs}}},
                          handle)

        artifact(oracle)
        expect(checks.check_op("spectrum", config, 0, tmp) == ([], []),
               "good op passes")
        artifact(oracle[:-1] + [oracle[-1] + 1e-6])
        reported, wrong = checks.check_op("spectrum", config, 0, tmp)
        expect(not reported and "closed-form" in wrong[0],
               "closed-form failure is a wrong output")
        artifact(oracle, passed=False)
        expect(checks.check_op("spectrum", config, 1, tmp)
               == (["exit code 1", "passed false: "], []),
               "a failure the program reports is not a wrong output")
        expect(checks.check_op("spectrum", config, 0, tmp)[1],
               "exit code 0 with passed false is wrong")
        os.remove(os.path.join(tmp, "spectrum.json"))
        expect(checks.check_op("spectrum", config, 3, tmp)
               == (["exit code 3"], []), "a numerical error is reported")
    finally:
        shutil.rmtree(tmp)


def check_runs():
    for name in sorted(workloads.make_workloads()):
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.2,
                                      trace=trace)
            result = run.run(args, tiny=True)
            expected = (tracing.per_layer_names()
                        if trace else list(run.END_TO_END))
            expect([(k, v["unit"]) for k, v in result["metrics"].items()]
                   == expected, "%s trace %d metric names" % (name, trace))
            expect(result["correct"] and not result["failures"],
                   "%s trace %d: correct, no failures: %s"
                   % (name, trace, result["failures"]))
            if trace:
                expect(0 < result["self_time_over_wall_max"] <= 1.0,
                       "self times fit in the op wall time")
                calls = {"spectrum_large": "bem2d.build_dtn.calls",
                         "sphere_perturb": "perturb.q1_matrix.calls",
                         "acceptance": "validate.two_routes.s"}
                expect(result["metrics"][calls[name]]["value"] > 0,
                       "%s traced its main layer" % name)
            else:
                expect(all(v["value"] > 0
                           for v in result["metrics"].values()),
                       "end-to-end metrics are never 0")
            shutil.rmtree(os.path.join(ROOT, result["run_dir"]))


def main():
    try:
        check_schema()
        check_generators()
        check_checks()
        check_runs()
    except (SelfTestError, run.BenchError) as exc:
        print("selftest FAILED: %s" % exc)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
