"""plasmeig benchmark: one command prints every metric with its unit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (defined, with the reason for each, in ``workloads.py``):
``spectrum_large`` and ``acceptance``, the two ``BENCHMARK.json`` names, and
``sphere_perturb``, which is left out of it because about half its ops fail
on the known sphere tolerance defect; run it by hand to see that baseline.

The run is a closed loop with one client. It is split over ``WORKERS``
fresh worker processes, run one after the other, each with the BLAS thread
count pinned to 1 before numpy loads (``worker.py``): one process would carry
its own memory-layout luck (huge pages, alignment) into every op, and the
same set-up is then sampled ``WORKERS`` times. Each worker sets up (imports,
the first LAPACK call and the discarded warm-up ops) and then times whole
rounds of the workload's job cycle for its share of ``--seconds``, so every
run sees the same mix of jobs.

``--trace 0`` reports the end-to-end metrics of an untraced run:

* ``setup_s``: median over the workers of process start to first timed op;
* ``job_s.p50``: median wall time of one op (s);
* ``job_s.tail``: the highest percentile with at least 10 ops beyond it, or
  the maximum when that percentile would lie below the median; the
  percentile and the op count are printed and saved with the result;
* ``jobs_per_s``: ops completed per second of the timed phases;
* ``peak_rss_mb``: peak resident memory of a worker process.

``--trace 1`` reports the per-layer metrics (``tracing.LAYER_MAP``) derived
from the span file of a traced run, and ``trace_overhead_frac``.

Every op is checked (``checks.py``). The last line of standard output is one
JSON object: ``failed`` counts ops that failed (exit code not 0, artifact
``passed`` false, or a benchmark check rejected its numbers), so
failed / attempted is the workload's ``failed_frac``. ``correct`` is false
when an output the program marked as passing is wrong, when the exit code and
the artifact disagree, or, in a traced run, when tracing changed an artifact
byte or the span self times exceed an op's wall time.

Everything a run produces lands in ``bench/out/<workload>-seed<n>-trace<t>/``:
the generated config of every op (replay one with
``plasmeig <command> --config <wJ/ops/NNNN/config.json> --seed <seed>``),
its artifacts, each worker's report and span file, and ``result.json`` with
the environment.
"""

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKERS = 4
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(args, worker, outdir, deadline, tiny):
    os.makedirs(outdir, exist_ok=True)
    log_path = os.path.join(outdir, "worker.log")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--worker", str(worker), "--workers", str(WORKERS),
           "--outdir", outdir, "--t0", repr(t0)]
    if tiny:
        cmd.append("--tiny")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("worker timed out; see %s" % log_path)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d; see %s"
                         % (proc.returncode, log_path))
    with open(os.path.join(outdir, "report.json")) as handle:
        return json.load(handle)


def tail(values):
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND ops beyond it; the maximum when there are too few ops for
    that percentile to lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _source_identity():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "plasmeig")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        # only this checkout's own repository, not one enclosing it
        if proc.returncode == 0 and len(lines) == 2 \
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _judge(ops, seed):
    """Check every op. Returns (failures, number of failures with outputs
    the benchmark found wrong rather than failures the program reported)."""
    failures = []
    wrong_count = 0
    for rec in ops:
        config_path = os.path.join(os.path.dirname(rec["out_dir"]),
                                   "config.json")
        with open(config_path) as handle:
            config = json.load(handle)
        reported, wrong = checks.check_op(rec["argv"][0], config,
                                          rec["exit_code"], rec["out_dir"])
        if reported or wrong:
            failures.append({"op": rec["op"], "traced": rec["traced"],
                             "seed": seed, "info": rec["info"],
                             "config": os.path.relpath(config_path, ROOT),
                             "reasons": reported + wrong})
            wrong_count += bool(wrong)
    return failures, wrong_count


def _artifacts_identical(dir_a, dir_b):
    names = sorted(os.listdir(dir_a)) if os.path.isdir(dir_a) else []
    if names != (sorted(os.listdir(dir_b)) if os.path.isdir(dir_b) else []):
        return False
    match, _, _ = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return len(match) == len(names)


def run(args, tiny=False):
    if not os.path.isdir(os.path.join(ROOT, "src", "plasmeig")):
        raise BenchError("no plasmeig sources under %s"
                         % os.path.join(ROOT, "src"))
    suffix = "-tiny" if tiny else ""
    run_dir = os.path.join(ROOT, "bench", "out", "%s-seed%d-trace%d%s"
                           % (args.workload, args.seed, args.trace, suffix))
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    reports = [_spawn(args, j, os.path.join(run_dir, "w%d" % j), deadline,
                      tiny) for j in range(WORKERS)]
    setups = [r["setup_s"] for r in reports]
    ops = [op for r in reports for op in r["ops"]]
    timed_s = sum(r["timed_s"] for r in reports)
    for rec in (op for r in reports for op in r["warmup"]):
        if rec["exit_code"] not in (0, 1):
            raise BenchError("warm-up op failed to run: %s"
                             % rec.get("output", ""))
    failures, wrong = _judge(ops, args.seed)

    untraced = [r["wall_s"] for r in ops if not r["traced"]]
    job_tail, tail_pct = tail(untraced)
    result = {
        "workload": args.workload, "seed": args.seed,
        "run_dir": os.path.relpath(run_dir, ROOT),
        "seconds": args.seconds, "trace": args.trace,
        "env": dict(reports[0]["env"], **_source_identity()),
        "workers": WORKERS,
        "ops": len(ops), "untraced_ops": len(untraced),
        "timed_s": timed_s,
        "setup_samples_s": setups,
        "job_s.tail_percentile": tail_pct,
        "failed_frac": len(failures) / len(ops),
        "failures": failures,
    }
    if args.trace:
        traced = {r["op"]: r["wall_s"] for r in ops if r["traced"]}
        metrics, worst = tracing.per_layer_metrics(
            [r["spans"] for r in reports], traced)
        metrics["trace_overhead_frac"] = \
            statistics.median(traced.values()) / statistics.median(untraced) \
            - 1.0
        units = dict(tracing.per_layer_names())
        pairs = {}
        for r in ops:
            pairs.setdefault(r["op"], {})[r["traced"]] = r
        changed = [op for op, p in pairs.items() if not _artifacts_identical(
            p[False]["out_dir"], p[True]["out_dir"])]
        result["self_time_over_wall_max"] = worst
        result["artifacts_changed_by_tracing"] = changed
        correct = not wrong and not changed and worst <= 1.0 + 1e-9
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "job_s.p50": statistics.median(untraced),
            "job_s.tail": job_tail,
            "jobs_per_s": len(untraced) / timed_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
        units = dict(END_TO_END)
        correct = not wrong
    result["correct"] = correct
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def _print(result):
    env = result["env"]
    print("workload %s  seed %d  trace %d  ops %d (%d untraced)  timed %.2f s"
          % (result["workload"], result["seed"], result["trace"],
             result["ops"], result["untraced_ops"], result["timed_s"]))
    print("python %s  numpy %s  scipy %s  blas %s %s  threads %d of nproc %d"
          "  commit %s" % (env["python"], env["numpy"], env["scipy"],
                           env["blas"]["name"], env["blas"]["version"],
                           env["threads"], env["nproc"], env["git_commit"]))
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "job_s.tail":
            extra = "  (p%.1f of %d ops)" % (result["job_s.tail_percentile"],
                                             result["untraced_ops"])
        print("%-40s %14.6g %s%s" % (name, metric["value"], metric["unit"],
                                     extra))
    print("%-40s %14.6g %s" % ("failed_frac", result["failed_frac"], "ratio"))
    for f in result["failures"]:
        print("failed op %d%s: %s  %s  (%s)"
              % (f["op"], " traced" if f["traced"] else "",
                 json.dumps(f["info"], sort_keys=True), f["config"],
                 "; ".join(f["reasons"])))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.make_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except BenchError as exc:
        print("bench/run.py: %s" % exc, file=sys.stderr)
        return 1
    _print(result)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["ops"],
                      "failed": len(result["failures"]),
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
