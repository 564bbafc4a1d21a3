"""One benchmark process: set up, then drive a closed loop of plasmeig jobs.

Started by ``run.py``; not meant to be run by hand. One client sends the
next job only after the previous one returned. Each op is one in-process call
of ``plasmeig.cli.main`` with the generated config file, so it takes the
user's path: config checks, numerics and canonical artifact writes.

Set-up (imports, the first LAPACK call and the discarded warm-up ops) is
timed from the moment the parent started this process. Then worker ``j`` of
``K`` times whole rounds ``j, j + K, j + 2K, ...`` of the workload's job
cycle until its share ``--seconds / K`` has passed. With ``--trace 1`` every
job runs twice, once untraced and once under the tracer (alternating which
goes first), so the trace overhead is measured on identical jobs.
"""

import os

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# must happen before numpy loads anywhere in this process
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_op(cli, job, op_dir, out_name):
    """Write the job's config (untimed), then time one ``cli.main`` call."""
    command, config, seed, _ = job
    os.makedirs(op_dir, exist_ok=True)
    config_path = os.path.join(op_dir, "config.json")
    if not os.path.exists(config_path):
        with open(config_path, "w") as handle:
            json.dump(config, handle)
    out_dir = os.path.join(op_dir, out_name)
    argv = [command, "--config", config_path, "--out", out_dir,
            "--seed", str(seed)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:
        # an op that raises is a failed op; the loop keeps going
        code = "exception"
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - start
    record = {"argv": argv, "exit_code": code, "wall_s": wall,
              "out_dir": out_dir}
    if code != 0:
        record["output"] = sink.getvalue()[-2000:]
    return record


def environment():
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k)
                   for k in ("name", "version")},
        "threads": THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import tracing
    import workloads
    import plasmeig
    for layer in tracing.LAYERS:
        importlib.import_module("plasmeig." + layer)
    cli = plasmeig.cli

    sizes = workloads.TINY_SIZES if args.tiny else None
    workload = workloads.make_workloads(sizes)[args.workload]
    os.makedirs(args.outdir, exist_ok=True)

    warm = []
    for i in range(workload.warmup):
        job = workload.job(args.seed, i, stream="warmup")
        warm.append(run_op(cli, job,
                           os.path.join(args.outdir, "warmup", "%04d" % i),
                           "out"))
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "warmup": warm}
    report.update(timed_loop(cli, plasmeig, tracing, workload, args))
    report["env"] = environment()
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.outdir, "report.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    return 0


def timed_loop(cli, package, tracing, workload, args):
    tracer = tracing.Tracer() if args.trace else None
    ops = []
    budget = args.seconds / args.workers
    start = time.perf_counter()
    for round_ in itertools.count(args.worker, args.workers):
        for slot in range(workload.cycle):
            index = round_ * workload.cycle + slot
            job = workload.job(args.seed, index)
            op_dir = os.path.join(args.outdir, "ops", "%04d" % index)
            if tracer is None:
                rec = run_op(cli, job, op_dir, "out")
                ops.append(dict(rec, op=index, traced=False, info=job[3]))
            else:
                runs = [False, True] if index % 2 == 0 else [True, False]
                for traced in runs:
                    if traced:
                        tracer.op = index
                        tracer.install(package)
                        try:
                            rec = run_op(cli, job, op_dir, "traced")
                        finally:
                            tracer.uninstall()
                    else:
                        rec = run_op(cli, job, op_dir, "out")
                    ops.append(dict(rec, op=index, traced=traced,
                                    info=job[3]))
        if time.perf_counter() - start >= budget:
            break
    timed_s = time.perf_counter() - start
    out = {"timed_s": timed_s, "ops": ops, "spans": None}
    if tracer is not None:
        out["spans"] = os.path.join(args.outdir, "spans.json")
        tracer.write(out["spans"])
    return out


if __name__ == "__main__":
    sys.exit(main())
