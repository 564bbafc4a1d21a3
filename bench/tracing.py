"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces every public module-level function of each
plasmeig module with a wrapper that records a span (name, start, end, parent,
op id), in every module that binds the function by name (``dtn_shape`` and
``validate`` import ``build_dtn`` at import time, ``perturb`` imports the
sphere transforms, ``cli._COMMANDS`` holds the handlers). ``scipy.linalg``
calls are attributed to the calling module by giving that module a view of
``scipy`` whose ``linalg`` functions are wrapped under
``<module>.<function>``. ``uninstall`` puts every original back, so untimed
and timed ops run the unmodified program.

Spans stay in memory and are written to one JSON file when the run ends;
``per_layer_metrics`` derives every per-layer number from that file.
"""

import inspect
import json
import time
import types

from workloads import CHECK_NAMES

LAYERS = ("cli", "curve2d", "bem2d", "spectrum2d", "sphere3d", "perturb",
          "dtn_shape", "validate")

# Layer -> per-layer metrics -> the end-to-end metrics each should move, and
# on which workload. ``.s`` is inclusive time per op, ``.self_s`` time minus
# child spans per op, ``.calls`` calls per op.
LAYER_MAP = (
    ("cli", ("cli.main.self_s",),
     "control: nothing by more than 1%"),
    ("curve2d", ("curve2d.sample_curve.s", "curve2d.perturb_curve.calls",
                 "curve2d.perturb_curve.s", "curve2d.perturbed_sample.s"),
     "job_s.tail on acceptance"),
    ("bem2d", ("bem2d.build_dtn.calls", "bem2d.build_dtn.self_s",
               "bem2d.assemble_single_layer.calls",
               "bem2d.assemble_single_layer.s", "bem2d.assemble_np_adjoint.s",
               "bem2d.svdvals.s", "bem2d.solve.s", "bem2d.lu_factor.s",
               "bem2d.lu_solve.s", "bem2d.compute_g0.s",
               "bem2d.rescale_frac"),
     "job_s.p50, job_s.tail, jobs_per_s, peak_rss_mb on spectrum_large; "
     "job_s.* on acceptance; nothing on sphere_perturb"),
    ("spectrum2d", ("spectrum2d.solve_plasmonic.calls",
                    "spectrum2d.solve_plasmonic.self_s",
                    "spectrum2d.null_space.s", "spectrum2d.eigh.s",
                    "spectrum2d.residual_norm.calls",
                    "spectrum2d.residual_norm.s", "spectrum2d.np_route.s",
                    "spectrum2d.eig.s", "spectrum2d.criticality_residual.s"),
     "job_s.p50 on spectrum_large; job_s.* on acceptance (np_route, the "
     "rayleigh check and the FD re-solves)"),
    ("sphere3d", ("sphere3d.sh_synthesis.calls", "sphere3d.sh_synthesis.s",
                  "sphere3d.sh_analysis.calls", "sphere3d.sh_analysis.s",
                  "sphere3d.surface_gradient.s",
                  "sphere3d.surface_divergence.s",
                  "sphere3d.SphereGrid.integrate.calls",
                  "sphere3d.SphereGrid.integrate.s",
                  "sphere3d.sphere_grid.builds"),
     "job_s.* on sphere_perturb; in the benchmark, job_s.* on acceptance "
     "(the three sphere checks); grid builds show in setup_s"),
    ("perturb", ("perturb.q1_matrix.calls", "perturb.q1_matrix.self_s",
                 "perturb.solve_udot.s", "perturb.epsddot.s",
                 "perturb.epsddot_flux_route.s", "perturb.epsdot_2d.s"),
     "job_s.p50 and job_s.tail on sphere_perturb; in the benchmark, "
     "job_s.* on acceptance (the sphere checks and epsdot_2d), where "
     "epsddot_flux_route does not run"),
    ("dtn_shape", ("dtn_shape.fd_operator_check.self_s",
                   "dtn_shape.transplanted_dtn.calls",
                   "dtn_shape.banded_opnorm.calls", "dtn_shape.banded_opnorm.s",
                   "dtn_shape.shape_derivative_matrix.s"),
     "job_s.tail on acceptance"),
    ("validate", ("validate.finite_difference_epsdot.s",),
     "job_s.* on acceptance"),
)

# One inclusive-time metric per acceptance check; appended to the validate
# layer by ``per_layer_names``.
_STATS = {"s": "s", "self_s": "s", "calls": "count"}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, metrics, _ in LAYER_MAP:
        names = list(metrics)
        if layer == "validate":
            names += ["validate.%s.s" % c for c in CHECK_NAMES]
        for name in names:
            out.append((name, _unit(name)))
    out.append(("trace_overhead_frac", "ratio"))
    return out


def _unit(metric):
    if metric.endswith(".rescale_frac"):
        return "ratio"
    if metric.endswith(".builds"):
        return "count"
    return _STATS[metric.rsplit(".", 1)[1]]


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op, note]
        self._stack = []
        self.op = None
        self._patches = []   # (owner, attribute or key, original, is item)

    def _wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1,
                   tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[5] = note(result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_wrapper(self, fn):
        # validate._timed(name, body) runs one acceptance check: name the
        # span after the check, as in validate.CHECK_NAMES
        named = {}

        def wrapper(check_name, body):
            if check_name not in named:
                named[check_name] = self._wrap("validate." + check_name, fn)
            return named[check_name](check_name, body)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap the public functions of every layer of ``package``."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        originals = {}   # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if inspect.isfunction(target) \
                        and target.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(
                        "%s.%s" % (layer, attr), obj,
                        _rescaled if (layer, attr) == ("bem2d", "build_dtn")
                        else None)
        grid_cls = modules["sphere3d"].SphereGrid
        self._set(grid_cls, "integrate", self._wrap(
            "sphere3d.SphereGrid.integrate", grid_cls.integrate))
        self._set(grid_cls, "__init__", self._wrap(
            "sphere3d.SphereGrid", grid_cls.__init__))
        validate = modules["validate"]
        if hasattr(validate, "_timed"):
            self._set(validate, "_timed",
                      self._timed_wrapper(validate._timed))
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._set(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals:
                            self._set(obj, key, originals[id(value)],
                                      item=True)
                elif isinstance(obj, types.ModuleType) \
                        and obj.__name__ == "scipy":
                    self._set(mod, attr, _ScipyView(obj, layer, self))

    def _set(self, owner, key, value, item=False):
        if item:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original, item in reversed(self._patches):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "note"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def _rescaled(pair):
    # absent once the capacity rescale path is deleted: then never rescaled
    return {"rescaled": bool(getattr(pair, "rescaled", False))}


class _LinalgView:
    """``scipy.linalg`` as seen from one module, functions wrapped."""

    def __init__(self, real, layer, tracer):
        self._real = real
        self._layer = layer
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, attr):
        obj = getattr(self._real, attr)
        if not inspect.isfunction(obj):
            return obj   # LinAlgError and friends pass through
        if attr not in self._cache:
            self._cache[attr] = self._tracer._wrap(
                "%s.%s" % (self._layer, attr), obj)
        return self._cache[attr]


class _ScipyView:
    def __init__(self, real, layer, tracer):
        self._real = real
        self.linalg = _LinalgView(real.linalg, layer, tracer)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def per_layer_metrics(spans_paths, op_walls):
    """Per-op per-layer metrics from the span files of a traced run.

    ``op_walls`` maps each traced op id to its measured wall time. Returns
    (metrics dict name -> value, worst ratio of an op's summed span self
    times to its wall time).
    """
    calls = {}
    incl = {}
    self_t = {}
    self_per_op = {}
    rescaled = 0
    for path in spans_paths:
        with open(path) as handle:
            spans = json.load(handle)["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op, note in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op, note) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + own
            self_per_op[op] = self_per_op.get(op, 0.0) + own
            if not _inside_same(spans, parent, name):
                incl[name] = incl.get(name, 0.0) + dur
            if note and note.get("rescaled"):
                rescaled += 1
    ops = len(op_walls)
    worst = max((self_per_op.get(op, 0.0) / wall
                 for op, wall in op_walls.items()), default=0.0)
    out = {}
    for metric, _ in per_layer_names():
        if metric == "trace_overhead_frac":
            continue
        if metric == "bem2d.rescale_frac":
            built = calls.get("bem2d.build_dtn", 0)
            out[metric] = rescaled / built if built else 0.0
        elif metric == "sphere3d.sphere_grid.builds":
            out[metric] = calls.get("sphere3d.SphereGrid", 0) / ops
        else:
            span, stat = metric.rsplit(".", 1)
            table = {"s": incl, "self_s": self_t, "calls": calls}[stat]
            out[metric] = table.get(span, 0) / ops
    return out, worst


def _inside_same(spans, parent, name):
    # inclusive time counts only the outermost span of a recursive name
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
