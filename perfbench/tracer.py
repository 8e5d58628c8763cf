"""Span recorder that wraps lsdfem's public functions from outside the package.

``install()`` replaces every module-level binding of the functions listed in
``FUNCTIONS`` (and the ``PatchProjector`` methods in ``METHODS``) with a
wrapper that records a span: name, start, end, parent span and op id, plus
a few attributes computed from the call's arguments and result (array
sizes, dimensions, factor identity).  Spans stay in memory and are written
out with ``dump`` when the process ends.  ``layer_metrics`` turns a span
list into the per-layer metrics of ``BENCHMARK.json``.

The package is never edited: the wrappers are attribute rebinds made
after import, so the untraced code path is byte-for-byte the package's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import statistics
import sys
import time

import numpy as np

# (module, function, span name); the span name's prefix is the layer.
FUNCTIONS = [
    ("mesh", "refine_faces", "mesh.refine"),
    ("mesh", "saturation_radius", "mesh.saturation_radius"),
    ("mesh", "element_layers", "mesh.element_layers"),
    ("presets", "coefficient_field", "coeff.field"),
    ("coeff", "local_bounds", "coeff.bounds"),
    ("localop", "assemble_all", "localop.assemble_all"),
    ("localop", "apply_T", "localop.apply_T"),
    ("traces", "build_trace_space", "traces.build"),
    ("traces", "solve_V0_pairing", "traces.pairing_solve"),
    ("spectral", "all_face_spectra", "spectral.face_spectra"),
    ("spectral", "all_element_spectra", "spectral.element_spectra"),
    ("spectral", "project_rhs", "spectral.project_rhs"),
    ("pipeline", "build_assembly", "pipeline.build_assembly"),
    ("pipeline", "solve_lsd", "pipeline.solve_lsd"),
    ("pipeline", "compute_ttilde", "pipeline.compute_ttilde"),
    ("pipeline", "assemble_upscaled", "pipeline.assemble_upscaled"),
    ("pipeline", "solve_upscaled", "pipeline.solve_upscaled"),
    ("pipeline", "recover_delta", "pipeline.recover_delta"),
    ("pipeline", "reconstruct", "pipeline.reconstruct"),
    ("pipeline", "full_pipeline", "pipeline.full_pipeline"),
    ("pipeline", "exact_hybrid_solve", "pipeline.oracle_exact"),
    ("pipeline", "conforming_solve", "pipeline.oracle_conforming"),
    ("pipeline", "poincare_estimate", "pipeline.poincare"),
    ("cli", "run_solve", "cli.run_solve"),
]

METHODS = [
    ("localize", "PatchProjector", "__init__", "localize.projector"),
    ("localize", "PatchProjector", "patch_problem", "localize.patch_problem"),
    ("localize", "PatchProjector", "active_faces", "localize.active_faces"),
    ("localize", "PatchProjector", "apply_PjT_columns", "localize.apply_PjT_columns"),
    ("localize", "PatchProjector", "apply_Pj", "localize.apply_Pj"),
    ("localize", "PatchProjector", "apply_PjT", "localize.apply_PjT"),
]

# Stages after which the peak RSS is sampled: metric prefix per span name.
RSS_STAGES = {
    "pipeline.build_assembly": "build_assembly",
    "spectral.face_spectra": "face_spectra",
    "localize.projector": "projector",
    "spectral.element_spectra": "element_spectra",
    "pipeline.solve_lsd": "solve_lsd",
    "pipeline.oracle_exact": "oracle_exact",
    "pipeline.oracle_conforming": "oracle_conforming",
}

MB = 2.0**20

# Span layout: [name, start, end, parent index, op id, attrs or None].
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _array_mb(obj) -> float:
    """Bytes held by the numpy arrays among an object's fields (computed, not measured)."""
    total = 0
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total / MB


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self.op_id = 0
        self._stack: list[int] = []
        self._factors: dict[int, object] = {}   # id -> factor, kept alive so ids stay unique
        self.dense_limit = 0

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own phases."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            attrs = hook(self, args, result) if hook else {}
            if name in RSS_STAGES:
                attrs["rss_mb"] = _rss_mb()
            rec[ATTRS] = attrs or None
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- hooks that need tracer state -------------------------------------------

    def _patch_attrs(self, problem) -> dict:
        new = problem.dim > 0 and id(problem.factor) not in self._factors
        if new:
            self._factors[id(problem.factor)] = problem.factor
        return {"dim": problem.dim, "new_factor": new, "dense": problem.dim <= self.dense_limit}


_HOOKS = {
    "localop.assemble_all": lambda t, a, r: {"cache_mb": sum(_array_mb(c) for c in r)},
    "traces.build": lambda t, a, r: {
        "dense_mb": (r.pairing_matrix.nbytes + r.face_constant_coeffs.nbytes) / MB
    },
    "spectral.face_spectra": lambda t, a, r: {"n_pi_total": sum(s.n_pi for s in r)},
    "localize.projector": lambda t, a, r: {"gram_mb": a[0].gram.nbytes / MB},
    "localize.patch_problem": lambda t, a, r: t._patch_attrs(r),
    "pipeline.assemble_upscaled": lambda t, a, r: {
        "psi_mb": r.multiscale.nbytes / MB,
        "upscaled_dim": r.basis.shape[1],
    },
}


def _rebind(original, wrapper) -> None:
    """Point every lsdfem module-level binding (and dict entry) of ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lsdfem" or mod_name.startswith("lsdfem.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install() -> Tracer:
    """Import lsdfem and wrap its public entry points; returns the recorder."""
    tracer = Tracer()
    for mod_name in ("mesh", "coeff", "presets", "localop", "traces", "spectral",
                     "localize", "pipeline", "cli"):
        importlib.import_module(f"lsdfem.{mod_name}")
    tracer.dense_limit = sys.modules["lsdfem.localize"].DENSE_PATCH_LIMIT
    for mod_name, attr, name in FUNCTIONS:
        mod = sys.modules[f"lsdfem.{mod_name}"]
        original = getattr(mod, attr)
        _rebind(original, tracer.wrap(original, name))
    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[f"lsdfem.{mod_name}"], cls_name)
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))
    return tracer


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

# (metric, unit); the order is the order BENCHMARK.json lists them in.
LAYER_METRICS = [
    ("mesh.refine_s", "s"),
    ("mesh.element_layers_calls", "count"),
    ("coeff.field_s", "s"),
    ("coeff.bounds_s", "s"),
    ("localop.assemble_all_s", "s"),
    ("localop.cache_mb", "MB"),
    ("localop.apply_T_s", "s"),
    ("traces.build_s", "s"),
    ("traces.dense_mb", "MB"),
    ("traces.pairing_solve_s", "s"),
    ("spectral.face_spectra_s", "s"),
    ("spectral.n_pi_total", "count"),
    ("localize.projector_s", "s"),
    ("localize.gram_mb", "MB"),
    ("localize.patch_problem_calls", "count"),
    ("localize.patch_factorizations", "count"),
    ("localize.patch_cache_hit_ratio", "ratio"),
    ("localize.patch_factor_s", "s"),
    ("localize.patch_dim_p50", "count"),
    ("localize.patch_dim_max", "count"),
    ("localize.dense_patches", "count"),
    ("localize.sparse_patches", "count"),
    ("localize.active_faces_s", "s"),
    ("localize.apply_PjT_columns_s", "s"),
    ("localize.apply_Pj_s", "s"),
    ("localize.apply_PjT_s", "s"),
    ("pipeline.assemble_upscaled_self_s", "s"),
    ("pipeline.psi_mb", "MB"),
    ("pipeline.upscaled_dim", "count"),
    ("pipeline.solve_upscaled_s", "s"),
    ("pipeline.recover_delta_s", "s"),
    ("pipeline.reconstruct_s", "s"),
    ("pipeline.compute_ttilde_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("build_assembly.rss_hwm_mb", "MB"),
    ("face_spectra.rss_hwm_mb", "MB"),
    ("projector.rss_hwm_mb", "MB"),
    ("element_spectra.rss_hwm_mb", "MB"),
    ("solve_lsd.rss_hwm_mb", "MB"),
    ("oracle_exact.rss_hwm_mb", "MB"),
    ("oracle_conforming.rss_hwm_mb", "MB"),
    ("solve.localize_share", "ratio"),
    ("setup.assemble_all_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

# Times of layers that only some workloads run (the CLI's report, oracles,
# writers and saturation radius; load reduction).  The run prints them, but
# BENCHMARK.json does not list them: on the other workloads they are 0 on
# every run, which reads as a constant, not a measurement.
WORKLOAD_SPECIFIC_METRICS = [
    ("mesh.saturation_radius_s", "s"),
    ("spectral.element_spectra_s", "s"),
    ("spectral.project_rhs_s", "s"),
    ("pipeline.report_s", "s"),
    ("pipeline.oracle_exact_s", "s"),
    ("pipeline.oracle_conforming_s", "s"),
    ("pipeline.poincare_s", "s"),
    ("cli.write_s", "s"),
]

# Self-time metrics: metric -> span name.  A span's self time is its
# duration minus the time its direct children cover.
_SELF_TIME = {
    "mesh.refine_s": "mesh.refine",
    "mesh.saturation_radius_s": "mesh.saturation_radius",
    "coeff.field_s": "coeff.field",
    "coeff.bounds_s": "coeff.bounds",
    "localop.assemble_all_s": "localop.assemble_all",
    "localop.apply_T_s": "localop.apply_T",
    "traces.build_s": "traces.build",
    "traces.pairing_solve_s": "traces.pairing_solve",
    "spectral.face_spectra_s": "spectral.face_spectra",
    "spectral.element_spectra_s": "spectral.element_spectra",
    "spectral.project_rhs_s": "spectral.project_rhs",
    "localize.projector_s": "localize.projector",
    "localize.active_faces_s": "localize.active_faces",
    "localize.apply_PjT_columns_s": "localize.apply_PjT_columns",
    "localize.apply_Pj_s": "localize.apply_Pj",
    "localize.apply_PjT_s": "localize.apply_PjT",
    "pipeline.assemble_upscaled_self_s": "pipeline.assemble_upscaled",
    "pipeline.solve_upscaled_s": "pipeline.solve_upscaled",
    "pipeline.recover_delta_s": "pipeline.recover_delta",
    "pipeline.reconstruct_s": "pipeline.reconstruct",
    "pipeline.compute_ttilde_s": "pipeline.compute_ttilde",
    "pipeline.report_s": "pipeline.full_pipeline",
    "pipeline.oracle_exact_s": "pipeline.oracle_exact",
    "pipeline.oracle_conforming_s": "pipeline.oracle_conforming",
    "pipeline.poincare_s": "pipeline.poincare",
    "cli.write_s": "cli.run_solve",
}

# Attribute maxima: metric -> (span name, attribute).
_ATTR_MAX = {
    "localop.cache_mb": ("localop.assemble_all", "cache_mb"),
    "traces.dense_mb": ("traces.build", "dense_mb"),
    "spectral.n_pi_total": ("spectral.face_spectra", "n_pi_total"),
    "localize.gram_mb": ("localize.projector", "gram_mb"),
    "pipeline.psi_mb": ("pipeline.assemble_upscaled", "psi_mb"),
    "pipeline.upscaled_dim": ("pipeline.assemble_upscaled", "upscaled_dim"),
}

# Spans whose self time inside solve_lsd counts as localization work.
_LOCALIZE_SPANS = ("localize.", "mesh.element_layers", "pipeline.assemble_upscaled")


def self_times(spans: list[list]) -> list[float]:
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _ancestor(spans: list[list], idx: int, name: str) -> int:
    while idx >= 0:
        if spans[idx][NAME] == name:
            return idx
        idx = spans[idx][PARENT]
    return -1


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced op (spans of a single op id).

    ``cli.bytes_written`` and ``trace.overhead_s`` are measured outside the
    traced process and left at 0 here.
    """
    out = {name: 0.0 for name, _ in LAYER_METRICS + WORKLOAD_SPECIFIC_METRICS}
    selfs = self_times(spans)
    for metric, span_name in _SELF_TIME.items():
        out[metric] = sum(s for rec, s in zip(spans, selfs) if rec[NAME] == span_name)
    for metric, (span_name, attr) in _ATTR_MAX.items():
        vals = [rec[ATTRS][attr] for rec in spans if rec[NAME] == span_name and rec[ATTRS]]
        out[metric] = float(max(vals)) if vals else 0.0
    for span_name, prefix in RSS_STAGES.items():
        vals = [rec[ATTRS]["rss_mb"] for rec in spans if rec[NAME] == span_name and rec[ATTRS]]
        out[f"{prefix}.rss_hwm_mb"] = max(vals) if vals else 0.0

    out["mesh.element_layers_calls"] = float(sum(rec[NAME] == "mesh.element_layers" for rec in spans))
    patches = [(rec, s) for rec, s in zip(spans, selfs) if rec[NAME] == "localize.patch_problem"]
    fresh = [(rec, s) for rec, s in patches if rec[ATTRS]["new_factor"]]
    dims = [rec[ATTRS]["dim"] for rec, _ in fresh]
    out["localize.patch_problem_calls"] = float(len(patches))
    out["localize.patch_factorizations"] = float(len(fresh))
    out["localize.patch_cache_hit_ratio"] = 1.0 - len(fresh) / len(patches) if patches else 0.0
    out["localize.patch_factor_s"] = sum(s for _, s in fresh)
    if dims:
        out["localize.patch_dim_p50"] = float(statistics.median(dims))
        out["localize.patch_dim_max"] = float(max(dims))
    out["localize.dense_patches"] = float(sum(rec[ATTRS]["dense"] for rec, _ in fresh))
    out["localize.sparse_patches"] = float(len(fresh)) - out["localize.dense_patches"]

    solve_total = sum(rec[END] - rec[START] for rec in spans if rec[NAME] == "pipeline.solve_lsd")
    localize_self = sum(
        s
        for i, (rec, s) in enumerate(zip(spans, selfs))
        if rec[NAME].startswith(_LOCALIZE_SPANS) and _ancestor(spans, i, "pipeline.solve_lsd") >= 0
    )
    out["solve.localize_share"] = localize_self / solve_total if solve_total else 0.0
    setup_total = sum(rec[END] - rec[START] for rec in spans if rec[NAME] == "op.setup")
    out["setup.assemble_all_share"] = (
        out["localop.assemble_all_s"] / setup_total if setup_total else 0.0
    )
    out["trace.spans"] = float(len(spans))
    return out
