"""The per-layer benchmark (``perfbench/tracer.py``) wraps package functions by name.

These checks read its tables without installing the tracer, so a rename or
deletion in the package that would break ``perfbench/run.py --trace 1``
fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lsdfem import localize
from lsdfem.pipeline import assemble_upscaled, solve_lambda0
from lsdfem.traces import element_functionals

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_and_methods_exist(tracer):
    for mod_name, attr, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"lsdfem.{mod_name}")
        assert callable(getattr(module, attr, None)), f"lsdfem.{mod_name}.{attr}"
    for mod_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"lsdfem.{mod_name}"), cls_name)
        assert callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"
    assert isinstance(localize.DENSE_PATCH_LIMIT, int)


def test_hooks_read_live_attributes(tracer, asm_const):
    asm = asm_const
    space = asm.space
    proj = asm.projector("delta", 4.0)
    operator = asm.upscaled_operator("delta", 4.0, 1)
    g = [np.ones(geo.n_nodes) for geo in asm.part.geometry]
    funcs = element_functionals(space, g)
    r = space.sum_element_rows(funcs)
    system = assemble_upscaled(asm, proj, operator, solve_lambda0(asm, g), funcs, r, 1)
    assert system.basis is operator.basis and system.multiscale is operator.multiscale
    calls = {
        "localop.assemble_all": ((), asm.caches),
        "traces.build": ((), space),
        "spectral.face_spectra": ((), asm.face_spectra(4.0)),
        "localize.projector": ((proj,), None),
        "localize.patch_problem": ((), proj.patch_problem(("face", 0), 1)),
        "pipeline.assemble_upscaled": ((), system),
    }
    assert set(calls) == set(tracer._HOOKS)
    recorder = tracer.Tracer()
    for name, (args, result) in calls.items():
        attrs = tracer._HOOKS[name](recorder, args, result)
        assert attrs and all(np.isfinite(float(v)) for v in attrs.values()), name


def test_cache_bytes_scale_with_one_element(tracer, asm_const):
    # Each ElementCache holds per-element views into the stacked arrays; a
    # field holding a whole stack would count its bytes once per element.
    caches = asm_const.caches
    cache_mb = tracer._HOOKS["localop.assemble_all"](tracer.Tracer(), (), caches)["cache_mb"]
    assert cache_mb == pytest.approx(len(caches) * tracer._array_mb(caches[0]), rel=1e-12)
    first, second = caches[0], caches[1]
    for name in ("stiffness", "mass", "mean_vector", "flux_energy", "_saddle"):
        assert getattr(second, name).base is getattr(first, name).base is not None, name
