"""The benchmark (``perfbench/``) reads the package from outside it.

The per-layer tracer (``perfbench/tracer.py``) wraps package functions by
name, and the benchmark op and its gates (``perfbench/op.py``,
``perfbench/gates.py``) read assembly attributes directly.  These checks
read the tracer's tables without installing it and run what the op and the
gates read, so a rename or deletion in the package that would break
``perfbench/run.py`` fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lsdfem import localize
from lsdfem.pipeline import assemble_upscaled, energy_error, solve_lambda0, solve_lsd
from lsdfem.traces import element_functionals

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_perfbench("tracer")


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


def test_op_and_gate_reads(asm_const):
    # op.py splits a cached reference by the element views' node counts,
    # gates.py sums per-element energies over the cache views, and op.py's
    # set-up builds the coarse basis.
    asm = asm_const
    part = asm.part
    counts = [geo.n_nodes for geo in part.geometry]
    assert len(counts) == asm.mesh.n_elements
    assert sum(counts) == part.nodes.shape[0] * part.nodes.shape[1]
    u = np.arange(part.nodes.shape[0] * part.nodes.shape[1], dtype=float)
    split = np.split(u, np.cumsum(counts)[:-1])
    assert np.array_equal(np.stack(split), u.reshape(part.nodes.shape[:2]))
    views = list(asm.caches)
    assert [c.elem for c in views] == list(range(asm.mesh.n_elements))
    for t, c in enumerate(views):
        assert np.array_equal(c.stiffness, asm.caches.stiffness[t])
    rng = np.random.default_rng(5)
    u_ref, v = rng.standard_normal((2,) + part.nodes.shape[:2])
    gates = load_perfbench("gates")
    assert gates.relative_energy_error(asm.caches, u_ref, v) == pytest.approx(
        energy_error(asm.caches, u_ref, v) / energy_error(asm.caches, u_ref, np.zeros_like(u_ref)), rel=1e-12
    )
    basis = asm.coarse_basis("plain", 4.0)
    assert basis.shape == (asm.space.n_fine, asm.space.dim_tilde0)


def test_global_reference_call(asm_const):
    # op.py's reference="global" solve: j=None, variant and alpha_stab positional.
    asm = asm_const
    g = np.ones(asm.part.nodes.shape[:2])
    u_ref = solve_lsd(asm, g, None, "delta", 4.0).u_broken
    assert isinstance(u_ref, np.ndarray)
    assert u_ref.shape == asm.part.nodes.shape[:2] == (asm.mesh.n_elements, asm.part.nodes.shape[1])
    assert np.all(np.isfinite(u_ref))
