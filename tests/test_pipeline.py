import dataclasses
import json

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_assembly
from test_localize import assembly_on
from test_localop import raster_fields
from test_mesh import grid_mesh, meshes
from lsdfem import coeff
from lsdfem.coeff import WEIGHT_CHOICES, CoefficientField, local_bounds, make_weight
from lsdfem.localize import build_flux_energy, face_basis
from lsdfem.localop import assemble_all, broken_energy
from lsdfem import pipeline
from lsdfem.mesh import build_mesh, build_structured_mesh, refine_faces, saturation_radius, save_mesh
from lsdfem.pipeline import (
    Assembly,
    PipelineError,
    SolverConfig,
    assemble_upscaled,
    build_assembly,
    conforming_solve,
    energy_error,
    exact_hybrid_solve,
    full_pipeline,
    load_norm,
    poincare_estimate,
    recover_delta,
    sample_load,
    solve_lambda0,
    solve_lsd,
    solve_upscaled,
)
from lsdfem.presets import coefficient_field
from lsdfem.traces import boundary_functional, build_trace_space, element_functionals


def smooth_g(points):
    return np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])


def test_config_validation_and_digest():
    cfg = SolverConfig(nx=2, ny=2)
    cfg.validate()
    assert cfg.digest() == SolverConfig(nx=2, ny=2).digest()
    assert cfg.digest() != SolverConfig(nx=3, ny=2).digest()
    with pytest.raises(ValueError):
        SolverConfig(j=0).validate()
    with pytest.raises(ValueError):
        SolverConfig(alpha_stab=0.5).validate()
    # The fields that key cached operators must be exact, finite values.
    with pytest.raises(ValueError):
        SolverConfig.from_dict({"j": "2"})
    for bad in (
        {"j": 2.5},
        {"j": True},
        {"alpha_stab": float("nan")},
        {"alpha_stab": float("inf")},
        {"c_j": float("nan")},
        {"h_target": float("inf")},
        {"h_target": float("nan")},
        {"nx": 0},
        {"ny": 2.0},
        {"face_level": 1.5},
        {"face_level": -1},
        {"interior_level": 2.5},
        {"interior_level": 1},
        {"rho": "custom"},
        {"rho": "bogus"},
        {"rhs": "bogus"},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad).validate()
    with pytest.raises(ValueError, match="rho must be one of one, amin, a_minus, a_plus, amax, got 'custom'"):
        SolverConfig(rho="custom").validate()
    SolverConfig(j=np.int64(3), h_target=0.25).validate()
    SolverConfig(nx=np.int64(2), interior_level=3, rho="a_plus").validate()
    with pytest.raises(ValueError):
        SolverConfig.from_dict({"no_such_key": 1})
    with pytest.raises(ValueError):
        SolverConfig.from_dict({"threads": 2})
    round_trip = SolverConfig.from_dict(cfg.to_dict())
    assert round_trip == cfg


def test_config_is_checked_when_made_and_read_only():
    cfg = SolverConfig(nx=2, ny=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.j = 3
    with pytest.raises(ValueError, match="j must be an integer >= 1"):
        dataclasses.replace(cfg, j=0)
    assert dataclasses.replace(cfg, nx=3).digest() == SolverConfig(nx=3, ny=2).digest()


@pytest.mark.parametrize("rho", WEIGHT_CHOICES)
def test_coefficient_eigenvalues_taken_once_per_assembly(monkeypatch, rho):
    calls = []
    bounds = coeff._sym_eig_bounds
    monkeypatch.setattr(coeff, "_sym_eig_bounds", lambda tensors: calls.append(1) or bounds(tensors))
    build_assembly(SolverConfig(nx=2, ny=2, coefficient="anisotropic", rho=rho))
    assert len(calls) == 1


@pytest.mark.parametrize("j", [2, None])
def test_unknown_variant_is_rejected(asm_const, j):
    # Run as delta, an unknown variant would be cached under a key without
    # alpha_stab, and a later solve at another alpha_stab would reuse its basis.
    g = np.ones(asm_const.part.nodes.shape[:2])
    with pytest.raises(ValueError, match="variant must be plain or delta, got 'Delta'"):
        solve_lsd(asm_const, g, j, "Delta", 1.5)


def test_pipeline_error_carries_stage():
    cfg = SolverConfig(nx=2, ny=2, coefficient="bogus")
    with pytest.raises(PipelineError) as err:
        build_assembly(cfg)
    assert err.value.stage == "coefficients"


def test_solve_lambda0(asm_const):
    g0 = [np.zeros(geo.n_nodes) for geo in asm_const.part.geometry]
    lam = solve_lambda0(asm_const, g0)
    assert np.abs(lam).max() == 0.0
    # g = 1, rho = 1: the right-hand side is minus the element areas.
    g1 = [np.ones(geo.n_nodes) for geo in asm_const.part.geometry]
    lam = solve_lambda0(asm_const, g1)
    space = asm_const.space
    p = asm_const.mesh.vertices[asm_const.mesh.elements]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1])
    coeffs = np.linalg.solve(space.pairing_matrix.T, -areas)
    oracle = space.jump_basis @ coeffs
    assert np.allclose(lam, oracle, rtol=1e-12, atol=1e-14)
    # compatibility: the pairing against constants reproduces the data.
    residual = space.pair_v0 @ lam + areas
    assert np.abs(residual).max() < 1e-12


def run_stages(asm, g_fn, j, variant="plain", alpha_stab=4.0):
    g = sample_load(asm.part, g_fn)
    return solve_lsd(asm, g, j, variant, alpha_stab), g


def test_upscaled_zero_data(asm_const):
    space = asm_const.space
    g0 = [np.zeros(geo.n_nodes) for geo in asm_const.part.geometry]
    lam0 = solve_lambda0(asm_const, g0)
    proj = asm_const.projector("plain", 4.0)
    operator = asm_const.upscaled_operator("plain", 4.0, 1)
    ttg = [np.zeros(geo.n_nodes) for geo in asm_const.part.geometry]
    funcs = element_functionals(space, ttg)
    system = assemble_upscaled(asm_const, proj, operator, lam0, funcs, space.sum_element_rows(funcs), 1)
    assert np.abs(system.rhs).max() == 0.0
    lam_coarse = solve_upscaled(system)
    assert np.abs(lam_coarse).max() == 0.0
    psi = system.operator.multiscale
    gram = psi.T @ (asm_const.energy @ psi)
    assert np.abs(gram - gram.T).max() <= 1e-11 * np.abs(gram).max()
    assert np.abs(factored_matrix(system.operator.factor) - gram).max() <= 1e-12 * np.abs(gram).max()


def factored_matrix(lu):
    """The matrix ``Pr^T L U Pc^T`` a SuperLU factor ``lu`` factors, dense."""
    n = lu.shape[0]
    pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))), (n, n))
    pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)), (n, n))
    return (pr.T @ lu.L @ lu.U @ pc.T).toarray()


def global_projection(proj, r):
    """Columns of the global projection of the functionals in the columns of ``r``."""
    return np.column_stack([proj.project_functional(col) for col in r.T])


def staged_global_system(asm, variant, lam0, r_ttg):
    """The staged j=None system in dense formulas: ``psi = B - P^T B`` and its Gram, and the
    load terms ``q = P r_ttg``, ``P^T lam0`` and the right-hand side, with the global
    projection ``P`` of ``project_functional``."""
    proj, s_mat = asm.projector(variant, 4.0), asm.energy
    basis = asm.coarse_basis(variant, 4.0).toarray()
    psi = basis - global_projection(proj, s_mat @ basis)
    q = proj.project_functional(r_ttg)
    flux0 = proj.project_functional(s_mat @ lam0)
    rhs = -(psi.T @ (r_ttg - s_mat @ q + s_mat @ (lam0 - flux0)))
    return basis, psi, psi.T @ (s_mat @ psi), rhs, q, flux0


def test_upscaled_saturated_matches_global_matrix(asm_mixed):
    space = asm_mixed.space
    g = sample_load(asm_mixed.part, smooth_g)
    lam0 = solve_lambda0(asm_mixed, g)
    proj = asm_mixed.projector("plain", 4.0)
    from lsdfem.pipeline import compute_ttilde

    ttg = compute_ttilde(asm_mixed, g)
    funcs = element_functionals(space, ttg)
    r_ttg = space.sum_element_rows(funcs)
    jstar = saturation_radius(asm_mixed.mesh)
    op_loc = asm_mixed.upscaled_operator("plain", 4.0, jstar)
    sys_loc = assemble_upscaled(asm_mixed, proj, op_loc, lam0, funcs, r_ttg, jstar)
    _, _, gram_glob, rhs_glob, _, _ = staged_global_system(asm_mixed, "plain", lam0, r_ttg)
    gram_loc = factored_matrix(op_loc.factor)
    scale = np.abs(gram_glob).max()
    assert np.allclose(gram_loc, gram_glob, atol=1e-10 * scale)
    assert np.allclose(sys_loc.rhs, rhs_glob, atol=1e-10 * max(np.abs(rhs_glob).max(), 1e-30))


def test_recover_delta_zero_and_membership(asm_mixed):
    space = asm_mixed.space
    proj = asm_mixed.projector("delta", 4.0)
    operator = asm_mixed.upscaled_operator("delta", 4.0, 1)
    zero = np.zeros(space.n_fine)
    funcs = np.zeros(asm_mixed.part.boundary_face_ids.shape)
    system = assemble_upscaled(asm_mixed, proj, operator, zero, funcs, zero, 1)
    out = recover_delta(solve_upscaled(system), system)
    assert np.abs(out).max() == 0.0
    # With data, the output lies in the span of the localizable block.
    g = sample_load(asm_mixed.part, smooth_g)
    sol = solve_lsd(asm_mixed, g, 2, "delta", 4.0)
    basis = proj.basis.toarray()
    coeffs, *_ = np.linalg.lstsq(basis, sol.lam_delta, rcond=None)
    recon = basis @ coeffs
    assert np.allclose(recon, sol.lam_delta, atol=1e-9 * max(np.abs(sol.lam_delta).max(), 1e-30))


def test_solution_invariants_and_energy_identity(asm_mixed):
    g = sample_load(asm_mixed.part, smooth_g)
    sol = solve_lsd(asm_mixed, g, 2, "plain", 4.0)
    # The potential parts have zero weighted average per element.
    from lsdfem.pipeline import compute_ttilde

    for t, cache in enumerate(asm_mixed.caches):
        tilde = sol.u_broken[t] - sol.u0[t]
        avg = cache.mean_vector @ tilde
        assert abs(avg) < 1e-10 * max(np.abs(tilde).max(), 1.0)
    # Energy identity: the flux energy of the multiplier equals the summed
    # per-element pairings.
    sides = [c.geom.side_values(sol.lam_total) for c in asm_mixed.caches]
    direct = sum(side @ (c.flux_energy @ side) for c, side in zip(asm_mixed.caches, sides))
    assert sol.diagnostics["flux_energy_sq"] == pytest.approx(direct, rel=1e-11)


def test_energies_ignore_element_constants():
    # The README CLI example's solve; K annihilates constants only to rounding,
    # so both energies must not see a per-element shift.
    cfg = SolverConfig(nx=8, ny=8, face_level=2, coefficient="channel", coefficient_params={"contrast": 1e4},
                       variant="delta", alpha_stab=10.0, j=2)
    asm = build_assembly(cfg)
    g = sample_load(asm.part, smooth_g)
    sol = solve_lsd(asm, g, 2, "delta", 10.0)
    shift = np.random.default_rng(0).standard_normal(len(sol.u0))
    energy = broken_energy(asm.caches, sol.u_broken)
    assert broken_energy(asm.caches, sol.u_broken + shift[:, None]) == pytest.approx(energy, rel=1e-12)
    shifted = pipeline.reconstruct(asm, sol.lam0, sol.lam_coarse, sol.lam_delta, sol.u0 + shift, g, None)
    assert shifted.diagnostics["solution_energy_sq"] == pytest.approx(
        sol.diagnostics["solution_energy_sq"], rel=1e-12)
    assert sol.diagnostics["solution_energy_sq"] == pytest.approx(energy, rel=1e-12)


def test_warm_solve_kernel_calls_do_not_grow_with_elements(monkeypatch):
    # A warm solve makes exactly one stacked call of the saddle kernel, the
    # reconstruction's, on 8 elements as on 32: the load potentials'
    # functionals come from the stored flux potentials.
    from lsdfem import localop

    runs = []
    for n in (2, 4):
        asm = make_assembly(n, n, 1, "smooth")
        g = sample_load(asm.part, smooth_g)
        solve_lsd(asm, g, 1, "delta", 4.0, rhs_reduction=True)
        runs.append((asm, g))
    kernel, calls = localop.saddle_solve, []

    def counted(*args):
        calls.append(args[0].shape)
        return kernel(*args)

    monkeypatch.setattr(localop, "saddle_solve", counted)
    counts = []
    for asm, g in runs:
        calls.clear()
        solve_lsd(asm, g, 1, "delta", 4.0, rhs_reduction=True)
        assert all(shape[0] == asm.mesh.n_elements for shape in calls)
        counts.append(len(calls))
    assert counts == [1, 1]


def _two_solve_reference(asm, g, j, variant, h_target):
    """The staged solve with separate load-potential and flux-potential solves.

    Returns ``u_broken``, the load used and its potentials' element
    functionals, from ``compute_ttilde`` and ``apply_T`` instead of the
    stored flux potentials.  ``h_target`` set reduces the load as
    ``rhs_reduction`` does.
    """
    from lsdfem.localop import apply_T
    from lsdfem.pipeline import compute_ttilde, solve_u0
    from lsdfem.spectral import project_rhs

    if h_target is not None:
        g = project_rhs(asm.element_spectra(h_target, 1.0), asm.caches, g)[0]
    ttg = compute_ttilde(asm, g)
    funcs = element_functionals(asm.space, ttg)
    r_ttg = asm.space.sum_element_rows(funcs)
    lam0 = solve_lambda0(asm, g)
    operator = asm.upscaled_operator(variant, 4.0, j)
    system = assemble_upscaled(asm, asm.projector(variant, 4.0), operator, lam0, funcs, r_ttg, j)
    lam_coarse = solve_upscaled(system)
    lam_total = lam0 + lam_coarse + recover_delta(lam_coarse, system)
    u0 = solve_u0(asm, lam_total, r_ttg)
    return u0[:, None] + apply_T(asm.caches, asm.part.side_values(lam_total)) + ttg, g, funcs


@pytest.fixture(scope="module", params=[1e2, 1e4, 1e6], ids=["1e2", "1e4", "1e6"])
def asm_contrast(request):
    """4x4 grid, two refinement levels, checkerboard at contrasts 1e2 to 1e6."""
    return make_assembly(4, 4, 2, "checkerboard", {"contrast": request.param, "cells": 4})


@pytest.mark.parametrize("rhs_reduction", [False, True], ids=["full_load", "reduced_load"])
@pytest.mark.parametrize("variant", ["plain", "delta"])
def test_one_local_solve_matches_two_solve_reference(asm_contrast, variant, rhs_reduction):
    # The warm solve's single local solve of trace^T side + M g, and the load
    # functionals T_e^T (M g) from the stored flux potentials, reproduce the
    # separate T~g and T(side) solves, with every element in equilibrium.
    from lsdfem.localop import load_functionals

    asm = asm_contrast
    g = sample_load(asm.part, smooth_g)
    # At a tenth of the mesh size, half of the elements keep four load modes.
    h_target = 0.1 * asm.mesh.coarse_size
    sol = solve_lsd(asm, g, 2, variant, 4.0, rhs_reduction, h_target)
    u_ref, g_used, funcs = _two_solve_reference(asm, g, 2, variant, h_target if rhs_reduction else None)
    assert np.abs(sol.u_broken - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    assert sol.diagnostics["equilibrium_rel_max"] <= 1e-10
    load = (asm.caches.mass @ g_used[..., None])[..., 0]
    got = asm.part.boundary_signs * load_functionals(asm.caches, load)
    assert np.abs(got - funcs).max() <= 1e-12 * np.abs(funcs).max()


def test_patch_problems_set_up_once_per_seed(monkeypatch):
    # A cold solve runs the patch kernel once per seed kind, over every face
    # and element seed exactly once with their j=2 patches, for the upscaled
    # operator and the load's two passes together; a warm solve runs it not
    # at all.
    from lsdfem.localize import PatchProjector

    asm = make_assembly(4, 4, 1, "smooth")
    g = sample_load(asm.part, smooth_g)
    kernel, calls = PatchProjector._patch_blocks, []

    def counted(self, kind, seeds, columns, data):
        calls.append((kind, sorted(seeds.tolist()), columns))
        return kernel(self, kind, seeds, columns, data)

    monkeypatch.setattr(PatchProjector, "_patch_blocks", counted)
    solve_lsd(asm, g, 2, "delta", 4.0)
    projector = asm.projector("delta", 4.0)
    assert sorted(call[:2] for call in calls) == [
        ("element", list(range(asm.mesh.n_elements))),
        ("face", list(range(asm.mesh.n_faces))),
    ]
    for kind, seeds, columns in calls:
        assert (columns != projector._seed_columns(kind, np.array(seeds), 2)).nnz == 0
    calls.clear()
    solve_lsd(asm, g, 2, "delta", 4.0)
    assert calls == []


def test_equilibrium_at_small_j(asm_mixed):
    g = sample_load(asm_mixed.part, smooth_g)
    for j in (1, 2):
        sol = solve_lsd(asm_mixed, g, j, "plain", 4.0)
        assert sol.diagnostics["equilibrium_rel_max"] <= 1e-10


def test_exact_hybrid_zero_load(asm_const):
    g0 = [np.zeros(geo.n_nodes) for geo in asm_const.part.geometry]
    u, lam = exact_hybrid_solve(asm_const, g0)
    assert max(np.abs(x).max() for x in u) < 1e-14
    assert np.abs(lam).max() < 1e-14


def test_exact_hybrid_weak_continuity(asm_mixed):
    g = sample_load(asm_mixed.part, smooth_g)
    u, lam = exact_hybrid_solve(asm_mixed, g)
    r = boundary_functional(asm_mixed.space, u)
    scale = max(np.abs(x).max() for x in u)
    assert np.abs(r).max() <= 1e-10 * scale


def holed_mesh():
    """Jittered grid with one cell removed: one hole, so one face-constant field is no curl."""
    return grid_mesh(5, 4, np.random.default_rng(4), hole=True)


def unused_vertex_mesh():
    """Grid whose vertex list starts with a vertex that no element uses."""
    base = build_structured_mesh(3, 3)
    return build_mesh(np.vstack([[0.5, 0.5], base.vertices]), base.elements + 1)


@pytest.mark.parametrize(
    "mesh_fn", [None, holed_mesh, unused_vertex_mesh], ids=["structured", "holed", "unused_vertex"]
)
def test_four_step_reproduces_monolithic(asm_mixed, mesh_fn, tmp_path):
    asm = asm_mixed
    if mesh_fn is not None:
        path = str(tmp_path / "mesh.txt")
        save_mesh(mesh_fn(), path)
        asm = build_assembly(
            SolverConfig(
                mesh_file=path,
                face_level=2,
                coefficient="checkerboard",
                coefficient_params={"contrast": 1e3, "cells": 4},
            )
        )
    g = sample_load(asm.part, smooth_g)
    sol = solve_lsd(asm, g, None, "plain", 4.0)
    u_ref, lam_ref = exact_hybrid_solve(asm, g)
    ref = broken_energy(asm.caches, u_ref) ** 0.5
    assert energy_error(asm.caches, u_ref, sol.u_broken) <= 1e-10 * ref
    # u0 agrees with the weighted average of the monolithic solution.
    for t, cache in enumerate(asm.caches):
        mean = (cache.mean_vector @ u_ref[t]) / cache.mean_vector.sum()
        assert sol.u0[t] == pytest.approx(mean, rel=1e-8, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(
    mesh=meshes(),
    face_level=st.integers(0, 2),
    field=raster_fields(),
    variant=st.sampled_from(["plain", "delta"]),
)
def test_whole_solve_matches_references(mesh, face_level, field, variant):
    # On jittered meshes (some with a hole) and random raster coefficients:
    # saturated patches reproduce the j=None solve, which reproduces the
    # monolithic hybrid solve, and every solve keeps the element load
    # balance.  Both differences are rounding that grows with the contrast.
    raster, rho = field
    part = refine_faces(mesh, face_level)
    coeff = CoefficientField.sample(part, raster)
    caches = assemble_all(coeff, make_weight(rho, coeff), part)
    space = build_trace_space(part)
    stats = local_bounds(coeff)
    asm = Assembly(mesh, part, caches, space, build_flux_energy(space, caches), stats)
    kappa = stats.a_max_local.max() / stats.a_min_local.min()
    g = sample_load(part, smooth_g)
    jstar = saturation_radius(mesh)
    sols = {j: solve_lsd(asm, g, j, variant, 2.0) for j in (1, jstar, None)}
    u_ref, _ = exact_hybrid_solve(asm, g)

    def rel(u, ref):
        return energy_error(caches, u, ref) / broken_energy(caches, ref) ** 0.5

    assert rel(sols[jstar].u_broken, sols[None].u_broken) <= 1e-13 * kappa
    assert rel(sols[None].u_broken, u_ref) <= 1e-11 * kappa
    for j, sol in sols.items():
        assert sol.diagnostics["equilibrium_ok"], (j, sol.diagnostics["equilibrium_rel_max"])


def test_upscaled_operator_reused_across_loads():
    # One assembly solving loads A, B, A gives the solutions of fresh
    # assemblies, and keeps one upscaled operator per (variant, alpha_stab, j).
    params = {"contrast": 1e3, "cells": 3}
    asm = make_assembly(3, 3, 2, "checkerboard", params)
    loads = {"A": smooth_g, "B": lambda p: np.exp(p[:, 0]) * (1.0 + p[:, 1] ** 2)}
    refs = {}
    for variant in ("plain", "delta"):
        for j in (1, 2, None):
            for name in ("A", "B", "A"):
                sol = solve_lsd(asm, sample_load(asm.part, loads[name]), j, variant, 4.0)
                assert sol.diagnostics["equilibrium_ok"]
                if (variant, j, name) not in refs:
                    fresh = make_assembly(3, 3, 2, "checkerboard", params)
                    g = sample_load(fresh.part, loads[name])
                    refs[variant, j, name] = solve_lsd(fresh, g, j, variant, 4.0)
                ref = refs[variant, j, name]
                pairs = [
                    (sol.lam_total, ref.lam_total),
                    (np.concatenate(sol.u_broken), np.concatenate(ref.u_broken)),
                ]
                for got, want in pairs:
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # Retained modes make the delta operator differ from the plain one.
    assert sum(s.n_pi for s in asm.face_spectra(4.0)) > 0
    # j=None solves on the whole tilde space and builds no upscaled operator.
    assert {key for stage, key in asm._stages if stage == "upscaled_operator"} == {
        (v, a, j) for v, a in (("plain", 0.0), ("delta", 4.0)) for j in (1, 2)
    }
    assert {key for stage, key in asm._stages if stage == "global_factor"} == {("plain", 0.0), ("delta", 4.0)}


def dense_upscaled_reference(asm, variant, j):
    """Dense formulas: face constants repeated per fine face beside the retained modes,
    ``psi = basis - P_j^T basis`` and its Gram ``psi^T S psi``."""
    space = asm.space
    basis = np.repeat(space.face_constant_coeffs, space.part.faces_per_coarse, axis=0)
    if variant == "delta":
        vectors, localizable = asm.face_modes(variant, 4.0)
        basis = np.hstack([basis, face_basis(space, vectors, ~localizable).toarray()])
    psi = basis - asm.projector(variant, 4.0).apply_PjT_columns(basis, j)
    gram = psi.T @ (asm.energy @ psi)
    return basis, psi, 0.5 * (gram + gram.T)


@settings(max_examples=20, deadline=None)
@given(
    mesh=meshes(),
    face_level=st.integers(1, 2),
    variant=st.sampled_from(["plain", "delta"]),
    j=st.sampled_from([1, 2]),
)
def test_sparse_upscaled_build_matches_dense(mesh, face_level, variant, j):
    # The coarse basis is the dense one stored as CSC without zeros, the
    # multiscale basis, built by sparse products, is stored as CSC and matches
    # the dense formula, its dense view is that matrix, and the factor is one
    # of the dense Gram.
    asm = assembly_on(mesh, face_level)
    basis_ref, psi_ref, gram_ref = dense_upscaled_reference(asm, variant, j)
    basis = asm.coarse_basis(variant, 4.0)
    assert basis.format == "csc"
    assert np.array_equal(basis.toarray(), basis_ref)
    assert np.all(basis.data != 0.0)
    operator = asm.upscaled_operator(variant, 4.0, j)
    assert sp.issparse(operator.psi) and operator.psi.format == "csc"
    for got, ref in ((operator.psi.toarray(), psi_ref), (factored_matrix(operator.factor), gram_ref)):
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)
    assert type(operator.multiscale) is np.ndarray
    assert np.array_equal(operator.multiscale, operator.psi.toarray())


def test_untraced_run_builds_no_dense_global_view():
    # Every global operator is stored sparse: a solve with its report and both
    # oracles, then a j=None solve, build none of the dense views that only
    # perfbench's tracer reads.
    cfg = SolverConfig(
        nx=4, ny=4, face_level=2, coefficient="channel", variant="delta", j=2,
        compare_exact=True, compare_conforming=True,
    )
    asm = build_assembly(cfg)
    full_pipeline(cfg, assembly=asm)
    solve_lsd(asm, sample_load(asm.part, lambda p: p[:, 0] * p[:, 1]), None, "delta", cfg.alpha_stab)
    owners = {stage: product for (stage, _), product in asm._stages.items()}
    views = {"multiscale", "face_constant_coeffs", "pairing_matrix", "gram"}
    for owner in (asm.space, owners["projector"], owners["upscaled_operator"]):
        assert not views & set(vars(owner)), type(owner).__name__


def test_plain_solves_no_face_pencil():
    # plain localizes every zero-average face mode, so neither a localized
    # nor a j=None solve builds the face spectra.
    asm = make_assembly(3, 3, 2, "checkerboard", {"contrast": 1e3, "cells": 3})
    g = sample_load(asm.part, smooth_g)
    for j in (2, None):
        solve_lsd(asm, g, j, "plain", 4.0)
    assert {stage for stage, _ in asm._stages} == {"coarse_basis", "global_factor", "projector", "upscaled_operator"}


@pytest.mark.parametrize("variant", ["plain", "delta"])
def test_global_solve_is_the_staged_global_solve(variant):
    # j=None is one Galerkin solve on [W B]: it builds no upscaled operator
    # and no patch response, lam_delta lies in span(W) and lam_coarse in
    # span(B), and both equal the staged solve with global projections.
    asm = make_assembly(4, 4, 2, "checkerboard", {"contrast": 1e3, "cells": 4})
    g = sample_load(asm.part, smooth_g)
    sol = solve_lsd(asm, g, None, variant, 4.0)
    proj = asm.projector(variant, 4.0)
    assert not any(stage == "upscaled_operator" for stage, _ in asm._stages)
    assert proj._responses == {}
    from lsdfem.pipeline import compute_ttilde

    funcs = element_functionals(asm.space, compute_ttilde(asm, g))
    r_ttg = asm.space.sum_element_rows(funcs)
    basis, psi, gram, rhs, q, flux0 = staged_global_system(asm, variant, sol.lam0, r_ttg)
    x = np.linalg.solve(gram, rhs)
    lam_coarse = basis @ x
    lam_delta = -(flux0 + lam_coarse - psi @ x + q)
    w = proj.basis.toarray()
    for got, want, span in ((sol.lam_coarse, lam_coarse, basis), (sol.lam_delta, lam_delta, w)):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-10 * scale
        coeffs, *_ = np.linalg.lstsq(span, got, rcond=None)
        assert np.abs(span @ coeffs - got).max() <= 1e-10 * scale


def test_localization_error_monotone(asm_mixed):
    g = sample_load(asm_mixed.part, smooth_g)
    ref = solve_lsd(asm_mixed, g, None, "plain", 4.0)
    errs = [
        energy_error(asm_mixed.caches, ref.u_broken, solve_lsd(asm_mixed, g, j, "plain", 4.0).u_broken)
        for j in (1, 2, 3, 4)
    ]
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-9)


def test_low_contrast_path_variants_agree(asm_smooth_4):
    # Threshold above every face eigenvalue: the enriched variant reduces
    # to the plain one.
    spectra = asm_smooth_4.face_spectra(1e12)
    assert all(s.n_pi == 0 for s in spectra)
    g = sample_load(asm_smooth_4.part, smooth_g)
    a = solve_lsd(asm_smooth_4, g, 2, "plain", 1e12)
    b = solve_lsd(asm_smooth_4, g, 2, "delta", 1e12)
    scale = max(np.abs(np.concatenate(a.u_broken)).max(), 1.0)
    err = energy_error(asm_smooth_4.caches, a.u_broken, b.u_broken)
    assert err <= 1e-9 * scale
    assert np.allclose(a.lam_total, b.lam_total, atol=1e-9 * max(np.abs(a.lam_total).max(), 1))


def test_reduction_noop_for_represented_load(asm_mixed):
    # Piecewise-constant g lies in every element's kept space, so the
    # reduction changes nothing.
    g = [np.full(geo.n_nodes, 1.0 + 0.1 * t) for t, geo in enumerate(asm_mixed.part.geometry)]
    plain = solve_lsd(asm_mixed, g, 2, "plain", 4.0, rhs_reduction=False)
    reduced = solve_lsd(asm_mixed, g, 2, "plain", 4.0, rhs_reduction=True, h_target=0.5)
    err = energy_error(asm_mixed.caches, plain.u_broken, reduced.u_broken)
    scale = broken_energy(asm_mixed.caches, plain.u_broken) ** 0.5
    assert err <= 1e-10 * max(scale, 1e-30)


def test_reduction_error_bound(asm_mixed):
    g = sample_load(asm_mixed.part, smooth_g)
    u_full, _ = exact_hybrid_solve(asm_mixed, g)
    h_target = 0.5 * asm_mixed.mesh.coarse_size
    spectra = asm_mixed.element_spectra(h_target, 1.0)
    from lsdfem.spectral import project_rhs

    g_proj = project_rhs(spectra, asm_mixed.caches, g)[0]
    u_red, _ = exact_hybrid_solve(asm_mixed, g_proj)
    err = energy_error(asm_mixed.caches, u_full, u_red)
    sig_next = np.array(
        [s.sigma[s.j_count] if s.j_count < len(s.sigma) else np.inf for s in spectra]
    )
    bound = float((1.0 / np.sqrt(sig_next)).max()) * load_norm(asm_mixed.caches, g)
    assert err <= bound * (1 + 1e-9)


def test_weighted_norm_duality(asm_mixed):
    # ||g||_{rho} equals ||f||_{1/rho} with f = rho g, via cellwise quadrature,
    # for a weight rho that varies from cell to cell.
    part = asm_mixed.part
    field = coefficient_field(part, "checkerboard", {"contrast": 1e3, "cells": 4})
    rho = make_weight("a_plus", field)
    caches = assemble_all(field, rho, part)
    g = sample_load(part, smooth_g)
    norm_g = load_norm(caches, g)
    total = 0.0
    for t, cache in enumerate(caches):
        geom = cache.geom
        gv, rv = g[t], rho[t]
        for c, cell in enumerate(geom.cells):
            mids = np.array([0.5 * (gv[cell[i]] + gv[cell[(i + 1) % 3]]) for i in range(3)])
            f_mid = rv[c] * mids
            total += geom.cell_areas[c] / 3.0 * float((f_mid**2 / rv[c]).sum())
    assert norm_g**2 == pytest.approx(total, rel=1e-12)


def test_conforming_solve_manufactured():
    # A = I, f = 2 pi^2 sin sin: u = sin sin; the conforming reference should
    # be within discretization error.
    asm = make_assembly(4, 4, 1)

    def g_fn(points):
        return 2 * np.pi**2 * smooth_g(points)

    g = sample_load(asm.part, g_fn)
    u_nodes, u_broken = conforming_solve(asm, g)
    union = asm.union_mesh()
    exact = np.sin(np.pi * union.nodes[:, 0]) * np.sin(np.pi * union.nodes[:, 1])
    err = np.abs(u_nodes - exact).max()
    assert err < 0.05
    assert np.abs(u_nodes[union.boundary]).max() == 0.0


def conforming_row_replacement(assembly, g):
    """Conforming solve with each Dirichlet row replaced by an identity row."""
    union = assembly.union_mesh()
    ng, maps = union.nodes.shape[0], union.node_maps
    rhs = np.zeros(ng)
    np.add.at(rhs, maps.ravel(), np.einsum("eij,ej->ei", assembly.caches.mass, g).ravel())
    nn = maps.shape[1]
    index = (np.repeat(maps, nn, axis=1).ravel(), np.tile(maps, nn).ravel())
    mat = sp.csr_matrix((assembly.caches.stiffness.ravel(), index), shape=(ng, ng)).tolil()
    for b in union.boundary:
        mat.rows[b] = [b]
        mat.data[b] = [1.0]
        rhs[b] = 0.0
    return spla.splu(mat.tocsc()).solve(rhs)


@pytest.mark.parametrize("params", [{"contrast": 1e3, "cells": 4}, {"contrast": 1e6, "cells": 2}])
def test_conforming_solve_matches_row_replacement(params):
    asm = make_assembly(4, 4, 2, "checkerboard", params)
    g = sample_load(asm.part, smooth_g)
    u, u_broken = conforming_solve(asm, g)
    ref = conforming_row_replacement(asm, g)
    union = asm.union_mesh()
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(u[union.boundary] == 0.0)
    assert np.array_equal(u_broken, u[union.node_maps])


def test_oracle_matrices_store_no_zeros(asm_mixed, monkeypatch):
    # Every matrix the oracles and the Poincare estimate factor or hand to
    # the eigensolver is scattered from the element blocks without zeros.
    seen = []

    def splu(mat, *args, **kwargs):
        seen.append(mat)
        return spla.splu(mat, *args, **kwargs)

    def eigsh(mat, *args, M=None, **kwargs):
        seen.extend([mat, M])
        return spla.eigsh(mat, *args, M=M, **kwargs)

    monkeypatch.setattr(
        pipeline, "spla", SimpleNamespace(splu=splu, eigsh=eigsh, LinearOperator=spla.LinearOperator)
    )
    g = sample_load(asm_mixed.part, smooth_g)
    exact_hybrid_solve(asm_mixed, g)
    conforming_solve(asm_mixed, g)
    poincare_estimate(asm_mixed)
    # The hybrid saddle, and the union stiffness and mass, which the
    # conforming solve and the Poincare estimate share.
    assert len({id(mat) for mat in seen}) == 3
    for mat in seen:
        assert np.all(mat.data != 0.0)


def test_full_pipeline_report(tmp_path):
    cfg = SolverConfig(
        nx=4,
        ny=4,
        face_level=1,
        coefficient="smooth",
        variant="delta",
        alpha_stab=4.0,
        j=2,
        compare_exact=True,
        compare_conforming=True,
    )
    solution, report = full_pipeline(cfg)
    assert report["config_hash"] == cfg.digest()
    assert report["dimensions"]["elements"] == 32
    assert report["diagnostics"]["equilibrium_rel_max"] <= 1e-10
    assert "oracle_exact" in report and "oracle_conforming" in report
    assert report["oracle_exact"]["relative"] < 1.0
    assert "face_spectrum" in report
    json.dumps(report)  # must be serializable


def test_full_pipeline_rhs_reduction_report():
    cfg = SolverConfig(nx=2, ny=2, face_level=1, coefficient="constant", rhs_reduction=True, j=2)
    solution, report = full_pipeline(cfg)
    info = report["diagnostics"]["rhs_reduction"]
    assert info["reduction_bound"] > 0
    assert len(info["j_counts"]) == 8


def test_constant_load_symmetric_solution():
    # A = I, g constant: the constant part inherits the mesh symmetry
    # under the half-turn (x, y) -> (1-x, 1-y).
    asm = make_assembly(2, 2, 1)
    g = [np.ones(geo.n_nodes) for geo in asm.part.geometry]
    sol = solve_lsd(asm, g, None, "plain", 4.0)
    cents = asm.mesh.centroids
    for t in range(asm.mesh.n_elements):
        mirrored = 1.0 - cents[t]
        s = int(np.argmin(np.linalg.norm(cents - mirrored, axis=1)))
        assert sol.u0[t] == pytest.approx(sol.u0[s], rel=1e-10, abs=1e-12)


def test_degenerate_face_level_zero_is_exact():
    # One sub-face per face: the fine remainder block is empty, so every face
    # basis, every patch problem and the global Gram are empty, and the
    # staged solve coincides with the monolithic one for every j.
    asm = build_assembly(SolverConfig(nx=4, ny=4, face_level=0, coefficient="smooth"))
    g = sample_load(asm.part, smooth_g)
    u_ref, _ = exact_hybrid_solve(asm, g)
    ref = broken_energy(asm.caches, u_ref) ** 0.5
    for variant in ("plain", "delta"):
        assert asm.projector(variant, 4.0).gram.shape == (0, 0)
        for j in (1, 2, None):
            sol = solve_lsd(asm, g, j, variant, 4.0)
            assert energy_error(asm.caches, u_ref, sol.u_broken) <= 1e-10 * ref


def test_exact_hybrid_solve_is_refined_at_high_contrast():
    # The benchmark's hairpin channel scaled to H = 1/4 at contrast 1e6.  A
    # single sparse LU solve of the hybrid saddle is about 6e-8 (relative,
    # broken energy) away from the j=None staged solve here; with one
    # refinement step the distance is about 1e-10.
    params = {"contrast": 1e6, "center": 0.375, "width": 0.056, "spacing": 0.12}
    asm = make_assembly(4, 4, 2, "channel", params)
    g = sample_load(asm.part, lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
    u_ref, _ = exact_hybrid_solve(asm, g)
    sol = solve_lsd(asm, g, None, "plain")
    ref = broken_energy(asm.caches, u_ref) ** 0.5
    assert energy_error(asm.caches, u_ref, sol.u_broken) <= 1e-9 * ref
