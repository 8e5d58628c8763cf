import re
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import face_elements, make_assembly, random_tilde_f, saturation_depth
from lsdfem.coeff import local_bounds, make_weight
from lsdfem import localize
from lsdfem.localize import (
    PatchProjector, build_flux_energy, face_basis, ring_energies,
)
from lsdfem.localop import apply_T, assemble_all
from lsdfem.mesh import element_layers, refine_faces, saturation_radius
from lsdfem.pipeline import Assembly, sample_load, solve_lsd
from lsdfem.presets import coefficient_field
from lsdfem.traces import boundary_functional, build_trace_space, element_functionals
from test_mesh import layers_bruteforce, meshes


def patch_solve(problem, rhs):
    """Solves with the factored patch Gram of ``problem``, for right-hand sides on its basis columns."""
    if isinstance(problem.factor, tuple):
        return scipy.linalg.cho_solve(problem.factor, rhs)
    return problem.factor.solve(rhs)


def column_faces(basis, nfs):
    """Coarse face of each face-basis column: its first stored row's (test_basis_dimensions checks it)."""
    return basis.indices[basis.indptr[:-1]] // nfs


def solve_patch(proj, problem, rhs_reduced):
    """Galerkin solve on the patch subspace for a functional tested against the full basis.

    Only the patch entries of ``rhs_reduced`` participate; the stored
    values vanish outside the patch faces by construction.
    """
    coeffs = np.zeros(proj.basis.shape[1])
    coeffs[problem.dof_indices] = patch_solve(problem, rhs_reduced[problem.dof_indices])
    return proj.basis @ coeffs


def test_energy_matrix_matches_elementwise_forms(asm_mixed):
    rng = np.random.default_rng(2)
    mu = rng.standard_normal(asm_mixed.space.n_fine)
    nu = rng.standard_normal(asm_mixed.space.n_fine)
    via_s = mu @ (asm_mixed.energy @ nu)
    direct = sum(
        c.geom.side_values(mu) @ (c.geom.trace_matrix @ apply_T(c, c.geom.side_values(nu)))
        for c in asm_mixed.caches
    )
    assert via_s == pytest.approx(direct, rel=1e-10)


def block_diag_bases(space, spectra):
    """Reference face bases, one dense block per face joined by ``sp.block_diag``."""
    z = space.zero_mean
    blocks = {
        "plain": [z] * space.n_coarse_faces,
        "delta": [z @ s.vectors[:, : s.n_delta] for s in spectra],
        "pi": [z @ s.vectors[:, s.n_delta :] for s in spectra],
    }
    return {
        label: (np.concatenate(([0], np.cumsum([b.shape[1] for b in bl]))), sp.block_diag(bl, format="csc"))
        for label, bl in blocks.items()
    }


@settings(max_examples=20, deadline=None)
@given(mesh=meshes(), face_level=st.integers(1, 2), alpha_stab=st.floats(1.0, 1e3))
def test_basis_dimensions(mesh, face_level, alpha_stab):
    # The one-pass bases equal the per-face reference, every column is
    # non-zero and lives on its own face's fine faces, so its first stored
    # row names its face, and delta and pi split the plain basis.
    asm = assembly_on(mesh, face_level)
    space, nfs = asm.space, asm.part.faces_per_coarse
    spectra = asm.face_spectra(alpha_stab)
    vectors, localizable = asm.face_modes("delta", alpha_stab)
    bases = {
        "plain": face_basis(space, *asm.face_modes("plain", alpha_stab)),
        "delta": face_basis(space, vectors, localizable),
        "pi": face_basis(space, vectors, ~localizable),
    }
    for label, (offsets, matrix) in block_diag_bases(space, spectra).items():
        basis = bases[label]
        got, ref = basis.toarray(), matrix.toarray()
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * np.abs(ref).max(initial=0.0)
        assert np.all(np.diff(basis.indptr) > 0)
        col_face = np.repeat(np.arange(mesh.n_faces), np.diff(offsets))
        assert np.array_equal(column_faces(basis, nfs), col_face)
        rows, cols = basis.nonzero()
        assert np.array_equal(rows // nfs, col_face[cols])
    assert bases["plain"].shape[1] == space.dim_tilde_f
    assert bases["delta"].shape[1] + bases["pi"].shape[1] == bases["plain"].shape[1]


def test_project_zero_functional(asm_mixed):
    proj = asm_mixed.projector("plain", 4.0)
    out = proj.project_functional(np.zeros(asm_mixed.space.n_fine))
    assert np.abs(out).max() == 0.0


def test_projection_idempotent(asm_mixed):
    # Applying the projection to the potential of its own output changes nothing.
    rng = np.random.default_rng(3)
    proj = asm_mixed.projector("plain", 4.0)
    lam = rng.standard_normal(asm_mixed.space.n_fine)
    once = proj.project_functional(asm_mixed.energy @ lam)
    twice = proj.project_functional(asm_mixed.energy @ once)
    assert np.allclose(twice, once, rtol=0, atol=1e-10 * max(np.abs(once).max(), 1))


def test_delta_equals_plain_when_no_retained_modes(asm_smooth_4):
    rng = np.random.default_rng(5)
    spectra = asm_smooth_4.face_spectra(1e12)
    assert all(s.n_pi == 0 for s in spectra)
    p_plain = asm_smooth_4.projector("plain", 1e12)
    p_delta = asm_smooth_4.projector("delta", 1e12)
    lam = rng.standard_normal(asm_smooth_4.space.n_fine)
    a = p_plain.project_functional(asm_smooth_4.energy @ lam)
    b = p_delta.project_functional(asm_smooth_4.energy @ lam)
    scale = np.abs(a).max()
    assert np.allclose(a, b, atol=1e-10 * scale)


def test_patch_zero_rhs_and_support(asm_mixed):
    proj = asm_mixed.projector("plain", 4.0)
    problem = proj.patch_problem(("element", 5), 1)
    out = solve_patch(proj, problem, np.zeros(proj.basis.shape[1]))
    assert np.abs(out).max() == 0.0
    # Support: structural zero outside the patch faces.
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(proj.basis.shape[1])
    out = solve_patch(proj, problem, rhs)
    nfs = asm_mixed.part.faces_per_coarse
    active = set(problem.active_faces.tolist())
    for f in range(asm_mixed.mesh.n_faces):
        if f not in active:
            assert np.abs(out[f * nfs : (f + 1) * nfs]).max() == 0.0


def test_patch_active_faces_inside_layer(asm_mixed):
    proj = asm_mixed.projector("plain", 4.0)
    for j in (1, 2):
        problem = proj.patch_problem(("face", 7), j)
        layer = element_layers(asm_mixed.mesh, ("face", 7), j)
        for f in problem.active_faces:
            for e in face_elements(asm_mixed.mesh, int(f)):
                assert e in layer


def test_saturated_patch_equals_global(asm_mixed):
    proj = asm_mixed.projector("plain", 4.0)
    jstar = saturation_radius(asm_mixed.mesh)
    rng = np.random.default_rng(11)
    lam = rng.standard_normal(asm_mixed.space.n_fine)
    loc = proj.apply_PjT(lam, jstar)
    glob = proj.project_functional(asm_mixed.energy @ lam)
    scale = max(np.abs(glob).max(), 1.0)
    assert np.allclose(loc, glob, atol=1e-10 * scale)


def test_patch_galerkin_optimality(asm_mixed):
    # The patch solution minimizes the energy distance to the global one
    # among patch-supported candidates.
    proj = asm_mixed.projector("plain", 4.0)
    rng = np.random.default_rng(13)
    seed = ("face", 9)
    problem = proj.patch_problem(seed, 1)
    lam_f = random_tilde_f(asm_mixed.space, rng)
    on_face = np.arange(asm_mixed.space.n_fine) // asm_mixed.part.faces_per_coarse == 9
    lamF = np.where(on_face, lam_f, 0.0)
    rhs = proj.basis.T @ (asm_mixed.energy @ lamF)
    sol = solve_patch(proj, problem, rhs)
    target = proj.project_functional(asm_mixed.energy @ lamF)  # global reference

    def err_energy(cand_values):
        d = target - cand_values
        return d @ (asm_mixed.energy @ d)

    best = err_energy(sol)
    for _ in range(6):
        cand = proj.basis[:, problem.dof_indices] @ rng.standard_normal(problem.dim)
        assert err_energy(cand) >= best - 1e-12 * max(best, 1.0)


def assembly_on(mesh, face_level):
    part = refine_faces(mesh, face_level)
    coeff = coefficient_field(part, "checkerboard", {"contrast": 1e2, "cells": 4})
    caches = assemble_all(coeff, make_weight("one", coeff), part)
    space = build_trace_space(part)
    return Assembly(mesh, part, caches, space, build_flux_energy(space, caches), local_bounds(coeff))


def response_matrix_reference(proj, kind, j):
    """Per-seed loop: one layer set, active-face mask, Gram gather, Cholesky factor and solve per seed."""
    space, mesh = proj.space, proj.space.mesh
    if kind == "face":
        n_seeds, rhs = mesh.n_faces, (proj.basis.T @ proj.energy).toarray()
        firsts = [set(face_elements(mesh, f)) for f in range(n_seeds)]
    else:
        n_seeds, rhs = mesh.n_elements, proj.basis.T.toarray()[:, space.part.boundary_face_ids.ravel()]
        firsts = [{e} for e in range(n_seeds)]
    width = rhs.shape[1] // n_seeds
    col_face = column_faces(proj.basis, space.part.faces_per_coarse)
    dims, rows, data = [], [], []
    for s in range(n_seeds):
        inside = np.zeros(mesh.n_elements + 1, dtype=bool)
        inside[list(layers_bruteforce(mesh, firsts[s], j))] = True
        inside[-1] = True   # face_right is -1 on the domain boundary
        faces = np.nonzero(inside[mesh.face_left] & inside[mesh.face_right])[0]
        dofs = np.nonzero(np.isin(col_face, faces))[0]
        factor = scipy.linalg.cho_factor(proj.gram[np.ix_(dofs, dofs)])
        dims.append(dofs.size)
        rows.append(np.tile(dofs, width))
        data.append(scipy.linalg.cho_solve(factor, rhs[dofs, s * width : (s + 1) * width]).T.ravel())
    indptr = np.concatenate(([0], np.cumsum(np.repeat(dims, width))))
    return sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr), (proj.basis.shape[1], rhs.shape[1]))


@settings(max_examples=20, deadline=None)
@given(
    mesh=meshes(),
    face_level=st.integers(1, 2),
    variant=st.sampled_from(["plain", "delta"]),
    data=st.data(),
)
def test_response_blocks_are_patch_solves(mesh, face_level, variant, data):
    # Both response matrices equal the per-seed reference loop, a seed's
    # block is its patch solve, it vanishes on the basis columns of inactive
    # faces, and at the saturation radius both localized projections are
    # the global one.
    asm = assembly_on(mesh, face_level)
    space, part = asm.space, asm.part
    proj = asm.projector(variant, 4.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["face", "element"]))
    seed = (kind, data.draw(st.integers(0, (mesh.n_faces if kind == "face" else mesh.n_elements) - 1)))
    jstar = saturation_radius(mesh)
    j = data.draw(st.integers(1, jstar + 1))
    face_r, element_r = proj.responses(j)
    for got, seed_kind in ((face_r, "face"), (element_r, "element")):
        ref = response_matrix_reference(proj, seed_kind, j)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.abs(got.data - ref.data).max(initial=0.0) <= 1e-12 * np.abs(ref.data).max(initial=0.0)
    r = np.zeros(space.n_fine)
    if kind == "face":
        rows = np.arange(seed[1] * part.faces_per_coarse, (seed[1] + 1) * part.faces_per_coarse)
        x = rng.standard_normal(rows.size)
        r[rows] = x
        r = asm.energy @ r
        block = face_r[:, rows].toarray()
    else:
        rows = part.boundary_face_ids[seed[1]]
        x = rng.standard_normal(rows.size)
        np.add.at(r, rows, x)
        block = element_r[:, seed[1] * rows.size : (seed[1] + 1) * rows.size].toarray()
    problem = proj.patch_problem(seed, j)
    expected = solve_patch(proj, problem, proj.basis.T @ r)
    assert np.abs(proj.basis @ (block @ x) - expected).max() <= 1e-12 * np.abs(expected).max()
    col_face = column_faces(proj.basis, part.faces_per_coarse)
    assert not block[~np.isin(col_face, problem.active_faces)].any()

    lam = rng.standard_normal(space.n_fine)
    functionals = rng.standard_normal(part.boundary_face_ids.shape)
    for loc, glob in (
        (proj.apply_PjT(lam, jstar), proj.project_functional(asm.energy @ lam)),
        (proj.apply_Pj(functionals, jstar), proj.project_functional(space.sum_element_rows(functionals))),
    ):
        assert np.abs(loc - glob).max() <= 1e-10 * np.abs(glob).max()


@settings(max_examples=20, deadline=None)
@given(
    mesh=meshes(),
    face_level=st.integers(1, 2),
    variant=st.sampled_from(["plain", "delta"]),
    chunk_bytes=st.sampled_from([localize.PATCH_CHUNK_BYTES, 1]),
)
def test_patch_grams_gathered_from_sparse_gram(mesh, face_level, variant, chunk_bytes):
    # Every seed's Gram and right-hand-side block, gathered chunk by chunk,
    # equals the dense principal submatrices bitwise, and the right-hand
    # sides sit at the seed's place in the data array: seed-major and
    # column-major within a seed.
    asm = assembly_on(mesh, face_level)
    proj = asm.projector(variant, 4.0)
    m = proj.basis.shape[1]
    dense_rhs = {"face": (proj.basis.T @ proj.energy).toarray(),
                 "element": proj.basis.T.toarray()[:, asm.part.boundary_face_ids.ravel()]}
    with mock.patch.object(localize, "PATCH_CHUNK_BYTES", chunk_bytes):
        for j in (1, 2, 3):
            for kind, rhs in dense_rhs.items():
                seeds = np.arange(mesh.n_faces if kind == "face" else mesh.n_elements)
                width = rhs.shape[1] // seeds.size
                columns = proj._seed_columns(kind, seeds, j)
                data = np.zeros(width * columns.nnz)
                yielded = []
                for k, gram, block in proj._patch_blocks(kind, seeds, columns, data):
                    dofs = columns.indices[columns.indptr[k] : columns.indptr[k + 1]]
                    if gram is None:   # saturated: the global problem serves
                        assert dofs.size == m
                    else:
                        assert gram.tobytes() == proj.gram[np.ix_(dofs, dofs)].tobytes()
                    ref = rhs[dofs, k * width : (k + 1) * width]
                    assert block.tobytes() == ref.tobytes()
                    assert np.shares_memory(block, data) and block.flags.f_contiguous
                    yielded.append(k)
                assert yielded == np.flatnonzero(np.diff(columns.indptr)).tolist()
                expected = [rhs[columns.indices[columns.indptr[k] : columns.indptr[k + 1]],
                                k * width : (k + 1) * width].T.ravel() for k in seeds]
                assert data.tobytes() == np.concatenate(expected).tobytes()


@pytest.mark.parametrize("chunk_bytes", [localize.PATCH_CHUNK_BYTES, 1])
def test_responses_equal_per_seed_patch_problems(asm_mixed, chunk_bytes, monkeypatch):
    # Both response matrices equal the per-seed patch_problem solves with an
    # identical sparsity pattern, at j=1..3 and at the saturation radius,
    # where every patch is the global problem.
    monkeypatch.setattr(localize, "PATCH_CHUNK_BYTES", chunk_bytes)
    space, mesh = asm_mixed.space, asm_mixed.mesh
    basis = asm_mixed.projector("delta", 4.0).basis
    proj = PatchProjector(space, asm_mixed.energy, basis)
    dense_rhs = {"face": (basis.T @ asm_mixed.energy).toarray(),
                 "element": basis.T.toarray()[:, space.part.boundary_face_ids.ravel()]}
    jstar = saturation_radius(mesh)
    for j in (1, 2, 3, jstar):
        for got, (kind, rhs) in zip(proj.responses(j), dense_rhs.items()):
            n_seeds = mesh.n_faces if kind == "face" else mesh.n_elements
            width = rhs.shape[1] // n_seeds
            indices, dims, data = [], [], []
            for s in range(n_seeds):
                problem = proj.patch_problem((kind, s), j)
                if j == jstar:
                    assert problem.dim == basis.shape[1]
                indices.append(np.tile(problem.dof_indices, width))
                dims.append(problem.dim)
                if problem.dim:
                    block = rhs[problem.dof_indices, s * width : (s + 1) * width]
                    data.append(patch_solve(problem, block).T.ravel())
            assert np.array_equal(got.indptr, np.concatenate(([0], np.cumsum(np.repeat(dims, width)))))
            assert np.array_equal(got.indices, np.concatenate(indices))
            ref = np.concatenate(data)
            assert np.abs(got.data - ref).max() <= 1e-13 * np.abs(ref).max()


def test_cold_localized_solve_leaves_dense_gram_unbuilt():
    # With no saturated patch, a cold j=2 solve factors every patch from the
    # sparse Gram and never builds the dense M x M view.
    asm, j = make_assembly(6, 6, 1, "smooth"), 2
    assert min(saturation_depth(asm.mesh, ("element", e)) for e in range(asm.mesh.n_elements)) > j + 1
    solve_lsd(asm, sample_load(asm.part, lambda p: np.sin(np.pi * p[:, 0]) * p[:, 1]), j, "delta", 4.0)
    projector = asm.projector("delta", 4.0)
    assert projector.responses(j)
    assert "gram" not in vars(projector)


def test_response_chunks_of_one_seed_match(asm_mixed, monkeypatch):
    # Splitting every group of equal patch dimension into chunks of one seed
    # leaves both response matrices unchanged.
    basis = asm_mixed.projector("delta", 4.0).basis
    default = PatchProjector(asm_mixed.space, asm_mixed.energy, basis)
    expected = {j: default.responses(j) for j in (1, 2, 3)}
    monkeypatch.setattr(localize, "PATCH_CHUNK_BYTES", 1)
    single = PatchProjector(asm_mixed.space, asm_mixed.energy, basis)
    for j, refs in expected.items():
        for got, ref in zip(single.responses(j), refs):
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.abs(got.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


@pytest.mark.parametrize("kind", ["face", "element"])
def test_non_spd_patch_names_seed_and_j(asm_mixed, kind):
    # A patch Gram that is not positive definite stops the pass with an
    # error naming the seed and the layer count.
    good = asm_mixed.projector("plain", 4.0)
    seed, j = (kind, 5), 2
    dof = good.patch_problem(seed, j).dof_indices[0]
    proj = PatchProjector(asm_mixed.space, asm_mixed.energy, good.basis)
    proj.sparse_gram[dof, dof] = -proj.sparse_gram[dof, dof]
    with pytest.raises(AssertionError, match=re.escape(f"seed {seed}, j={j} is not SPD")):
        proj.patch_problem(seed, j)
    with pytest.raises(AssertionError, match=r"seed \('(face|element)', \d+\), j=2 is not SPD"):
        proj.responses(j)


@pytest.mark.parametrize("variant", ["plain", "delta"])
def test_spd_factor_accepts_basis_grams(asm_mixed, variant):
    # The sparse basis Gram of either basis, and an empty matrix, factor and
    # solve to rounding.
    rng = np.random.default_rng(31)
    for gram in (asm_mixed.projector(variant, 4.0).sparse_gram, sp.csr_matrix((0, 0))):
        b = rng.standard_normal(gram.shape[0])
        x = localize.spd_factor(gram, "basis Gram").solve(b)
        assert np.abs(gram @ x - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 2.0], [2.0, 1.0]],                          # indefinite, nonsingular
        [[1.0, 1.0], [1.0, 1.0]],                          # positive semidefinite, singular
        # A zero diagonal entry: the factor takes an off-diagonal pivot and
        # every pivot is positive, so only the permutation check rejects it.
        [[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],
    ],
    ids=["indefinite", "singular", "zero-diagonal"],
)
def test_spd_factor_rejects(matrix):
    with pytest.raises(AssertionError, match="^test matrix is not SPD"):
        localize.spd_factor(sp.csr_matrix(np.array(matrix)), "test matrix")


@pytest.mark.parametrize("variant", ["plain", "delta"])
def test_invariance_on_fine_block(asm_mixed, variant):
    # The face-seeded localized projection reproduces members of its own
    # subspace exactly, for every j >= 1.
    rng = np.random.default_rng(17)
    proj = asm_mixed.projector(variant, 4.0)
    if variant == "plain":
        lam = random_tilde_f(asm_mixed.space, rng)
    else:
        coeffs = rng.standard_normal(proj.basis.shape[1])
        lam = proj.basis @ coeffs
    for j in (1, 2, 3):
        out = proj.apply_PjT(lam, j)
        err = np.abs(out - lam).max()
        assert err <= 1e-10 * np.abs(lam).max()
    # Many columns at once equal the columns one at a time; a zero column
    # gives exact zeros.
    columns = np.column_stack(
        [rng.standard_normal(asm_mixed.space.n_fine), np.zeros(asm_mixed.space.n_fine), lam]
    )
    for j in (1, 2):
        out = proj.apply_PjT_columns(columns, j)
        assert np.all(out[:, 1] == 0.0)
        for k in (0, 2):
            one = proj.apply_PjT(columns[:, k], j)
            assert np.abs(out[:, k] - one).max() <= 1e-12 * np.abs(one).max()


def test_localization_error_nonincreasing_in_j(asm_mixed):
    proj = asm_mixed.projector("plain", 4.0)
    rng = np.random.default_rng(19)
    lam = rng.standard_normal(asm_mixed.space.n_fine)
    glob = proj.project_functional(asm_mixed.energy @ lam)
    errs = []
    for j in (1, 2, 3, 4, 5):
        loc = proj.apply_PjT(lam, j)
        d = glob - loc
        errs.append(d @ (asm_mixed.energy @ d))
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-10)


def test_element_seeded_application(asm_mixed):
    # A function supported on one element, localized with enough layers
    # to saturate that element's patch, matches the global projection.
    proj = asm_mixed.projector("plain", 4.0)
    nodes = asm_mixed.part.nodes
    v = np.zeros(nodes.shape[:2])
    v[6] = nodes[6, :, 0] * nodes[6, :, 1]
    functionals = element_functionals(asm_mixed.space, v)
    jstar = saturation_depth(asm_mixed.mesh, ("element", 6)) + 1
    loc = proj.apply_Pj(functionals, jstar)
    glob = proj.project_functional(asm_mixed.space.sum_element_rows(functionals))
    scale = max(np.abs(glob).max(), 1e-30)
    assert np.allclose(loc, glob, atol=1e-10 * scale)


def test_ring_energies_basics(asm_smooth_4):
    space = asm_smooth_4.space
    zero = ring_energies(asm_smooth_4.mesh, asm_smooth_4.caches, np.zeros(space.n_fine), ("element", 0))
    assert zero.total == 0.0
    assert np.abs(zero.energies).max() == 0.0

    rng = np.random.default_rng(23)
    mu = rng.standard_normal(space.n_fine)
    prof = ring_energies(asm_smooth_4.mesh, asm_smooth_4.caches, mu, ("element", 5))
    assert prof.energies.sum() == pytest.approx(prof.total, rel=1e-10)
    # cumulative fraction reaches 1
    assert prof.cumulative_fraction()[-1] == pytest.approx(1.0, rel=1e-10)


def test_ring_decay_smooth_coefficient(asm_smooth_4):
    proj = asm_smooth_4.projector("plain", 4.0)
    center = 2 * (1 * 4 + 1)  # an interior-ish element on the 4x4 grid
    v = np.zeros(asm_smooth_4.part.nodes.shape[:2])
    v[center] = asm_smooth_4.part.nodes[center, :, 0]
    r = boundary_functional(asm_smooth_4.space, v)
    mu = proj.project_functional(r)
    prof = ring_energies(asm_smooth_4.mesh, asm_smooth_4.caches, mu, ("element", center))
    assert 0 < prof.ratio < 1.0
    assert prof.worst_step < 1.0
    tail = prof.energies[2:]
    assert np.all(np.diff(tail) <= 1e-12 * prof.total)


def test_element_seeded_error_monotone_smooth(asm_smooth_4):
    # Localization error of the summed element-seeded projections shrinks
    # with the layer count on a smooth-coefficient test.
    proj = asm_smooth_4.projector("plain", 4.0)
    space = asm_smooth_4.space
    nodes = asm_smooth_4.part.nodes
    functionals = element_functionals(space, np.sin(2 * np.pi * nodes[..., 0]) * nodes[..., 1])
    glob = proj.project_functional(space.sum_element_rows(functionals))
    errs = []
    for j in (1, 2, 3, 4):
        loc = proj.apply_Pj(functionals, j)
        d = glob - loc
        errs.append(d @ (asm_smooth_4.energy @ d))
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-9)
    assert errs[-1] < errs[0]
