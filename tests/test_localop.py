import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_field, face_elements, face_rows, face_split, make_assembly
from lsdfem.coeff import CoefficientField, Raster, make_weight
from lsdfem.localop import (
    LocalAssemblyError,
    apply_T,
    assemble_all,
    local_solve,
    scatter_blocks,
)
from lsdfem.coeff import _sym_eig_bounds, local_bounds
from lsdfem.localize import build_flux_energy
from lsdfem.mesh import _lattice, build_structured_mesh, refine_faces
from lsdfem.pipeline import Assembly, sample_load, solve_lsd
from lsdfem.spectral import all_element_spectra, all_face_spectra
from lsdfem.traces import build_trace_space
from test_mesh import meshes


def apply_Ttilde(cache, g):
    """Local load-to-potential solves ``T~ g`` for P1 nodal loads ``g`` ``(..., nn)``: one solve of ``M g``."""
    return local_solve(cache, (cache.mass @ np.asarray(g, dtype=float)[..., None])[..., 0])


def identity_flux_energy(cache):
    """Flux-energy matrix of an element's A=I twin (harmonic extension energy)."""
    geom = cache.geom
    identity = np.broadcast_to(np.eye(2), (len(geom.cells), 2, 2))
    return reference_flux_energy(geom, reference_stiffness(geom, identity), cache.mass)


def test_stiffness_kernel_is_constants(asm_const):
    for cache in asm_const.caches:
        assert np.abs(cache.stiffness.sum(axis=1)).max() == 0.0
        assert np.abs(cache.stiffness - cache.stiffness.T).max() < 1e-14


def test_flux_energy_symmetry(asm_mixed):
    for cache in asm_mixed.caches:
        b = cache.flux_energy
        assert np.abs(b - b.T).max() <= 1e-12 * np.abs(b).max()


def test_flux_energy_against_energy_form_oracle(asm_mixed):
    # Entry oracle: (mu_a, T mu_b) equals the A-weighted energy product of
    # the two local potentials, each obtained by a fresh dense solve.
    cache = asm_mixed.caches[5]
    geom = cache.geom
    nn = geom.n_nodes
    saddle = np.zeros((nn + 1, nn + 1))
    saddle[:nn, :nn] = cache.stiffness
    saddle[:nn, nn] = cache.mean_vector
    saddle[nn, :nn] = cache.mean_vector
    n_bf = geom.boundary_face_ids.size
    sols = []
    for k in range(n_bf):
        rhs = np.zeros(nn + 1)
        rhs[:nn] = geom.trace_matrix[k]
        sols.append(np.linalg.solve(saddle, rhs)[:nn])
    for a in range(0, n_bf, 3):
        for b in range(0, n_bf, 2):
            oracle = sols[a] @ (cache.stiffness @ sols[b])
            assert cache.flux_energy[a, b] == pytest.approx(
                oracle, rel=1e-11, abs=1e-13 * np.abs(cache.flux_energy).max()
            )


def test_apply_T_zero_and_zero_average(asm_mixed):
    cache = asm_mixed.caches[0]
    out = apply_T(cache, np.zeros(cache.geom.boundary_face_ids.size))
    assert np.abs(out).max() == 0.0
    rng = np.random.default_rng(1)
    side = rng.standard_normal(cache.geom.boundary_face_ids.size)
    sol = apply_T(cache, side)
    avg = cache.mean_vector @ sol
    assert abs(avg) < 1e-12 * max(np.abs(sol).max(), 1.0)


def test_apply_T_scaling_in_coefficient():
    part = refine_faces(build_structured_mesh(1, 1), 1)
    ident, scaled = constant_field(part), constant_field(part, 7.0)
    w1 = make_weight("one", ident)
    c1 = assemble_all(ident, w1, part)[0]
    c7 = assemble_all(scaled, make_weight("one", scaled), part)[0]
    rng = np.random.default_rng(4)
    side = rng.standard_normal(c1.geom.boundary_face_ids.size)
    u1 = apply_T(c1, side)
    u7 = apply_T(c7, side)
    assert np.allclose(u7, u1 / 7.0, rtol=1e-12, atol=1e-14)


def test_apply_T_energy_identity(asm_mixed):
    # (mu, T mu) over the boundary equals the interior energy of T mu.
    for t, cache in enumerate(list(asm_mixed.caches)[:4]):
        rng = np.random.default_rng(t)
        side = rng.standard_normal(cache.geom.boundary_face_ids.size)
        sol = apply_T(cache, side)
        boundary = side @ (cache.geom.trace_matrix @ sol)
        interior = sol @ (cache.stiffness @ sol)
        assert boundary == pytest.approx(interior, rel=1e-11)


def test_apply_Ttilde_constant_is_zero(asm_mixed):
    cache = asm_mixed.caches[2]
    out = apply_Ttilde(cache, np.full(cache.geom.n_nodes, 3.25))
    scale = np.abs(cache.mass).max()
    assert np.abs(out).max() < 1e-12 / scale


def test_apply_Ttilde_eigenfunction_identity(asm_mixed):
    from lsdfem.spectral import gensym_eig

    cache = asm_mixed.caches[7]
    spec = all_element_spectra(asm_mixed.caches, h_target=1.0)[7]
    vectors = gensym_eig(cache.stiffness, cache.mass)[1]   # every mode, not just the kept ones
    for i in (1, 2, 5):
        v = vectors[:, i]
        out = apply_Ttilde(cache, v)
        assert np.allclose(out, v / spec.sigma[i], rtol=1e-9, atol=1e-11)


def test_adjoint_identity(asm_mixed):
    # (mu, Ttilde g) over the boundary = (rho g, T mu) over the element.
    for t, cache in enumerate(list(asm_mixed.caches)[:6]):
        rng = np.random.default_rng(100 + t)
        side = rng.standard_normal(cache.geom.boundary_face_ids.size)
        g = rng.standard_normal(cache.geom.n_nodes)
        left = side @ (cache.geom.trace_matrix @ apply_Ttilde(cache, g))
        right = g @ (cache.mass @ apply_T(cache, side))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-14)


def test_face_blocks_trivial_when_single_subface():
    asm = make_assembly(1, 1, 0)
    for blk in face_split(asm, 0, int(asm.mesh.element_faces[0, 0])):
        assert blk.shape[0] == 0


def test_face_blocks_schur_below_full(asm_mixed):
    rng = np.random.default_rng(8)
    for f in asm_mixed.mesh.element_faces[3]:
        t_ff, _, _, t_hat = face_split(asm_mixed, 3, int(f))
        m = t_ff.shape[0]
        for _ in range(5):
            mu = rng.standard_normal(m)
            assert mu @ (t_hat @ mu) <= mu @ (t_ff @ mu) + 1e-12


def test_face_blocks_schur_matches_min_oracle(asm_mixed):
    # Dense KKT oracle: minimize the full quadratic form over the
    # complementary-boundary values at fixed face values.
    f = int(asm_mixed.mesh.element_faces[9, 1])
    t_ff, t_ffc, t_fcfc, t_hat = face_split(asm_mixed, 9, f)
    rng = np.random.default_rng(17)
    mu = rng.standard_normal(t_ff.shape[0])
    nu = -np.linalg.solve(t_fcfc, t_ffc.T @ mu)
    full = (
        mu @ (t_ff @ mu)
        + 2 * mu @ (t_ffc @ nu)
        + nu @ (t_fcfc @ nu)
    )
    assert mu @ (t_hat @ mu) == pytest.approx(full, rel=1e-11)
    # Any other candidate gives at least the Schur energy.
    for _ in range(5):
        cand = nu + rng.standard_normal(len(nu))
        energy = (
            mu @ (t_ff @ mu)
            + 2 * mu @ (t_ffc @ cand)
            + cand @ (t_fcfc @ cand)
        )
        assert energy >= mu @ (t_hat @ mu) - 1e-12


def test_energy_sandwich_with_identity_twin(asm_mixed):
    # 1/a_max^tau * identity energy <= energy <= 1/a_min^tau * identity energy.
    for t, cache in enumerate(list(asm_mixed.caches)[:8]):
        b = cache.flux_energy
        b_id = identity_flux_energy(cache)
        rng = np.random.default_rng(t + 50)
        for _ in range(5):
            mu = rng.standard_normal(b.shape[0])
            e = mu @ (b @ mu)
            e_id = mu @ (b_id @ mu)
            slack = 1e-11 * max(e, e_id)
            assert e >= e_id / asm_mixed.stats.a_max_local[t] - slack
            assert e <= e_id / asm_mixed.stats.a_min_local[t] + slack


def test_flux_energy_positive_on_zero_average(asm_mixed):
    space = asm_mixed.space
    z = space.zero_mean
    for cache in list(asm_mixed.caches)[:4]:
        blk = scipy.linalg.block_diag(*([z] * 3))
        gram = blk.T @ (cache.flux_energy @ blk)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() > 0.0


def test_static_condensation_consistency(asm_mixed):
    # Pairings through the cached flux-energy matrix equal pairings through
    # an explicit local solve.
    cache = asm_mixed.caches[11]
    rng = np.random.default_rng(23)
    mu = rng.standard_normal(cache.geom.boundary_face_ids.size)
    nu = rng.standard_normal(cache.geom.boundary_face_ids.size)
    via_cache = mu @ (cache.flux_energy @ nu)
    via_solve = mu @ (cache.geom.trace_matrix @ apply_T(cache, nu))
    assert via_cache == pytest.approx(via_solve, rel=1e-11)


def test_scatter_blocks_matches_dense_reference():
    # Integer-valued entries sum exactly in any order, so zeros from the
    # blocks and from cancelling sums are exact.
    rng = np.random.default_rng(5)
    blocks = rng.integers(-3, 4, (40, 4, 3)).astype(float)
    rows = rng.integers(0, 6, (40, 4))   # indices repeat within and across blocks
    cols = rng.integers(0, 5, (40, 3))
    ref = np.zeros((7, 5))
    np.add.at(ref, (rows[:, :, None], cols[:, None, :]), blocks)
    mat = scatter_blocks(blocks, rows, cols, (7, 5))
    assert mat.format == "csr" and mat.shape == (7, 5)
    assert np.array_equal(mat.toarray(), ref)
    assert mat.nnz == np.count_nonzero(ref) < ref.size
    assert np.all(mat.data != 0.0)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_zero_tensor_names_its_element():
    # A field built directly (no _finalize check) with a zero tensor on one
    # element: its constrained system is singular, and the error names it.
    part = refine_faces(build_structured_mesh(2, 2), 1)
    ident = constant_field(part)
    tensors = [t.copy() for t in ident.tensors]
    tensors[5][:] = 0.0
    broken = CoefficientField(part, tensors, ident.eig_min, ident.eig_max)
    with pytest.raises(LocalAssemblyError, match=r"element 5: "):
        assemble_all(broken, make_weight("one", ident), part)


# -- batched kernels against the per-element reference --------------------------
#
# The references below are the per-element and per-face loops the stacked
# kernels replaced: one cell at a time into the element matrices, one
# element at a time through the saddle LU refined once, one face at a time
# through the Schur complement and the generalized eigensolver.


def reference_trace(part, t):
    """Per-segment trace integration of element ``t``'s boundary, negated where ``t`` is the face's right element."""
    mesh = part.mesh
    nfs = part.faces_per_coarse
    n = 2 ** part.interior_level
    bary, _, edges = _lattice(part.interior_level)
    trace = np.zeros((3 * nfs, len(bary)))
    verts = mesh.elements[t]
    for e in range(3):
        fid = int(mesh.element_faces[t, e])
        aligned = (verts[e], verts[(e + 1) % 3]) == tuple(mesh.faces[fid])
        nodes = edges[e]
        seg = (1.0 if mesh.face_left[fid] == t else -1.0) * mesh.face_measures[fid] / n
        for m in range(n):
            s_mid = (m + 0.5) / n
            k_sub = min(int((s_mid if aligned else 1.0 - s_mid) * nfs), nfs - 1)
            trace[e * nfs + k_sub, nodes[m]] += 0.5 * seg
            trace[e * nfs + k_sub, nodes[m + 1]] += 0.5 * seg
    return trace


def reference_stiffness(geom, tensors):
    nn = geom.n_nodes
    k = np.zeros((nn, nn))
    flux = np.einsum("cij,ckj->cki", tensors, geom.grads)
    local = np.einsum("cki,cli->ckl", flux, geom.grads) * geom.cell_areas[:, None, None]
    for c, cell in enumerate(geom.cells):
        k[np.ix_(cell, cell)] += local[c]
    k[np.diag_indices(nn)] -= k.sum(axis=1)
    return k


def reference_mass(geom, rho):
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m = np.zeros((geom.n_nodes, geom.n_nodes))
    for c, cell in enumerate(geom.cells):
        m[np.ix_(cell, cell)] += (rho[c] * geom.cell_areas[c]) * ref
    return m


def reference_saddle(stiffness, mass):
    nn = stiffness.shape[0]
    mean = mass @ np.ones(nn)
    saddle = np.zeros((nn + 1, nn + 1))
    saddle[:nn, :nn] = stiffness
    saddle[:nn, nn] = mean
    saddle[nn, :nn] = mean
    return saddle


def reference_constrained_solve(saddle, rhs):
    """Zero-average-constrained solve of nodal right-hand sides by LU, refined once."""
    nn = saddle.shape[0] - 1
    lu = scipy.linalg.lu_factor(saddle)
    full = np.zeros((nn + 1,) + rhs.shape[1:])
    full[:nn] = rhs
    sol = scipy.linalg.lu_solve(lu, full)
    sol += scipy.linalg.lu_solve(lu, full - saddle @ sol)
    return sol[:nn]


def reference_flux_energy(geom, stiffness, mass):
    sols = reference_constrained_solve(reference_saddle(stiffness, mass), geom.trace_matrix.T)
    b = geom.trace_matrix @ sols
    return 0.5 * (b + b.T)


def reference_face_alphas(space, flux_energies, face):
    """Face pencil from per-element blocks, one face at a time."""
    z = space.zero_mean
    m = z.shape[1]
    t_sum = np.zeros((m, m))
    that_sum = np.zeros((m, m))
    for e in face_elements(space.mesh, face):
        rows = face_rows(space.part, e)
        rows_f = rows[face]
        rows_c = np.concatenate([r for f, r in rows.items() if f != face])
        zc = scipy.linalg.block_diag(z, z)
        b = flux_energies[e]
        t_ff = z.T @ b[np.ix_(rows_f, rows_f)] @ z
        t_ffc = z.T @ b[np.ix_(rows_f, rows_c)] @ zc
        t_fcfc = zc.T @ b[np.ix_(rows_c, rows_c)] @ zc
        t_hat = t_ff - t_ffc @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(t_fcfc), t_ffc.T)
        t_sum += 0.5 * (t_ff + t_ff.T)
        that_sum += 0.5 * (t_hat + t_hat.T)
    return scipy.linalg.eigh(t_sum, that_sum, eigvals_only=True)


@st.composite
def raster_fields(draw):
    """Random cellwise raster coefficient, contrast up to 1e6, and a weight choice."""
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_contrast = draw(st.floats(0.0, 6.0))
    values = 10.0 ** rng.uniform(0.0, log_contrast, (ny, nx))
    rho = draw(st.sampled_from(["one", "amin", "a_minus", "a_plus", "amax"]))
    return Raster(nx, ny, values), rho


@settings(max_examples=25, deadline=None)
@given(mesh=meshes(), face_level=st.integers(0, 2), field=raster_fields())
def test_batched_kernels_match_reference(mesh, face_level, field):
    raster, rho_choice = field
    part = refine_faces(mesh, face_level)
    coeff = CoefficientField.sample(part, raster)
    weight = make_weight(rho_choice, coeff)
    caches = assemble_all(coeff, weight, part)
    space = build_trace_space(part)
    # Random flux data and loads for every element, solved as one stack.
    rng = np.random.default_rng(len(caches))
    sides = rng.standard_normal(part.boundary_face_ids.shape)
    loads = rng.standard_normal(part.nodes.shape[:2])
    potentials, load_potentials = apply_T(caches, sides), apply_Ttilde(caches, loads)
    stats = local_bounds(coeff)
    for t, cache in enumerate(caches):
        geom = cache.geom
        assert np.array_equal(geom.trace_matrix, reference_trace(part, t))
        k = reference_stiffness(geom, coeff.tensors[t])
        m = reference_mass(geom, weight[t])
        b = reference_flux_energy(geom, k, m)
        assert np.abs(cache.stiffness - k).max() <= 1e-12 * np.abs(k).max()
        assert np.abs(cache.mass - m).max() <= 1e-12 * np.abs(m).max()
        # Two backward-stable solves of one saddle agree to about eps * cond
        # relative, which exceeds 1e-11 on elongated elements at high
        # contrast (up to 1.5e-10 seen at contrast 2e5).
        tol = max(1e-11, np.finfo(float).eps * np.linalg.cond(reference_saddle(cache.stiffness, cache.mass)))
        assert np.abs(cache.flux_energy - b).max() <= tol * np.abs(b).max()
        # The stacked solves and the same kernel on one element's view match
        # the per-element LU reference.
        saddle = reference_saddle(k, m)
        ref_t = reference_constrained_solve(saddle, geom.trace_matrix.T @ sides[t])
        ref_tt = reference_constrained_solve(saddle, m @ loads[t])
        for got, ref in (
            (potentials[t], ref_t),
            (apply_T(cache, sides[t]), ref_t),
            (load_potentials[t], ref_tt),
            (apply_Ttilde(cache, loads[t]), ref_tt),
        ):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()
        assert stats.a_min_local[t] == _sym_eig_bounds(coeff.tensors[t])[0].min()
        assert stats.a_max_local[t] == _sym_eig_bounds(coeff.tensors[t])[1].max()

    # One staged solve on the same mesh keeps every element in equilibrium.
    asm = Assembly(mesh, part, caches, space, build_flux_energy(space, caches), stats)
    g = sample_load(part, lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2)
    assert solve_lsd(asm, g, 1).diagnostics["equilibrium_rel_max"] <= 1e-10

    spectra = all_face_spectra(space, caches, alpha_stab=2.0)
    for f, s in enumerate(spectra):
        assert s.alphas.shape == (space.zero_mean.shape[1],)
        if s.alphas.shape[-1] == 0:
            continue
        # Eigenvalue floor: the full energy dominates the soft-extension energy.
        assert s.alphas.min() >= 1.0 - 1e-10
        ref = reference_face_alphas(space, [c.flux_energy for c in caches], f)
        assert np.allclose(s.alphas, ref, rtol=1e-10, atol=0.0)
        assert s.n_delta == int(np.sum(ref < 2.0))

    for cache, spec in zip(caches, all_element_spectra(caches, h_target=mesh.coarse_size)):
        v = spec.vectors[:, : spec.j_count]
        assert np.abs(v.T @ cache.mass @ v - np.eye(v.shape[1])).max() < 1e-9
        assert spec.sigma[0] <= 1e-10 * spec.sigma[-1]


@pytest.mark.parametrize("coefficient, params", [
    ("checkerboard", {"contrast": 1e3, "cells": 4}),   # the asm_mixed fixture
    ("anisotropic", {"ratio": 4.0}),
])
def test_scatter_cells_matches_sparse_product(coefficient, params, monkeypatch):
    # The layered gather of the cell matrices into element stiffness and mass
    # equals, bitwise, the product of the 0/1 slot-by-cell-entry map with the
    # stacked cell entries, which sums each slot in ascending cell-entry order.
    # The lattice's cell entries are mostly dyadic and sum exactly in any
    # order, so random cell entries on the same cells check the order too.
    from lsdfem import localop

    kernel, calls = localop._scatter_cells, []

    def recorded(local, cells):
        out = kernel(local, cells)
        calls.append((local.copy(), cells, out.copy()))
        return out

    monkeypatch.setattr(localop, "_scatter_cells", recorded)
    make_assembly(4, 4, 2, coefficient, params)
    assert len(calls) == 2   # stiffness and mass
    local, cells = calls[0][:2]
    noise = np.random.default_rng(3).standard_normal(local.shape)
    calls.append((noise, cells, kernel(noise, cells)))
    for local, cells, out in calls:
        ne, nn = local.shape[0], int(cells.max()) + 1
        dest = (cells[:, :, None] * nn + cells[:, None, :]).ravel()
        scatter = sp.csr_matrix((np.ones(dest.size), (dest, np.arange(dest.size))), (nn * nn, dest.size))
        ref = (scatter @ local.reshape(ne, -1).T).T.reshape(ne, nn, nn)
        assert out.shape == ref.shape and out.tobytes() == np.ascontiguousarray(ref).tobytes()
