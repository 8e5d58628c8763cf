import numpy as np
import pytest
import scipy.linalg

from conftest import make_assembly
from lsdfem.coeff import CoefficientField, make_weight
from lsdfem.localop import (
    apply_T,
    apply_Ttilde,
    assemble_element,
    face_blocks,
)
from lsdfem.mesh import build_structured_mesh, refine_faces


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
    n_bf = geom.n_boundary_faces
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
    out = apply_T(cache, np.zeros(cache.geom.n_boundary_faces))
    assert np.abs(out).max() == 0.0
    rng = np.random.default_rng(1)
    side = rng.standard_normal(cache.geom.n_boundary_faces)
    sol = apply_T(cache, side)
    avg = cache.mean_vector @ sol
    assert abs(avg) < 1e-12 * max(np.abs(sol).max(), 1.0)


def test_apply_T_scaling_in_coefficient():
    part = refine_faces(build_structured_mesh(1, 1), 1)
    ident = CoefficientField.identity(part)
    scaled = ident.scaled(7.0)
    w1 = make_weight("one", ident)
    c1 = assemble_element(0, ident, w1, part)
    c7 = assemble_element(0, scaled, make_weight("one", scaled), part)
    rng = np.random.default_rng(4)
    side = rng.standard_normal(c1.geom.n_boundary_faces)
    u1 = apply_T(c1, side)
    u7 = apply_T(c7, side)
    assert np.allclose(u7, u1 / 7.0, rtol=1e-12, atol=1e-14)


def test_apply_T_energy_identity(asm_mixed):
    # (mu, T mu) over the boundary equals the interior energy of T mu.
    for cache in asm_mixed.caches[:4]:
        rng = np.random.default_rng(cache.elem)
        side = rng.standard_normal(cache.geom.n_boundary_faces)
        sol = apply_T(cache, side)
        boundary = cache.boundary_pairing(side, sol)
        interior = cache.energy(sol)
        assert boundary == pytest.approx(interior, rel=1e-11)


def test_apply_Ttilde_constant_is_zero(asm_mixed):
    cache = asm_mixed.caches[2]
    out = apply_Ttilde(cache, np.full(cache.geom.n_nodes, 3.25))
    scale = np.abs(cache.mass).max()
    assert np.abs(out).max() < 1e-12 / scale


def test_apply_Ttilde_eigenfunction_identity(asm_mixed):
    from lsdfem.spectral import element_spectrum

    cache = asm_mixed.caches[7]
    spec = element_spectrum(cache, h_target=1.0)
    for i in (1, 2, 5):
        v = spec.vectors[:, i]
        out = apply_Ttilde(cache, v)
        assert np.allclose(out, v / spec.sigma[i], rtol=1e-9, atol=1e-11)


def test_adjoint_identity(asm_mixed):
    # (mu, Ttilde g) over the boundary = (rho g, T mu) over the element.
    for cache in asm_mixed.caches[:6]:
        rng = np.random.default_rng(100 + cache.elem)
        side = rng.standard_normal(cache.geom.n_boundary_faces)
        g = rng.standard_normal(cache.geom.n_nodes)
        left = cache.boundary_pairing(side, apply_Ttilde(cache, g))
        right = g @ (cache.mass @ apply_T(cache, side))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-14)


def test_face_blocks_trivial_when_single_subface():
    asm = make_assembly(1, 1, 0)
    space = asm.space
    cache = asm.caches[0]
    blocks = face_blocks(cache, space, int(asm.mesh.element_faces[0, 0]))
    assert blocks.empty


def test_face_blocks_schur_below_full(asm_mixed):
    space = asm_mixed.space
    cache = asm_mixed.caches[3]
    rng = np.random.default_rng(8)
    for f in asm_mixed.mesh.element_faces[3]:
        blocks = face_blocks(cache, space, int(f))
        m = blocks.t_ff.shape[0]
        for _ in range(5):
            mu = rng.standard_normal(m)
            assert mu @ (blocks.t_hat @ mu) <= mu @ (blocks.t_ff @ mu) + 1e-12


def test_face_blocks_schur_matches_min_oracle(asm_mixed):
    # Dense KKT oracle: minimize the full quadratic form over the
    # complementary-boundary values at fixed face values.
    space = asm_mixed.space
    cache = asm_mixed.caches[9]
    f = int(asm_mixed.mesh.element_faces[9, 1])
    blocks = face_blocks(cache, space, f)
    rng = np.random.default_rng(17)
    mu = rng.standard_normal(blocks.t_ff.shape[0])
    nu = -np.linalg.solve(blocks.t_fcfc, blocks.t_fcf @ mu)
    full = (
        mu @ (blocks.t_ff @ mu)
        + 2 * mu @ (blocks.t_ffc @ nu)
        + nu @ (blocks.t_fcfc @ nu)
    )
    assert mu @ (blocks.t_hat @ mu) == pytest.approx(full, rel=1e-11)
    # Any other candidate gives at least the Schur energy.
    for _ in range(5):
        cand = nu + rng.standard_normal(len(nu))
        energy = (
            mu @ (blocks.t_ff @ mu)
            + 2 * mu @ (blocks.t_ffc @ cand)
            + cand @ (blocks.t_fcfc @ cand)
        )
        assert energy >= mu @ (blocks.t_hat @ mu) - 1e-12


def test_energy_sandwich_with_identity_twin(asm_mixed):
    # 1/a_max^tau * identity energy <= energy <= 1/a_min^tau * identity energy.
    for cache in asm_mixed.caches[:8]:
        b = cache.flux_energy
        b_id = cache.identity_flux_energy()
        rng = np.random.default_rng(cache.elem + 50)
        for _ in range(5):
            mu = rng.standard_normal(b.shape[0])
            e = mu @ (b @ mu)
            e_id = mu @ (b_id @ mu)
            slack = 1e-11 * max(e, e_id)
            assert e >= e_id / cache.a_max - slack
            assert e <= e_id / cache.a_min + slack


def test_flux_energy_positive_on_zero_average(asm_mixed):
    space = asm_mixed.space
    z = space.zero_mean
    for cache in asm_mixed.caches[:4]:
        blk = scipy.linalg.block_diag(*([z] * 3))
        gram = blk.T @ (cache.flux_energy @ blk)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() > 0.0


def test_static_condensation_consistency(asm_mixed):
    # Pairings through the cached flux-energy matrix equal pairings through
    # an explicit local solve.
    cache = asm_mixed.caches[11]
    rng = np.random.default_rng(23)
    mu = rng.standard_normal(cache.geom.n_boundary_faces)
    nu = rng.standard_normal(cache.geom.n_boundary_faces)
    via_cache = mu @ (cache.flux_energy @ nu)
    via_solve = cache.boundary_pairing(mu, apply_T(cache, nu))
    assert via_cache == pytest.approx(via_solve, rel=1e-11)
