import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import make_assembly
from lsdfem.localop import face_blocks
from lsdfem.spectral import (
    NotSPDError,
    all_face_spectra,
    element_spectrum,
    face_spectrum,
    gensym_eig,
    project_rhs,
    spectrum_dump,
    ttilde_from_spectrum,
)


def random_spd(rng, n):
    q = rng.standard_normal((n, n))
    return q @ q.T + n * np.eye(n)


def test_gensym_eig_identity_pencil():
    rng = np.random.default_rng(0)
    b = random_spd(rng, 8)
    w, v = gensym_eig(b, b)
    assert np.allclose(w, 1.0, atol=1e-12)


def test_gensym_eig_diagonal():
    a = np.diag([4.0, 1.0, 9.0])
    b = np.diag([2.0, 1.0, 3.0])
    w, v = gensym_eig(a, b)
    assert np.allclose(w, sorted([2.0, 1.0, 3.0]), atol=1e-13)


def test_gensym_eig_residual_oracle():
    rng = np.random.default_rng(12)
    a = random_spd(rng, 20)
    a = 0.5 * (a + a.T)
    b = random_spd(rng, 20)
    w, v = gensym_eig(a, b)
    assert np.all(np.diff(w) >= -1e-12)
    for k in range(20):
        r = a @ v[:, k] - w[k] * (b @ v[:, k])
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(a)
    # b-orthonormality
    assert np.allclose(v.T @ b @ v, np.eye(20), atol=1e-10)


def test_gensym_eig_not_spd_reports_pivot():
    a = np.eye(3)
    b = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NotSPDError) as err:
        gensym_eig(a, b)
    assert err.value.pivot == 1


def test_gensym_eig_stack_matches_items_and_names_failing_item():
    rng = np.random.default_rng(5)
    a = np.stack([random_spd(rng, 6) for _ in range(4)])
    b = np.stack([random_spd(rng, 6) for _ in range(4)])
    w, v = gensym_eig(a, b)
    for i in range(4):
        wi, vi = gensym_eig(a[i], b[i])
        assert np.allclose(w[i], wi, rtol=1e-12)
        assert np.allclose(np.abs(vi.T @ b[i] @ v[i]), np.eye(6), atol=1e-10)
    b[2] = np.diag([1.0, 2.0, -1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NotSPDError) as err:
        gensym_eig(a, b)
    assert err.value.pivot == 2 and err.value.item == 2
    assert "item 2" in str(err.value)


def test_face_pencil_not_spd_names_face(asm_mixed):
    # Lower one element's flux energy along a zero-mean direction u that
    # has a component on each of its three faces, by an amount between
    # what makes the whole zero-mean energy indefinite and what would
    # make the energy on any two of its faces indefinite.  Every
    # complementary block stays SPD, but the Schur (soft-extension)
    # energy of each face is indefinite, so a boundary face's pencil fails.
    space, mesh = asm_mixed.space, asm_mixed.mesh
    face = int(np.flatnonzero(mesh.face_boundary)[0])
    elem = int(mesh.face_left[face])
    cache = asm_mixed.caches[elem]
    z = space.zero_mean
    zb = scipy.linalg.block_diag(z, z, z)
    bz = zb.T @ cache.flux_energy @ zb
    m = z.shape[1]
    u = np.random.default_rng(3).uniform(0.5, 1.0, 3 * m)
    q_full = u @ np.linalg.solve(bz, u)
    q_pairs = []
    for e in range(3):
        keep = np.concatenate([np.arange(x * m, (x + 1) * m) for x in range(3) if x != e])
        q_pairs.append(u[keep] @ np.linalg.solve(bz[np.ix_(keep, keep)], u[keep]))
    assert max(q_pairs) < q_full
    s = 0.5 * (1.0 / q_full + 1.0 / max(q_pairs))
    w = zb @ u
    caches = list(asm_mixed.caches)
    caches[elem] = dataclasses.replace(cache, flux_energy=cache.flux_energy - s * np.outer(w, w))
    with pytest.raises(NotSPDError, match=rf"soft-extension energy of face {face}\)"):
        face_spectrum(space, caches, face, alpha_stab=2.0)
    with pytest.raises(NotSPDError, match="soft-extension energy of face") as err:
        all_face_spectra(space, caches, alpha_stab=2.0)
    named = int(str(err.value).rsplit("face ", 1)[1].rstrip(")"))
    assert named in mesh.element_faces[elem]


def test_complementary_block_not_spd_names_element_and_face(asm_mixed):
    mesh = asm_mixed.mesh
    elem = 9
    face = int(mesh.element_faces[elem, 0])
    caches = list(asm_mixed.caches)
    caches[elem] = dataclasses.replace(caches[elem], flux_energy=-caches[elem].flux_energy)
    with pytest.raises(AssertionError, match=rf"element {elem}, face {face}: complementary block not SPD"):
        face_spectrum(asm_mixed.space, caches, face, alpha_stab=2.0)


@pytest.fixture(scope="module")
def asm_channel():
    params = {"center": 0.4375, "width": 0.028, "spacing": 0.06, "turn_x": 0.8,
              "contrast": 1e6}
    return make_assembly(8, 8, 2, "channel", params)


def test_face_spectrum_empty_when_single_subface():
    asm = make_assembly(2, 2, 0)
    spec = face_spectrum(asm.space, asm.caches, 0, alpha_stab=4.0)
    assert spec.empty
    assert spec.n_delta == 0 and spec.n_pi == 0


def test_face_spectrum_pi_empty_when_threshold_above_max(asm_smooth_4):
    spectra = all_face_spectra(asm_smooth_4.space, asm_smooth_4.caches, alpha_stab=1e12)
    assert all(s.n_pi == 0 for s in spectra)


def test_alpha_floor(asm_mixed, asm_smooth_4):
    for asm in (asm_mixed, asm_smooth_4):
        spectra = all_face_spectra(asm.space, asm.caches, alpha_stab=2.0)
        for s in spectra:
            if not s.empty:
                assert s.alphas.min() >= 1.0 - 1e-8


def test_face_spectrum_symmetry(asm_const):
    # Constant coefficient on a symmetric mesh: mirrored faces carry the
    # same spectrum.
    mesh = asm_const.mesh
    spectra = all_face_spectra(asm_const.space, asm_const.caches, alpha_stab=4.0)
    groups = {}
    for f in range(mesh.n_faces):
        a, b = mesh.vertices[mesh.faces[f]]
        length = round(float(np.linalg.norm(b - a)), 12)
        interior = not mesh.face_boundary[f]
        groups.setdefault((length, interior), []).append(f)
    for faces in groups.values():
        base = spectra[faces[0]].alphas
        for f in faces[1:]:
            assert np.allclose(spectra[f].alphas, base, rtol=1e-8, atol=1e-10)


def test_channel_face_has_large_eigenvalue(asm_channel):
    spectra = all_face_spectra(asm_channel.space, asm_channel.caches, alpha_stab=10.0)
    alpha_max = max(s.alphas.max() for s in spectra if not s.empty)
    assert alpha_max > 1e3
    # Dense oracle: the top eigenpair's Rayleigh quotient using blocks
    # recomputed through the constrained-minimum form.
    worst = max((s for s in spectra if not s.empty), key=lambda s: s.alphas.max())
    f = worst.face
    m = asm_channel.space.zero_mean.shape[1]
    t_sum = np.zeros((m, m))
    that_sum = np.zeros((m, m))
    for e in asm_channel.mesh.face_elements(f):
        blocks = face_blocks(asm_channel.caches[e], asm_channel.space, f)
        t_sum += blocks.t_ff
        # Explicit constrained minimization, not the cached Schur path:
        nu = -np.linalg.solve(blocks.t_fcfc, blocks.t_fcf)
        that_sum += blocks.t_ff + blocks.t_ffc @ nu
    mu = worst.vectors[:, -1]
    rayleigh = (mu @ (t_sum @ mu)) / (mu @ (that_sum @ mu))
    assert rayleigh == pytest.approx(worst.alphas[-1], rel=1e-8)


def test_face_eigvectors_orthonormal_in_schur_energy(asm_mixed):
    spectra = all_face_spectra(asm_mixed.space, asm_mixed.caches, alpha_stab=4.0)
    for s in spectra[:8]:
        if s.empty:
            continue
        that = np.zeros((s.vectors.shape[0],) * 2)
        for e in asm_mixed.mesh.face_elements(s.face):
            that += face_blocks(asm_mixed.caches[e], asm_mixed.space, s.face).t_hat
        gram = s.vectors.T @ that @ s.vectors
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10


def test_split_monotone_in_threshold(asm_mixed):
    f = next(
        f for f in range(asm_mixed.mesh.n_faces)
        if not face_spectrum(asm_mixed.space, asm_mixed.caches, f, 1.0).empty
    )
    sizes = []
    for alpha in (1.0, 2.0, 5.0, 50.0, 1e9):
        s = face_spectrum(asm_mixed.space, asm_mixed.caches, f, alpha)
        sizes.append(s.n_pi)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # Ties go to the retained block: threshold exactly at an eigenvalue.
    s0 = face_spectrum(asm_mixed.space, asm_mixed.caches, f, 1.0)
    alpha_t = float(s0.alphas[-1])
    s_tie = face_spectrum(asm_mixed.space, asm_mixed.caches, f, alpha_t)
    assert s_tie.n_pi >= 1


def test_element_spectrum_basics(asm_mixed):
    cache = asm_mixed.caches[4]
    spec = element_spectrum(cache, h_target=0.5)
    assert spec.sigma[0] == pytest.approx(0.0, abs=1e-9)
    v0 = spec.vectors[:, 0]
    assert np.abs(v0 - v0[0]).max() < 1e-8 * abs(v0[0])
    assert np.all(np.diff(spec.sigma) >= -1e-9)
    # h_target huge: only the constant survives.
    spec_inf = element_spectrum(cache, h_target=1e9)
    assert spec_inf.j_count == 1
    assert spec.j_count >= 1


def test_element_sigma2_against_dense_oracle():
    # Unit square split in two triangles, A = I, rho = 1: check sigma_2 of
    # one element against an independent dense eigensolve.
    asm = make_assembly(1, 1, 2)
    cache = asm.caches[0]
    spec = element_spectrum(cache, h_target=1.0)
    minv_k = np.linalg.solve(cache.mass, cache.stiffness)
    eigs = np.sort(np.real(np.linalg.eigvals(minv_k)))
    assert spec.sigma[1] == pytest.approx(eigs[1], rel=1e-8)


def test_element_eigvector_double_orthogonality(asm_mixed):
    cache = asm_mixed.caches[1]
    spec = element_spectrum(cache, h_target=0.5)
    v = spec.vectors
    gram_m = v.T @ cache.mass @ v
    assert np.abs(gram_m - np.eye(len(gram_m))).max() < 1e-9
    gram_k = v.T @ cache.stiffness @ v
    off = gram_k - np.diag(np.diag(gram_k))
    assert np.abs(off).max() < 1e-7 * max(spec.sigma.max(), 1.0)


def test_project_rhs_identities(asm_mixed):
    spectra = [element_spectrum(c, h_target=0.5) for c in asm_mixed.caches]
    # Piecewise constant load is reproduced exactly.
    g_const = [np.full(c.geom.n_nodes, 2.0 + c.elem) for c in asm_mixed.caches]
    proj, rem = project_rhs(spectra, asm_mixed.caches, g_const)
    for p, g in zip(proj, g_const):
        assert np.allclose(p, g, rtol=1e-10, atol=1e-10)
    assert rem.max() < 1e-9
    # A dropped eigenfunction projects to zero on its element.
    cache = asm_mixed.caches[3]
    spec = spectra[3]
    idx = spec.j_count  # first dropped mode
    g = [np.zeros(c.geom.n_nodes) for c in asm_mixed.caches]
    g[3] = spec.vectors[:, idx].copy()
    proj, rem = project_rhs(spectra, asm_mixed.caches, g)
    assert np.abs(proj[3]).max() < 1e-10
    assert rem[3] == pytest.approx(1.0, rel=1e-9)


def test_sampled_poincare_inequality(asm_mixed):
    rng = np.random.default_rng(31)
    for cache in asm_mixed.caches[:6]:
        spec = element_spectrum(cache, h_target=0.5)
        j = spec.j_count
        tail = spec.vectors[:, j:]
        if tail.shape[1] == 0:
            continue
        for _ in range(20):
            v = tail @ rng.standard_normal(tail.shape[1])
            mass = v @ (cache.mass @ v)
            energy = v @ (cache.stiffness @ v)
            assert mass <= energy / spec.sigma[j] * (1 + 1e-10)


def test_ttilde_from_spectrum_matches_solver(asm_mixed):
    from lsdfem.localop import apply_Ttilde

    cache = asm_mixed.caches[6]
    spec = element_spectrum(cache, h_target=0.5)
    g = spec.vectors[:, : spec.j_count] @ np.arange(1.0, spec.j_count + 1)
    fast = ttilde_from_spectrum(spec, cache, g)
    slow = apply_Ttilde(cache, g)
    assert np.allclose(fast, slow, rtol=1e-8, atol=1e-10)


def test_spectrum_dump(tmp_path, asm_smooth_4):
    spectra = all_face_spectra(asm_smooth_4.space, asm_smooth_4.caches, alpha_stab=4.0)
    path = str(tmp_path / "spec.json")
    payload = spectrum_dump(spectra, path)
    import json

    back = json.load(open(path))
    assert back == payload
    assert len(back["faces"]) == asm_smooth_4.mesh.n_faces


def test_projection_idempotent_and_doubly_orthogonal(asm_mixed):
    from lsdfem.spectral import all_element_spectra

    spectra = all_element_spectra(asm_mixed.caches, h_target=0.5)
    rng = np.random.default_rng(41)
    g = [rng.standard_normal(c.geom.n_nodes) for c in asm_mixed.caches]
    proj, _ = project_rhs(spectra, asm_mixed.caches, g)
    twice, _ = project_rhs(spectra, asm_mixed.caches, proj)
    for a, b in zip(proj, twice):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)
    # The dropped part is orthogonal to the kept part in both the weighted
    # mass and the energy inner products.
    for cache, p, full in zip(asm_mixed.caches, proj, g):
        rem = full - p
        mass_cross = rem @ (cache.mass @ p)
        energy_cross = rem @ (cache.stiffness @ p)
        m_scale = max(abs(full @ (cache.mass @ full)), 1e-30)
        k_scale = max(abs(full @ (cache.stiffness @ full)), 1e-30)
        assert abs(mass_cross) <= 1e-9 * m_scale
        assert abs(energy_cross) <= 1e-7 * k_scale
