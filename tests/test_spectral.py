import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import face_elements, face_split, make_assembly
from lsdfem.localop import edge_blocks
from lsdfem.spectral import (
    NotSPDError,
    all_element_spectra,
    all_face_spectra,
    gensym_eig,
    project_rhs,
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
    flux_energy = asm_mixed.caches.flux_energy.copy()
    flux_energy[elem] -= s * np.outer(w, w)
    caches = dataclasses.replace(asm_mixed.caches, flux_energy=flux_energy)
    with pytest.raises(NotSPDError, match="soft-extension energy of face") as err:
        all_face_spectra(space, caches, alpha_stab=2.0)
    named = int(str(err.value).rsplit("face ", 1)[1].rstrip(")"))
    assert named in mesh.element_faces[elem]
    # The named face's summed soft-extension energy is indefinite indeed.
    t_hat = edge_blocks(space, caches.flux_energy, caches.elem)[3]
    t_sum = sum(t_hat[e, list(mesh.element_faces[e]).index(named)] for e in face_elements(mesh, named))
    assert np.linalg.eigvalsh(t_sum).min() < 0.0


def test_complementary_block_not_spd_names_element_and_face(asm_mixed):
    mesh = asm_mixed.mesh
    elem = 9
    face = int(mesh.element_faces[elem, 0])
    flux_energy = asm_mixed.caches.flux_energy.copy()
    flux_energy[elem] *= -1.0
    caches = dataclasses.replace(asm_mixed.caches, flux_energy=flux_energy)
    with pytest.raises(AssertionError, match=rf"element {elem}, face {face}: complementary block not SPD"):
        all_face_spectra(asm_mixed.space, caches, alpha_stab=2.0)


@pytest.fixture(scope="module")
def asm_channel():
    params = {"center": 0.4375, "width": 0.028, "spacing": 0.06, "turn_x": 0.8,
              "contrast": 1e6}
    return make_assembly(8, 8, 2, "channel", params)


def test_face_spectrum_empty_when_single_subface():
    asm = make_assembly(2, 2, 0)
    for spec in all_face_spectra(asm.space, asm.caches, alpha_stab=4.0):
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
    for e in face_elements(asm_channel.mesh, f):
        t_ff, t_ffc, t_fcfc, _ = face_split(asm_channel, e, f)
        t_sum += t_ff
        # Explicit constrained minimization, not the cached Schur path:
        nu = -np.linalg.solve(t_fcfc, t_ffc.T)
        that_sum += t_ff + t_ffc @ nu
    mu = worst.vectors[:, -1]
    rayleigh = (mu @ (t_sum @ mu)) / (mu @ (that_sum @ mu))
    assert rayleigh == pytest.approx(worst.alphas[-1], rel=1e-8)


def test_face_eigvectors_orthonormal_in_schur_energy(asm_mixed):
    spectra = all_face_spectra(asm_mixed.space, asm_mixed.caches, alpha_stab=4.0)
    for s in list(spectra)[:8]:
        if s.empty:
            continue
        that = np.zeros((s.vectors.shape[0],) * 2)
        for e in face_elements(asm_mixed.mesh, s.face):
            that += face_split(asm_mixed, e, s.face)[3]
        gram = s.vectors.T @ that @ s.vectors
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10


def test_split_monotone_in_threshold(asm_mixed):
    def face_spectrum(f, alpha):
        return all_face_spectra(asm_mixed.space, asm_mixed.caches, alpha)[f]

    f = next(f for f in range(asm_mixed.mesh.n_faces) if not face_spectrum(f, 1.0).empty)
    sizes = []
    for alpha in (1.0, 2.0, 5.0, 50.0, 1e9):
        s = face_spectrum(f, alpha)
        sizes.append(s.n_pi)
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # Ties go to the retained block: threshold exactly at an eigenvalue.
    s0 = face_spectrum(f, 1.0)
    alpha_t = float(s0.alphas[-1])
    s_tie = face_spectrum(f, alpha_t)
    assert s_tie.n_pi >= 1


def test_element_spectrum_basics(asm_mixed):
    spec = all_element_spectra(asm_mixed.caches, h_target=0.5)[4]
    assert spec.sigma[0] == pytest.approx(0.0, abs=1e-9)
    v0 = spec.vectors[:, 0]
    assert np.abs(v0 - v0[0]).max() < 1e-8 * abs(v0[0])
    assert np.all(np.diff(spec.sigma) >= -1e-9)
    # h_target huge: only the constant survives.
    spec_inf = all_element_spectra(asm_mixed.caches, h_target=1e9)[4]
    assert spec_inf.j_count == 1
    assert spec.j_count >= 1


def test_element_spectra_stack_and_views(asm_mixed):
    # One stack for all elements; spectra[t] is a view of it, and the first
    # dropped eigenvalue is infinite where every mode is kept.
    spectra = all_element_spectra(asm_mixed.caches, h_target=0.5)
    assert len(spectra) == asm_mixed.mesh.n_elements
    for t, spec in enumerate(spectra):
        assert spec.elem == t and np.shares_memory(spec.vectors, spectra.vectors)
        first_dropped = spec.sigma[spec.j_count] if spec.j_count < len(spec.sigma) else np.inf
        assert spec.sigma_next == first_dropped == spectra.sigma_next[t]
    all_kept = all_element_spectra(asm_mixed.caches, h_target=1e-9)
    assert np.all(all_kept.j_count == all_kept.sigma.shape[1])
    assert np.all(all_kept.sigma_next == np.inf)


def test_element_spectra_mixed_cut_match_full_spectrum(asm_mixed):
    # A cut between the elements' second and third eigenvalues leaves the
    # stiff elements with the constant alone and the soft ones with several
    # modes, so both ways of forming the kept vectors run.  Scaling each
    # stiffness by its own factor spreads the soft elements' counts, so the
    # zero padding past each count is checked too.
    scale = np.linspace(1.0, 4.0, asm_mixed.mesh.n_elements)[:, None, None]
    caches = dataclasses.replace(asm_mixed.caches, stiffness=scale * asm_mixed.caches.stiffness)
    sigma_ref, vectors_ref = gensym_eig(caches.stiffness, caches.mass)
    sigma_ref = np.maximum(sigma_ref, 0.0)
    cut = np.sqrt(sigma_ref[:, 2].min() * sigma_ref[:, 1].max())
    assert sigma_ref[:, 1].min() < cut < sigma_ref[:, 2].max()
    spectra = all_element_spectra(caches, h_target=1.0 / np.sqrt(cut))
    nn = sigma_ref.shape[1]
    assert np.any(spectra.j_count == 1) and len(np.unique(spectra.j_count[spectra.j_count > 1])) > 1
    assert spectra.j_count.max() < nn
    largest = sigma_ref.max(axis=1, keepdims=True)
    assert np.all(np.abs(spectra.sigma - sigma_ref) <= 1e-13 * largest)
    above = sigma_ref[:, 1:] >= cut
    j_ref = np.where(above.any(axis=1), above.argmax(axis=1) + 1, nn)
    assert np.array_equal(spectra.j_count, j_ref)
    next_ref = sigma_ref[np.arange(len(j_ref)), j_ref]    # every element drops a mode at this cut
    assert np.all(np.abs(spectra.sigma_next - next_ref) <= 1e-13 * largest[:, 0])
    assert spectra.vectors.shape == (len(j_ref), nn, j_ref.max())
    for t, j in enumerate(j_ref):
        v, v_ref = spectra.vectors[t], vectors_ref[t, :, :j]
        assert not v[:, j:].any()
        projector = v[:, :j] @ v[:, :j].T @ caches.mass[t]
        projector_ref = v_ref @ v_ref.T @ caches.mass[t]
        assert np.abs(projector - projector_ref).max() <= 1e-9
    g = np.random.default_rng(19).standard_normal(caches.mean_vector.shape)
    kept = vectors_ref * (np.arange(nn) < j_ref[:, None])[:, None, :]
    p_ref = (kept @ (kept.swapaxes(-1, -2) @ (caches.mass @ g[..., None])))[..., 0]
    proj = project_rhs(spectra, caches, g)[0]
    assert np.abs(proj - p_ref).max() <= 1e-10 * np.abs(p_ref).max()


def test_element_mass_not_spd_names_element(asm_mixed):
    elem = 5
    mass = asm_mixed.caches.mass.copy()
    mass[elem, 3, 3] = -1.0     # the leading minor of order 4 is indefinite
    caches = dataclasses.replace(asm_mixed.caches, mass=mass)
    with pytest.raises(NotSPDError, match=rf"pivot 3 \(weighted mass of element {elem}\)") as err:
        all_element_spectra(caches, h_target=0.5)
    assert err.value.pivot == 3 and err.value.item == elem


STACKS = {
    "partition": lambda asm: asm.part,
    "caches": lambda asm: asm.caches,
    "face_spectra": lambda asm: asm.face_spectra(4.0),
    "element_spectra": lambda asm: all_element_spectra(asm.caches, h_target=0.5),
}


def assert_view_of(view, stack, i):
    """``view`` is item i of ``stack``: stacked fields sliced in place, the rest shared."""
    assert type(view) is type(stack)
    for f in dataclasses.fields(stack):
        whole, got = getattr(stack, f.name), getattr(view, f.name)
        if f.name not in stack.STACKED:
            assert got is whole, f.name
            assert np.shape(whole)[:1] != (len(stack),), f"{f.name} has an item axis"
        elif isinstance(whole, np.ndarray) and whole.ndim == 1 and whole.dtype.kind == "i":
            assert type(got) is int and got == whole[i], f.name   # ids become ints
        elif isinstance(whole, np.ndarray):
            assert np.array_equal(got, whole[i]), f.name
            if got.ndim:
                assert np.shares_memory(got, whole), f.name
        else:
            assert_view_of(got, whole, i)                         # a stack of another family


@pytest.mark.parametrize("family", sorted(STACKS))
def test_stacked_views(asm_mixed, family):
    stack = STACKS[family](asm_mixed)
    n = asm_mixed.mesh.n_faces if family == "face_spectra" else asm_mixed.mesh.n_elements
    assert len(stack) == n
    views = list(stack)
    assert len(views) == n
    for i, view in enumerate(views):
        assert_view_of(view, stack, i)
    if family == "face_spectra":
        assert [v.face for v in views] == list(range(n))
    elif family != "partition":
        assert [v.elem for v in views] == list(range(n))
    else:
        assert [v.n_nodes for v in views] == [stack.n_nodes] * n


def test_element_sigma2_against_dense_oracle():
    # Unit square split in two triangles, A = I, rho = 1: check sigma_2 of
    # one element against an independent dense eigensolve.
    asm = make_assembly(1, 1, 2)
    cache = asm.caches[0]
    spec = all_element_spectra(asm.caches, h_target=1.0)[0]
    minv_k = np.linalg.solve(cache.mass, cache.stiffness)
    eigs = np.sort(np.real(np.linalg.eigvals(minv_k)))
    assert spec.sigma[1] == pytest.approx(eigs[1], rel=1e-8)


def test_element_eigvector_double_orthogonality(asm_mixed):
    cache = asm_mixed.caches[1]
    spec = all_element_spectra(asm_mixed.caches, h_target=0.5)[1]
    v = gensym_eig(cache.stiffness, cache.mass)[1]   # every mode, not just the kept ones
    gram_m = v.T @ cache.mass @ v
    assert np.abs(gram_m - np.eye(len(gram_m))).max() < 1e-9
    gram_k = v.T @ cache.stiffness @ v
    off = gram_k - np.diag(np.diag(gram_k))
    assert np.abs(off).max() < 1e-7 * max(spec.sigma.max(), 1.0)


def test_project_rhs_identities(asm_mixed):
    spectra = all_element_spectra(asm_mixed.caches, h_target=0.5)
    # Piecewise constant load is reproduced exactly.
    g_const = [np.full(c.geom.n_nodes, 2.0 + c.elem) for c in asm_mixed.caches]
    proj, rem, load = project_rhs(spectra, asm_mixed.caches, g_const)
    for p, g in zip(proj, g_const):
        assert np.allclose(p, g, rtol=1e-10, atol=1e-10)
    assert rem.max() < 1e-9
    # The element load M p, formed as M g - M (g - p), is the direct product.
    direct = (asm_mixed.caches.mass @ proj[..., None])[..., 0]
    assert np.abs(load - direct).max() <= 1e-13 * np.abs(direct).max()
    # A dropped eigenfunction projects to zero on its element.
    cache = asm_mixed.caches[3]
    spec = spectra[3]
    idx = spec.j_count  # first dropped mode
    g = [np.zeros(c.geom.n_nodes) for c in asm_mixed.caches]
    g[3] = gensym_eig(cache.stiffness, cache.mass)[1][:, idx].copy()
    proj, rem, _ = project_rhs(spectra, asm_mixed.caches, g)
    assert np.abs(proj[3]).max() < 1e-10
    assert rem[3] == pytest.approx(1.0, rel=1e-9)


def test_sampled_poincare_inequality(asm_mixed):
    rng = np.random.default_rng(31)
    sampled = 0
    spectra = all_element_spectra(asm_mixed.caches, h_target=0.5)
    for cache, spec in list(zip(asm_mixed.caches, spectra))[:6]:
        j = spec.j_count
        tail = gensym_eig(cache.stiffness, cache.mass)[1][:, j:]   # the dropped modes
        if tail.shape[1] == 0:
            continue
        sampled += 1
        for _ in range(20):
            v = tail @ rng.standard_normal(tail.shape[1])
            mass = v @ (cache.mass @ v)
            energy = v @ (cache.stiffness @ v)
            assert mass <= energy / spec.sigma[j] * (1 + 1e-10)
    assert sampled


def test_projection_idempotent_and_doubly_orthogonal(asm_mixed):
    spectra = all_element_spectra(asm_mixed.caches, h_target=0.5)
    rng = np.random.default_rng(41)
    g = [rng.standard_normal(c.geom.n_nodes) for c in asm_mixed.caches]
    proj = project_rhs(spectra, asm_mixed.caches, g)[0]
    twice = project_rhs(spectra, asm_mixed.caches, proj)[0]
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
