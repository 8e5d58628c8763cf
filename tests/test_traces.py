import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph as csgraph
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import face_elements, face_rows, lambda0_basis, make_assembly, pairing_bruteforce, random_tilde_f
from test_mesh import meshes
from lsdfem.localize import spd_factor
from lsdfem.mesh import build_mesh, build_structured_mesh, refine_faces
from lsdfem.pipeline import solve_lsd
from lsdfem.traces import (
    boundary_functional,
    build_trace_space,
    solve_V0_pairing,
    zero_mean_basis,
)


def pairing(space, mu, v):
    """The broken duality pairing (mu, v) summed over element boundaries.

    ``v`` is a piecewise constant ``(ne,)`` or a broken P1 nodal field ``(ne, nn)``.
    """
    if np.ndim(v) == 1:
        return float(v @ (space.pair_v0 @ mu))
    return float(mu @ boundary_functional(space, v))


def face_integrals(space, values):
    """Integral of the stored values over each coarse face."""
    weighted = values * space.part.fine_measures
    return weighted.reshape(space.n_coarse_faces, -1).sum(axis=1)


def decompose(space, mu):
    """Split mu into (jump part, face-constant part, zero-face-average part).

    The jump part matches mu against all piecewise constants, the
    face-constant part is the facewise average of the remainder, and what
    is left has zero mean on every coarse face.
    """
    mu0 = space.jump_basis @ solve_V0_pairing(space, space.pair_v0 @ mu)
    r = mu - mu0
    mu_t0 = np.repeat(face_integrals(space, r) / space.mesh.face_measures, space.part.faces_per_coarse)
    return mu0, mu_t0, r - mu_t0


@pytest.fixture(scope="module")
def space():
    return build_trace_space(refine_faces(build_structured_mesh(2, 2), 2))


def test_dimensions(space):
    n, nf = space.n_elements, space.n_coarse_faces
    assert space.jump_basis.shape[1] == n
    assert space.dim_tilde0 == nf - n
    assert space.dim_tilde_f == space.n_fine - nf
    assert space.n_elements + space.dim_tilde0 + space.dim_tilde_f == space.n_fine


def test_side_views_are_negatives(space):
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(space.n_fine)
    mesh = space.mesh
    for f in range(mesh.n_faces):
        if mesh.face_boundary[f]:
            continue
        left, right = face_elements(mesh, f)
        rl = face_rows(space.part, left)[f]
        rr = face_rows(space.part, right)[f]
        sl = space.part[left].side_values(mu)[rl]
        fl = space.part[left].boundary_face_ids[rl]
        sr = space.part[right].side_values(mu)[rr]
        fr = space.part[right].boundary_face_ids[rr]
        assert np.array_equal(fl, fr)  # same global sub-face order from both sides
        assert np.array_equal(sl, -sr)


def test_lambda0_explicit_values(space):
    basis = lambda0_basis(space)
    mesh = space.mesh
    for i, lam in enumerate(basis):
        side = space.part[i].side_values(lam)
        assert np.allclose(side, 1.0)  # +1 seen from the owning element
        for f in range(mesh.n_faces):
            if mesh.face_boundary[f]:
                continue
            a, b = face_elements(mesh, f)
            if i in (a, b):
                other = b if i == a else a
                mate = space.part[other].side_values(lam)[face_rows(space.part, other)[f]]
                assert np.allclose(mate, -1.0)


def test_pairing_matrix_is_built_only_when_read():
    asm = make_assembly(2, 2, 1)
    space = asm.space
    assert "pairing_matrix" not in vars(space)
    solve_lsd(asm, np.ones(asm.part.nodes.shape[:2]), 2)
    assert "pairing_matrix" not in vars(space)
    dense = space.pairing_matrix
    assert np.array_equal(dense, (space.pair_v0 @ space.jump_basis).toarray().T)
    assert space.pairing_matrix is dense


def test_lambda0_pairing_matrix_entries(space):
    mesh = space.mesh
    m = space.pairing_matrix
    for i in range(mesh.n_elements):
        assert m[i, i] == pytest.approx(mesh.face_measures[mesh.element_faces[i]].sum(), rel=1e-14)
        for jj in range(mesh.n_elements):
            if jj == i:
                continue
            shared = set(mesh.element_faces[i]) & set(mesh.element_faces[jj])
            expected = -sum(mesh.face_measures[f] for f in shared)
            assert m[i, jj] == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_opposite_jumps_cancel_on_continuous_traces():
    space = build_trace_space(refine_faces(build_structured_mesh(1, 1), 1))
    lam = lambda0_basis(space)
    mesh = space.mesh
    # Broken function, continuous across the shared diagonal face and zero
    # on the outer boundary: the pairing with the sum of jumps vanishes.
    v = []
    for geom in space.part.geometry:
        x, y = geom.nodes[:, 0], geom.nodes[:, 1]
        v.append(x * (1 - x) * y * (1 - y))
    combined = lam[0] + lam[1]
    assert pairing(space, combined, v) == pytest.approx(0.0, abs=1e-14)


def test_pairing_examples(space):
    basis = lambda0_basis(space)
    zero_v = [np.zeros(g.n_nodes) for g in space.part.geometry]
    rng = np.random.default_rng(5)
    mu = rng.standard_normal(space.n_fine)
    assert pairing(space, mu, zero_v) == 0.0
    ind = np.zeros(space.n_elements)
    ind[1] = 1.0
    assert pairing(space, basis[1], ind) == pytest.approx(
        space.mesh.face_measures[space.mesh.element_faces[1]].sum(), rel=1e-14
    )


def test_pairing_matches_bruteforce_quadrature(space):
    rng = np.random.default_rng(11)
    mu = rng.standard_normal(space.n_fine)
    v = [rng.standard_normal(g.n_nodes) for g in space.part.geometry]
    fast = pairing(space, mu, v)
    slow = pairing_bruteforce(space, mu, v)
    assert fast == pytest.approx(slow, rel=1e-13, abs=1e-13)


def test_zero_mean_basis_properties():
    for n in (1, 2, 4, 7):
        w = np.full(n, 0.25)
        z = zero_mean_basis(w)
        assert z.shape == (n, max(n - 1, 0))
        if n > 1:
            assert np.allclose(w @ z, 0.0, atol=1e-14)
            assert np.allclose(z.T @ z, np.eye(n - 1), atol=1e-14)


def test_decompose_reconstructs_and_orthogonality(space):
    rng = np.random.default_rng(7)
    mu = rng.standard_normal(space.n_fine)
    mu0, mt0, mtf = decompose(space, mu)
    recon = mu0 + mt0 + mtf
    assert np.allclose(recon, mu, rtol=0, atol=1e-12 * np.abs(mu).max())
    # The two tilde parts pair to zero against every piecewise constant.
    for part_vec in (mt0, mtf):
        r = space.pair_v0 @ part_vec
        assert np.abs(r).max() < 1e-12
    # Face averages of the fine remainder vanish.
    assert np.abs(face_integrals(space, mtf)).max() < 1e-12
    # The face-constant part is constant per coarse face.
    nfs = space.part.faces_per_coarse
    per_face = mt0.reshape(space.n_coarse_faces, nfs)
    assert np.abs(per_face - per_face[:, :1]).max() < 1e-12


def test_decompose_fixed_points(space):
    basis = lambda0_basis(space)
    mu0, mt0, mtf = decompose(space, basis[3])
    assert np.allclose(mu0, basis[3], atol=1e-12)
    assert np.abs(mt0).max() < 1e-12
    assert np.abs(mtf).max() < 1e-12
    rng = np.random.default_rng(9)
    pure = random_tilde_f(space, rng)
    mu0, mt0, mtf = decompose(space, pure)
    assert np.abs(mu0).max() < 1e-12
    assert np.abs(mt0).max() < 1e-12
    assert np.allclose(mtf, pure, atol=1e-12)


def face_constant_reference(mesh):
    """Null space of the NE x NF face-constant constraint by column-pivoted QR."""
    n, nf = mesh.n_elements, mesh.n_faces
    constraint = np.zeros((n, nf))
    signed = mesh.element_face_signs * mesh.face_measures[mesh.element_faces]
    np.add.at(constraint, (np.repeat(np.arange(n), 3), mesh.element_faces.ravel()), signed.ravel())
    q, r, _ = scipy.linalg.qr(constraint.T, pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int((diag > diag.max() * max(n, nf) * np.finfo(float).eps).sum())
    assert rank == n
    return q[:, rank:]


@settings(max_examples=20, deadline=None)
@given(mesh=meshes())
def test_tilde0_basis_satisfies_constraints(mesh):
    space = build_trace_space(refine_faces(mesh, 1))
    coeffs = space.face_constant_coeffs
    assert coeffs.shape == (mesh.n_faces, mesh.n_faces - mesh.n_elements)
    assert sp.issparse(space.face_constant)
    assert np.array_equal(space.face_constant.toarray(), coeffs)
    stored = np.repeat(coeffs, space.part.faces_per_coarse, axis=0)
    assert stored.shape[1] == space.dim_tilde0
    assert np.abs(space.pair_v0 @ stored).max() < 1e-12
    assert np.linalg.matrix_rank(coeffs) == space.dim_tilde0
    # Same span as the QR null space: the basis has no part outside it.
    ref = face_constant_reference(mesh)
    assert ref.shape == coeffs.shape
    outside = coeffs - ref @ (ref.T @ coeffs)
    assert np.abs(outside).max() < 1e-12 * np.abs(coeffs).max()


def test_face_constants_of_two_holes_that_touch_at_a_vertex():
    # A 6x6 mesh without grid cells (2,2) and (3,3), which share only the
    # vertex (0.5, 0.5): Euler counts two holes, but their boundary loops
    # meet there, so the boundary-vertex graph has two components, the
    # outer loop and one merged hole loop.
    full = build_structured_mesh(6, 6)
    cells = np.array([2 * 6 + 2, 3 * 6 + 3])
    mesh = build_mesh(full.vertices, np.delete(full.elements, np.concatenate([2 * cells, 2 * cells + 1]), axis=0))
    assert mesh.n_faces - mesh.n_elements - (mesh.n_vertices - 1) == 118 - 68 - 48 == 2
    a, b = mesh.faces[mesh.face_boundary].T
    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(mesh.n_vertices,) * 2)
    _, labels = csgraph.connected_components(graph, directed=False)
    assert np.unique(labels[np.concatenate([a, b])]).size == 2
    # The null-space columns still complete the NF - NE face constants.
    space = build_trace_space(refine_faces(mesh, 1))
    coeffs = space.face_constant_coeffs
    assert coeffs.shape == (118, 50) and np.linalg.matrix_rank(coeffs) == 50
    assert np.abs(space.pair_v0 @ np.repeat(coeffs, space.part.faces_per_coarse, axis=0)).max() <= 1e-14


@settings(max_examples=20, deadline=None)
@given(mesh=meshes(), level=st.integers(0, 3))
def test_constant_pairing_is_exactly_symmetric_and_spd(mesh, level):
    # Both elimination steps solve with one SPD factor of P = J^T W J, which
    # relies on P being exactly symmetric, holed meshes included.
    space = build_trace_space(refine_faces(mesh, level))
    jw = space.jump_basis.toarray().T * space.part.fine_measures
    assert np.array_equal(space.pair_v0.toarray(), jw)
    p = space.pair_v0 @ space.jump_basis
    assert np.array_equal(p.toarray(), p.T.toarray())
    spd_factor(p, "constant-pairing matrix")


def test_solve_v0_pairing_against_dense_oracle(space):
    rng = np.random.default_rng(13)
    rhs = rng.standard_normal(space.n_elements)
    dense = np.linalg.solve(space.pairing_matrix, rhs)
    got = solve_V0_pairing(space, rhs)
    assert np.allclose(got, dense, rtol=1e-12, atol=1e-13)
    dense_t = np.linalg.solve(space.pairing_matrix.T, rhs)
    got_t = solve_V0_pairing(space, rhs)
    assert np.allclose(got_t, dense_t, rtol=1e-12, atol=1e-13)
    assert np.abs(solve_V0_pairing(space, np.zeros(space.n_elements))).max() == 0.0


def test_pairing_matrix_diagonally_dominant_and_irreducible(space):
    m = space.pairing_matrix
    mesh = space.mesh
    for i in range(m.shape[0]):
        off = np.abs(m[i]).sum() - abs(m[i, i])
        assert abs(m[i, i]) >= off - 1e-13
        touches_boundary = any(mesh.face_boundary[f] for f in mesh.element_faces[i])
        if touches_boundary:
            assert abs(m[i, i]) > off + 1e-12
    graph = sp.csr_matrix((np.abs(m) > 1e-14).astype(int))
    n_components, _ = csgraph.connected_components(graph, directed=False)
    assert n_components == 1


def test_membership_tests(space):
    rng = np.random.default_rng(21)
    tf = random_tilde_f(space, rng)
    scale = max(np.abs(tf).max(), 1.0)
    # The tilde space: (mu, 1_tau) = 0 for every element.
    assert np.abs(space.pair_v0 @ tf).max() <= 1e-10 * scale
    assert np.abs(face_integrals(space, tf)).max() <= 1e-10 * scale
    lam = lambda0_basis(space)[0]
    assert np.abs(space.pair_v0 @ lam).max() > 1e-10 * max(np.abs(lam).max(), 1.0)


def test_serialization_roundtrip(tmp_path, space):
    # The CLI's multiplier.bin: raw little-endian float64 by fine-face index,
    # read back through the length check of space.vector.
    rng = np.random.default_rng(2)
    mu = rng.standard_normal(space.n_fine)
    binpath = tmp_path / "mu.bin"
    mu.astype("<f8").tofile(binpath)
    assert binpath.stat().st_size == 8 * space.n_fine
    assert np.array_equal(space.vector(np.fromfile(binpath, dtype="<f8")), mu)
    with pytest.raises(ValueError, match="wrong length"):
        space.vector(np.fromfile(binpath, dtype="<f8")[1:])
