import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import face_elements, fine_endpoints, saturation_depth
from lsdfem.mesh import (
    MeshError,
    _triangle_quality,
    build_mesh,
    build_structured_mesh,
    element_layers,
    layer_sets,
    load_mesh,
    refine_faces,
    saturation_radius,
    save_mesh,
)


@pytest.mark.parametrize(
    "nx,ny,elements,faces",
    [(1, 1, 2, 5), (2, 2, 8, 16), (4, 4, 32, 56), (3, 5, 30, 53)],
)
def test_structured_counts(nx, ny, elements, faces):
    mesh = build_structured_mesh(nx, ny)
    assert mesh.n_elements == elements == 2 * nx * ny
    assert mesh.n_faces == faces == 3 * nx * ny + nx + ny


def test_structured_rejects_bad_input():
    with pytest.raises(MeshError):
        build_structured_mesh(0, 2)
    with pytest.raises(MeshError):
        build_structured_mesh(2, 2, domain=(0, 0, 0, 1))


def test_face_orientation_and_signs():
    mesh = build_structured_mesh(3, 3)
    for f in range(mesh.n_faces):
        a, b = mesh.faces[f]
        tangent = mesh.vertices[b] - mesh.vertices[a]
        n = np.array([tangent[1], -tangent[0]]) / np.linalg.norm(tangent)   # tangent turned by -90 degrees
        assert abs(np.dot(tangent, n)) < 1e-14
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
        left = mesh.face_left[f]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        # Normal points away from the left element.
        assert np.dot(n, mid - mesh.centroids[left]) > 0
        # The element-side sign is +1 for the left element and -1 for the right one.
        for elem, sign in ((left, 1), (mesh.face_right[f], -1)):
            if elem >= 0:
                assert mesh.element_face_signs[elem, list(mesh.element_faces[elem]).index(f)] == sign
    # Interior faces have two incident elements, boundary faces one.
    assert np.array_equal(mesh.face_right >= 0, ~mesh.face_boundary)


def layers_bruteforce(mesh, first, j):
    """Definition-level oracle: grow by pairwise closure intersection."""
    if j == 0:
        return set()
    vsets = [set(map(int, mesh.elements[t])) for t in range(mesh.n_elements)]
    current = set(first)
    for _ in range(j - 1):
        grown = set(current)
        for t in range(mesh.n_elements):
            if any(vsets[t] & vsets[s] for s in current):
                grown.add(t)
        current = grown
    return current


def test_layers_match_bruteforce_oracle():
    mesh = build_structured_mesh(4, 4)
    corner = 0
    for j in range(0, 4):
        got = element_layers(mesh, ("element", corner), j)
        assert set(got.tolist()) == layers_bruteforce(mesh, {corner}, j)
    face = int(mesh.element_faces[10, 0])
    first = set(face_elements(mesh, face))
    for j in range(0, 3):
        got = element_layers(mesh, ("face", face), j)
        assert set(got.tolist()) == layers_bruteforce(mesh, first, j)


def test_layer_basics_and_nesting():
    mesh = build_structured_mesh(4, 4)
    assert len(element_layers(mesh, ("element", 3), 0)) == 0
    assert set(element_layers(mesh, ("element", 3), 1).tolist()) == {3}
    f_int = next(f for f in range(mesh.n_faces) if not mesh.face_boundary[f])
    assert set(element_layers(mesh, ("face", f_int), 1).tolist()) == set(face_elements(mesh, f_int))
    prev = element_layers(mesh, ("element", 0), 1)
    for j in range(2, 8):
        cur = element_layers(mesh, ("element", 0), j)
        assert set(prev.tolist()) <= set(cur.tolist())
        prev = cur
    jstar = saturation_depth(mesh, ("element", 0))
    assert jstar <= mesh.n_elements
    assert len(element_layers(mesh, ("element", 0), jstar)) == mesh.n_elements
    for seed in (("element", 999), ("element", -1), ("face", mesh.n_faces), ("vertex", 0)):
        for j in (0, 2):
            with pytest.raises(MeshError):
                element_layers(mesh, seed, j)


def grid_mesh(nx, ny, rng=None, hole=False):
    """Structured grid, interior vertices jittered by up to 0.15 h, cell (1, 1) optionally removed."""
    base = build_structured_mesh(nx, ny)
    verts = base.vertices.copy()
    if rng is not None:
        interior = ~(np.isclose(verts, 0.0) | np.isclose(verts, 1.0)).any(axis=1)
        h = 1.0 / max(nx, ny)
        verts[interior] += rng.uniform(-0.15 * h, 0.15 * h, (interior.sum(), 2))
    keep = np.ones(base.n_elements, dtype=bool)
    if hole:
        keep[2 * (nx + 1) : 2 * (nx + 1) + 2] = False
    return build_mesh(verts, base.elements[keep])


@st.composite
def meshes(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    hole = nx >= 3 and ny >= 3 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grid_mesh(nx, ny, rng, hole)


def closure_neighbors(mesh):
    """Definition-level closure adjacency: per element, the elements sharing a vertex."""
    by_vertex = [[] for _ in range(mesh.n_vertices)]
    for t, verts in enumerate(mesh.elements):
        for v in verts:
            by_vertex[v].append(t)
    return [sorted({e for v in verts for e in by_vertex[v]}) for verts in mesh.elements]


def bfs_depth(neighbors, starts):
    """Reference breadth-first search: one plus the largest distance from ``starts``."""
    dist = np.full(len(neighbors), -1, dtype=int)
    dist[list(starts)] = 0
    queue = list(starts)
    while queue:
        nxt = []
        for t in queue:
            for e in neighbors[t]:
                if dist[e] < 0:
                    dist[e] = dist[t] + 1
                    nxt.append(e)
        queue = nxt
    return 1 + int(dist.max())


def saturation_radius_reference(mesh):
    """One BFS from every element over the closure adjacency."""
    neighbors = closure_neighbors(mesh)
    return max(bfs_depth(neighbors, [t]) for t in range(mesh.n_elements))


@settings(max_examples=30, deadline=None)
@given(mesh=meshes(), data=st.data())
def test_layer_graph_matches_references(mesh, data):
    elem = data.draw(st.integers(0, mesh.n_elements - 1))
    face = data.draw(st.integers(0, mesh.n_faces - 1))
    neighbors = closure_neighbors(mesh)
    for seed, first in ((("element", elem), {elem}), (("face", face), set(face_elements(mesh, face)))):
        for j in range(5):
            got = element_layers(mesh, seed, j)
            assert got.dtype.kind == "i"
            assert got.tolist() == sorted(layers_bruteforce(mesh, first, j))
        assert saturation_depth(mesh, seed) == bfs_depth(neighbors, first)
    assert saturation_radius(mesh) == saturation_radius_reference(mesh)


@pytest.mark.parametrize("n", [4, 16])
def test_structured_saturation_radius(n):
    assert saturation_radius(build_structured_mesh(n, n)) == 2 * n


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_saturation_radius_is_exact_on_graphs(data):
    # Closure graphs of grid meshes rarely defeat the two-sweep lower bound
    # alone, so random connected graphs (a random tree plus extra edges)
    # exercise the level search that makes the sweep exact.
    n = data.draw(st.integers(1, 30))
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    rows, cols = zip(*[(i + 1, p) for i, p in enumerate(parents)], *extra, (0, 0))
    edges = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), (n, n))
    adjacency = ((edges + edges.T + sp.identity(n)) > 0).astype(float).tocsr()
    graph = SimpleNamespace(adjacency=adjacency, n_elements=n)
    assert saturation_radius(graph) == 1 + int(csgraph.shortest_path(adjacency, unweighted=True).max())


def test_saturation_radius_needs_no_all_pairs_search():
    # A few breadth-first searches, not one per element: at 8192 elements the
    # all-pairs search took about 9 s.
    mesh = build_structured_mesh(64, 64)
    t0 = time.perf_counter()
    assert saturation_radius(mesh) == 128
    assert time.perf_counter() - t0 < 0.1


class CountingProducts:
    """Stands in for the adjacency: counts the ``layers @ adjacency`` products, failing past ``limit``."""

    def __init__(self, matrix, limit):
        self.matrix, self.limit, self.products = matrix, limit, 0

    def __rmatmul__(self, other):
        self.products += 1
        assert self.products <= self.limit, "layer products went on past saturation"
        return other @ self.matrix


def test_layer_sets_stop_once_saturated():
    # The layers only grow, so the adjacency products stop at the first that
    # adds no element: any j past the saturation radius gives the same sets
    # and costs at most one product more than reaching them.
    mesh = build_structured_mesh(4, 4)
    jstar = saturation_radius(mesh)
    for kind, n in (("element", mesh.n_elements), ("face", mesh.n_faces)):
        seeds = np.arange(n)
        want = layer_sets(mesh, kind, seeds, jstar)
        assert want.nnz == n * mesh.n_elements
        counted = dataclasses.replace(mesh, adjacency=CountingProducts(mesh.adjacency, jstar))
        got = layer_sets(counted, kind, seeds, 10**6)
        assert 0 < counted.adjacency.products <= jstar
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_connectivity_is_through_faces():
    # Two triangles sharing only a vertex are closure- but not face-connected.
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(MeshError, match="mesh is not face-connected"):
        build_mesh(verts, np.array([[0, 1, 2], [0, 3, 4]]))
    holed = grid_mesh(4, 4, hole=True)
    assert holed.n_elements == 30
    assert saturation_radius(holed) == saturation_radius_reference(holed)


@pytest.mark.parametrize("level,expected", [(0, 1), (2, 4)])
def test_refine_counts(level, expected):
    mesh = build_structured_mesh(1, 1)
    part = refine_faces(mesh, level)
    assert part.n_fine_faces == mesh.n_faces * expected
    if level == 2:
        assert part.n_fine_faces == 20  # 5 coarse faces * 4


def test_fine_measures_sum_to_coarse():
    mesh = build_structured_mesh(3, 2)
    part = refine_faces(mesh, 2)
    nfs = part.faces_per_coarse
    sums = part.fine_measures.reshape(mesh.n_faces, nfs).sum(axis=1)
    assert np.allclose(sums, mesh.face_measures, rtol=1e-12, atol=0)


def test_boundary_triangulation_matches_subfaces_level3():
    mesh = build_structured_mesh(2, 2)
    part = refine_faces(mesh, 3)
    # Nodes carrying trace weight for a sub-face must lie on its segment.
    for geom in part.geometry:
        for row, fine in enumerate(geom.boundary_face_ids):
            a, b = fine_endpoints(part, fine)
            t = b - a
            length = np.linalg.norm(t)
            support = np.nonzero(geom.trace_matrix[row])[0]
            assert support.size >= 2
            for node in support:
                p = geom.nodes[node] - a
                off = abs(p[0] * t[1] - p[1] * t[0]) / length
                along = np.dot(p, t) / length**2
                assert off < 1e-12
                assert -1e-12 <= along <= 1 + 1e-12


def test_interior_level_margin_enforced():
    mesh = build_structured_mesh(1, 1)
    with pytest.raises(ValueError):
        refine_faces(mesh, 2, interior_level=2)
    part = refine_faces(mesh, 1, interior_level=3)
    assert part.interior_level == 3


def test_mesh_file_roundtrip(tmp_path):
    mesh = build_structured_mesh(3, 2, domain=(0.0, -1.0, 2.0, 1.5))
    path = str(tmp_path / "mesh.txt")
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.elements, mesh.elements)
    assert np.allclose(back.vertices, mesh.vertices, rtol=0, atol=0)


def test_loader_validates(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 0\n1 0\n2 0\n1\n0 1 2\n")  # collinear: degenerate
    with pytest.raises(MeshError):
        load_mesh(str(bad))
    with pytest.raises(MeshError):
        build_mesh(np.array([[0.0, 0], [1, 0], [0, 1]]), np.array([[0, 1, 5]]))


def test_shape_regularity_bound():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.005]])
    with pytest.raises(MeshError):
        build_mesh(verts, np.array([[0, 1, 2]]))


# -- vectorized build_mesh against the per-element loops it replaced ------------


def _triangle_quality_reference(p0, p1, p2):
    """Signed area and circumradius/inradius ratio of one triangle."""
    a = np.linalg.norm(p1 - p2)
    b = np.linalg.norm(p2 - p0)
    c = np.linalg.norm(p0 - p1)
    signed = 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    area = abs(signed)
    if area == 0.0:
        return signed, np.inf
    s = 0.5 * (a + b + c)
    return signed, (a * b * c / (4.0 * area)) / (area / s)


def mesh_loop_reference(vertices, elements, bound=20.0):
    """Orientation, areas and face numbering by the element and face loops."""
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=int).copy()
    ne = elements.shape[0]
    areas = np.empty(ne)
    for t in range(ne):
        p = vertices[elements[t]]
        signed, ratio = _triangle_quality_reference(p[0], p[1], p[2])
        if signed == 0.0:
            raise MeshError(f"element {t} is degenerate")
        if signed < 0.0:
            elements[t, 1], elements[t, 2] = elements[t, 2], elements[t, 1]
            signed = -signed
        if ratio > bound:
            raise MeshError(f"element {t} violates shape regularity: ratio {ratio:.3g} > {bound:.3g}")
        areas[t] = signed
    face_of, face_pairs, incident = {}, [], []
    element_faces = np.empty((ne, 3), dtype=int)
    for t in range(ne):
        v = elements[t]
        for e, (a, b) in enumerate(((v[0], v[1]), (v[1], v[2]), (v[2], v[0]))):
            key = (min(a, b), max(a, b))
            fid = face_of.get(key)
            if fid is None:
                fid = len(face_pairs)
                face_of[key] = fid
                face_pairs.append((int(a), int(b)))
                incident.append([t])
            else:
                incident[fid].append(t)
            element_faces[t, e] = fid
    face_left = np.full(len(face_pairs), -1, dtype=int)
    face_right = np.full(len(face_pairs), -1, dtype=int)
    for fid, elems in enumerate(incident):
        if len(elems) > 2:
            raise MeshError(f"face {fid} shared by more than two elements")
        face_left[fid] = elems[0]
        if len(elems) == 2:
            face_right[fid] = elems[1]
    return {
        "elements": elements,
        "areas": areas,
        "faces": np.array(face_pairs, dtype=int),
        "face_left": face_left,
        "face_right": face_right,
        "element_faces": element_faces,
    }


def assert_matches_loop_reference(mesh, vertices, elements):
    for name, want in mesh_loop_reference(vertices, elements).items():
        # The areas are the signed areas of the reoriented elements.
        got = _triangle_quality(mesh.vertices[mesh.elements])[0] if name == "areas" else getattr(mesh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def shuffled_reoriented(mesh, rng):
    """The mesh's elements in random order, about half of them listed clockwise."""
    elements = mesh.elements[rng.permutation(mesh.n_elements)]
    flip = rng.random(mesh.n_elements) < 0.5
    elements[flip] = elements[flip][:, [0, 2, 1]]
    return elements


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 5), (8, 8)])
def test_structured_mesh_matches_loop_reference(nx, ny):
    mesh = build_structured_mesh(nx, ny)
    assert_matches_loop_reference(mesh, mesh.vertices, mesh.elements)


@pytest.mark.parametrize("seed,hole", [(0, False), (1, True), (2, True)])
def test_loaded_mesh_matches_loop_reference(tmp_path, seed, hole):
    rng = np.random.default_rng(seed)
    base = grid_mesh(5, 4, rng, hole)
    elements = shuffled_reoriented(base, rng)
    path = str(tmp_path / "mesh.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{base.n_vertices}\n")
        fh.writelines(f"{float(x)!r} {float(y)!r}\n" for x, y in base.vertices)
        fh.write(f"{len(elements)}\n")
        fh.writelines(f"{a} {b} {c}\n" for a, b, c in elements)
    assert_matches_loop_reference(load_mesh(path), base.vertices, elements)


@settings(max_examples=20, deadline=None)
@given(mesh=meshes(), seed=st.integers(0, 2**32 - 1))
def test_reoriented_mesh_matches_loop_reference(mesh, seed):
    elements = shuffled_reoriented(mesh, np.random.default_rng(seed))
    assert_matches_loop_reference(build_mesh(mesh.vertices, elements), mesh.vertices, elements)


def test_mesh_errors_name_the_first_bad_element_or_face():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.5, 0.005], [0.5, 1.0], [0.5, -1.0]]
    )
    good, sliver, flat = [0, 1, 2], [0, 1, 4], [0, 1, 3]
    cases = [
        [good, sliver, flat, sliver],   # shape regularity at element 1
        [good, flat, sliver, flat],     # degeneracy at element 1
        [[0, 2, 1], flat, sliver],      # a clockwise element is fine
        [[2, 5, 1], good, [0, 6, 1], [1, 0, 5]],   # edge 0-1 shared thrice: face 3
    ]
    for elements in cases:
        with pytest.raises(MeshError) as want:
            mesh_loop_reference(verts, elements)
        with pytest.raises(MeshError) as got:
            build_mesh(verts, np.array(elements))
        assert str(got.value) == str(want.value)
