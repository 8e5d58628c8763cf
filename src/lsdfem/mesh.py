"""Coarse simplicial meshes, face refinement, and layer neighborhoods.

The coarse mesh is a 2D triangulation whose edges are called *faces*
throughout (the data model is dimension-generic even though only d=2 is
implemented).  Every face carries a fixed unit normal, its stored
tangent ``b - a`` turned by -90 degrees; the element the normal points
out of is the face's *left* element.  All skeleton
quantities (multipliers, trace integrals) are stored relative to that
orientation: each element's trace rows carry its face sign, ``+1`` for the
left element and ``-1`` for the right one, so no other code applies it.

Layer neighborhoods, their saturation depths and the mesh's saturation
radius all read one sparse closure-adjacency matrix: two elements are
adjacent when their closures share a vertex.

Every per-item family of the package (the fine partition's element
geometry, the element caches, the face and element spectra) is one
dataclass of stacks with a leading item axis; :class:`Stacked` gives each
of them the same item views.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

__all__ = [
    "CoarseMesh",
    "FinePartition",
    "Stacked",
    "MeshError",
    "build_structured_mesh",
    "build_mesh",
    "refine_faces",
    "UnionMesh",
    "build_union_mesh",
    "element_layers",
    "layer_sets",
    "layer_distances",
    "saturation_radius",
    "load_mesh",
    "save_mesh",
]

# Right isoceles triangles from grid cells have ratio 1 + sqrt(2); leave
# generous headroom for loaded meshes.
SHAPE_REGULARITY_BOUND = 20.0


class MeshError(ValueError):
    """Invalid mesh input (degenerate element, bad connectivity, ...)."""


class Stacked:
    """Base of the dataclasses that store one item family as stacks with a leading item axis.

    ``STACKED`` names the fields that carry the item axis.  ``x[i]`` is
    item i's view: the same dataclass with each stacked field indexed
    (numpy integers become ints) and every other field shared.
    Iteration yields the views in stack order.
    """

    STACKED: ClassVar[tuple[str, ...]] = ()

    def __len__(self) -> int:
        return len(getattr(self, self.STACKED[0]))

    def __getitem__(self, i: int):
        view = {}
        for name in self.STACKED:
            item = getattr(self, name)[i]
            view[name] = int(item) if isinstance(item, np.integer) else item
        return replace(self, **view)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class CoarseMesh:
    """Coarse triangulation with oriented faces and adjacency queries."""

    vertices: np.ndarray          # (nv, 2)
    elements: np.ndarray          # (ne, 3) vertex ids, ccw
    faces: np.ndarray             # (nf, 2) vertex ids, left element sees a->b ccw
    face_left: np.ndarray         # (nf,) element id whose outward normal is n_F
    face_right: np.ndarray        # (nf,) element id or -1 on the boundary
    face_boundary: np.ndarray     # (nf,) bool
    element_faces: np.ndarray     # (ne, 3) face id per local edge (0-1, 1-2, 2-0)
    element_face_signs: np.ndarray  # (ne, 3) +1 if element is the left element
    centroids: np.ndarray         # (ne, 2)
    face_measures: np.ndarray     # (nf,)
    diameters: np.ndarray         # (ne,) element diameters
    adjacency: sp.csr_matrix = field(repr=False)  # (ne, ne) closure adjacency, diagonal included

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def coarse_size(self) -> float:
        """Mesh size H: the largest element diameter."""
        return float(self.diameters.max())


def _triangle_quality(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas and circumradius/inradius ratios (not finite if degenerate) of triangles ``p``."""
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    a, b, c = (np.linalg.norm(d, axis=1) for d in (p[:, 1] - p[:, 2], d2, d1))
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1])
    area = np.abs(signed)
    with np.errstate(divide="ignore", invalid="ignore"):
        circum = a * b * c / (4.0 * area)
        inrad = area / (0.5 * (a + b + c))
        return signed, circum / inrad


def build_mesh(vertices: np.ndarray, elements: np.ndarray) -> CoarseMesh:
    """Build a validated :class:`CoarseMesh` from raw arrays.

    Elements are reoriented counterclockwise if needed.  Raises
    :class:`MeshError` on degenerate elements, shape-regularity
    violations, faces shared by more than two elements, or two elements
    on the same side of a face; the message names the first such element
    or face.
    """
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=int).copy()
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (nv, 2) array")
    if elements.ndim != 2 or elements.shape[1] != 3:
        raise MeshError("elements must be an (ne, 3) array")
    if elements.size and (elements.min() < 0 or elements.max() >= len(vertices)):
        raise MeshError("element vertex index out of range")
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise MeshError(f"vertex {bad[0]} has a non-finite coordinate {vertices[bad[0]].tolist()}")

    ne = elements.shape[0]
    signed, ratio = _triangle_quality(vertices[elements])
    degenerate = signed == 0.0
    bad = np.flatnonzero(degenerate | (ratio > SHAPE_REGULARITY_BOUND))
    if bad.size:
        t = bad[0]
        if degenerate[t]:
            raise MeshError(f"element {t} is degenerate")
        raise MeshError(
            f"element {t} violates shape regularity: ratio {ratio[t]:.3g} > "
            f"{SHAPE_REGULARITY_BOUND:.3g}"
        )
    elements[signed < 0.0] = elements[signed < 0.0][:, [0, 2, 1]]

    # Local edges (0-1, 1-2, 2-0) of every element, ccw, in element order.
    # Faces are numbered in order of first appearance and oriented as first
    # seen, so the first incident element is the left one.
    edges = elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = edges.min(axis=1) * len(vertices) + edges.max(axis=1)
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    edge_face = np.argsort(order)[inverse.ravel()]
    first, counts = first[order], counts[order]
    if np.any(counts > 2):
        raise MeshError(f"face {np.argmax(counts > 2)} shared by more than two elements")
    faces, face_left = edges[first], first // 3
    element_faces = edge_face.reshape(ne, 3)
    face_right = np.full(first.size, -1, dtype=int)
    later = np.ones(edge_face.size, dtype=bool)
    later[first] = False
    same = np.flatnonzero(later & (edges[:, 0] == faces[edge_face, 0]))
    if same.size:
        f = edge_face[same[0]]
        raise MeshError(f"face {f} has elements {face_left[f]} and {same[0] // 3} on the same side: they overlap")
    face_right[edge_face[later]] = np.flatnonzero(later) // 3
    face_boundary = face_right < 0

    tangents = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    face_measures = np.linalg.norm(tangents, axis=1)
    if np.any(face_measures == 0.0):
        raise MeshError("zero-length face")

    element_face_signs = np.where(face_left[element_faces] == np.arange(ne)[:, None], 1, -1)

    centroids = vertices[elements].mean(axis=1)
    diameters = face_measures[element_faces].max(axis=1)

    # Closure adjacency I I^T from the element-vertex incidence I.
    incidence = sp.csr_matrix(
        (np.ones(3 * ne), (np.repeat(np.arange(ne), 3), elements.ravel())),
        shape=(ne, len(vertices)),
    )
    adjacency = (incidence @ incidence.T).tocsr()
    adjacency.sort_indices()

    mesh = CoarseMesh(
        vertices=vertices,
        elements=elements,
        faces=faces,
        face_left=face_left,
        face_right=face_right,
        face_boundary=face_boundary,
        element_faces=element_faces,
        element_face_signs=element_face_signs,
        centroids=centroids,
        face_measures=face_measures,
        diameters=diameters,
        adjacency=adjacency,
    )
    _check_connected(mesh)
    return mesh


def _check_connected(mesh: CoarseMesh) -> None:
    """Face-connectivity check; disconnected meshes break the Lambda^0 solve."""
    if mesh.n_elements == 0:
        raise MeshError("empty mesh")
    inner = ~mesh.face_boundary
    faces = sp.coo_matrix(
        (np.ones(inner.sum()), (mesh.face_left[inner], mesh.face_right[inner])),
        shape=(mesh.n_elements, mesh.n_elements),
    )
    if csgraph.connected_components(faces, directed=False)[0] != 1:
        raise MeshError("mesh is not face-connected")


def build_structured_mesh(
    nx: int,
    ny: int,
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> CoarseMesh:
    """Structured triangulation of a rectangle.

    ``domain`` is (x0, y0, x1, y1).  Each of the nx*ny grid cells is split
    along its lower-left/upper-right diagonal, giving 2*nx*ny elements and
    3*nx*ny + nx + ny faces.
    """
    if nx < 1 or ny < 1:
        raise MeshError(f"grid counts must be >= 1, got {nx} x {ny}")
    x0, y0, x1, y1 = map(float, domain)
    if x1 <= x0 or y1 <= y0:
        raise MeshError("domain side lengths must be positive")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    vertices = np.column_stack((xx.ravel(), yy.ravel()))

    # Lower-left vertex a of each cell, row by row; b, c, d follow ccw.
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    return build_mesh(vertices, np.column_stack((a, b, c, a, c, d)).reshape(-1, 3))


def layer_sets(mesh: CoarseMesh, kind: str, seeds: np.ndarray, j: int) -> sp.csr_matrix:
    """Layer neighborhoods T_j of seeds of one kind, as a 0/1 seed x element matrix.

    ``kind`` is ``"element"`` or ``"face"``.  T_0 is empty,
    T_1("element", K) = {K}, T_1("face", F) = the incident element(s), and
    T_{j+1} adds every element whose closure touches T_j (vertex
    neighbors included): the first-layer rows times the adjacency, at
    most ``j - 1`` times.  The adjacency holds its diagonal, so layers
    only grow, and the products stop at the first that adds no element.
    Row indices are sorted.
    """
    if j < 0:
        raise ValueError("layer count j must be >= 0")
    if kind not in ("element", "face"):
        raise MeshError(f"unknown seed kind {kind!r}")
    bad = (seeds < 0) | (seeds >= (mesh.n_elements if kind == "element" else mesh.n_faces))
    if bad.any():
        raise MeshError(f"unknown {kind} seed {seeds[bad][0]}")
    if j == 0:
        return sp.csr_matrix((seeds.size, mesh.n_elements))
    first = seeds[:, None] if kind == "element" else np.column_stack((mesh.face_left, mesh.face_right))[seeds]
    rows, cols = np.nonzero(first >= 0)    # face_right is -1 on the domain boundary
    layers = sp.csr_matrix((np.ones(rows.size), (rows, first[rows, cols])), (seeds.size, mesh.n_elements))
    for _ in range(j - 1):
        nnz = layers.nnz
        layers = layers @ mesh.adjacency
        layers.data[:] = 1.0
        if layers.nnz == nnz:
            break
    layers.sort_indices()
    return layers


def element_layers(mesh: CoarseMesh, seed: tuple[str, int], j: int) -> np.ndarray:
    """T_j(seed) as sorted element ids, ``seed`` ``("element", k)`` or ``("face", f)``: one layer_sets row."""
    return layer_sets(mesh, seed[0], np.array([seed[1]]), j).indices


def layer_distances(mesh: CoarseMesh, seed: tuple[str, int]) -> np.ndarray:
    """Per element, the smallest j with the element in T_{j+1}(seed)."""
    dist = csgraph.shortest_path(
        mesh.adjacency, unweighted=True, indices=element_layers(mesh, seed, 1)
    ).min(axis=0)
    if not np.isfinite(dist).all():
        raise MeshError("layer growth stalled; mesh not connected?")
    return dist.astype(int)


def saturation_radius(mesh: CoarseMesh) -> int:
    """Smallest j with T_j(seed) = the whole mesh for *every* seed.

    Equals one plus the diameter of the closure-adjacency graph; face
    seeds saturate no later than their incident elements, so the maximum
    over element seeds covers them.  The exact iFUB sweep finds the
    diameter: two breadth-first searches give a centre ``u``, then the
    eccentricities of ``u``'s levels, deepest first and in row chunks of at
    most about 32 MB, until they reach ``2 i``, which bounds every pair left.
    """
    def distances(sources) -> np.ndarray:
        return csgraph.shortest_path(mesh.adjacency, unweighted=True, indices=sources)

    d_a = distances(int(np.argmax(distances(0))))
    d_b = distances(int(np.argmax(d_a)))
    level = distances(int(np.argmin(np.maximum(d_a, d_b))))
    diameter = d_a.max()
    chunk = max(1, (32 << 20) // (8 * mesh.n_elements))
    for i in range(int(level.max()), 0, -1):
        if diameter >= 2 * i:
            break
        ids = np.flatnonzero(level == i)
        for first in range(0, ids.size, chunk):
            diameter = max(diameter, distances(ids[first:first + chunk]).max())
    return 1 + int(diameter)


# ---------------------------------------------------------------------------
# Fine partition: refined skeleton + per-element interior triangulations.
# ---------------------------------------------------------------------------


@dataclass
class FinePartition(Stacked):
    """Fine face partition F_h plus per-element interior triangulations.

    Every interior triangulation is an affine image of one reference
    lattice, so the per-element geometry is stored as stacks with a
    leading element axis; ``part[t]`` is element t's view.  Row ``r`` of
    ``trace_matrix`` maps interior P1 nodal values to their integral over
    the fine sub-face ``boundary_face_ids[r]`` of the element boundary,
    exact for P1 traces, times the element's face sign (+1 on the left
    element): the rows pair with stored fine-face values as they are.
    Rows are ordered by local edge, then by the sub-face index along the
    stored orientation of the parent coarse face.
    """

    STACKED = ("nodes", "cell_areas", "cell_centroids", "grads", "trace_matrix", "boundary_face_ids")

    mesh: CoarseMesh
    interior_level: int
    faces_per_coarse: int         # 2**face_level
    fine_measures: np.ndarray     # (n_fine,)
    nodes: np.ndarray             # (ne, nn, 2)
    cells: np.ndarray             # (nc, 3) lattice connectivity shared by every element
    cell_areas: np.ndarray        # (ne, nc)
    cell_centroids: np.ndarray    # (ne, nc, 2)
    grads: np.ndarray             # (ne, nc, 3, 2)
    trace_matrix: np.ndarray      # (ne, n_bf, nn) signed trace integrals
    boundary_face_ids: np.ndarray   # (ne, n_bf)
    boundary_node_mask: np.ndarray  # (nn,) lattice nodes on the element boundary

    @property
    def geometry(self):
        """The element views ``part[t]`` in element order."""
        return iter(self)

    @property
    def n_nodes(self) -> int:
        """Interior lattice nodes per element."""
        return self.nodes.shape[-2]

    @property
    def n_fine_faces(self) -> int:
        return self.fine_measures.shape[0]

    @property
    def fine_size(self) -> float:
        """h: the largest fine sub-face diameter."""
        return float(self.fine_measures.max())


def _lattice(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycentric lattice of a uniformly refined reference triangle.

    Returns (bary, cells, edges) where bary is (nn, 2) with the (i, j)
    lattice coordinates scaled by 1/n, cells the (nc, 3) connectivity, and
    edges the (3, n+1) node ids along the local edges v0->v1, v1->v2 and
    v2->v0, each ordered from its first vertex; ``edges[:, 0]`` are the vertices.
    """
    n = 2 ** level
    index = -np.ones((n + 1, n + 1), dtype=int)
    coords = []
    k = 0
    for j in range(n + 1):
        for i in range(n + 1 - j):
            index[i, j] = k
            coords.append((i / n, j / n))
            k += 1
    cells = []
    for j in range(n):
        for i in range(n - j):
            cells.append((index[i, j], index[i + 1, j], index[i, j + 1]))
            if i + j < n - 1:
                cells.append((index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]))
    m = np.arange(n + 1)
    edges = np.stack([index[m, 0], index[n - m, m], index[0, n - m]])
    return np.array(coords), np.array(cells, dtype=int), edges


def _trace_patterns(edges: np.ndarray, nn: int, nfs: int) -> np.ndarray:
    """Reference trace rows (3, 2, nfs, nn): local edge, aligned with its face?, sub-face, node.

    Each boundary segment adds 1/2 to its two end nodes in the row of the
    sub-face (counted along the stored face) holding its midpoint; scaled
    by the segment length this integrates P1 traces exactly.
    """
    n = edges.shape[1] - 1
    s_mid = (np.arange(n) + 0.5) / n
    patterns = np.zeros((3, 2, nfs, nn))
    for e, edge_nodes in enumerate(edges):
        for aligned, tpar in enumerate((1.0 - s_mid, s_mid)):
            k_sub = np.minimum((tpar * nfs).astype(int), nfs - 1)
            np.add.at(patterns[e, aligned], (k_sub, edge_nodes[:-1]), 0.5)
            np.add.at(patterns[e, aligned], (k_sub, edge_nodes[1:]), 0.5)
    return patterns


def refine_faces(mesh: CoarseMesh, level: int, interior_level: int | None = None) -> FinePartition:
    """Split every coarse face into 2**level equal fine sub-faces.

    The interior triangulation of each element is a uniform refinement at
    ``interior_level`` (default ``level + 1``; must stay at least one level
    finer than the faces so the local problems are inf-sup safe).
    """
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    if interior_level is None:
        interior_level = level + 1
    if interior_level < level + 1:
        raise ValueError("interior_level must be at least face level + 1")

    nfs = 2 ** level
    ne = mesh.n_elements
    fine_measures = np.repeat(mesh.face_measures / nfs, nfs)

    bary, cells, edges = _lattice(interior_level)
    n = 2 ** interior_level

    # Stacked affine images of the lattice: nodes (ne, nn, 2), cell corners (ne, nc, 3, 2).
    v = mesh.vertices[mesh.elements][:, :, None, :]
    nodes = v[:, 0] + bary[:, 0:1] * (v[:, 1] - v[:, 0]) + bary[:, 1:2] * (v[:, 2] - v[:, 0])
    p = nodes[:, cells]
    d1 = p[:, :, 1] - p[:, :, 0]
    d2 = p[:, :, 2] - p[:, :, 0]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    cell_areas = 0.5 * det
    # P1 gradients: grad(phi_k) obtained from edge rotations / (2A).
    grads = np.empty(p.shape[:2] + (3, 2))
    for k in range(3):
        a = p[:, :, (k + 1) % 3]
        b = p[:, :, (k + 2) % 3]
        grads[:, :, k, 0] = (a[..., 1] - b[..., 1]) / det
        grads[:, :, k, 1] = (b[..., 0] - a[..., 0]) / det
    cell_centroids = p.mean(axis=2)

    # Trace rows: local edge e of element t is aligned with its coarse face
    # when it starts at the face's first stored vertex.
    patterns = _trace_patterns(edges, len(bary), nfs)
    ef = mesh.element_faces
    aligned = mesh.elements == mesh.faces[ef, 0]
    scale = mesh.element_face_signs * mesh.face_measures[ef] / n
    trace = (patterns[np.arange(3), aligned.astype(int)] * scale[:, :, None, None]).reshape(ne, 3 * nfs, -1)
    b_ids = (ef[:, :, None] * nfs + np.arange(nfs)).reshape(ne, 3 * nfs)
    boundary_mask = patterns.any(axis=(0, 1, 2))

    part = FinePartition(
        mesh=mesh,
        interior_level=interior_level,
        faces_per_coarse=nfs,
        fine_measures=fine_measures,
        nodes=nodes,
        cells=cells,
        cell_areas=cell_areas,
        cell_centroids=cell_centroids,
        grads=grads,
        trace_matrix=trace,
        boundary_face_ids=b_ids,
        boundary_node_mask=boundary_mask,
    )
    _check_partition(part)
    return part


def _check_partition(part: FinePartition) -> None:
    """Construction-time invariants: sub-face measures and trace alignment."""
    mesh = part.mesh
    nfs = part.faces_per_coarse
    sums = part.fine_measures.reshape(mesh.n_faces, nfs).sum(axis=1)
    if not np.allclose(sums, mesh.face_measures, rtol=1e-12, atol=0.0):
        raise MeshError("fine sub-face measures do not sum to coarse face measures")
    # Each trace row integrates the constant 1 to the element's face sign
    # times the sub-face measure, which also certifies that interior
    # boundary edges tile the sub-faces exactly.
    signs = np.repeat(mesh.element_face_signs, nfs, axis=1)
    expected = signs * part.fine_measures[part.boundary_face_ids]
    bad = ~np.isclose(part.trace_matrix.sum(axis=2), expected, rtol=1e-12, atol=1e-15).all(axis=1)
    if bad.any():
        raise MeshError(f"boundary triangulation of element {int(np.argmax(bad))} misaligned")


@dataclass
class UnionMesh:
    """Conforming view of the per-element interior triangulations."""

    nodes: np.ndarray
    node_maps: np.ndarray          # (ne, nn): local node id -> union node id
    boundary: np.ndarray           # union node ids on the domain boundary
    free: np.ndarray               # union node ids off the domain boundary


def build_union_mesh(part: FinePartition) -> UnionMesh:
    """Number the lattice nodes so that copies on a shared vertex or face get one id.

    Each (element, local node) gets a code: its coarse vertex, its face and
    position along the stored face orientation, or an interior code of its own.
    """
    mesh = part.mesh
    n = 2 ** part.interior_level
    nv, nf, ne = mesh.n_vertices, mesh.n_faces, mesh.n_elements
    _, _, edges = _lattice(part.interior_level)
    nodes = part.nodes
    m = np.arange(1, n)   # positions of the lattice nodes inside a face
    codes = nv + nf * (n - 1) + np.arange(nodes.shape[0] * nodes.shape[1]).reshape(nodes.shape[:2])
    codes[:, edges[:, 0]] = mesh.elements
    for e in range(3):
        fid = mesh.element_faces[:, e, None]
        pos = np.where(mesh.elements[:, e, None] == mesh.faces[fid, 0], m, n - m)
        codes[:, edges[e, 1:-1]] = nv + fid * (n - 1) + pos - 1
    keys, node_maps = np.unique(codes, return_inverse=True)
    node_maps = node_maps.reshape(codes.shape)
    coords = np.empty((keys.size, 2))
    coords[node_maps] = nodes
    fb = np.flatnonzero(mesh.face_boundary)
    on_boundary = np.concatenate([mesh.faces[fb].ravel(), (nv + fb[:, None] * (n - 1) + m - 1).ravel()])
    boundary = np.searchsorted(keys, np.unique(on_boundary))
    return UnionMesh(coords, node_maps, boundary, np.setdiff1d(np.arange(keys.size), boundary))


# ---------------------------------------------------------------------------
# Line-oriented mesh file format (documented in the README):
#   nv
#   x y          (nv lines)
#   ne
#   i j k        (ne lines, 0-based vertex ids)
# ---------------------------------------------------------------------------


def save_mesh(mesh: CoarseMesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"{mesh.n_elements}\n")
        for a, b, c in mesh.elements:
            fh.write(f"{a} {b} {c}\n")


def load_mesh(path: str) -> CoarseMesh:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def take(n: int) -> list[str]:
        nonlocal pos
        if n < 0:
            raise MeshError(f"mesh file {path} has a negative vertex or element count")
        if pos + n > len(tokens):
            raise MeshError(f"mesh file {path} truncated")
        out = tokens[pos : pos + n]
        pos += n
        return out

    nv = int(take(1)[0])
    verts = np.array([float(x) for x in take(2 * nv)]).reshape(nv, 2)
    ne = int(take(1)[0])
    elems = np.array([int(x) for x in take(3 * ne)], dtype=int).reshape(ne, 3)
    if pos != len(tokens):
        raise MeshError(f"mesh file {path} has trailing data")
    return build_mesh(verts, elems)
