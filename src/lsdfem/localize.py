"""Galerkin projections in the flux energy, global and patch-localized.

All of these solve the same kind of problem: find a multiplier in a
face-spanned subspace whose flux energy matches a given functional.  The
subspace is spanned by the columns of a sparse face basis (per face, the
full zero-average block or the localizable part of the face spectrum),
the energy matrix is assembled once from the cached element flux-energy
blocks, and patch problems are principal submatrices of the basis Gram,
which is kept sparse.  No interior problem is ever re-solved here.

A localized projection is linear and each seed's solution lives on its
patch, so it is stored as one sparse matrix of patch responses per seed
kind and layer count; applying it is ``basis @ (R @ data)``.  One pass
over the seeds in order builds each matrix: cache-sized chunks of seeds
gather their patch Grams from the padded rows of the sparse Gram, and
their right-hand sides straight into the CSC data, where one LAPACK
``posv`` per seed solves in place.  Every global Gram is factored sparse
by :func:`spd_factor`, which also checks that it is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .localop import ElementCache, quadratic_forms, scatter_blocks
from .mesh import CoarseMesh, layer_distances, layer_sets
from .traces import TraceSpace

__all__ = [
    "PatchProblem",
    "PatchProjector",
    "RingProfile",
    "build_flux_energy",
    "face_basis",
    "ring_energies",
    "spd_factor",
]

DENSE_PATCH_LIMIT = 4000     # not read by the package; perfbench's tracer still reads it
# Gram bytes per chunk of patch seeds, which the gather fills at random: 1-2 MB stay in cache and ran
# fastest at nx=16..64.  Position-map rows are touched only near the patch columns: 8 times as much.
PATCH_CHUNK_BYTES = 1 << 20


def spd_factor(matrix: sp.spmatrix, what: str) -> spla.SuperLU:
    """Sparse ``P A P^T = L D L^T`` factor of ``A = (matrix + matrix^T) / 2``, which must be positive definite.

    A Gram ``X^T S X`` is passed as assembled, symmetric only to rounding.
    The symmetric ordering and the diagonal-only pivoting make the LU factor
    an ``L D L^T`` one, so ``A`` is SPD exactly when no pivot left the
    diagonal and every pivot is positive; otherwise an ``AssertionError``
    names ``what``.
    """
    try:
        lu = spla.splu(sp.csc_matrix(0.5 * (matrix + matrix.T)), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise AssertionError(f"{what} is not SPD: {exc}") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise AssertionError(f"{what} is not SPD")
    return lu


def build_flux_energy(space: TraceSpace, caches: ElementCache) -> sp.csr_matrix:
    """Global flux-energy matrix in stored coordinates.

    ``mu . (S nu)`` equals the energy pairing of the two trace vectors,
    assembled by scattering each element's flux-energy block with its
    element-side signs.
    """
    ids, signs = space.part.boundary_face_ids, space.part.boundary_signs
    signed = (caches.flux_energy * signs[:, None, :]) * signs[:, :, None]
    return scatter_blocks(signed, ids, ids, (space.n_fine,) * 2)


def face_basis(space: TraceSpace, vectors: np.ndarray, keep: np.ndarray) -> sp.csc_matrix:
    """Basis whose face-f columns are the ``keep[f]`` columns of ``zero_mean @ vectors[f]``.

    ``vectors`` is ``(NF, m, m)`` in zero-mean coordinates and ``keep`` an
    ``(NF, m)`` mask.  Face f's fine faces are the contiguous stored rows
    ``f nfs ... (f + 1) nfs - 1``, so the CSC arrays are written directly;
    zero values are not stored.  The columns come face by face, and no
    column is zero, so a column's face is its first stored row ``// nfs``.
    """
    stored = space.zero_mean @ vectors                       # (NF, nfs, m)
    nf, nfs, m = stored.shape
    rows = np.arange(nf * nfs, dtype=np.int32).reshape(nf, 1, nfs)
    data = stored.swapaxes(1, 2)[keep]                       # (M, nfs), one row per kept column
    rows = np.broadcast_to(rows, (nf, m, nfs))[keep]
    indptr = np.arange(data.shape[0] + 1, dtype=np.int32) * nfs
    matrix = sp.csc_matrix((data.ravel(), rows.ravel(), indptr), shape=(space.n_fine, data.shape[0]))
    matrix.eliminate_zeros()
    return matrix


def _padded_rows(matrix: sp.csr_matrix, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Column indices and values of each row of ``matrix``, padded to its widest row with column ``pad`` and 0."""
    counts = np.diff(matrix.indptr)
    stored = np.arange(counts.max(initial=0)) < counts[:, None]
    cols = np.full(stored.shape, pad, np.int32)
    vals = np.zeros(stored.shape)
    cols[stored], vals[stored] = matrix.indices, matrix.data
    return cols, vals


def _not_spd(seed: tuple[str, int], j: int, pivot: int) -> AssertionError:
    return AssertionError(f"patch Gram of seed {seed}, j={j} is not SPD (pivot {pivot})")


@dataclass
class PatchProblem:
    """Factorized Galerkin problem on the faces of one layer neighborhood.

    ``dof_indices`` are the basis columns of ``active_faces``; ``factor``
    factors the patch Gram on them.
    """

    active_faces: np.ndarray
    dof_indices: np.ndarray
    factor: object = field(repr=False)

    @property
    def dim(self) -> int:
        return self.dof_indices.shape[0]


class PatchProjector:
    """Flux-energy Galerkin solver over a face basis, global and localized.

    The global problem is the patch of all faces, factored once by
    :func:`spd_factor`.  A localized projection with ``j`` layers is stored
    as two sparse response matrices (:meth:`responses`), one per seed kind,
    built on first use by one pass over all seeds, which reads the basis
    Gram only through ``sparse_gram`` (symmetrized ``W^T S W``, CSR with
    sorted indices).  Every application lifts basis coefficients to stored
    values with ``basis``, a basis built by :func:`face_basis`.
    """

    def __init__(self, space: TraceSpace, energy: sp.csr_matrix, basis: sp.csc_matrix):
        self.space = space
        self.energy = energy
        self.basis = basis
        m, nf, nfs = basis.shape[1], space.n_coarse_faces, space.part.faces_per_coarse
        # Seed right-hand sides, one column block per seed: W^T S on a face's
        # fine faces, W^T on an element's boundary rows in the order of the
        # element functionals (traces.element_functionals).
        flux_rhs = (basis.T @ energy).tocsc()
        flux_rhs.sum_duplicates()
        gram = flux_rhs @ basis
        self.sparse_gram = sp.csr_matrix(0.5 * (gram + gram.T))
        self.sparse_gram.sum_duplicates()
        load_rhs = basis.T.tocsc()[:, space.part.boundary_face_ids.ravel()]
        load_rhs.sum_duplicates()
        self._rhs_columns = {"face": (nfs, *_padded_rows(flux_rhs.T, m)),
                             "element": (3 * nfs, *_padded_rows(load_rhs.T, m))}
        self._col_face = basis.indices[basis.indptr[:-1]] // nfs
        # The incident elements of each face, the left one twice on the domain boundary.
        self._face_right = np.where(space.mesh.face_right >= 0, space.mesh.face_right, space.mesh.face_left)
        self._face_columns = sp.csr_matrix(
            (np.ones(m), np.arange(m), np.searchsorted(self._col_face, np.arange(nf + 1))), (nf, m)
        )
        self._responses: dict[int, tuple[sp.csc_matrix, sp.csc_matrix]] = {}

    @cached_property
    def gram(self) -> np.ndarray:
        """Dense ``M x M`` view of ``sparse_gram``, built on first read: only perfbench's tracer reads it."""
        return self.sparse_gram.toarray()

    @cached_property
    def _gram_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Padded rows of ``sparse_gram`` (:func:`_padded_rows`), built by the first patch pass."""
        return _padded_rows(self.sparse_gram, self.basis.shape[1])

    # -- global (reference) solves ------------------------------------------------

    @cached_property
    def _global_factor(self) -> spla.SuperLU:
        return spd_factor(self.sparse_gram, f"global energy Gram matrix ({self.basis.shape[1]} columns)")

    def project_functional(self, r: np.ndarray) -> np.ndarray:
        """Global solve: subspace element whose flux energy matches ``r``."""
        return self.basis @ self._global_factor.solve(self.basis.T @ r)

    # -- patch problems -------------------------------------------------------------

    def _patch_columns(self, layers: sp.csr_matrix) -> sp.csr_matrix:
        """0/1 row x basis-column matrix of the faces with all incident elements in that row of ``layers``."""
        inside = layers[:, self.space.mesh.face_left].multiply(layers[:, self._face_right])
        columns = inside @ self._face_columns
        columns.sort_indices()
        return columns

    def active_faces(self, elems: np.ndarray) -> np.ndarray:
        """Faces with basis columns all of whose incident elements lie inside the patch."""
        layer = sp.csr_matrix((np.ones(len(elems)), elems, [0, len(elems)]), (1, self.space.n_elements))
        return np.unique(self._col_face[self._patch_columns(layer).indices])

    def _seed_columns(self, kind: str, seeds: np.ndarray, j: int) -> sp.csr_matrix:
        """Sorted basis columns of the ``j``-layer patch of each seed of one kind, one CSR row per seed."""
        if j < 1:
            raise ValueError("patch layer count must be >= 1")
        return self._patch_columns(layer_sets(self.space.mesh, kind, seeds, j))

    def _patch_blocks(self, kind: str, seeds: np.ndarray, columns: sp.csr_matrix, data: np.ndarray):
        """Patch Grams and right-hand sides of seeds of one kind, gathered in chunks of consecutive seeds.

        ``columns`` is :meth:`_seed_columns` of ``seeds``; ``data`` holds ``width`` zeros per patch
        column.  Yields ``(k, gram, rhs)`` for each seed ``seeds[k]`` with d > 0 patch columns: its
        ``(d, d)`` Gram (None if the patch holds every column) and the Fortran-ordered ``(d, width)``
        view of ``data`` holding its right-hand sides, so ``data`` is seed-major and column-major
        within a seed.  A chunk holds at most ``PATCH_CHUNK_BYTES`` of Gram slots and 8 times that of
        position-map rows (basis column -> patch position, -1 outside); both are allocated once, so
        a Gram is valid until the next chunk.
        """
        m, (gram_cols, gram_vals) = self.basis.shape[1], self._gram_rows
        width, rhs_cols, rhs_vals = self._rhs_columns[kind]
        indptr = columns.indptr.astype(np.int64)
        dims, starts = np.diff(indptr), indptr[:-1]
        slot = np.where(dims < m, dims * dims, 0)
        gram_chunk = np.cumsum(8 * slot) // PATCH_CHUNK_BYTES
        map_chunk = np.arange(seeds.size) // max(1, 8 * PATCH_CHUNK_BYTES // (4 * (m + 1)))
        chunk_starts = np.flatnonzero(np.diff(gram_chunk, prepend=-1) | np.diff(map_chunk, prepend=-1))
        bounds = np.append(chunk_starts, seeds.size)
        slab = np.empty(np.add.reduceat(slot, chunk_starts).max())
        at = np.full((np.diff(bounds).max(), m + 1), -1, np.int32)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            owner = np.repeat(np.arange(hi - lo), dims[lo:hi])      # chunk seed of each patch column
            dofs = columns.indices[starts[lo] : indptr[hi]]
            place = np.arange(dofs.size) - (starts[lo:hi] - starts[lo])[owner]
            at[owner, dofs] = place
            offset, d_of = np.cumsum(slot[lo:hi]) - slot[lo:hi], dims[lo:hi][owner]
            loc = at[owner[:, None], gram_cols[dofs]]
            loc[d_of == m] = -1                                     # saturated seeds gather no Gram
            slab[: offset[-1] + slot[hi - 1]] = 0.0
            slab[((offset[owner] + place * d_of)[:, None] + loc)[loc >= 0]] = gram_vals[dofs][loc >= 0]
            seed_cols = seeds[lo:hi, None] * width + np.arange(width)
            loc = at[np.arange(hi - lo)[:, None, None], rhs_cols[seed_cols]]
            first = width * starts[lo:hi, None] + np.arange(width) * dims[lo:hi, None]
            data[(first[:, :, None] + loc)[loc >= 0]] = rhs_vals[seed_cols][loc >= 0]
            for k in range(lo, hi):
                d, o = dims[k], offset[k - lo]
                if d:
                    rhs = data[width * starts[k] : width * (starts[k] + d)].reshape(width, d).T
                    yield k, slab[o : o + d * d].reshape(d, d) if d < m else None, rhs
            at[owner, dofs] = -1

    def patch_problem(self, seed: tuple[str, int], j: int) -> PatchProblem:
        """Factorized ``j``-layer patch problem of one seed: the one-seed call of the patch kernel."""
        kind, seeds = seed[0], np.array([seed[1]])
        columns = self._seed_columns(kind, seeds, j)
        data = np.zeros(columns.nnz * self._rhs_columns[kind][0])
        factor = (np.zeros((0, 0)), True)   # an empty patch
        for _, gram, _ in self._patch_blocks(kind, seeds, columns, data):
            if gram is None:
                factor = self._global_factor
            else:
                chol, info = scipy.linalg.lapack.dpotrf(gram, lower=1)
                if info:
                    raise _not_spd(seed, j, info - 1)
                factor = (chol, True)
        return PatchProblem(np.unique(self._col_face[columns.indices]), columns.indices, factor)

    def responses(self, j: int) -> tuple[sp.csc_matrix, sp.csc_matrix]:
        """Face- and element-seed response matrices of the ``j``-layer projections.

        The face matrix is ``(M, n_fine)`` and takes stored trace values;
        the element matrix is ``(M, ne * n_bf)`` and takes the flattened
        element functionals.  The column block of seed s holds its patch
        solution, in basis coefficients, for each unit input on its rows.
        """
        if j not in self._responses:
            self._responses[j] = (self._response_matrix("face", j), self._response_matrix("element", j))
        return self._responses[j]

    def _response_matrix(self, kind: str, j: int) -> sp.csc_matrix:
        """Response matrix of one seed kind: one pass of the patch kernel, solved in place in its CSC data."""
        seeds = np.arange(self.space.n_coarse_faces if kind == "face" else self.space.n_elements)
        columns, width = self._seed_columns(kind, seeds, j), self._rhs_columns[kind][0]
        data, saturated = np.zeros(width * columns.nnz), []
        for k, gram, rhs in self._patch_blocks(kind, seeds, columns, data):
            # posv factors and solves in place; a Gram is symmetric, so its transpose is Fortran-ordered.
            if gram is None:
                saturated.append(rhs)
            elif info := scipy.linalg.lapack.dposv(gram.T, rhs, lower=1, overwrite_a=1, overwrite_b=1)[2]:
                raise _not_spd((kind, k), j, info - 1)
        if saturated:  # patches holding every basis column: one solve of the global problem
            solved = self._global_factor.solve(np.hstack(saturated))
            for rhs, x in zip(saturated, np.hsplit(solved, len(saturated))):
                rhs[...] = x
        repeated = columns[np.repeat(seeds, width)]
        return sp.csc_matrix((data, repeated.indices, repeated.indptr), (self.basis.shape[1], seeds.size * width))

    # -- localized operator applications --------------------------------------------

    def apply_PjT(self, lam: np.ndarray, j: int) -> np.ndarray:
        """Face-seeded localization applied to the potential of ``lam``.

        The sum over coarse faces of the patch solutions for the
        multiplier's restriction to each face.  The global projection is
        ``project_functional(energy @ lam)``.
        """
        return self.apply_PjT_columns(lam[:, None], j)[:, 0]

    def apply_PjT_columns(self, columns: np.ndarray | sp.spmatrix, j: int) -> np.ndarray | sp.spmatrix:
        """Vectorized :meth:`apply_PjT` over columns; sparse columns stay sparse."""
        return self.basis @ (self.responses(j)[0] @ columns)

    def apply_Pj(self, functionals: np.ndarray, j: int) -> np.ndarray:
        """Element-seeded localization of a broken function.

        ``functionals[k]`` is the stored boundary functional of the function
        restricted to element k on its boundary rows
        (:func:`traces.element_functionals`, ``(ne, n_bf)``).  Used to
        localize the load potential; the global projection is
        ``project_functional(space.sum_element_rows(functionals))``.
        """
        return self.basis @ (self.responses(j)[1] @ functionals.ravel())


# ---------------------------------------------------------------------------
# Ring energies for decay studies.
# ---------------------------------------------------------------------------


@dataclass
class RingProfile:
    """Per-ring flux energies of a trace potential around a seed.

    ``energies[0]`` covers the first layer around the seed; ring r covers
    the elements added by the (r+1)-th layer.  The fitted ratio is the
    geometric per-ring factor from a least-squares line through the log
    energies of rings >= 1, ignoring rings below 1e-14 of the total.
    """

    energies: np.ndarray
    ratio: float
    total: float

    def cumulative_fraction(self) -> np.ndarray:
        if self.total == 0.0:
            return np.zeros_like(self.energies)
        return np.cumsum(self.energies) / self.total

    def tail_fraction(self, after_ring: int) -> float:
        """Fraction of the total energy beyond the given ring index."""
        if self.total == 0.0:
            return 0.0
        return float(self.energies[after_ring + 1 :].sum() / self.total)

    @property
    def worst_step(self) -> float:
        """Largest consecutive ring ratio e_{r+1}/e_r over rings r >= 1 above 1e-13 of the total.

        Flat plateaus report ~1 even when a least-squares line through the
        profile would hide them.
        """
        e, cut = self.energies, 1e-13 * self.total
        steps = [e[r + 1] / e[r] for r in range(1, len(e) - 1) if e[r] > cut and e[r + 1] > cut]
        return float(max(steps, default=0.0))


def _fit_ratio(energies: np.ndarray, total: float) -> float:
    rings = np.flatnonzero((energies > 1e-14 * total) & (energies > 0.0))
    rings = rings[rings >= 1]
    return float(np.exp(np.polyfit(rings, np.log(energies[rings]), 1)[0])) if rings.size >= 2 else 0.0


def ring_energies(mesh: CoarseMesh, caches: ElementCache, mu: np.ndarray, seed: tuple[str, int]) -> RingProfile:
    """Broken energy of the potential of ``mu`` (stored values) split by layer rings."""
    per_element = quadratic_forms(caches.flux_energy, caches.geom.side_values(mu))
    total = float(per_element.sum())
    energies = np.bincount(layer_distances(mesh, seed), weights=per_element)
    return RingProfile(energies, _fit_ratio(energies, total), total)
