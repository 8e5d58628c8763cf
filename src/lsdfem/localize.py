"""Galerkin projections in the flux energy, global and patch-localized.

All of these solve the same kind of problem: find a multiplier in a
face-spanned subspace whose flux energy matches a given functional.  The
subspace is described by per-face basis blocks (the full zero-average
block, or the localizable part of the face spectrum), the energy matrix
is assembled once from the cached element flux-energy blocks, and patch
problems are plain principal submatrices of it.  No interior problem is
ever re-solved here.

Patch factorizations are cached by their active face set, so saturated
patches (and repeated seeds) share one factorization.  Accumulation of
overlapping patch contributions runs in deterministic seed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .localop import ElementCache, quadratic_forms
from .mesh import CoarseMesh, element_layers, layer_distances
from .spectral import FaceSpectrum
from .traces import TraceSpace, TraceVector

__all__ = [
    "FaceBasis",
    "PatchProblem",
    "PatchProjector",
    "RingProfile",
    "build_flux_energy",
    "plain_basis",
    "delta_basis",
    "pi_basis",
    "ring_energies",
]

DENSE_PATCH_LIMIT = 4000


def build_flux_energy(space: TraceSpace, caches: ElementCache) -> sp.csr_matrix:
    """Global flux-energy matrix in stored coordinates.

    ``mu . (S nu)`` equals the energy pairing of the two trace vectors,
    assembled by scattering each element's flux-energy block with its
    element-side signs.
    """
    ids, signs = space.part.boundary_face_ids, space.part.boundary_signs
    signed = (caches.flux_energy * signs[:, None, :]) * signs[:, :, None]
    rows = np.broadcast_to(ids[:, :, None], signed.shape).ravel()
    cols = np.broadcast_to(ids[:, None, :], signed.shape).ravel()
    mat = sp.csr_matrix((signed.ravel(), (rows, cols)), shape=(space.n_fine,) * 2)
    mat.sum_duplicates()
    return mat


@dataclass
class FaceBasis:
    """Per-coarse-face basis blocks of a face-spanned multiplier subspace."""

    space: TraceSpace
    label: str
    blocks: list[np.ndarray]        # per face: (nfs, m_F) in stored coordinates
    col_offsets: np.ndarray         # (NF + 1,)
    matrix: sp.csc_matrix           # (n_fine, M) all blocks side by side

    @property
    def dim(self) -> int:
        return int(self.col_offsets[-1])


def _assemble_basis(space: TraceSpace, label: str, blocks: list[np.ndarray]) -> FaceBasis:
    nfs = space.part.faces_per_coarse
    offsets = np.zeros(space.n_coarse_faces + 1, dtype=int)
    rows, cols, vals = [], [], []
    for f, blk in enumerate(blocks):
        offsets[f + 1] = offsets[f] + blk.shape[1]
        if blk.shape[1] == 0:
            continue
        base_row = f * nfs
        r = np.repeat(np.arange(base_row, base_row + nfs), blk.shape[1])
        c = np.tile(np.arange(offsets[f], offsets[f + 1]), nfs)
        rows.append(r)
        cols.append(c)
        vals.append(blk.ravel())
    if rows:
        matrix = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(space.n_fine, int(offsets[-1])),
        )
    else:
        matrix = sp.csc_matrix((space.n_fine, 0))
    return FaceBasis(space, label, blocks, offsets, matrix)


def plain_basis(space: TraceSpace) -> FaceBasis:
    """Zero-average-per-face subspace (the full fine remainder block)."""
    z = space.zero_mean
    return _assemble_basis(space, "plain", [z] * space.n_coarse_faces)


def delta_basis(space: TraceSpace, spectra: list[FaceSpectrum]) -> FaceBasis:
    """Localizable block of the face spectra, per face."""
    blocks = [s.stored_delta(space) for s in spectra]
    return _assemble_basis(space, "delta", blocks)


def pi_basis(space: TraceSpace, spectra: list[FaceSpectrum]) -> FaceBasis:
    """Retained block of the face spectra, per face."""
    blocks = [s.stored_pi(space) for s in spectra]
    return _assemble_basis(space, "pi", blocks)


@dataclass
class PatchProblem:
    """Factorized Galerkin problem on the faces of one layer neighborhood.

    ``slots`` places the patch unknowns in the projector's padded per-face
    coefficient array.  ``response`` is the patch solution for each unit
    input on the seed's own rows (see :meth:`PatchProjector.patch_problem`),
    so applying the patch to seed data is one small product.
    """

    seed: tuple[str, int]
    j: int | None
    active_faces: np.ndarray
    dof_indices: np.ndarray
    factor: object = field(repr=False)
    slots: np.ndarray | None = field(repr=False, default=None)
    response: np.ndarray | None = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.dof_indices.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(rhs.shape)
        if isinstance(self.factor, tuple):
            return scipy.linalg.cho_solve(self.factor, rhs)
        return self.factor.solve(rhs)


def _dense_columns(mat: sp.csc_matrix, cols: np.ndarray) -> np.ndarray:
    """``mat[:, cols]`` as a dense array, read straight from the CSC arrays."""
    starts = mat.indptr[cols]
    lens = mat.indptr[cols + 1] - starts
    entries = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    out = np.zeros((mat.shape[0], cols.size))
    out[mat.indices[entries], np.repeat(np.arange(cols.size), lens)] = mat.data[entries]
    return out


def _factorize(gram: np.ndarray, what: str):
    try:
        if gram.shape[0] <= DENSE_PATCH_LIMIT:
            return scipy.linalg.cho_factor(gram)
        return spla.splu(sp.csc_matrix(gram))
    except (scipy.linalg.LinAlgError, RuntimeError) as exc:
        raise AssertionError(f"{what} is not SPD: {exc}") from exc


class PatchProjector:
    """Flux-energy Galerkin solver over a face basis, global and localized.

    Every solve runs through one kernel: a :class:`PatchProblem` (the global
    problem is the patch of all faces) yields coefficients that are placed
    in a padded ``(NF, m_max)`` per-face coefficient array and lifted to the
    fine faces by one batched product with the padded basis blocks.
    """

    def __init__(self, space: TraceSpace, energy: sp.csr_matrix, basis: FaceBasis):
        self.space = space
        self.energy = energy
        self.basis = basis
        self.gram = (basis.matrix.T @ (energy @ basis.matrix)).toarray()
        self.gram = 0.5 * (self.gram + self.gram.T)
        # Seed right-hand sides: W^T S for flux data on a face, W^T for
        # element load functionals.
        self._flux_rhs = (basis.matrix.T @ energy).tocsc()
        self._load_rhs = basis.matrix.T.tocsc()
        self._flux_rhs.sum_duplicates()
        self._load_rhs.sum_duplicates()

        mesh = space.mesh
        nfs = space.part.faces_per_coarse
        widths = np.diff(basis.col_offsets)
        self._m_max = int(widths.max(initial=0))
        self._nonempty = widths > 0
        self._col_face = np.repeat(np.arange(mesh.n_faces), widths)
        self._slots = self._col_face * self._m_max + (
            np.arange(basis.dim) - basis.col_offsets[self._col_face]
        )
        self._pad_rows = mesh.n_faces * self._m_max
        self._padded = np.zeros((mesh.n_faces, nfs, self._m_max))
        for f, blk in enumerate(basis.blocks):
            self._padded[f, :, : blk.shape[1]] = blk
        # An element seed's rows are its boundary fine faces, in the order of
        # the element functionals (traces.element_functionals).
        self._element_rows = space.part.boundary_face_ids

        self._global: PatchProblem | None = None
        self._problems: dict[tuple[str, int, int], PatchProblem] = {}
        self._patch_cache: dict[bytes, object] = {}

    # -- the kernel -----------------------------------------------------------------

    def _lift(self, pad: np.ndarray) -> np.ndarray:
        """Stored values of padded per-face coefficients: (NF * m_max, k) -> (n_fine, k)."""
        k = pad.shape[1]
        coeffs = pad.reshape(self.space.n_coarse_faces, self._m_max, k)
        return np.matmul(self._padded, coeffs).reshape(self.space.n_fine, k)

    def _solve_lift(self, problem: PatchProblem, rhs_reduced: np.ndarray) -> np.ndarray:
        """Solve ``problem`` for reduced right-hand sides (M, k); stored values (n_fine, k)."""
        pad = np.zeros((self._pad_rows, rhs_reduced.shape[1]))
        pad[problem.slots] = problem.solve(rhs_reduced[problem.dof_indices])
        return self._lift(pad)

    def _seed_sum(self, kind: str, data: np.ndarray, j: int, k: int) -> np.ndarray:
        """Sum of the seeds' patch solutions, stored values (n_fine, k).

        ``data[s]`` is seed s's input on its rows, shape (rows, k).  Seeds
        with zero input are skipped, so no patch is set up for them; the
        others add their response to the padded coefficients in seed order.
        """
        pad = np.zeros((self._pad_rows, k))
        for s, d in enumerate(data):
            if not d.any():
                continue
            problem = self.patch_problem((kind, s), j)
            pad[problem.slots] += problem.response @ d
        return self._lift(pad)

    # -- global (reference) solves ------------------------------------------------

    def _global_problem(self) -> PatchProblem:
        if self._global is None:
            dim = self.basis.dim
            what = f"global {self.basis.label} energy Gram matrix"
            factor = _factorize(self.gram, what) if dim else ()
            faces = np.nonzero(self._nonempty)[0]
            self._global = PatchProblem(
                ("global", 0), None, faces, np.arange(dim), factor, self._slots
            )
        return self._global

    def reduce_functional(self, r: np.ndarray) -> np.ndarray:
        """Test the stored functional vector against every basis column."""
        return self.basis.matrix.T @ r

    def project_functional(self, r: np.ndarray) -> TraceVector:
        """Global solve: subspace element whose flux energy matches ``r``."""
        return self.solve_patch(self._global_problem(), self.reduce_functional(r))

    def project_flux(self, lam: TraceVector) -> TraceVector:
        """Global projection applied to the potential of a multiplier."""
        return self.project_functional(self.energy @ lam.values)

    # -- patch problems -------------------------------------------------------------

    def active_faces(self, elems: np.ndarray) -> np.ndarray:
        """Faces with basis columns all of whose incident elements lie inside the patch."""
        mesh = self.space.mesh
        inside = np.zeros(mesh.n_elements + 1, dtype=bool)
        inside[elems] = True
        inside[-1] = True   # face_right is -1 on the domain boundary
        return np.nonzero(self._nonempty & inside[mesh.face_left] & inside[mesh.face_right])[0]

    def _seed_rows(self, seed: tuple[str, int]) -> np.ndarray:
        """Stored rows a seed's input lives on: its face, or its element's three faces."""
        kind, idx = seed
        if kind == "face":
            nfs = self.space.part.faces_per_coarse
            return np.arange(idx * nfs, (idx + 1) * nfs)
        return self._element_rows[idx]

    def patch_problem(self, seed: tuple[str, int], j: int) -> PatchProblem:
        """Build (or fetch) the factorized patch problem for a seed.

        Problems are kept per ``(seed, j)``; factorizations are shared by
        every seed with the same active face set.  The response block is
        the patch solution for the seed's right-hand-side block
        (``W^T S`` on a face seed's rows, ``W^T`` on an element's).
        """
        if j < 1:
            raise ValueError("patch layer count must be >= 1")
        key = (seed[0], int(seed[1]), j)
        problem = self._problems.get(key)
        if problem is not None:
            return problem
        faces = self.active_faces(element_layers(self.space.mesh, seed, j))
        in_patch = np.zeros(self.space.n_coarse_faces, dtype=bool)
        in_patch[faces] = True
        dofs = np.nonzero(in_patch[self._col_face])[0]
        factor = self._patch_cache.get(faces.tobytes())
        if factor is None:
            what = f"patch Gram matrix for seed {seed}, j={j}"
            factor = _factorize(self.gram[np.ix_(dofs, dofs)], what) if dofs.size else ()
            self._patch_cache[faces.tobytes()] = factor
        problem = PatchProblem(seed, j, faces, dofs, factor, self._slots[dofs])
        rhs = self._flux_rhs if seed[0] == "face" else self._load_rhs
        problem.response = problem.solve(_dense_columns(rhs, self._seed_rows(seed))[dofs])
        self._problems[key] = problem
        return problem

    def solve_patch(self, problem: PatchProblem, rhs_reduced: np.ndarray) -> TraceVector:
        """Galerkin solve on the patch subspace.

        ``rhs_reduced`` is the functional tested against the full basis;
        only its active entries participate.  The output vanishes outside
        the patch faces by construction.
        """
        return self.space.vector(self._solve_lift(problem, rhs_reduced[:, None])[:, 0])

    # -- localized operator applications --------------------------------------------

    def apply_PjT(self, lam: TraceVector, j: int | None) -> TraceVector:
        """Face-seeded localization applied to the potential of ``lam``.

        Splits the multiplier by coarse faces, solves one patch problem per
        face carrying data, and sums.  ``j=None`` is the global reference.
        """
        out = self.apply_PjT_columns(lam.values[:, None], j)
        return self.space.vector(out[:, 0])

    def apply_PjT_columns(self, columns: np.ndarray, j: int | None) -> np.ndarray:
        """Vectorized :meth:`apply_PjT` over the columns of a matrix.

        All columns share each face's patch response, so a face costs one
        small product for every column at once.
        """
        if j is None:
            return self._solve_lift(self._global_problem(), self._flux_rhs @ columns)
        nfs = self.space.part.faces_per_coarse
        per_face = columns.reshape(self.space.n_coarse_faces, nfs, columns.shape[1])
        return self._seed_sum("face", per_face, j, columns.shape[1])

    def apply_Pj(self, functionals: np.ndarray, j: int | None) -> TraceVector:
        """Element-seeded localization of a broken function.

        ``functionals[k]`` is the stored boundary functional of the function
        restricted to element k on its boundary rows
        (:func:`traces.element_functionals`, ``(ne, n_bf)``); elements whose
        row is zero are skipped.  Used to localize the load potential;
        ``j=None`` is the global reference.
        """
        if j is None:
            return self.project_functional(self.space.sum_element_rows(functionals))
        data = functionals[:, :, None]
        return self.space.vector(self._seed_sum("element", data, j, 1)[:, 0])


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

    seed: tuple[str, int]
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

    def step_ratios(self, threshold: float = 1e-13) -> np.ndarray:
        """Consecutive ring ratios e_{r+1}/e_r over significant rings (r >= 1)."""
        out = []
        for r in range(1, len(self.energies) - 1):
            a, b = self.energies[r], self.energies[r + 1]
            if a > threshold * self.total and b > threshold * self.total:
                out.append(b / a)
        return np.array(out)

    @property
    def worst_step(self) -> float:
        """Largest per-ring decay factor: flat plateaus report ~1 even when a
        least-squares line through the profile would hide them."""
        steps = self.step_ratios()
        return float(steps.max()) if steps.size else 0.0

    def to_csv(self, path: str) -> None:
        cum = self.cumulative_fraction()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("seed_kind,seed_index,ring,energy,cumulative_fraction\n")
            for r, (e, c) in enumerate(zip(self.energies, cum)):
                fh.write(f"{self.seed[0]},{self.seed[1]},{r},{float(e)!r},{float(c)!r}\n")


def _fit_ratio(energies: np.ndarray, total: float, start: int = 1) -> float:
    keep = [
        (r, e)
        for r, e in enumerate(energies)
        if r >= start and e > 1e-14 * total and e > 0.0
    ]
    if len(keep) < 2:
        return 0.0
    idx = np.array([r for r, _ in keep], dtype=float)
    log_e = np.log([e for _, e in keep])
    slope = np.polyfit(idx, log_e, 1)[0]
    return float(np.exp(slope))


def ring_energies(
    mesh: CoarseMesh,
    caches: ElementCache,
    mu: TraceVector,
    seed: tuple[str, int],
) -> RingProfile:
    """Broken energy of the potential of ``mu`` split by layer rings."""
    per_element = quadratic_forms(caches.flux_energy, mu.side_values())
    total = float(per_element.sum())
    energies = np.bincount(layer_distances(mesh, seed), weights=per_element)
    return RingProfile(seed, energies, _fit_ratio(energies, total), total)
