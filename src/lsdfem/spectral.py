"""Generalized eigenproblems: face enrichment and load reduction.

Two families of dense symmetric-definite pencils:

* per face, the pencil of the full flux energy against the soft-extension
  (Schur) energy; eigenvalues are >= 1 and the threshold split decides
  which modes stay in the upscaled problem,
* per element, the Neumann pencil of the A-stiffness against the
  weighted mass; the leading eigenfunctions carry the load space.

Everything is dense by design: face problems have at most a few dozen
unknowns and element problems a few hundred at the scales this library
targets, and robustness beats scalability there.  All faces (and all
elements) share one pencil size, so each family is kept as one stack
(the element eigenvalues come from one LAPACK call per distinct element,
which beats the stacked reduction when no eigenvectors are wanted):
:class:`FaceSpectrum` and :class:`ElementSpectrum` carry
a leading face or element axis, and indexing either gives one item's
view (:class:`~lsdfem.mesh.Stacked`).  Empty pencils (a face with a
single fine sub-face has no zero-average modes) run through the same
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .localop import ElementCache, NotSPDError, batched_cholesky, edge_blocks, solve_lower, twins
from .mesh import Stacked
from .traces import TraceSpace

__all__ = [
    "NotSPDError",
    "FaceSpectrum",
    "ElementSpectrum",
    "gensym_eig",
    "all_face_spectra",
    "all_element_spectra",
    "project_rhs",
]


def gensym_eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectra of the symmetric-definite pencils (a, b).

    ``a`` and ``b`` are ``(n, n)`` or stacks ``(..., n, n)``.  Each pencil
    is reduced to a standard symmetric problem through the Cholesky factor
    of ``b``.  Eigenvalues come back ascending and the eigenvectors are
    b-orthonormal.  Raises :class:`NotSPDError` with the failing pivot
    index (and, for a stack, the first failing item of the flattened
    stack) when ``b`` is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = batched_cholesky(b)
    # One triangular inverse per pencil, then C = L^{-1} A L^{-T} and V = L^{-T} Y
    # as batched products.
    li = solve_lower(c, np.eye(c.shape[-1]))
    reduced = li @ a @ li.swapaxes(-1, -2)
    w, y = np.linalg.eigh(0.5 * (reduced + reduced.swapaxes(-1, -2)))
    return w, li.swapaxes(-1, -2) @ y


@dataclass
class FaceSpectrum(Stacked):
    """Eigenpairs of the face pencils and their threshold split, stacked.

    The fields carry a leading face axis; ``spectra[f]`` is face f's view
    (``n_delta`` an int) and iteration yields the views in face order.
    ``vectors`` are expressed in the zero-average basis of each face and
    are orthonormal with respect to the summed Schur energy.
    Modes with eigenvalue >= the threshold go to the retained (``pi``)
    block, the rest form the localizable (``delta``) block; ties retain.
    Eigenvalues ascend, so a face's delta modes are its first ``n_delta``
    columns.
    """

    STACKED = ("alphas", "vectors", "n_delta")

    alphas: np.ndarray          # (nf, m) ascending
    vectors: np.ndarray         # (nf, m, m) columns in zero-mean coordinates
    n_delta: np.ndarray | int   # (nf,)

    @property
    def n_pi(self) -> np.ndarray | int:
        return self.alphas.shape[-1] - self.n_delta


def all_face_spectra(space: TraceSpace, caches: ElementCache, alpha_stab: float) -> FaceSpectrum:
    """Solve every face pencil: full energy against soft-extension energy, as one stack.

    The edge blocks of all elements are summed per face, so interior faces
    sum their two incident elements' blocks and boundary faces use the
    single incident element; then one stacked :func:`gensym_eig` solves
    them.  A face with a single fine sub-face has no zero-average modes
    and an empty pencil.  ``spectra[f]`` is face f's view.
    """
    if alpha_stab < 1.0:
        raise ValueError("alpha_stab must be >= 1")
    mesh = space.mesh
    m = space.zero_mean.shape[1]
    t_ff, t_hat = edge_blocks(space, caches.flux_energy)
    sums = np.zeros((mesh.n_faces, 2, m, m))   # per face: full energy, soft-extension energy
    np.add.at(sums, mesh.element_faces, np.stack((t_ff, t_hat), axis=2))
    try:
        alphas, vectors = gensym_eig(sums[:, 0], sums[:, 1])
    except NotSPDError as exc:
        raise NotSPDError(exc.pivot, f"soft-extension energy of face {exc.item}") from exc
    return FaceSpectrum(alphas, vectors, (alphas < alpha_stab).sum(axis=1))


@dataclass
class ElementSpectrum(Stacked):
    """Neumann pencils of every element and the load-space cut, stacked.

    The fields carry a leading element axis; ``spectra[t]`` is element t's
    view (``j_count`` an int) and iteration yields the views in
    element order.  ``sigma`` holds every eigenvalue, ``sigma[..., 0]``
    zero with the constant eigenfunction.  ``j_count`` is the smallest J
    (at least 1, so constants always survive) with
    1/sigma_{J+1} <= c_j * h_target**2.  ``vectors`` holds the kept modes
    only: an element's first ``j_count`` columns are M-orthonormal
    eigenvectors (also orthogonal in the A-energy), and its columns past
    them, up to the stack's largest ``j_count``, are zero.
    """

    STACKED = ("sigma", "vectors", "j_count")

    sigma: np.ndarray            # (ne, nn) ascending
    vectors: np.ndarray          # (ne, nn, j_max) kept eigenvectors as columns, zero-padded
    j_count: np.ndarray | int    # (ne,)

    @property
    def sigma_next(self) -> np.ndarray:
        """First dropped eigenvalue sigma_{J+1}; infinite where every mode is kept."""
        j = np.asarray(self.j_count)
        padded = np.append(self.sigma, np.full(j.shape + (1,), np.inf), axis=-1)
        return np.take_along_axis(padded, j[..., None], axis=-1)[..., 0]


def all_element_spectra(caches: ElementCache, h_target: float, c_j: float = 1.0) -> ElementSpectrum:
    """Neumann pencils of all elements: every eigenvalue, kept modes only.

    The eigenvalues come from one LAPACK ``dsygvd`` per distinct pencil
    (:func:`~lsdfem.localop.twins`), without eigenvectors.  An element that
    keeps one mode keeps the M-normalized constant, exact because constants
    span the stiffness kernel; the elements that keep more take their kept
    columns from one stacked :func:`gensym_eig` of their pencils alone.
    """
    if h_target <= 0.0 or c_j <= 0.0:
        raise ValueError("h_target and c_j must be positive")
    stiffness, mass = caches.stiffness, caches.mass
    ids, where = np.unique(twins(stiffness, mass), return_inverse=True)
    nn = stiffness.shape[1]
    sigma = np.empty((ids.size, nn))
    for i, t in enumerate(ids.tolist()):
        # Symmetric matrices: the transposes are copy-free Fortran-ordered views.
        sigma[i], _, info = lapack.dsygvd(stiffness[t].T, mass[t].T, jobz="N")
        if info > nn:
            raise NotSPDError(info - nn - 1, f"weighted mass of element {t}", t)
        if info:
            raise np.linalg.LinAlgError(f"eigenvalues of element {t} did not converge")
    sigma = np.maximum(sigma, 0.0)
    above = sigma[:, 1:] >= 1.0 / (c_j * h_target**2)
    j_count = np.where(above.any(axis=1), above.argmax(axis=1) + 1, nn)
    j_max = int(j_count.max(initial=0))
    vectors = np.zeros((ids.size, nn, j_max))
    one = j_count == 1
    vectors[one, :, 0] = 1.0 / np.sqrt(mass[ids[one]].sum(axis=(1, 2)))[:, None]
    many = ~one
    kept = gensym_eig(stiffness[ids[many]], mass[ids[many]])[1][..., :j_max]
    vectors[many] = kept * (np.arange(j_max) < j_count[many, None])[:, None, :]
    return ElementSpectrum(sigma[where], vectors[where], j_count[where])


def project_rhs(
    spectra: ElementSpectrum,
    caches: ElementCache,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise weighted-L2 projection of the load onto the kept modes.

    ``g`` is the nodal load per element, ``(ne, nn)``.  Returns the
    projected load ``p``, the weighted-L2 norm of the dropped remainder per
    element and the element load ``M p`` ``(ne, nn)``, formed as
    ``M g - M (g - p)`` from the two mass products the first two need.  The
    remainder norm is taken of the difference itself, not as
    ``|g|^2 - |kept|^2``, which cancels to rounding noise when little is
    dropped.  The zero columns of ``spectra.vectors`` add nothing.
    """
    g = np.asarray(g, dtype=float)
    kept = spectra.vectors                                         # (ne, nn, j_max)
    mass_g = caches.mass @ g[..., None]
    coeffs = (mass_g.swapaxes(-1, -2) @ kept)[:, 0]
    projected = (kept @ coeffs[..., None])[..., 0]
    dropped = g - projected
    mass_dropped = caches.mass @ dropped[..., None]
    norms = np.sqrt(np.maximum((dropped[..., None, :] @ mass_dropped)[..., 0, 0], 0.0))
    return projected, norms, (mass_g - mass_dropped)[..., 0]
