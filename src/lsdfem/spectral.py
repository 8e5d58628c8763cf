"""Generalized eigenproblems: face enrichment and load reduction.

Two families share one dense symmetric-definite kernel:

* per face, the pencil of the full flux energy against the soft-extension
  (Schur) energy; eigenvalues are >= 1 and the threshold split decides
  which modes stay in the upscaled problem,
* per element, the Neumann pencil of the A-stiffness against the
  weighted mass; the leading eigenfunctions carry the load space.

Everything is dense by design: face problems have at most a few dozen
unknowns and element problems a few hundred at the scales this library
targets, and robustness beats scalability there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .localop import ElementCache, face_blocks
from .traces import TraceSpace

__all__ = [
    "NotSPDError",
    "FaceSpectrum",
    "ElementSpectrum",
    "gensym_eig",
    "face_spectrum",
    "all_face_spectra",
    "element_spectrum",
    "all_element_spectra",
    "project_rhs",
    "ttilde_from_spectrum",
    "spectrum_dump",
]


class NotSPDError(ValueError):
    """The mass-side matrix of an eigenproblem is not positive definite."""

    def __init__(self, pivot: int, context: str = ""):
        self.pivot = pivot
        msg = f"matrix is not SPD: Cholesky failed at pivot {pivot}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


def gensym_eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of the symmetric-definite pencil (a, b).

    Reduces to a standard symmetric problem through the Cholesky factor of
    ``b``.  Eigenvalues come back ascending and the eigenvectors are
    b-orthonormal.  Raises :class:`NotSPDError` with the failing pivot
    index when ``b`` is not positive definite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    c, info = lapack.dpotrf(b, lower=1)
    if info != 0:
        raise NotSPDError(int(info) - 1)
    # C = L^{-1} A L^{-T}
    tmp = scipy.linalg.solve_triangular(c, a, lower=True)
    reduced = scipy.linalg.solve_triangular(c, tmp.T, lower=True).T
    w, y = scipy.linalg.eigh(0.5 * (reduced + reduced.T))
    v = scipy.linalg.solve_triangular(c, y, lower=True, trans="T")
    return w, v


@dataclass
class FaceSpectrum:
    """Eigenpairs of one face pencil and their threshold split.

    ``vectors`` are expressed in the zero-average basis of the face and
    are orthonormal with respect to the summed Schur energy.  Modes with
    eigenvalue >= the threshold go to the retained (``pi``) block, the
    rest form the localizable (``delta``) block; ties retain.
    """

    face: int
    alphas: np.ndarray          # ascending
    vectors: np.ndarray         # (m, k) columns in zero-mean coordinates
    alpha_stab: float
    n_delta: int

    @property
    def n_pi(self) -> int:
        return self.alphas.shape[0] - self.n_delta

    @property
    def empty(self) -> bool:
        return self.alphas.shape[0] == 0

    def delta_vectors(self) -> np.ndarray:
        return self.vectors[:, : self.n_delta]

    def pi_vectors(self) -> np.ndarray:
        return self.vectors[:, self.n_delta :]

    def stored_delta(self, space: TraceSpace) -> np.ndarray:
        """Delta block in stored fine-face coordinates of this face."""
        return space.zero_mean @ self.delta_vectors()

    def stored_pi(self, space: TraceSpace) -> np.ndarray:
        return space.zero_mean @ self.pi_vectors()


def face_spectrum(
    space: TraceSpace,
    caches: list[ElementCache],
    face: int,
    alpha_stab: float,
) -> FaceSpectrum:
    """Solve the face pencil: full energy against soft-extension energy.

    Interior faces sum the two incident elements' blocks; boundary faces
    use the single incident element.  A face with a single fine sub-face
    has no zero-average modes and yields an empty spectrum.
    """
    if alpha_stab < 1.0:
        raise ValueError("alpha_stab must be >= 1")
    m = space.zero_mean.shape[1]
    if m == 0:
        return FaceSpectrum(face, np.zeros(0), np.zeros((0, 0)), alpha_stab, 0)
    elems = space.mesh.face_elements(face)
    t_sum = np.zeros((m, m))
    that_sum = np.zeros((m, m))
    for e in elems:
        blocks = face_blocks(caches[e], space, face)
        t_sum += blocks.t_ff
        that_sum += blocks.t_hat
    try:
        alphas, vectors = gensym_eig(t_sum, that_sum)
    except NotSPDError as exc:
        raise NotSPDError(exc.pivot, f"soft-extension energy of face {face}") from exc
    n_delta = int(np.searchsorted(alphas, alpha_stab, side="left"))
    return FaceSpectrum(face, alphas, vectors, alpha_stab, n_delta)


def all_face_spectra(
    space: TraceSpace, caches: list[ElementCache], alpha_stab: float
) -> list[FaceSpectrum]:
    return [face_spectrum(space, caches, f, alpha_stab) for f in range(space.n_coarse_faces)]


@dataclass
class ElementSpectrum:
    """Neumann pencil of one element and the load-space cut.

    ``sigma[0]`` is zero with the constant eigenfunction; eigenvectors are
    orthogonal in both the A-energy and the weighted mass.  ``j_count`` is
    the smallest J (at least 1, so constants always survive) with
    1/sigma_{J+1} <= c_j * h_target**2.
    """

    elem: int
    sigma: np.ndarray
    vectors: np.ndarray
    j_count: int
    h_target: float
    c_j: float


def element_spectrum(cache: ElementCache, h_target: float, c_j: float = 1.0) -> ElementSpectrum:
    if h_target <= 0.0 or c_j <= 0.0:
        raise ValueError("h_target and c_j must be positive")
    try:
        sigma, vectors = gensym_eig(cache.stiffness, cache.mass)
    except NotSPDError as exc:
        raise NotSPDError(exc.pivot, f"weighted mass of element {cache.elem}") from exc
    sigma = np.maximum(sigma, 0.0)
    threshold = 1.0 / (c_j * h_target**2)
    above = np.nonzero(sigma[1:] >= threshold)[0]
    j_count = int(above[0]) + 1 if above.size else sigma.shape[0]
    return ElementSpectrum(cache.elem, sigma, vectors, j_count, h_target, c_j)


def all_element_spectra(
    caches: list[ElementCache], h_target: float, c_j: float = 1.0
) -> list[ElementSpectrum]:
    return [element_spectrum(c, h_target, c_j) for c in caches]


def project_rhs(
    spectra: list[ElementSpectrum],
    caches: list[ElementCache],
    g: list[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Elementwise weighted-L2 projection of the load onto the kept modes.

    Returns the projected nodal load per element and the weighted-L2 norm
    of the dropped remainder per element.
    """
    projected = []
    remainders = np.empty(len(spectra))
    for spec, cache, g_tau in zip(spectra, caches, g):
        coeffs = spec.vectors.T @ (cache.mass @ g_tau)
        keep = coeffs[: spec.j_count]
        projected.append(spec.vectors[:, : spec.j_count] @ keep)
        total = float(g_tau @ (cache.mass @ g_tau))
        remainders[spec.elem] = max(total - float(keep @ keep), 0.0) ** 0.5
    return projected, remainders


def ttilde_from_spectrum(spec: ElementSpectrum, cache: ElementCache, g_tau: np.ndarray) -> np.ndarray:
    """Load solve through the eigenbasis: each mode divides by its eigenvalue.

    Valid for loads inside the spectral space (the constant mode maps to
    zero); used as the pre-processing shortcut when the load has been
    projected.
    """
    coeffs = spec.vectors.T @ (cache.mass @ g_tau)
    inv = np.zeros_like(spec.sigma)
    inv[1:] = 1.0 / spec.sigma[1:]
    return spec.vectors @ (coeffs * inv)


def spectrum_dump(spectra: list[FaceSpectrum], path: str | None = None) -> dict:
    """JSON-able summary: per face, the eigenvalue list and split index."""
    payload = {
        "faces": [
            {
                "face": s.face,
                "alphas": s.alphas.tolist(),
                "n_delta": s.n_delta,
                "n_pi": s.n_pi,
                "alpha_stab": s.alpha_stab,
            }
            for s in spectra
        ]
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    return payload
