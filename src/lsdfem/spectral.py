"""Generalized eigenproblems: face enrichment and load reduction.

Two families share one dense symmetric-definite kernel:

* per face, the pencil of the full flux energy against the soft-extension
  (Schur) energy; eigenvalues are >= 1 and the threshold split decides
  which modes stay in the upscaled problem,
* per element, the Neumann pencil of the A-stiffness against the
  weighted mass; the leading eigenfunctions carry the load space.

Everything is dense by design: face problems have at most a few dozen
unknowns and element problems a few hundred at the scales this library
targets, and robustness beats scalability there.  All faces (and all
elements) share one pencil size, so each family is solved as one stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .localop import ElementCache, batched_cholesky, edge_blocks, solve_lower
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
    """The mass-side matrix of an eigenproblem is not positive definite.

    ``item`` is the failing matrix's index in a stacked call.
    """

    def __init__(self, pivot: int, context: str = "", item: int | None = None):
        self.pivot = pivot
        self.item = item
        msg = f"matrix is not SPD: Cholesky failed at pivot {pivot}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


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
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1]), np.zeros(a.shape)
    c, item, pivot = batched_cholesky(b)
    if c is None:
        raise NotSPDError(pivot, "" if b.ndim == 2 else f"item {item}", item)
    # C = L^{-1} A L^{-T}
    reduced = solve_lower(c, solve_lower(c, a).swapaxes(-1, -2))
    w, y = np.linalg.eigh(0.5 * (reduced + reduced.swapaxes(-1, -2)))
    v = solve_lower(c, y, trans=True)
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
    return _face_spectra(space, caches, np.array([face]), alpha_stab)[0]


def all_face_spectra(
    space: TraceSpace, caches: list[ElementCache], alpha_stab: float
) -> list[FaceSpectrum]:
    return _face_spectra(space, caches, np.arange(space.n_coarse_faces), alpha_stab)


def _face_spectra(
    space: TraceSpace, caches: list[ElementCache], faces: np.ndarray, alpha_stab: float
) -> list[FaceSpectrum]:
    """Pencils of ``faces``: the edge blocks of all incident elements as one
    stack, summed per face, then one stacked :func:`gensym_eig`."""
    if alpha_stab < 1.0:
        raise ValueError("alpha_stab must be >= 1")
    mesh = space.mesh
    m = space.zero_mean.shape[1]
    if m == 0:
        return [FaceSpectrum(int(f), np.zeros(0), np.zeros((0, 0)), alpha_stab, 0) for f in faces]
    elems = np.setdiff1d(np.concatenate((mesh.face_left[faces], mesh.face_right[faces])), -1)
    t_ff, _, _, t_hat = edge_blocks(space, np.stack([caches[e].flux_energy for e in elems]), elems)
    sums = np.zeros((mesh.n_faces, 2, m, m))   # per face: full energy, soft-extension energy
    np.add.at(sums, mesh.element_faces[elems], np.stack((t_ff, t_hat), axis=2))
    try:
        alphas, vectors = gensym_eig(sums[faces, 0], sums[faces, 1])
    except NotSPDError as exc:
        raise NotSPDError(exc.pivot, f"soft-extension energy of face {faces[exc.item]}") from exc
    n_delta = (alphas < alpha_stab).sum(axis=1)
    return [
        FaceSpectrum(int(f), alphas[i], vectors[i], alpha_stab, int(n_delta[i]))
        for i, f in enumerate(faces)
    ]


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
    return all_element_spectra([cache], h_target, c_j)[0]


def all_element_spectra(
    caches: list[ElementCache], h_target: float, c_j: float = 1.0
) -> list[ElementSpectrum]:
    """Neumann pencils of all elements, solved as one stack."""
    if h_target <= 0.0 or c_j <= 0.0:
        raise ValueError("h_target and c_j must be positive")
    stiffness, mass = np.stack([c.stiffness for c in caches]), np.stack([c.mass for c in caches])
    try:
        sigma, vectors = gensym_eig(stiffness, mass)
    except NotSPDError as exc:
        raise NotSPDError(exc.pivot, f"weighted mass of element {caches[exc.item].elem}") from exc
    sigma = np.maximum(sigma, 0.0)
    above = sigma[:, 1:] >= 1.0 / (c_j * h_target**2)
    j_count = np.where(above.any(axis=1), above.argmax(axis=1) + 1, sigma.shape[1])
    return [
        ElementSpectrum(c.elem, sigma[i], vectors[i], int(j_count[i]), h_target, c_j)
        for i, c in enumerate(caches)
    ]


def project_rhs(
    spectra: list[ElementSpectrum],
    caches: list[ElementCache],
    g: list[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Elementwise weighted-L2 projection of the load onto the kept modes.

    Returns the projected nodal load per element and the weighted-L2 norm
    of the dropped remainder per element.  The remainder norm is taken of
    the difference itself, not as ``|g|^2 - |kept|^2``, which cancels to
    rounding noise when little is dropped.
    """
    projected = []
    remainders = np.empty(len(spectra))
    for spec, cache, g_tau in zip(spectra, caches, g):
        coeffs = spec.vectors.T @ (cache.mass @ g_tau)
        kept = spec.vectors[:, : spec.j_count] @ coeffs[: spec.j_count]
        projected.append(kept)
        dropped = g_tau - kept
        remainders[spec.elem] = max(float(dropped @ (cache.mass @ dropped)), 0.0) ** 0.5
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
