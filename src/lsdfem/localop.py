"""Element-local fine FEM machinery.

Every local problem of an element runs through one constrained stiffness
system, the saddle: the P1 stiffness with the zero-weighted-average
condition enforced by a single scalar Lagrange multiplier.  All elements
are affine images of one reference lattice, so every element quantity is
one stack with a leading element axis, held by one :class:`ElementCache`:
the inverses of the saddles, the potentials ``T_e`` of the fine-face flux
basis functions, and the boundary flux-energy matrix ``B``, the static
condensation of the interior problem onto that basis, which every
downstream patch or face computation re-uses instead of re-solving
interiors.  Every local solve (the condensation, the flux-to-potential map
``T`` and the load-to-potential map ``T~``) is one stacked product with
the stored inverses, refined once against the stiffness and the
constraint row (:func:`saddle_solve`).  The kernels take any leading
axes, so they run the same code on one element's view ``caches[t]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .coeff import CoefficientField
from .mesh import FinePartition, Stacked
from .traces import TraceSpace

__all__ = [
    "ElementCache",
    "LocalAssemblyError",
    "NotSPDError",
    "assemble_all",
    "apply_T",
    "edge_blocks",
    "load_functionals",
    "local_solve",
    "broken_energy",
    "quadratic_forms",
    "saddle_solve",
    "scatter_blocks",
]


class LocalAssemblyError(RuntimeError):
    """Element-level assembly or factorization failure."""


class NotSPDError(ValueError):
    """A matrix that must be positive definite is not.

    ``item`` is the failing matrix's index in a stacked call.
    """

    def __init__(self, pivot: int, context: str = "", item: int | None = None):
        self.pivot = pivot
        self.item = item
        msg = f"matrix is not SPD: Cholesky failed at pivot {pivot}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


@dataclass
class ElementCache(Stacked):
    """Assembled matrices of every coarse element, stacked along a leading axis.

    ``caches[t]`` is element t's view: the same fields without the leading
    axis and ``geom`` the partition's view ``part[t]``; iteration yields the
    views in element order.  On the stack, ``geom`` is the
    :class:`FinePartition`.
    """

    STACKED = ("tensors", "geom", "stiffness", "mass", "mean_vector",
               "flux_potentials", "flux_energy", "_inverse")

    geom: FinePartition
    tensors: np.ndarray          # (ne, nc, 2, 2)
    stiffness: np.ndarray        # (ne, nn, nn) A-weighted P1 stiffness
    mass: np.ndarray             # (ne, nn, nn) rho-weighted P1 mass
    mean_vector: np.ndarray      # (ne, nn) integral of rho * phi_i
    flux_potentials: np.ndarray  # (ne, nn, n_bf) T_e: potentials T mu_b of the fine-face fluxes
    flux_energy: np.ndarray      # (ne, n_bf, n_bf) pairings (mu_a, T mu_b)
    _inverse: np.ndarray = field(repr=False)  # (ne, nn + 1, nn + 1) inverse of the constrained stiffness


def _sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + mats.swapaxes(-1, -2))


def scatter_blocks(
    blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """Sum element blocks ``(ne, a, b)`` into a CSR matrix at ``rows (ne, a)``, ``cols (ne, b)``.

    Zero block entries and sums that cancel exactly are not stored.
    """
    keep = blocks != 0
    r = np.broadcast_to(rows[:, :, None], blocks.shape)[keep]
    c = np.broadcast_to(cols[:, None, :], blocks.shape)[keep]
    mat = sp.csr_matrix((blocks[keep], (r, c)), shape=shape)
    mat.eliminate_zeros()
    return mat


def _scatter_cells(local: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Sum cell matrices (ne, nc, 3, 3) into (ne, nn, nn), each slot in ascending cell-entry order onto zeros."""
    ne, nn = local.shape[0], int(cells.max()) + 1
    dest = (cells[:, :, None] * nn + cells[:, None, :]).ravel()
    order = np.argsort(dest, kind="stable")
    slots, first, counts = np.unique(dest[order], return_index=True, return_counts=True)
    flat, out = local.reshape(ne, -1), np.zeros((ne, nn * nn))
    for layer in range(counts.max()):
        has = counts > layer
        out[:, slots[has]] += flat[:, order[first[has] + layer]]
    return out.reshape(ne, nn, nn)


def _assemble_stiffness(grads, cell_areas, tensors, cells) -> np.ndarray:
    """Exact P1 stiffness of a stack of elements with cellwise-constant tensors.

    The diagonal is set to minus the off-diagonal row sum so constants lie
    in the kernel exactly; otherwise the roundoff kernel defect (of size
    norm(K) * eps) leaks into every constrained solve as a spurious
    constraint multiplier, which is visible at high contrast.
    """
    gx, gy = grads[..., 0], grads[..., 1]                 # (ne, nc, 3): grad(phi_k) per cell
    a = tensors[..., None]                                # (ne, nc, 2, 2, 1)
    fx = a[:, :, 0, 0] * gx + a[:, :, 0, 1] * gy          # A grad(phi_k), x and y
    fy = a[:, :, 1, 0] * gx + a[:, :, 1, 1] * gy
    local = fx[..., :, None] * gx[..., None, :] + fy[..., :, None] * gy[..., None, :]
    local *= cell_areas[:, :, None, None]
    k = _scatter_cells(local, cells)
    diag = np.arange(k.shape[1])
    k[:, diag, diag] -= k.sum(axis=2)
    return k


_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mass(cell_areas: np.ndarray, rho: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Exact rho-weighted P1 mass of a stack of elements with cellwise-constant rho."""
    return _scatter_cells((rho * cell_areas)[:, :, None, None] * _MASS_REF, cells)


def _invert_saddles(saddles: np.ndarray) -> np.ndarray:
    """One stacked inverse of the saddles; a failure names the first failing element.

    The inverse of a symmetric matrix is symmetric, so the computed one is
    symmetrized: that drops the antisymmetric part of its rounding error
    and keeps ``T`` and ``T~`` adjoint to each other to rounding.
    """
    try:
        inverse = _sym(np.linalg.inv(saddles))
    except np.linalg.LinAlgError:
        for t, saddle in enumerate(saddles):
            try:
                np.linalg.inv(saddle)
            except np.linalg.LinAlgError:
                raise LocalAssemblyError(
                    f"element {t}: constrained system is singular; coefficient not SPD?"
                ) from None
        raise
    finite = np.isfinite(inverse).all(axis=(1, 2))
    if not finite.all():
        raise LocalAssemblyError(
            f"element {np.argmin(finite)}: constrained system not factorizable (non-finite inverse)"
        )
    return inverse


def saddle_solve(
    stiffness: np.ndarray, mean_vector: np.ndarray, inverse: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Zero-average-constrained solves for nodal right-hand sides ``(..., nn, k)``.

    ``x = X b`` with the stored inverse ``X`` of the saddle ``S`` (the
    stiffness bordered by ``mean_vector``), then one refinement step
    ``x += X (b - S x)``, with ``S x = [K u + m lambda; m^T u]`` formed from
    the stiffness and the constraint row.  That keeps the residual at
    working precision even for high-contrast coefficients, where the
    residual of the plain product grows with the condition number.  The
    solve is linear in ``b``.  Returns the nodal part ``(..., nn, k)``;
    each solution has zero weighted average.
    """
    nn = rhs.shape[-2]
    x = inverse[..., :nn] @ rhs                      # b has a zero constraint row
    u, lam = x[..., :nn, :], x[..., nn:, :]
    res = np.empty_like(x)
    res[..., :nn, :] = rhs - stiffness @ u - mean_vector[..., :, None] * lam
    res[..., nn:, :] = -(mean_vector[..., None, :] @ u)
    x += inverse @ res
    return x[..., :nn, :]


def assemble_all(field_a: CoefficientField, rho: np.ndarray, part: FinePartition) -> ElementCache:
    """Assemble, invert and condense every element as one stack, with the cellwise weight ``rho`` ``(ne, nc)``."""
    ne, nc = part.mesh.n_elements, len(part.cells)
    tensors = np.asarray(field_a.tensors, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if tensors.shape != (ne, nc, 2, 2) or rho.shape != (ne, nc):
        raise LocalAssemblyError(
            f"coefficient {tensors.shape} or weight {rho.shape} does not cover the {ne} x {nc} cells"
        )
    stiffness = _assemble_stiffness(part.grads, part.cell_areas, tensors, part.cells)
    mass = _assemble_mass(part.cell_areas, rho, part.cells)
    mean_vector = mass @ np.ones(mass.shape[1])
    nn = mean_vector.shape[1]
    saddles = np.zeros((ne, nn + 1, nn + 1))   # stiffness bordered by the zero-average constraint
    saddles[:, :nn, :nn], saddles[:, :nn, nn], saddles[:, nn, :nn] = stiffness, mean_vector, mean_vector
    inverse = _invert_saddles(saddles)
    del saddles
    trace = part.trace_matrix
    potentials = saddle_solve(stiffness, mean_vector, inverse, trace.swapaxes(-1, -2))
    flux_energy = _sym(trace @ potentials)   # static condensation B[a, b] = (mu_a, T mu_b)
    return ElementCache(part, tensors, stiffness, mass, mean_vector, potentials, flux_energy, inverse)


def apply_T(cache: ElementCache, side: np.ndarray) -> np.ndarray:
    """Local flux-to-potential solves.

    ``side`` holds the element-side flux value on each fine face of the
    element boundary, ``(..., n_bf)``.  Each result has zero weighted
    average and satisfies the A-weighted variational identity against all
    constrained test functions.
    """
    nodal = np.einsum("...bn,...b->...n", cache.geom.trace_matrix, side)
    return local_solve(cache, nodal)


def local_solve(cache: ElementCache, nodal: np.ndarray) -> np.ndarray:
    """Constrained solves for nodal right-hand sides ``(..., nn)``, one per element.

    ``T side + T~ g`` is one such solve of ``trace^T side + M g``.
    """
    return saddle_solve(cache.stiffness, cache.mean_vector, cache._inverse, nodal[..., None])[..., 0]


def load_functionals(cache: ElementCache, load: np.ndarray) -> np.ndarray:
    """Pairings ``trace . T~ g = T_e^T (M g)`` of the load potentials, ``(..., n_bf)``.

    ``load`` is the element load ``M g`` ``(..., nn)``; the stored flux
    potentials ``T_e`` stand in for a solve, because the refined saddle
    solve is symmetric.
    """
    return (load[..., None, :] @ cache.flux_potentials)[..., 0, :]


def batched_cholesky(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack ``(..., n, n)`` of symmetric matrices.

    Raises :class:`NotSPDError` with the failing pivot index (and, for a
    stack, the first failing item of the flattened stack) when a matrix is
    not positive definite.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        for item, mat in enumerate(mats.reshape((-1,) + mats.shape[-2:])):
            info = lapack.dpotrf(mat, lower=1)[1]
            if info != 0:
                raise NotSPDError(int(info) - 1, "" if mats.ndim == 2 else f"item {item}", item) from None
        raise


def solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` for a stack of lower-triangular ``L``.

    Substitution row by row, each step batched over the stack; the entries
    of ``L`` above the diagonal must be zero.
    """
    n = chol.shape[-1]
    x = np.zeros(np.broadcast_shapes(chol.shape[:-1], rhs.shape[:-2] + (n,)) + rhs.shape[-1:])
    for i in range(n):
        x[..., i, :] = (rhs[..., i, :] - (chol[..., i : i + 1, :] @ x)[..., 0, :]) / chol[..., i, i, None]
    return x


def edge_blocks(space: TraceSpace, flux_energy: np.ndarray) -> tuple:
    """Face blocks ``(t_ff, t_ffc, t_fcfc, t_hat)`` of every local edge of a stack of elements.

    ``flux_energy`` is ``(n, 3 nfs, 3 nfs)``; local edge ``e`` owns rows
    ``e nfs ... (e + 1) nfs - 1``.  An error names a failing block by its
    stack position, the element id when the stack is every element's.
    The energy is projected once into the zero-mean face bases, then
    ordered per local edge as (edge, the other two in local order); each
    block has leading axes (element, local edge), and ``t_hat`` is the
    Schur complement.
    """
    z = space.zero_mean
    n, m = flux_energy.shape[0], z.shape[1]
    zb = scipy.linalg.block_diag(z, z, z)
    bz = (zb.T @ flux_energy @ zb).reshape(n, 3, m, 3, m)
    perm = [bz[:, o][:, :, :, o].reshape(n, 3 * m, 3 * m) for o in ([0, 1, 2], [1, 0, 2], [2, 0, 1])]
    blocks = np.stack(perm, axis=1)
    t_ff, t_ffc, t_fcfc = blocks[..., :m, :m], blocks[..., :m, m:], blocks[..., m:, m:]
    try:
        chol = batched_cholesky(t_fcfc)
    except NotSPDError as exc:
        t, e = divmod(exc.item, 3)
        raise AssertionError(f"element {t}, face {space.mesh.element_faces[t, e]}: "
                             f"complementary block not SPD (Cholesky failed at pivot {exc.pivot})") from None
    w = solve_lower(chol, t_ffc.swapaxes(-1, -2))
    return _sym(t_ff), t_ffc, t_fcfc, _sym(t_ff - w.swapaxes(-1, -2) @ w)


def quadratic_forms(mats: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``v^T A v`` of each matrix of a stack ``(..., n, n)`` with its vector ``(..., n)``."""
    values = np.asarray(values, dtype=float)
    return (values[..., None, :] @ (mats @ values[..., None]))[..., 0, 0]


def broken_energy(caches: ElementCache, values: np.ndarray) -> float:
    """Squared A-weighted broken seminorm of a broken nodal field ``(ne, nn)``.

    Each element's mean is removed first: the stiffness annihilates constants
    only to rounding, which a per-element constant would otherwise amplify.
    """
    return float(quadratic_forms(caches.stiffness, values - values.mean(axis=-1, keepdims=True)).sum())
