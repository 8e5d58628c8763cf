"""Element-local fine FEM machinery.

Each element carries one factorization of the constrained stiffness
system: the P1 stiffness with the zero-weighted-average condition
enforced by a single scalar Lagrange multiplier.  That one factorization
serves both local solution operators (boundary-flux data and interior
loads).  The boundary flux-energy matrix ``B`` is the static condensation
of the interior problem onto the fine-face flux basis: it is computed
once per element and every downstream patch or face computation re-uses
it instead of re-solving interiors.  All elements share one reference
lattice, so the set-up runs as stacked kernels over every element at once
and each ``ElementCache`` holds views into the stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .coeff import CoefficientField, WeightField
from .mesh import ElementGeometry, FinePartition
from .traces import TraceSpace

__all__ = [
    "ElementCache",
    "FaceBlocks",
    "LocalAssemblyError",
    "assemble_all",
    "apply_T",
    "apply_Ttilde",
    "edge_blocks",
    "face_blocks",
    "broken_energy",
]


class LocalAssemblyError(RuntimeError):
    """Element-level assembly or factorization failure."""


@dataclass
class ElementCache:
    """Assembled matrices and factorizations for one coarse element."""

    elem: int
    geom: ElementGeometry
    tensors: np.ndarray          # (nc, 2, 2)
    rho: np.ndarray              # (nc,)
    stiffness: np.ndarray        # (nn, nn) A-weighted P1 stiffness
    mass: np.ndarray             # (nn, nn) rho-weighted P1 mass
    mean_vector: np.ndarray      # (nn,) integral of rho * phi_i
    flux_energy: np.ndarray      # (n_bf, n_bf) pairings (mu_a, T mu_b)
    a_min: float
    a_max: float
    _saddle: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _saddle_lu: tuple = field(repr=False, default=None)  # type: ignore[assignment]
    _identity_flux_energy: np.ndarray | None = field(repr=False, default=None)

    @property
    def n_nodes(self) -> int:
        return self.geom.n_nodes

    def solve_constrained(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the zero-average-constrained stiffness system.

        ``rhs`` has one entry per node (plus optional trailing columns);
        the returned nodal field(s) satisfy the zero-rho-average exactly.
        One step of iterative refinement keeps the residual at working
        precision even for high-contrast coefficients, where the raw
        factorization residual grows with the condition number.
        """
        nn = self.n_nodes
        if rhs.ndim == 1:
            full = np.zeros(nn + 1)
            full[:nn] = rhs
        else:
            full = np.zeros((nn + 1, rhs.shape[1]))
            full[:nn] = rhs
        sol = scipy.linalg.lu_solve(self._saddle_lu, full)
        sol += scipy.linalg.lu_solve(self._saddle_lu, full - self._saddle @ sol)
        return sol[:nn]

    def identity_flux_energy(self) -> np.ndarray:
        """Flux-energy matrix of the A=I twin (harmonic extension energy)."""
        if self._identity_flux_energy is None:
            geom = self.geom
            identity = np.broadcast_to(np.eye(2), (1, len(geom.cells), 2, 2))
            k_id = _assemble_stiffness(geom.grads[None], geom.cell_areas[None], identity, geom.cells)
            saddle = self._saddle.copy()
            saddle[: self.n_nodes, : self.n_nodes] = k_id[0]
            _factor_saddle(self.elem, saddle)
            self._identity_flux_energy = _condense_boundary(geom.trace_matrix[None], saddle[None])[0]
        return self._identity_flux_energy

    def energy(self, values: np.ndarray) -> float:
        """|v|^2 in the A-weighted broken seminorm on this element."""
        return float(values @ (self.stiffness @ values))

    def boundary_pairing(self, side: np.ndarray, values: np.ndarray) -> float:
        """(mu, v) over this element boundary, mu in element-side values."""
        return float(side @ (self.geom.trace_matrix @ values))

    def flux_side_energy(self, side: np.ndarray) -> float:
        """(mu, T mu) for element-side flux values."""
        return float(side @ (self.flux_energy @ side))


def _sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + mats.swapaxes(-1, -2))


def _scatter_cells(local: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Sum cell matrices (ne, nc, 3, 3) into element matrices (ne, nn, nn) by one 0/1 map."""
    ne, nn = local.shape[0], int(cells.max()) + 1
    dest = (cells[:, :, None] * nn + cells[:, None, :]).ravel()
    scatter = sp.csr_matrix((np.ones(dest.size), (dest, np.arange(dest.size))), (nn * nn, dest.size))
    return np.ascontiguousarray((scatter @ local.reshape(ne, -1).T).T).reshape(ne, nn, nn)


def _assemble_stiffness(grads, cell_areas, tensors, cells) -> np.ndarray:
    """Exact P1 stiffness of a stack of elements with cellwise-constant tensors.

    The diagonal is set to minus the off-diagonal row sum so constants lie
    in the kernel exactly; otherwise the roundoff kernel defect (of size
    norm(K) * eps) leaks into every constrained solve as a spurious
    constraint multiplier, which is visible at high contrast.
    """
    flux = np.einsum("ecij,eckj->ecki", tensors, grads)   # (ne, nc, 3, 2): A grad(phi_k)
    local = np.einsum("ecki,ecli->eckl", flux, grads) * cell_areas[:, :, None, None]
    k = _scatter_cells(local, cells)
    diag = np.arange(k.shape[1])
    k[:, diag, diag] -= k.sum(axis=2)
    return k


_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mass(cell_areas: np.ndarray, rho: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Exact rho-weighted P1 mass of a stack of elements with cellwise-constant rho."""
    return _scatter_cells((rho * cell_areas)[:, :, None, None] * _MASS_REF, cells)


def _factor_saddle(elem: int, saddle: np.ndarray) -> tuple:
    try:
        lu = scipy.linalg.lu_factor(saddle)
    except scipy.linalg.LinAlgError as exc:
        raise LocalAssemblyError(f"element {elem}: constrained system not factorizable ({exc})")
    if not np.all(np.isfinite(lu[0])) or np.any(np.abs(np.diag(lu[0])) == 0.0):
        raise LocalAssemblyError(
            f"element {elem}: constrained system is singular; coefficient not SPD?"
        )
    return lu


def _condense_boundary(trace: np.ndarray, saddle: np.ndarray) -> np.ndarray:
    """Static condensation B[a, b] = (mu_a, T mu_b) of a stack of elements, refined once."""
    ne, n_bf, nn = trace.shape
    rhs = np.zeros((ne, nn + 1, n_bf))
    rhs[:, :nn] = trace.swapaxes(1, 2)
    sols = np.linalg.solve(saddle, rhs)
    sols += np.linalg.solve(saddle, rhs - saddle @ sols)
    return _sym(trace @ sols[:, :nn])


def assemble_all(
    field_a: CoefficientField, weight: WeightField, part: FinePartition
) -> list[ElementCache]:
    """Assemble every element cache, in element order.

    All elements are assembled and condensed as stacks; only the saddle LU,
    which :meth:`ElementCache.solve_constrained` reuses per load, is per element.
    """
    ne, nc = part.mesh.n_elements, len(part.cells)
    sizes = [np.fromiter(map(len, values), int, ne) for values in (field_a.tensors, weight.values)]
    short = (sizes[0] != nc) | (sizes[1] != nc)
    if short.any():
        raise LocalAssemblyError(f"element {np.argmax(short)}: coefficient does not cover all cells")
    tensors, rho = np.stack(field_a.tensors), np.stack(weight.values)
    stiffness = _assemble_stiffness(part.grads, part.cell_areas, tensors, part.cells)
    mass = _assemble_mass(part.cell_areas, rho, part.cells)
    mean_vector = mass @ np.ones(mass.shape[1])
    nn = mean_vector.shape[1]
    saddles = np.zeros((ne, nn + 1, nn + 1))   # stiffness bordered by the zero-average constraint
    saddles[:, :nn, :nn], saddles[:, :nn, nn], saddles[:, nn, :nn] = stiffness, mean_vector, mean_vector
    lus = [_factor_saddle(t, saddles[t]) for t in range(ne)]
    flux_energy = _condense_boundary(part.trace_matrices, saddles)
    a_min, a_max = field_a.element_eigen_bounds()
    return [
        ElementCache(
            t, part.geometry[t], field_a.tensors[t], weight.values[t], stiffness[t], mass[t],
            mean_vector[t], flux_energy[t], float(a_min[t]), float(a_max[t]), saddles[t], lus[t],
        )
        for t in range(ne)
    ]


def apply_T(cache: ElementCache, side: np.ndarray) -> np.ndarray:
    """Local flux-to-potential solve.

    ``side`` holds the element-side flux value on each fine face of the
    element boundary.  The result has zero weighted average and satisfies
    the A-weighted variational identity against all constrained test
    functions.
    """
    return cache.solve_constrained(cache.geom.trace_matrix.T @ side)


def apply_Ttilde(cache: ElementCache, g: np.ndarray) -> np.ndarray:
    """Local load-to-potential solve for a P1 nodal load g."""
    return cache.solve_constrained(cache.mass @ g)


@dataclass
class FaceBlocks:
    """Blocks of the flux-energy matrix in the zero-average face bases.

    ``t_ff`` etc. are expressed in the stored-orientation zero-mean basis
    of each face; ``t_hat`` is the Schur complement onto the selected
    face (the minimal energy over complementary-boundary fluxes).
    """

    face: int
    t_ff: np.ndarray
    t_ffc: np.ndarray
    t_fcf: np.ndarray
    t_fcfc: np.ndarray
    t_hat: np.ndarray

    @property
    def empty(self) -> bool:
        return self.t_ff.shape[0] == 0


def batched_cholesky(mats: np.ndarray) -> tuple[np.ndarray | None, int, int]:
    """Lower Cholesky factors of a stack ``(..., n, n)`` of symmetric matrices.

    Returns ``(factors, -1, -1)``, or ``(None, item, pivot)`` for the first
    matrix of the flattened stack that is not positive definite.
    """
    try:
        return np.linalg.cholesky(mats), -1, -1
    except np.linalg.LinAlgError:
        for item, mat in enumerate(mats.reshape((-1,) + mats.shape[-2:])):
            info = lapack.dpotrf(mat, lower=1)[1]
            if info != 0:
                return None, item, int(info) - 1
        raise


def solve_lower(chol: np.ndarray, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``L X = B`` (``L^T X = B`` with ``trans``) for a stack of lower-triangular ``L``.

    Substitution row by row, each step batched over the stack; the entries
    of ``L`` above the diagonal must be zero.
    """
    tri = chol.swapaxes(-1, -2) if trans else chol
    n = tri.shape[-1]
    x = np.zeros(np.broadcast_shapes(tri.shape[:-1], rhs.shape[:-2] + (n,)) + rhs.shape[-1:])
    for i in reversed(range(n)) if trans else range(n):
        x[..., i, :] = (rhs[..., i, :] - (tri[..., i : i + 1, :] @ x)[..., 0, :]) / tri[..., i, i, None]
    return x


def edge_blocks(space: TraceSpace, flux_energy: np.ndarray, elems: np.ndarray) -> tuple:
    """Face blocks ``(t_ff, t_ffc, t_fcfc, t_hat)`` of every local edge of a stack of elements.

    ``flux_energy`` is ``(n, 3 nfs, 3 nfs)`` for the elements ``elems``; local
    edge ``e`` owns rows ``e nfs ... (e + 1) nfs - 1``.  The energy is
    projected once into the zero-mean face bases, then ordered per local
    edge as (edge, the other two in local order); each block has leading
    axes (element, local edge), and ``t_hat`` is the Schur complement.
    """
    z = space.zero_mean
    n, m = flux_energy.shape[0], z.shape[1]
    zb = scipy.linalg.block_diag(z, z, z)
    bz = (zb.T @ flux_energy @ zb).reshape(n, 3, m, 3, m)
    perm = [bz[:, o][:, :, :, o].reshape(n, 3 * m, 3 * m) for o in ([0, 1, 2], [1, 0, 2], [2, 0, 1])]
    blocks = np.stack(perm, axis=1)
    t_ff, t_ffc, t_fcfc = blocks[..., :m, :m], blocks[..., :m, m:], blocks[..., m:, m:]
    chol, item, pivot = batched_cholesky(t_fcfc)
    if chol is None:
        t, e = divmod(item, 3)
        raise AssertionError(f"element {elems[t]}, face {space.mesh.element_faces[elems[t], e]}: "
                             f"complementary block not SPD (Cholesky failed at pivot {pivot})")
    w = solve_lower(chol, t_ffc.swapaxes(-1, -2))
    return _sym(t_ff), t_ffc, t_fcfc, _sym(t_ff - w.swapaxes(-1, -2) @ w)


def face_blocks(cache: ElementCache, space: TraceSpace, face: int) -> FaceBlocks:
    """Split the element flux-energy matrix by one coarse face.

    Degrees of freedom are restricted to zero average per face, so a face
    with a single fine sub-face contributes nothing and yields empty
    blocks.  Element-side signs cancel in every block because each basis
    vector enters quadratically.  Runs :func:`edge_blocks` on a batch of
    one element.
    """
    geom = cache.geom
    if face not in geom.face_rows:
        raise ValueError(f"face {face} is not a face of element {cache.elem}")
    if space.zero_mean.shape[1] == 0:
        zero = np.zeros((0, 0))
        return FaceBlocks(face, zero, zero.copy(), zero.copy(), zero.copy(), zero.copy())
    e = list(geom.face_rows).index(face)
    t_ff, t_ffc, t_fcfc, t_hat = edge_blocks(space, cache.flux_energy[None], np.array([cache.elem]))
    return FaceBlocks(face, t_ff[0, e], t_ffc[0, e], t_ffc[0, e].T.copy(), t_fcfc[0, e], t_hat[0, e])


def broken_energy(caches: list[ElementCache], values: list[np.ndarray]) -> float:
    """Squared A-weighted broken seminorm of a broken nodal field."""
    return sum(c.energy(v) for c, v in zip(caches, values))

