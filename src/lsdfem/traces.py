"""Flux trace vectors and the splitting of the multiplier space.

A trace vector is an ``(n_fine,)`` float array with one stored value per
oriented fine face; the value an element sees is ``sign * stored``
(:meth:`FinePartition.side_values`), where the sign is +1 for the left
element of the face.  Storing a single value per face builds the
normal-flux compatibility of the trace space into the data structure:
the two element-side views of a shared face are exact negatives.

The space splits into three complementary blocks:

* the span of the per-element jump functionals (one per coarse element),
* face-constant vectors with zero pairing against piecewise constants,
* vectors with zero average on every coarse face (the fine remainder).

The face-constant block (divergence-free face fluxes) is built in closed
form: by the discrete de Rham sequence it is spanned by the curls of the P1
hat functions, one per used vertex less one, plus one harmonic field per
hole, which only a mesh with holes computes, as a small null space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import CoarseMesh, FinePartition

__all__ = [
    "TraceSpace",
    "build_trace_space",
    "element_functionals",
    "boundary_functional",
    "solve_V0_pairing",
    "zero_mean_basis",
]


@dataclass
class TraceSpace:
    """Index bookkeeping and change-of-basis data for the multiplier space."""

    mesh: CoarseMesh
    part: FinePartition
    pair_v0: sp.csr_matrix          # (N, n_fine): J^T W, the (mu, 1_tau) weights, rows per element
    jump_basis: sp.csr_matrix       # (n_fine, N): J, the stored lambda0_i columns
    zero_mean: np.ndarray           # (nfs, nfs - 1): per-face zero-average basis
    face_constant: sp.csr_matrix    # (NF, NF - N): hat-function curls, then one field per hole

    @property
    def n_fine(self) -> int:
        return self.part.n_fine_faces

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    @property
    def n_coarse_faces(self) -> int:
        return self.mesh.n_faces

    @property
    def dim_tilde0(self) -> int:
        return self.face_constant.shape[1]

    @property
    def dim_tilde_f(self) -> int:
        return self.n_fine - self.n_coarse_faces

    def vector(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a float array of stored fine-face values, checked for length."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_fine,):
            raise ValueError("trace vector has wrong length")
        return values

    @cached_property
    def face_constant_coeffs(self) -> np.ndarray:
        """Dense view of ``face_constant``, built on first read: only perfbench's tracer reads it."""
        return self.face_constant.toarray()

    @cached_property
    def pairing_matrix(self) -> np.ndarray:
        """Dense ``(N, N)`` constant pairing, entry ``[i, j] = (lambda0_i, 1_tau_j)``; built on first read."""
        return (self.pair_v0 @ self.jump_basis).toarray()

    @cached_property
    def factorization(self) -> spla.SuperLU:
        """SPD-checked sparse factor of the constant pairing ``J^T W J`` (:func:`solve_V0_pairing`)."""
        from .localize import spd_factor    # localize imports this module

        return spd_factor(self.pair_v0 @ self.jump_basis, "constant-pairing matrix")

    def sum_element_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stored values from per-element boundary-row values ``(ne, n_bf)``, summed per fine face."""
        ids = self.part.boundary_face_ids
        return np.bincount(ids.ravel(), weights=rows.ravel(), minlength=self.n_fine)


def zero_mean_basis(weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the weighted zero-mean subspace.

    Columns span {x : weights . x = 0}.  Built from one Householder
    reflection, so it is deterministic and exactly reproducible.
    """
    n = len(weights)
    if n <= 1:
        return np.zeros((n, 0))
    v = weights / np.linalg.norm(weights)
    u = v.copy()
    u[0] += 1.0
    u /= np.linalg.norm(u)
    h = np.eye(n) - 2.0 * np.outer(u, u)
    return h[:, 1:]


def build_trace_space(part: FinePartition) -> TraceSpace:
    """Assemble the index maps, jump basis, and block decompositions."""
    mesh = part.mesh
    n = mesh.n_elements
    nf = mesh.n_faces
    nfs = part.faces_per_coarse
    n_fine = part.n_fine_faces

    elems = np.repeat(np.arange(n), 3 * nfs)
    ids, signs = part.boundary_face_ids.ravel(), part.boundary_signs.ravel()
    jump_basis = sp.csr_matrix((signs, (ids, elems)), shape=(n_fine, n))
    pair_v0 = (jump_basis.T @ sp.diags(part.fine_measures)).tocsr()

    zm = zero_mean_basis(np.full(nfs, 1.0))  # equal sub-face measures per face

    # Face-constant block: coefficients c with sum_F sign(tau,F) c_F |F| = 0
    # for every element.  The curl of vertex v's hat function has flux
    # delta_{v=b} - delta_{v=a} through F = (a, b); all but one are independent.
    used = np.unique(mesh.faces)
    a, b = np.searchsorted(used, mesh.faces).T
    inv = 1.0 / mesh.face_measures
    rows, cols = np.tile(np.arange(nf), 2), np.concatenate([b, a])
    face_constant = sp.csr_matrix((np.concatenate([inv, -inv]), (rows, cols)), (nf, used.size))[:, 1:]
    if nf - n > used.size - 1:  # each hole adds a field that no curl spans; only these columns are dense
        constraint = pair_v0 @ sp.kron(sp.identity(nf), np.ones((nfs, 1)))
        holes = scipy.linalg.null_space(np.vstack([constraint.toarray(), face_constant.T.toarray()]))
        face_constant = sp.hstack([face_constant, sp.csr_matrix(holes)], format="csr")
    if face_constant.shape[1] != nf - n:
        raise AssertionError(
            f"face-constant basis has {face_constant.shape[1]} columns, "
            f"expected NF - NE = {nf - n}"
        )

    return TraceSpace(
        mesh=mesh,
        part=part,
        pair_v0=pair_v0,
        jump_basis=jump_basis,
        zero_mean=zm,
        face_constant=face_constant,
    )


def element_functionals(space: TraceSpace, v: np.ndarray) -> np.ndarray:
    """Stored-orientation boundary functional of each element's part of ``v``.

    ``v`` is a broken nodal field ``(ne, nn)``.  Entry ``[t, b]`` is
    sign(t, F) times the integral of ``v_t`` over the fine face
    ``part.boundary_face_ids[t, b]``; the result is ``(ne, n_bf)``.
    """
    part = space.part
    v = np.asarray(v, dtype=float)
    return part.boundary_signs * np.einsum("ebn,en->eb", part.trace_matrix, v)


def boundary_functional(space: TraceSpace, v: np.ndarray) -> np.ndarray:
    """Stored-orientation functional r with (mu, v) = mu . r for all mu.

    r accumulates sign(tau, F) * integral of v_tau over each fine face,
    summed over the incident elements.
    """
    return space.sum_element_rows(element_functionals(space, v))


def solve_V0_pairing(space: TraceSpace, rhs: np.ndarray) -> np.ndarray:
    """Solve ``sum_j x_j (lambda0_i, 1_tau_j) = rhs_i``, the N x N constant pairing.

    Both elimination steps solve with it: the jump coefficients and the
    constant part.  The matrix is ``J^T W J`` (``J`` the jump basis, ``W``
    the fine-face measures): the face-weighted graph Laplacian of the
    elements plus each element's domain-boundary measure on the diagonal,
    symmetric and irreducibly diagonally dominant, hence SPD on any valid
    mesh, so one :func:`localize.spd_factor` serves both steps.
    """
    x = space.factorization.solve(np.asarray(rhs, dtype=float))
    if not np.all(np.isfinite(x)):
        raise AssertionError("constant-pairing solve produced non-finite values")
    return x
