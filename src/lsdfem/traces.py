"""Flux trace vectors and the splitting of the multiplier space.

A trace vector holds one scalar per oriented fine face; the value an
element sees is ``sign * stored`` where the sign is +1 for the left
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
import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import CoarseMesh, FinePartition

__all__ = [
    "TraceVector",
    "TraceSpace",
    "build_trace_space",
    "pairing",
    "element_functionals",
    "boundary_functional",
    "decompose",
    "solve_V0_pairing",
    "zero_mean_basis",
]


@dataclass
class TraceVector:
    """One scalar per oriented fine face."""

    space: "TraceSpace"
    values: np.ndarray

    def side_values(self, elem: int | slice = slice(None)) -> np.ndarray:
        """Element-side view: sign(elem, F) * stored value, per boundary row.

        One element gives ``(n_bf,)``; the default gives every element, ``(ne, n_bf)``.
        """
        part = self.space.part
        return part.boundary_signs[elem] * self.values[part.boundary_face_ids[elem]]

    def __add__(self, other: "TraceVector") -> "TraceVector":
        return TraceVector(self.space, self.values + other.values)

    def to_csv(self, path: str) -> None:
        """Rows ``fine_face_index,value`` ordered by global fine-face index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("fine_face,value\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i},{float(v)!r}\n")

    def to_binary(self, path: str) -> None:
        """Raw little-endian float64, ordered by global fine-face index."""
        self.values.astype("<f8").tofile(path)

    @classmethod
    def from_binary(cls, space: "TraceSpace", path: str) -> "TraceVector":
        values = np.fromfile(path, dtype="<f8")
        if values.shape[0] != space.n_fine:
            raise ValueError("binary trace vector has wrong length")
        return cls(space, values)


@dataclass
class TraceSpace:
    """Index bookkeeping and change-of-basis data for the multiplier space."""

    mesh: CoarseMesh
    part: FinePartition
    pair_v0: sp.csr_matrix          # (N, n_fine): (mu, 1_tau) weights, rows per element
    jump_basis: sp.csr_matrix       # (n_fine, N): stored lambda0_i columns
    pairing_matrix: np.ndarray      # (N, N): entry [i, j] = (lambda0_i, 1_tau_j)
    zero_mean: np.ndarray           # (nfs, nfs - 1): per-face zero-average basis
    face_constant_coeffs: np.ndarray  # (NF, NF - N): hat-function curls, then one field per hole
    _lu: spla.SuperLU | None = None

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
        return self.face_constant_coeffs.shape[1]

    @property
    def dim_tilde_f(self) -> int:
        return self.n_fine - self.n_coarse_faces

    def zeros(self) -> TraceVector:
        return TraceVector(self, np.zeros(self.n_fine))

    def vector(self, values: np.ndarray) -> TraceVector:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_fine,):
            raise ValueError("trace vector has wrong length")
        return TraceVector(self, values)

    def expand_face_constants(self, coeffs: np.ndarray) -> np.ndarray:
        """Per-coarse-face coefficients -> stored fine-face values."""
        return np.repeat(coeffs, self.part.faces_per_coarse)

    def face_integrals(self, values: np.ndarray) -> np.ndarray:
        """Integral of mu over each coarse face (stored orientation)."""
        nfs = self.part.faces_per_coarse
        weighted = values * self.part.fine_measures
        return weighted.reshape(self.n_coarse_faces, nfs).sum(axis=1)

    def factorization(self) -> spla.SuperLU:
        if self._lu is None:
            try:
                self._lu = spla.splu((self.pair_v0 @ self.jump_basis).T.tocsc())
            except RuntimeError as exc:  # pragma: no cover - cannot occur on valid meshes
                raise AssertionError(f"constant-pairing matrix is singular: {exc}") from exc
        return self._lu

    def is_tilde(self, mu: TraceVector, tol: float = 1e-10) -> bool:
        """Membership test: (mu, 1_tau) = 0 for every element."""
        r = self.pair_v0 @ mu.values
        scale = max(np.abs(mu.values).max(), 1.0)
        return bool(np.abs(r).max() <= tol * scale)

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
    pair_v0 = sp.csr_matrix((signs * part.fine_measures[ids], (elems, ids)), shape=(n, n_fine))
    jump_basis = sp.csr_matrix((signs, (ids, elems)), shape=(n_fine, n))

    pairing_matrix = (pair_v0 @ jump_basis).toarray().T  # [i, j] = (lambda0_i, 1_tau_j)

    zm = zero_mean_basis(np.full(nfs, 1.0))  # equal sub-face measures per face

    # Face-constant block: coefficients c with sum_F sign(tau,F) c_F |F| = 0
    # for every element.  The curl of vertex v's hat function has flux
    # delta_{v=b} - delta_{v=a} through F = (a, b); all but one are independent.
    used = np.unique(mesh.faces)
    a, b = np.searchsorted(used, mesh.faces).T
    curls = np.zeros((nf, used.size))
    curls[np.arange(nf), b] = 1.0 / mesh.face_measures
    curls[np.arange(nf), a] = -1.0 / mesh.face_measures
    face_constant_coeffs = curls[:, 1:]
    if nf - n > used.size - 1:  # each hole adds a field that no curl spans
        constraint = pair_v0 @ sp.kron(sp.identity(nf), np.ones((nfs, 1)))
        holes = scipy.linalg.null_space(np.vstack([constraint.toarray(), face_constant_coeffs.T]))
        face_constant_coeffs = np.hstack([face_constant_coeffs, holes])
    if face_constant_coeffs.shape[1] != nf - n:
        raise AssertionError(
            f"face-constant basis has {face_constant_coeffs.shape[1]} columns, "
            f"expected NF - NE = {nf - n}"
        )

    return TraceSpace(
        mesh=mesh,
        part=part,
        pair_v0=pair_v0,
        jump_basis=jump_basis,
        pairing_matrix=pairing_matrix,
        zero_mean=zm,
        face_constant_coeffs=face_constant_coeffs,
    )


def pairing(
    space: TraceSpace,
    mu: TraceVector,
    v: np.ndarray,
) -> float:
    """The broken duality pairing (mu, v) summed over element boundaries.

    ``v`` is either a piecewise constant, one value per element ``(ne,)``,
    or a broken function given by its P1 nodal values on each element's
    interior triangulation, ``(ne, nn)``.
    Exact for P1 traces (trapezoid rule per fine boundary edge).
    """
    if np.ndim(v) == 1:
        return float(v @ (space.pair_v0 @ mu.values))
    return float(mu.values @ boundary_functional(space, v))


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


def solve_V0_pairing(space: TraceSpace, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve the N x N system with entries (lambda0_i, 1_tau_j).

    ``transpose=False`` solves sum_j x_j (lambda0_i, 1_tau_j) = rhs_i (the
    constant-part recovery); ``transpose=True`` solves the transposed
    system sum_i x_i (lambda0_i, 1_tau_j) = rhs_j (the jump-coefficient
    solve).  The matrix is irreducibly diagonally dominant, hence
    nonsingular, on any valid mesh.
    """
    lu = space.factorization()
    rhs = np.asarray(rhs, dtype=float)
    x = lu.solve(rhs, trans="T" if transpose else "N")
    if not np.all(np.isfinite(x)):
        raise AssertionError("constant-pairing solve produced non-finite values")
    return x


def decompose(
    space: TraceSpace, mu: TraceVector
) -> tuple[TraceVector, TraceVector, TraceVector]:
    """Split mu into (jump part, face-constant part, zero-face-average part).

    The jump part matches mu against all piecewise constants, the
    face-constant part is the facewise average of the remainder, and what
    is left has zero mean on every coarse face.  The three parts sum back
    to mu exactly.
    """
    b = space.pair_v0 @ mu.values
    coeffs = solve_V0_pairing(space, b, transpose=True)
    mu0 = space.jump_basis @ coeffs
    r = mu.values - mu0
    averages = space.face_integrals(r) / space.mesh.face_measures
    mu_t0 = space.expand_face_constants(averages)
    mu_tf = r - mu_t0
    return (
        TraceVector(space, np.asarray(mu0).ravel()),
        TraceVector(space, mu_t0),
        TraceVector(space, mu_tf),
    )
