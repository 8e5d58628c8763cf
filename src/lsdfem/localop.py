"""Element-local fine FEM machinery.

Each element carries one factorization of the constrained stiffness
system: the P1 stiffness with the zero-weighted-average condition
enforced by a single scalar Lagrange multiplier.  That one factorization
serves both local solution operators (boundary-flux data and interior
loads).  The boundary flux-energy matrix ``B`` is the static condensation
of the interior problem onto the fine-face flux basis: it is computed
once per element (one back-solve per boundary fine face) and every
downstream patch or face computation re-uses it instead of re-solving
interiors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .coeff import CoefficientField, WeightField
from .mesh import ElementGeometry, FinePartition
from .traces import TraceSpace

__all__ = [
    "ElementCache",
    "FaceBlocks",
    "LocalAssemblyError",
    "assemble_element",
    "assemble_all",
    "apply_T",
    "apply_Ttilde",
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
            k_id = _assemble_stiffness(self.geom, _identity_tensors(len(self.geom.cells)))
            saddle, lu = _factor_saddle(self.elem, k_id, self.mean_vector)
            self._identity_flux_energy = _condense_boundary(self.geom, saddle, lu)
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


def _identity_tensors(nc: int) -> np.ndarray:
    out = np.zeros((nc, 2, 2))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    return out


def _assemble_stiffness(geom: ElementGeometry, tensors: np.ndarray) -> np.ndarray:
    """Exact P1 stiffness for cellwise-constant tensors.

    The diagonal is set to minus the off-diagonal row sum so constants lie
    in the kernel exactly; otherwise the roundoff kernel defect (of size
    norm(K) * eps) leaks into every constrained solve as a spurious
    constraint multiplier, which is visible at high contrast.
    """
    nn = geom.n_nodes
    k = np.zeros((nn, nn))
    flux = np.einsum("cij,ckj->cki", tensors, geom.grads)   # (nc, 3, 2): A grad(phi_k)
    local = np.einsum("cki,cli->ckl", flux, geom.grads) * geom.cell_areas[:, None, None]
    for c, cell in enumerate(geom.cells):
        k[np.ix_(cell, cell)] += local[c]
    k[np.diag_indices(nn)] -= k.sum(axis=1)
    return k


_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mass(geom: ElementGeometry, rho: np.ndarray) -> np.ndarray:
    """Exact rho-weighted P1 mass for cellwise-constant rho."""
    nn = geom.n_nodes
    m = np.zeros((nn, nn))
    for c, cell in enumerate(geom.cells):
        m[np.ix_(cell, cell)] += (rho[c] * geom.cell_areas[c]) * _MASS_REF
    return m


def _factor_saddle(
    elem: int, stiffness: np.ndarray, mean_vector: np.ndarray
) -> tuple[np.ndarray, tuple]:
    nn = stiffness.shape[0]
    saddle = np.zeros((nn + 1, nn + 1))
    saddle[:nn, :nn] = stiffness
    saddle[:nn, nn] = mean_vector
    saddle[nn, :nn] = mean_vector
    try:
        lu = scipy.linalg.lu_factor(saddle)
    except scipy.linalg.LinAlgError as exc:
        raise LocalAssemblyError(f"element {elem}: constrained system not factorizable ({exc})")
    if not np.all(np.isfinite(lu[0])) or np.any(np.abs(np.diag(lu[0])) == 0.0):
        raise LocalAssemblyError(
            f"element {elem}: constrained system is singular; coefficient not SPD?"
        )
    return saddle, lu


def _condense_boundary(geom: ElementGeometry, saddle: np.ndarray, lu: tuple) -> np.ndarray:
    """Static condensation: B[a, b] = (mu_a, T mu_b) over fine-face fluxes."""
    nn = geom.n_nodes
    n_bf = geom.n_boundary_faces
    rhs = np.zeros((nn + 1, n_bf))
    rhs[:nn] = geom.trace_matrix.T
    sols = scipy.linalg.lu_solve(lu, rhs)
    sols += scipy.linalg.lu_solve(lu, rhs - saddle @ sols)
    b = geom.trace_matrix @ sols[:nn]
    return 0.5 * (b + b.T)


def assemble_element(
    elem: int,
    field_a: CoefficientField,
    weight: WeightField,
    part: FinePartition,
) -> ElementCache:
    """Assemble matrices, saddle factorization, and flux-energy cache."""
    geom = part.geometry[elem]
    tensors = field_a.tensors[elem]
    rho = weight.values[elem]
    if len(tensors) != len(geom.cells) or len(rho) != len(geom.cells):
        raise LocalAssemblyError(f"element {elem}: coefficient does not cover all cells")
    stiffness = _assemble_stiffness(geom, tensors)
    mass = _assemble_mass(geom, rho)
    mean_vector = mass @ np.ones(geom.n_nodes)
    saddle, lu = _factor_saddle(elem, stiffness, mean_vector)
    flux_energy = _condense_boundary(geom, saddle, lu)
    emin, emax = field_a.cell_eigen_bounds(elem)
    cache = ElementCache(
        elem=elem,
        geom=geom,
        tensors=tensors,
        rho=rho,
        stiffness=stiffness,
        mass=mass,
        mean_vector=mean_vector,
        flux_energy=flux_energy,
        a_min=float(emin.min()),
        a_max=float(emax.max()),
    )
    cache._saddle = saddle
    cache._saddle_lu = lu
    return cache


def assemble_all(
    field_a: CoefficientField, weight: WeightField, part: FinePartition
) -> list[ElementCache]:
    """Assemble every element cache, in element order."""
    return [assemble_element(t, field_a, weight, part) for t in range(part.mesh.n_elements)]


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


def face_blocks(cache: ElementCache, space: TraceSpace, face: int) -> FaceBlocks:
    """Split the element flux-energy matrix by one coarse face.

    Degrees of freedom are restricted to zero average per face, so a face
    with a single fine sub-face contributes nothing and yields empty
    blocks.  Element-side signs cancel in every block because each basis
    vector enters quadratically.
    """
    geom = cache.geom
    if face not in geom.face_rows:
        raise ValueError(f"face {face} is not a face of element {cache.elem}")
    z = space.zero_mean
    m = z.shape[1]
    rows_f = geom.face_rows[face]
    other_faces = [f for f in geom.face_rows if f != face]
    rows_c = np.concatenate([geom.face_rows[f] for f in other_faces]) if other_faces else np.array([], dtype=int)

    if m == 0:
        zero = np.zeros((0, 0))
        return FaceBlocks(face, zero, zero.copy(), zero.copy(), zero.copy(), zero.copy())

    b = cache.flux_energy
    zc = scipy.linalg.block_diag(*([z] * len(other_faces))) if other_faces else np.zeros((0, 0))
    t_ff = z.T @ b[np.ix_(rows_f, rows_f)] @ z
    t_ffc = z.T @ b[np.ix_(rows_f, rows_c)] @ zc
    t_fcf = t_ffc.T.copy()
    t_fcfc = zc.T @ b[np.ix_(rows_c, rows_c)] @ zc

    if t_fcfc.shape[0] == 0:
        t_hat = t_ff.copy()
    else:
        try:
            c = scipy.linalg.cho_factor(t_fcfc)
        except scipy.linalg.LinAlgError as exc:
            raise AssertionError(
                f"element {cache.elem}, face {face}: complementary block not SPD ({exc})"
            ) from exc
        t_hat = t_ff - t_ffc @ scipy.linalg.cho_solve(c, t_fcf)
    t_ff = 0.5 * (t_ff + t_ff.T)
    t_hat = 0.5 * (t_hat + t_hat.T)
    return FaceBlocks(face, t_ff, t_ffc, t_fcf, t_fcfc, t_hat)


def broken_energy(caches: list[ElementCache], values: list[np.ndarray]) -> float:
    """Squared A-weighted broken seminorm of a broken nodal field."""
    return sum(c.energy(v) for c, v in zip(caches, values))

