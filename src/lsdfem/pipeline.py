"""End-to-end solvers: staged method, oracles, and run reports.

The staged solve follows the four-step elimination of the hybrid saddle
problem: jump coefficients from the constant pairing, the upscaled
coarse solve over the face-constant-plus-retained block, recovery of the
localizable component by patch solves, then the constant part and the
elementwise reconstruction.  Two oracles sit alongside it: the monolithic
symmetric-indefinite solve of the full hybrid system, and a conforming
P1 solve on the union fine mesh approximating the continuous solution.
Every solution path uses direct factorizations only.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import presets
from .coeff import (
    CoefficientField,
    ContrastStats,
    WEIGHT_CHOICES,
    WeightField,
    local_bounds,
    make_weight,
)
from .localize import (
    PatchProjector,
    build_flux_energy,
    delta_basis,
    pi_basis,
    plain_basis,
)
from .localop import (
    ElementCache,
    apply_T,
    apply_Ttilde,
    assemble_all,
    broken_energy,
)
from .mesh import (
    CoarseMesh,
    FinePartition,
    UnionMesh,
    build_structured_mesh,
    build_union_mesh,
    load_mesh,
    refine_faces,
    saturation_radius,
)
from .spectral import (
    ElementSpectrum,
    FaceSpectrum,
    all_element_spectra,
    all_face_spectra,
    project_rhs,
    ttilde_from_spectrum,
)
from .traces import (
    PiecewiseConstant,
    TraceSpace,
    TraceVector,
    build_trace_space,
    element_boundary_functional,
    solve_V0_pairing,
)

__all__ = [
    "SolverConfig",
    "Solution",
    "Assembly",
    "PipelineError",
    "build_assembly",
    "sample_load",
    "solve_lambda0",
    "assemble_upscaled",
    "recover_delta",
    "solve_u0",
    "reconstruct",
    "solve_lsd",
    "exact_hybrid_solve",
    "conforming_solve",
    "energy_error",
    "load_norm",
    "full_pipeline",
]

EQUILIBRIUM_TOL = 1e-10


class PipelineError(RuntimeError):
    """A stage of the pipeline failed; carries the stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float, np.number))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass
class SolverConfig:
    """Everything a run needs; serializable and hashable for reports."""

    nx: int = 4
    ny: int = 4
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    mesh_file: str | None = None
    face_level: int = 1
    interior_level: int | None = None
    coefficient: str = "smooth"
    coefficient_params: dict = field(default_factory=dict)
    coefficient_file: str | None = None
    rho: str = "one"
    variant: str = "plain"              # "plain" or "delta"
    alpha_stab: float = 4.0
    j: int = 2
    h_target: float | None = None       # defaults to the coarse mesh size
    c_j: float = 1.0
    rhs: str = "smooth"
    rhs_params: dict = field(default_factory=dict)
    rhs_reduction: bool = False
    compare_exact: bool = False
    compare_conforming: bool = False
    equilibrium_tol: float = EQUILIBRIUM_TOL

    def validate(self) -> None:
        # j, alpha_stab, h_target and c_j key cached stage products, so each
        # must be a real value that equals itself.
        for name, low in (("nx", 1), ("ny", 1), ("face_level", 0), ("j", 1)):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.interior_level is not None and not (
            _is_integer(self.interior_level) and self.interior_level > self.face_level
        ):
            raise ValueError(
                f"interior_level must be None or an integer > face_level, got {self.interior_level!r}"
            )
        for name in ("alpha_stab", "c_j", "h_target"):
            value = getattr(self, name)
            if not (_is_finite_number(value) or (name == "h_target" and value is None)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.alpha_stab < 1.0:
            raise ValueError("alpha_stab must be >= 1")
        if self.h_target is not None and self.h_target <= 0.0:
            raise ValueError("h_target must be positive")
        if self.variant not in ("plain", "delta"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.rho == "custom":
            raise ValueError(
                "rho 'custom' needs a raster or callable, which only the library's "
                "make_weight accepts; a config cannot supply one"
            )
        if self.rho not in WEIGHT_CHOICES:
            raise ValueError(f"unknown rho {self.rho!r}")
        if self.rhs not in presets.LOAD_PRESETS:
            raise ValueError(f"unknown rhs {self.rhs!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["domain"] = list(self.domain)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "domain" in kwargs:
            kwargs["domain"] = tuple(kwargs["domain"])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Solution:
    """Reconstructed fields of one staged solve."""

    u0: PiecewiseConstant
    u_broken: list[np.ndarray]
    lam0: TraceVector
    lam_coarse: TraceVector        # face-constant + retained spectral part
    lam_delta: TraceVector
    lam_total: TraceVector
    sigma: list[np.ndarray]        # per element: (nc, 2) cellwise flux
    diagnostics: dict


def _variant_key(variant: str, alpha_stab: float) -> tuple[str, float]:
    """Cache key of a variant: ``alpha_stab`` only matters for ``delta``."""
    return (variant, alpha_stab if variant == "delta" else 0.0)


class Assembly:
    """Stage products shared between solves on one discretization."""

    def __init__(
        self,
        mesh: CoarseMesh,
        part: FinePartition,
        field_a: CoefficientField,
        weight: WeightField,
        caches: list[ElementCache],
        space: TraceSpace,
        energy: sp.csr_matrix,
        stats: ContrastStats,
    ):
        self.mesh = mesh
        self.part = part
        self.field = field_a
        self.weight = weight
        self.caches = caches
        self.space = space
        self.energy = energy
        self.stats = stats
        self._face_spectra: dict[float, list[FaceSpectrum]] = {}
        self._projectors: dict[tuple[str, float], PatchProjector] = {}
        self._element_spectra: dict[tuple[float, float], list[ElementSpectrum]] = {}
        self._coarse_bases: dict[tuple[str, float], np.ndarray] = {}
        self._upscaled: dict[tuple[str, float, int | None], UpscaledOperator] = {}
        self._union: UnionMesh | None = None

    def face_spectra(self, alpha_stab: float) -> list[FaceSpectrum]:
        spectra = self._face_spectra.get(alpha_stab)
        if spectra is None:
            spectra = all_face_spectra(self.space, self.caches, alpha_stab)
            self._face_spectra[alpha_stab] = spectra
        return spectra

    def projector(self, variant: str, alpha_stab: float) -> PatchProjector:
        key = _variant_key(variant, alpha_stab)
        proj = self._projectors.get(key)
        if proj is None:
            if variant == "plain":
                basis = plain_basis(self.space)
            else:
                basis = delta_basis(self.space, self.face_spectra(alpha_stab))
            proj = PatchProjector(self.space, self.caches, self.energy, basis)
            self._projectors[key] = proj
        return proj

    def element_spectra(self, h_target: float, c_j: float) -> list[ElementSpectrum]:
        key = (h_target, c_j)
        spectra = self._element_spectra.get(key)
        if spectra is None:
            spectra = all_element_spectra(self.caches, h_target, c_j)
            self._element_spectra[key] = spectra
        return spectra

    def coarse_basis(self, variant: str, alpha_stab: float) -> np.ndarray:
        """Stored basis of the upscaled block: face constants plus retained modes."""
        key = _variant_key(variant, alpha_stab)
        basis = self._coarse_bases.get(key)
        if basis is None:
            basis = self.space.tilde0_stored_basis()
            if variant != "plain":
                pi = pi_basis(self.space, self.face_spectra(alpha_stab))
                if pi.dim:
                    basis = np.hstack([basis, pi.matrix.toarray()])
            basis.flags.writeable = False
            self._coarse_bases[key] = basis
        return basis

    def upscaled_operator(
        self, variant: str, alpha_stab: float, j: int | None
    ) -> "UpscaledOperator":
        """Load-independent upscaled operator, built by the first solve that needs it.

        Kept per ``(variant, alpha_stab, j)`` for the life of the assembly:
        the multiscale basis costs ``n_fine x M`` doubles, and every later
        solve with the same key pays only its per-load patch passes.
        """
        key = (*_variant_key(variant, alpha_stab), j)
        operator = self._upscaled.get(key)
        if operator is None:
            operator = UpscaledOperator.build(
                self.energy,
                self.projector(variant, alpha_stab),
                self.coarse_basis(variant, alpha_stab),
                j,
            )
            self._upscaled[key] = operator
        return operator

    def union_mesh(self) -> "UnionMesh":
        if self._union is None:
            self._union = build_union_mesh(self.part)
        return self._union


def build_assembly(cfg: SolverConfig) -> Assembly:
    """Stages mesh -> coefficients -> element caches -> trace space."""
    cfg.validate()
    try:
        if cfg.mesh_file:
            mesh = load_mesh(cfg.mesh_file)
        else:
            mesh = build_structured_mesh(cfg.nx, cfg.ny, cfg.domain)
        part = refine_faces(mesh, cfg.face_level, cfg.interior_level)
    except Exception as exc:
        raise PipelineError("mesh", exc) from exc
    try:
        field_a = presets.coefficient_field(
            part, cfg.coefficient, cfg.coefficient_params, cfg.coefficient_file
        )
        weight = make_weight(cfg.rho, field_a)
        stats = local_bounds(field_a)
    except Exception as exc:
        raise PipelineError("coefficients", exc) from exc
    try:
        caches = assemble_all(field_a, weight, part)
    except Exception as exc:
        raise PipelineError("element_caches", exc) from exc
    try:
        space = build_trace_space(part)
        energy = build_flux_energy(space, caches)
    except Exception as exc:
        raise PipelineError("trace_space", exc) from exc
    return Assembly(mesh, part, field_a, weight, caches, space, energy, stats)


def sample_load(part: FinePartition, fn: Callable[[np.ndarray], np.ndarray]) -> list[np.ndarray]:
    """Elementwise P1 interpolant of the load g."""
    return [np.asarray(fn(geom.nodes), dtype=float) for geom in part.geometry]


def load_norm(caches: list[ElementCache], g: list[np.ndarray]) -> float:
    """Weighted L2 norm of the load."""
    return sum(float(g_t @ (c.mass @ g_t)) for c, g_t in zip(caches, g)) ** 0.5


def energy_error(caches: list[ElementCache], u: list[np.ndarray], v: list[np.ndarray]) -> float:
    """Broken A-energy distance between two broken nodal fields."""
    return sum(
        float((a - b) @ (c.stiffness @ (a - b))) for c, a, b in zip(caches, u, v)
    ) ** 0.5


# ---------------------------------------------------------------------------
# The staged solve.
# ---------------------------------------------------------------------------


def solve_lambda0(assembly: Assembly, g: list[np.ndarray]) -> TraceVector:
    """Jump-basis coefficients from the constant pairing against the load."""
    rhs = np.array([-float(c.mean_vector @ g_t) for c, g_t in zip(assembly.caches, g)])
    coeffs = solve_V0_pairing(assembly.space, rhs, transpose=True)
    return assembly.space.vector(assembly.space.jump_basis @ coeffs)


def compute_ttilde(
    assembly: Assembly,
    g: list[np.ndarray],
    spectra: list[ElementSpectrum] | None = None,
) -> list[np.ndarray]:
    """Load potential per element; spectral shortcut when spectra are given."""
    if spectra is None:
        return [apply_Ttilde(c, g_t) for c, g_t in zip(assembly.caches, g)]
    return [
        ttilde_from_spectrum(spec, cache, g_t)
        for spec, cache, g_t in zip(spectra, assembly.caches, g)
    ]


@dataclass
class UpscaledOperator:
    """Load-independent part of the upscaled problem for one basis and j."""

    basis: np.ndarray          # (n_fine, M) stored basis columns
    multiscale: np.ndarray     # (n_fine, M) psi = basis - P_j^T basis
    gram: np.ndarray           # (M, M) psi^T S psi
    factor: tuple | None       # Cholesky factor of the Gram (None when M = 0)

    @classmethod
    def build(
        cls, energy: sp.csr_matrix, projector: PatchProjector, basis: np.ndarray, j: int | None
    ) -> "UpscaledOperator":
        """Multiscale basis by patch solves, then its Gram from the energy matrix."""
        psi = basis - projector.apply_PjT_columns(basis, j)
        psi.flags.writeable = False
        gram = psi.T @ (energy @ psi)
        gram = 0.5 * (gram + gram.T)
        factor = None
        if basis.shape[1]:
            try:
                factor = scipy.linalg.cho_factor(gram)
            except scipy.linalg.LinAlgError as exc:
                raise AssertionError(
                    f"upscaled system is not SPD ({exc}); patch/spectral data inconsistent"
                ) from exc
        return cls(basis, psi, gram, factor)


@dataclass
class UpscaledSystem:
    """Coarse system of one load over the face-constant + retained block.

    Besides the right-hand side it keeps the load's two patch passes,
    which :func:`recover_delta` reuses.
    """

    operator: UpscaledOperator
    rhs: np.ndarray            # (M,)
    flux0_localized: np.ndarray    # P_j^T lam0, stored values
    load_localized: np.ndarray     # P_j of the load potential, stored values
    coefficients: np.ndarray | None = None

    @property
    def basis(self) -> np.ndarray:
        return self.operator.basis

    @property
    def multiscale(self) -> np.ndarray:
        return self.operator.multiscale

    @property
    def gram(self) -> np.ndarray:
        return self.operator.gram


def assemble_upscaled(
    assembly: Assembly,
    projector: PatchProjector,
    operator: UpscaledOperator,
    lam0: TraceVector,
    ttg_functionals: list[np.ndarray | None],
    r_ttg: np.ndarray,
    j: int | None,
) -> UpscaledSystem:
    """Build the coarse Galerkin system for the face-constant + retained part.

    ``operator`` is the load-independent part for ``projector`` and ``j``
    (:meth:`Assembly.upscaled_operator`): the multiscale basis and its
    Gram.  ``r_ttg`` is the sum of ``ttg_functionals``.  The load costs
    one element-seeded and one face-seeded patch pass; both load terms
    then come from the cached energy matrix, never from interior re-solves.
    """
    s_mat = assembly.energy
    q = projector.apply_Pj(ttg_functionals, j).values
    flux0 = projector.apply_PjT(lam0, j).values
    work = r_ttg - s_mat @ q + s_mat @ (lam0.values - flux0)
    rhs = -(operator.multiscale.T @ work)
    return UpscaledSystem(operator, rhs, flux0, q)


def solve_upscaled(system: UpscaledSystem, space: TraceSpace) -> TraceVector:
    if system.basis.shape[1] == 0:
        system.coefficients = np.zeros(0)
        return space.zeros()
    x = scipy.linalg.cho_solve(system.operator.factor, system.rhs)
    system.coefficients = x
    return space.vector(system.basis @ x)


def recover_delta(
    assembly: Assembly, lam_coarse: TraceVector, system: UpscaledSystem
) -> TraceVector:
    """Localizable component from patch projections of the known parts.

    ``system`` is the solved upscaled system ``lam_coarse`` came from.  It
    supplies the load's patch passes, and ``P_j^T lam_coarse`` follows by
    linearity as ``lam_coarse - psi x``, so no patch pass runs here.
    """
    coarse_part = lam_coarse.values - system.multiscale @ system.coefficients
    flux_part = system.flux0_localized + coarse_part
    return assembly.space.vector(-(flux_part + system.load_localized))


def solve_u0(
    assembly: Assembly, lam_total: TraceVector, r_ttg: np.ndarray
) -> PiecewiseConstant:
    """Constant part from the transposed constant-pairing system."""
    space = assembly.space
    rhs = -(space.jump_basis.T @ (assembly.energy @ lam_total.values + r_ttg))
    values = solve_V0_pairing(space, np.asarray(rhs).ravel(), transpose=False)
    return PiecewiseConstant(values)


def reconstruct(
    assembly: Assembly,
    lam0: TraceVector,
    lam_coarse: TraceVector,
    lam_delta: TraceVector,
    u0: PiecewiseConstant,
    g: list[np.ndarray],
    ttg: list[np.ndarray],
    equilibrium_tol: float = EQUILIBRIUM_TOL,
) -> Solution:
    """Per-element displacement and flux, with equilibrium diagnostics.

    The flux is checked against the interior load balance on every
    element: the residual at interior nodes is the multiplier of the
    zero-average constraint, which vanishes because the recovered
    multiplier carries exactly the load average of each element.
    """
    lam_total = lam0 + lam_coarse + lam_delta
    u_broken: list[np.ndarray] = []
    sigma: list[np.ndarray] = []
    eq_rel = np.zeros(len(assembly.caches))
    for cache in assembly.caches:
        t = cache.elem
        side = lam_total.side_values(t)
        tilde = apply_T(cache, side) + ttg[t]
        u_broken.append(u0.values[t] + tilde)
        grad = np.einsum("ck,cki->ci", tilde[cache.geom.cells], cache.geom.grads)
        sigma.append(np.einsum("cij,cj->ci", cache.tensors, grad))
        load = cache.mass @ g[t]
        traction = cache.geom.trace_matrix.T @ side
        residual = cache.stiffness @ tilde - load - traction
        interior = cache.geom.interior_nodes
        # Componentwise scale: the residual at a node is compared against
        # the magnitudes of the flux and load terms that feed it, so the
        # check stays meaningful at high contrast.
        scale = np.abs(cache.stiffness) @ np.abs(tilde) + np.abs(load) + np.abs(traction)
        scale = np.maximum(scale, scale.max() * 1e-8 + 1e-300)
        if interior.size:
            eq_rel[t] = (np.abs(residual[interior]) / scale[interior]).max()
    flux_energy_sq = float(lam_total.values @ (assembly.energy @ lam_total.values))
    diagnostics = {
        "equilibrium_rel_max": float(eq_rel.max()) if len(eq_rel) else 0.0,
        "equilibrium_tol": equilibrium_tol,
        "equilibrium_ok": bool(eq_rel.max() <= equilibrium_tol) if len(eq_rel) else True,
        "flux_energy_sq": flux_energy_sq,
        "solution_energy_sq": broken_energy(assembly.caches, u_broken),
    }
    return Solution(
        u0=u0,
        u_broken=u_broken,
        lam0=lam0,
        lam_coarse=lam_coarse,
        lam_delta=lam_delta,
        lam_total=lam_total,
        sigma=sigma,
        diagnostics=diagnostics,
    )


def solve_lsd(
    assembly: Assembly,
    g: list[np.ndarray],
    j: int | None,
    variant: str = "plain",
    alpha_stab: float = 4.0,
    rhs_reduction: bool = False,
    h_target: float | None = None,
    c_j: float = 1.0,
    equilibrium_tol: float = EQUILIBRIUM_TOL,
) -> Solution:
    """Run the staged solve on an existing assembly.

    ``j=None`` uses the global projections (the exact four-step
    reference); any integer j >= 1 localizes every projection to j
    element layers.
    """
    if h_target is None:
        h_target = assembly.mesh.coarse_size
    g_used = g
    reduction_info: dict = {}
    spectra_e: list[ElementSpectrum] | None = None
    if rhs_reduction:
        spectra_e = assembly.element_spectra(h_target, c_j)
        g_used, remainders = project_rhs(spectra_e, assembly.caches, g)
        sig_next = np.array(
            [s.sigma[s.j_count] if s.j_count < len(s.sigma) else np.inf for s in spectra_e]
        )
        reduction_info = {
            "j_counts": [s.j_count for s in spectra_e],
            "sigma_next_min": float(sig_next.min()),
            "reduction_bound": float(np.max(1.0 / np.sqrt(sig_next))),
            "dropped_norm": float(np.linalg.norm(remainders)),
        }

    ttg = compute_ttilde(assembly, g_used, spectra_e)
    ttg_functionals = [
        element_boundary_functional(assembly.space, t, v) for t, v in enumerate(ttg)
    ]
    r_ttg = np.add.reduce(ttg_functionals) if ttg_functionals else np.zeros(assembly.space.n_fine)

    projector = assembly.projector(variant, alpha_stab)
    operator = assembly.upscaled_operator(variant, alpha_stab, j)

    lam0 = solve_lambda0(assembly, g_used)
    system = assemble_upscaled(assembly, projector, operator, lam0, ttg_functionals, r_ttg, j)
    lam_coarse = solve_upscaled(system, assembly.space)
    lam_delta = recover_delta(assembly, lam_coarse, system)
    lam_total = lam0 + lam_coarse + lam_delta
    u0 = solve_u0(assembly, lam_total, r_ttg)
    solution = reconstruct(
        assembly, lam0, lam_coarse, lam_delta, u0, g_used, ttg, equilibrium_tol
    )
    solution.diagnostics["variant"] = variant
    solution.diagnostics["j"] = j
    solution.diagnostics["coarse_dim"] = int(operator.basis.shape[1])
    solution.diagnostics["load_norm"] = load_norm(assembly.caches, g_used)
    if rhs_reduction:
        solution.diagnostics["rhs_reduction"] = reduction_info
    return solution


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def exact_hybrid_solve(
    assembly: Assembly, g: list[np.ndarray]
) -> tuple[list[np.ndarray], TraceVector]:
    """Monolithic symmetric-indefinite solve of the full hybrid system.

    Returns the broken solution and the multiplier.  This is the
    localization-error reference; it is exact up to the direct solver.
    """
    part = assembly.part
    stiffness = np.stack([c.stiffness for c in assembly.caches])
    ne, nn = stiffness.shape[:2]
    nu, nl = ne * nn, assembly.space.n_fine
    nodes = np.arange(nu).reshape(ne, 1, nn)
    k_mat = sp.csr_matrix((stiffness.ravel(), _block_indices(nodes[:, 0])), shape=(nu, nu))
    # Constraint block: -(mu, u) rows and the symmetric -(lambda, v) columns.
    signed = -(part.boundary_signs[:, :, None] * part.trace_matrices)
    rows = np.broadcast_to(part.boundary_face_ids[:, :, None], signed.shape).ravel()
    cols = np.broadcast_to(nodes, signed.shape).ravel()
    cons = sp.csr_matrix((signed.ravel(), (rows, cols)), shape=(nl, nu))
    mat = sp.bmat([[k_mat, cons.T], [cons, None]], format="csc")
    rhs = np.concatenate([c.mass @ g_t for c, g_t in zip(assembly.caches, g)] + [np.zeros(nl)])
    try:
        lu = spla.splu(mat)
    except RuntimeError as exc:
        raise AssertionError(f"hybrid saddle system is singular: {exc}") from exc
    sol = lu.solve(rhs)
    return list(sol[:nu].reshape(ne, nn)), assembly.space.vector(sol[nu:])


def _block_indices(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of element blocks (ne, nn, nn) scattered by ``maps`` (ne, nn)."""
    nn = maps.shape[1]
    return np.repeat(maps, nn, axis=1).ravel(), np.tile(maps, nn).ravel()


def poincare_estimate(assembly: Assembly) -> float:
    """Rayleigh-quotient estimate of the global weighted Poincare constant.

    Largest ratio of the weighted L2 norm to the energy norm over the
    conforming fine space with zero boundary values; computed from the
    smallest eigenvalue of the global stiffness/mass pencil.  A measured
    diagnostic, not an input to the method.
    """
    import scipy.sparse.linalg as sla

    union = assembly.union_mesh()
    ng = union.nodes.shape[0]
    idx = _block_indices(union.node_maps)
    k_gl = sp.csr_matrix((np.stack([c.stiffness for c in assembly.caches]).ravel(), idx), (ng, ng))
    m_gl = sp.csr_matrix((np.stack([c.mass for c in assembly.caches]).ravel(), idx), (ng, ng))
    free = np.setdiff1d(np.arange(ng), union.boundary)
    k_ff = k_gl[np.ix_(free, free)].tocsc()
    m_ff = m_gl[np.ix_(free, free)].tocsc()
    v0 = np.ones(free.size)
    lam = sla.eigsh(k_ff, k=1, M=m_ff, sigma=0.0, which="LM", v0=v0,
                    return_eigenvectors=False)
    return float(1.0 / np.sqrt(lam[0]))


def j_guidance(alpha_effective: float, dim: int = 2) -> list[dict]:
    """Heuristic layer counts per target reduction of the truncation error.

    Uses the qualitative per-layer factor q = d^2 a / (1 + d^2 a) with the
    effective threshold in place of the unquantifiable worst-case product;
    the absolute constants are unknown, so this is guidance for choosing
    the layer count, never solver logic.
    """
    q = dim**2 * alpha_effective / (1.0 + dim**2 * alpha_effective)
    out = []
    for target in (1e-1, 1e-2, 1e-4, 1e-6):
        j = int(np.ceil(np.log(target) / np.log(q))) if q < 1.0 else None
        out.append({"target_factor": target, "suggested_j": j})
    return out


def conforming_solve(
    assembly: Assembly, g: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Conforming P1 solve on the union fine mesh with zero boundary values.

    Approximates the continuous solution; its discretization error is the
    one caveat when it serves as the reference for target-precision
    calibration.  Returns union nodal values and the broken per-element view.
    """
    union = assembly.union_mesh()
    ng = union.nodes.shape[0]
    rhs = np.zeros(ng)
    loads = np.concatenate([c.mass @ g_t for c, g_t in zip(assembly.caches, g)])
    np.add.at(rhs, union.node_maps.ravel(), loads)
    stiffness = np.stack([c.stiffness for c in assembly.caches]).ravel()
    mat = sp.csr_matrix((stiffness, _block_indices(union.node_maps)), shape=(ng, ng)).tolil()
    for b in union.boundary:
        mat.rows[b] = [b]
        mat.data[b] = [1.0]
        rhs[b] = 0.0
    # Keep symmetry irrelevant for splu; Dirichlet rows replaced, columns left.
    lu = spla.splu(mat.tocsc())
    u = lu.solve(rhs)
    broken = [u[union.node_maps[t]] for t in range(len(assembly.caches))]
    return u, broken


# ---------------------------------------------------------------------------
# Full pipeline with report.
# ---------------------------------------------------------------------------


def full_pipeline(
    cfg: SolverConfig,
    g_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    assembly: Assembly | None = None,
) -> tuple[Solution, dict]:
    """Run every stage and emit a JSON-able report of all diagnostics."""
    cfg.validate()
    timings: dict[str, float] = {}

    def timed(stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(stage, exc) from exc
        timings[stage] = time.perf_counter() - t0
        return out

    if assembly is None:
        t0 = time.perf_counter()
        assembly = build_assembly(cfg)
        timings["assembly"] = time.perf_counter() - t0

    if g_fn is None:
        g_fn = presets.load_function(cfg.rhs, cfg.rhs_params)
    g = timed("rhs", sample_load, assembly.part, g_fn)

    solution = timed(
        "solve",
        solve_lsd,
        assembly,
        g,
        cfg.j,
        cfg.variant,
        cfg.alpha_stab,
        cfg.rhs_reduction,
        cfg.h_target,
        cfg.c_j,
        cfg.equilibrium_tol,
    )

    report: dict = {
        "config": cfg.to_dict(),
        "config_hash": cfg.digest(),
        "dimensions": {
            "elements": assembly.mesh.n_elements,
            "saturation_radius": saturation_radius(assembly.mesh),
            "coarse_faces": assembly.mesh.n_faces,
            "fine_faces": assembly.space.n_fine,
            "tilde0_dim": assembly.space.dim_tilde0,
            "tilde_f_dim": assembly.space.dim_tilde_f,
            "coarse_dim": solution.diagnostics["coarse_dim"],
        },
        "contrast": assembly.stats.as_dict(),
        "diagnostics": dict(solution.diagnostics),
    }
    if cfg.variant == "delta":
        spectra = assembly.face_spectra(cfg.alpha_stab)
        alphas = np.concatenate([s.alphas for s in spectra if not s.empty]) if spectra else np.zeros(0)
        report["face_spectrum"] = {
            "alpha_min": float(alphas.min()) if alphas.size else None,
            "alpha_max": float(alphas.max()) if alphas.size else None,
            "n_pi_total": int(sum(s.n_pi for s in spectra)),
            "n_delta_total": int(sum(s.n_delta for s in spectra)),
        }
        alpha_eff = cfg.alpha_stab
    else:
        alpha_eff = min(assembly.stats.beta**2 * assembly.stats.kappa, 1e6)
    report["j_guidance"] = j_guidance(alpha_eff)

    if cfg.compare_exact:
        u_ref, lam_ref = timed("oracle_exact", exact_hybrid_solve, assembly, g)
        err = energy_error(assembly.caches, u_ref, solution.u_broken)
        ref = broken_energy(assembly.caches, u_ref) ** 0.5
        report["oracle_exact"] = {
            "energy_error": err,
            "reference_energy": ref,
            "relative": err / ref if ref > 0 else 0.0,
        }
    if cfg.compare_conforming:
        _, u_conf = timed("oracle_conforming", conforming_solve, assembly, g)
        err = energy_error(assembly.caches, u_conf, solution.u_broken)
        gn = solution.diagnostics["load_norm"]
        report["oracle_conforming"] = {
            "energy_error": err,
            "error_per_load": err / gn if gn > 0 else 0.0,
            "global_poincare_estimate": timed("poincare", poincare_estimate, assembly),
        }
    report["timings"] = timings
    return solution, report
