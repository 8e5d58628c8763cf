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

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import presets
from .coeff import ContrastStats, WEIGHT_CHOICES, local_bounds, make_weight
from .coeff import _BOOL, _DOMAIN, _POSITIVE, _POSITIVE_INT, _is_finite_number, _is_integer   # value rules
from .localize import (
    PatchProjector,
    build_flux_energy,
    face_basis,
    spd_factor,
)
from .localop import (
    ElementCache,
    assemble_all,
    broken_energy,
    load_functionals,
    local_solve,
    quadratic_forms,
    scatter_blocks,
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
)
from .traces import TraceSpace, build_trace_space, solve_V0_pairing

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
    "solve_global",
    "solve_lsd",
    "exact_hybrid_solve",
    "conforming_solve",
    "energy_error",
    "load_norm",
    "full_pipeline",
]

EQUILIBRIUM_TOL = 1e-10
_BLOCK = 32    # elements per block of reconstruct's pass over the stiffness stack


class PipelineError(RuntimeError):
    """A stage of the pipeline failed; carries the stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@contextlib.contextmanager
def _stage(name: str, timings: dict | None = None):
    """Tag a failure inside the block as stage ``name``; on success record its wall time in ``timings``."""
    t0 = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    if timings is not None:
        timings[name] = time.perf_counter() - t0


# Each config field's requirement: (names, requirement, check of one value).
# j, alpha_stab, h_target and c_j key cached stage products, so each must be
# a real value that equals itself.
_FIELD_RULES = (
    (("nx", "ny", "j"), *_POSITIVE_INT),
    (("face_level",), "an integer >= 0", lambda v: _is_integer(v) and v >= 0),
    (("domain",), *_DOMAIN),
    (("coefficient", "rhs"), "a name string", lambda v: isinstance(v, str)),
    (("rho",), f"one of {', '.join(WEIGHT_CHOICES)}", lambda v: v in WEIGHT_CHOICES),
    (("variant",), "plain or delta", lambda v: v in ("plain", "delta")),
    (("coefficient_params", "rhs_params"), "an object", lambda v: isinstance(v, dict)),
    (("mesh_file", "coefficient_file"), "null or a path string", lambda v: v is None or isinstance(v, str)),
    (("rhs_reduction", "compare_exact", "compare_conforming"), *_BOOL),
    (("alpha_stab",), "a finite number >= 1", lambda v: _is_finite_number(v) and v >= 1.0),
    (("c_j", "equilibrium_tol"), *_POSITIVE),
    (("h_target",), "null or a finite number > 0", lambda v: v is None or (_is_finite_number(v) and v > 0.0)),
)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs, checked when made and read-only after; ``digest`` hashes it for reports."""

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for names, rule, ok in _FIELD_RULES:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.interior_level is not None and not (
            _is_integer(self.interior_level) and self.interior_level > self.face_level
        ):
            raise ValueError(
                f"interior_level must be None or an integer > face_level, got {self.interior_level!r}"
            )
        try:
            presets.load_function(self.rhs, self.rhs_params)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"rhs {self.rhs!r} with rhs_params {self.rhs_params!r}: {exc}") from None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["domain"] = list(self.domain)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("domain"), list):
            kwargs["domain"] = tuple(kwargs["domain"])
        return cls(**kwargs)

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class Solution:
    """Reconstructed fields of one staged solve; each multiplier is ``(n_fine,)`` stored values."""

    u0: np.ndarray                 # (ne,) constant part per element
    u_broken: np.ndarray           # (ne, nn) broken nodal field
    lam0: np.ndarray
    lam_coarse: np.ndarray         # face-constant + retained spectral part
    lam_delta: np.ndarray
    lam_total: np.ndarray
    sigma: np.ndarray              # (ne, nc, 2) cellwise flux
    diagnostics: dict


def _variant_key(variant: str, alpha_stab: float) -> tuple[str, float]:
    """Cache key of a variant: ``alpha_stab`` only matters for ``delta``."""
    if variant not in ("plain", "delta"):
        raise ValueError(f"variant must be plain or delta, got {variant!r}")
    return (variant, alpha_stab if variant == "delta" else 0.0)


@dataclass(eq=False)
class Assembly:
    """Stage products shared between solves on one discretization."""

    mesh: CoarseMesh
    part: FinePartition
    caches: ElementCache
    space: TraceSpace
    energy: sp.csr_matrix
    stats: ContrastStats
    timings: dict[str, float] = field(default_factory=dict)   # wall time of each set-up stage
    _stages: dict[tuple, object] = field(default_factory=dict, init=False, repr=False)

    def _memo(self, stage: str, key, build: Callable[[], object]):
        """The product of ``stage`` for ``key``, built by ``build()`` on first use."""
        if (stage, key) not in self._stages:
            self._stages[stage, key] = build()
        return self._stages[stage, key]

    def face_spectra(self, alpha_stab: float) -> FaceSpectrum:
        return self._memo(
            "face_spectra", alpha_stab, lambda: all_face_spectra(self.space, self.caches, alpha_stab)
        )

    def face_modes(self, variant: str, alpha_stab: float) -> tuple[np.ndarray, np.ndarray]:
        """Zero-mean face modes ``(NF, m, m)`` and the ``(NF, m)`` mask of those that patch problems localize.

        ``plain`` localizes them all and solves no face pencil; ``delta`` retains those at or above ``alpha_stab``.
        """
        nf, m = self.space.n_coarse_faces, self.space.zero_mean.shape[1]
        if _variant_key(variant, alpha_stab)[0] == "plain":
            return np.broadcast_to(np.eye(m), (nf, m, m)), np.ones((nf, m), bool)
        spectra = self.face_spectra(alpha_stab)
        return spectra.vectors, np.arange(m) < spectra.n_delta[:, None]

    def projector(self, variant: str, alpha_stab: float) -> PatchProjector:
        return self._memo("projector", _variant_key(variant, alpha_stab), lambda: PatchProjector(
            self.space, self.energy, face_basis(self.space, *self.face_modes(variant, alpha_stab))
        ))

    def element_spectra(self, h_target: float, c_j: float) -> ElementSpectrum:
        return self._memo(
            "element_spectra", (h_target, c_j), lambda: all_element_spectra(self.caches, h_target, c_j)
        )

    def coarse_basis(self, variant: str, alpha_stab: float) -> sp.csc_matrix:
        """Stored basis of the upscaled block: face constants, expanded to fine faces, plus retained modes."""
        def build():
            coarse_face = np.repeat(np.arange(self.space.n_coarse_faces), self.space.part.faces_per_coarse)
            vectors, localizable = self.face_modes(variant, alpha_stab)
            retained = face_basis(self.space, vectors, ~localizable)
            return sp.hstack([self.space.face_constant[coarse_face], retained], format="csc")

        return self._memo("coarse_basis", _variant_key(variant, alpha_stab), build)

    def upscaled_operator(self, variant: str, alpha_stab: float, j: int) -> "UpscaledOperator":
        """Load-independent upscaled operator, built by the first solve that needs it.

        Kept per ``(variant, alpha_stab, j)`` for the life of the assembly, so
        every later solve with the same key pays only its per-load patch
        passes.  Each column of ``psi = basis - P_j^T basis`` lives on a
        patch, so ``psi`` is stored as the sparse CSC product and its Gram is
        a sparse product too.
        """
        def build():
            basis = self.coarse_basis(variant, alpha_stab)
            psi = basis - self.projector(variant, alpha_stab).apply_PjT_columns(basis, j)
            factor = spd_factor(psi.T @ (self.energy @ psi), f"upscaled Gram matrix (j={j})")
            return UpscaledOperator(basis, psi, factor)

        return self._memo("upscaled_operator", (*_variant_key(variant, alpha_stab), j), build)

    def union_mesh(self) -> "UnionMesh":
        return self._memo("union_mesh", None, lambda: build_union_mesh(self.part))

    def union_stiffness(self) -> tuple[sp.csc_matrix, spla.SuperLU]:
        """Stiffness on the free union-mesh nodes and its sparse LU, shared by both union-mesh computations."""
        k_ff = self._memo("union_stiffness", None, lambda: _union_free_matrix(self, self.caches.stiffness))
        # SPD, but not for spd_factor: on one core its MMD ordering took 10.8 s on this matrix at nx=16
        # (16129 unknowns), where splu's default COLAMD ordering took 0.053 s.
        return k_ff, self._memo("union_lu", None, lambda: spla.splu(k_ff))


def build_assembly(cfg: SolverConfig) -> Assembly:
    """Stages mesh -> coefficients -> element caches -> trace space, each timed in ``Assembly.timings``."""
    timings = {}
    with _stage("mesh", timings):
        mesh = load_mesh(cfg.mesh_file) if cfg.mesh_file else build_structured_mesh(cfg.nx, cfg.ny, cfg.domain)
        part = refine_faces(mesh, cfg.face_level, cfg.interior_level)
    with _stage("coefficients", timings):
        field_a = presets.coefficient_field(part, cfg.coefficient, cfg.coefficient_params, cfg.coefficient_file)
        rho = make_weight(cfg.rho, field_a)
        stats = local_bounds(field_a)
    with _stage("element_caches", timings):
        caches = assemble_all(field_a, rho, part)
    with _stage("trace_space", timings):
        space = build_trace_space(part)
        energy = build_flux_energy(space, caches)
    return Assembly(mesh, part, caches, space, energy, stats, timings)


def sample_load(part: FinePartition, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Elementwise P1 interpolant of the load g, ``(ne, nn)``; ``fn`` runs once on every node."""
    points = part.nodes.reshape(-1, 2)
    values = np.asarray(fn(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"load function must return {len(points)} values, got shape {values.shape}")
    return values.reshape(part.nodes.shape[:2])


def load_norm(caches: ElementCache, g: np.ndarray) -> float:
    """Weighted L2 norm of the load."""
    return float(quadratic_forms(caches.mass, g).sum()) ** 0.5


def energy_error(caches: ElementCache, u: np.ndarray, v: np.ndarray) -> float:
    """Broken A-energy distance between two broken nodal fields."""
    return broken_energy(caches, np.asarray(u, dtype=float) - np.asarray(v, dtype=float)) ** 0.5


# ---------------------------------------------------------------------------
# The staged solve.
# ---------------------------------------------------------------------------


def solve_lambda0(assembly: Assembly, g: np.ndarray) -> np.ndarray:
    """Jump-basis coefficients from the constant pairing against the load."""
    rhs = -np.einsum("ei,ei->e", assembly.caches.mean_vector, np.asarray(g, dtype=float))
    return assembly.space.jump_basis @ solve_V0_pairing(assembly.space, rhs)


def compute_ttilde(assembly: Assembly, g: np.ndarray) -> np.ndarray:
    """Load potential ``T~ g`` of every element, ``(ne, nn)``: one local solve of ``M g``."""
    caches = assembly.caches
    return local_solve(caches, (caches.mass @ np.asarray(g, dtype=float)[..., None])[..., 0])


@dataclass
class UpscaledOperator:
    """Load-independent part of the upscaled problem for one basis and j."""

    basis: sp.csc_matrix       # (n_fine, M) stored basis columns
    psi: sp.csc_matrix         # (n_fine, M) multiscale basis, basis - P_j^T basis
    factor: spla.SuperLU       # SPD-checked factor of the Gram psi^T S psi

    @cached_property
    def multiscale(self) -> np.ndarray:
        """Dense view of ``psi``, built on first read: only perfbench's tracer reads it."""
        return self.psi.toarray()


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
    def basis(self) -> sp.csc_matrix:
        return self.operator.basis

    @property
    def multiscale(self) -> np.ndarray:
        return self.operator.multiscale


def assemble_upscaled(
    assembly: Assembly,
    projector: PatchProjector,
    operator: UpscaledOperator,
    lam0: np.ndarray,
    ttg_functionals: np.ndarray,
    r_ttg: np.ndarray,
    j: int,
) -> UpscaledSystem:
    """Build the coarse Galerkin system for the face-constant + retained part.

    ``operator`` is the load-independent part for ``projector`` and ``j``
    (:meth:`Assembly.upscaled_operator`): the multiscale basis and its
    Gram.  ``ttg_functionals`` are the element functionals of the load
    potential (:func:`traces.element_functionals`), ``(ne, n_bf)``, and
    ``r_ttg`` is their sum over elements.  The load costs
    one element-seeded and one face-seeded patch pass; both load terms
    then come from the cached energy matrix, never from interior re-solves.
    """
    s_mat = assembly.energy
    q = projector.apply_Pj(ttg_functionals, j)
    flux0 = projector.apply_PjT(lam0, j)
    work = r_ttg + s_mat @ (lam0 - flux0 - q)
    rhs = -(operator.psi.T @ work)
    return UpscaledSystem(operator, rhs, flux0, q)


def solve_upscaled(system: UpscaledSystem) -> np.ndarray:
    system.coefficients = system.operator.factor.solve(system.rhs)
    return system.basis @ system.coefficients


def recover_delta(lam_coarse: np.ndarray, system: UpscaledSystem) -> np.ndarray:
    """Localizable component from patch projections of the known parts.

    ``system`` is the solved upscaled system ``lam_coarse`` came from.  It
    supplies the load's patch passes, and ``P_j^T lam_coarse`` follows by
    linearity as ``lam_coarse - psi x``, so no patch pass runs here.
    """
    coarse_part = lam_coarse - system.operator.psi @ system.coefficients
    flux_part = system.flux0_localized + coarse_part
    return -(flux_part + system.load_localized)


def solve_u0(assembly: Assembly, lam_total: np.ndarray, r_ttg: np.ndarray) -> np.ndarray:
    """Constant part of every element ``(ne,)``, from the constant-pairing system."""
    space = assembly.space
    rhs = -(space.jump_basis.T @ (assembly.energy @ lam_total + r_ttg))
    return solve_V0_pairing(space, np.asarray(rhs).ravel())


def reconstruct(
    assembly: Assembly,
    lam0: np.ndarray,
    lam_coarse: np.ndarray,
    lam_delta: np.ndarray,
    u0: np.ndarray,
    g: np.ndarray,
    ttg: np.ndarray | None,
    equilibrium_tol: float = EQUILIBRIUM_TOL,
    load: np.ndarray | None = None,
) -> Solution:
    """Per-element displacement and flux, with equilibrium diagnostics.

    The element potentials ``T lam + T~ g`` come from one stacked local
    solve of ``trace^T lam[boundary_face_ids] + M g``, so ``ttg`` is not
    read: the argument is kept for callers that still pass the load
    potential.  ``load`` is the element load ``M g`` ``(ne, nn)`` when the
    caller has it; otherwise it is formed from the nodal load ``g``.

    The flux is checked against the interior load balance on every
    element: the residual at interior nodes is the multiplier of the
    zero-average constraint, which vanishes because the recovered
    multiplier carries exactly the load average of each element.
    """
    caches, part = assembly.caches, assembly.part
    if load is None:
        load = (caches.mass @ np.asarray(g, dtype=float)[..., None])[..., 0]
    lam_total = lam0 + lam_coarse + lam_delta
    traction = (lam_total[part.boundary_face_ids][:, None, :] @ part.trace_matrix)[:, 0]
    tilde = local_solve(caches, traction + load)
    # Cellwise gradient: per component, a three-term sum over the cell vertices.
    vertex = [tilde[:, c] for c in part.cells.T]                                   # 3 x (ne, nc)
    gx, gy = (sum(v * part.grads[:, :, k, d] for k, v in enumerate(vertex)) for d in (0, 1))
    a = caches.tensors
    sigma = np.stack((a[..., 0, 0] * gx + a[..., 0, 1] * gy, a[..., 1, 0] * gx + a[..., 1, 1] * gy), axis=-1)
    # One pass over the stiffness, a block of elements at a time so that each
    # block is read from cache once: K tilde and, for the componentwise scale,
    # |K| |tilde|.  K annihilates constants, so tilde . K tilde is the energy
    # of the element potentials without the rounding that u0 would add.  The
    # residual at a node is compared against the magnitudes of the flux and
    # load terms that feed it, so the check stays meaningful at high contrast.
    k_tilde, scale = np.empty_like(tilde), np.empty_like(tilde)
    for lo in range(0, len(tilde), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        k = caches.stiffness[blk]
        k_tilde[blk] = (k @ tilde[blk][..., None])[..., 0]
        scale[blk] = (np.abs(k) @ np.abs(tilde[blk])[..., None])[..., 0]
    residual = k_tilde - load - traction
    scale += np.abs(load) + np.abs(traction)
    scale = np.maximum(scale, scale.max(axis=1, keepdims=True) * 1e-8 + 1e-300)
    interior = ~part.boundary_node_mask
    eq_rel = (np.abs(residual[:, interior]) / scale[:, interior]).max(axis=1, initial=0.0)
    flux_energy_sq = float(lam_total @ (assembly.energy @ lam_total))
    diagnostics = {
        "equilibrium_rel_max": float(eq_rel.max()) if len(eq_rel) else 0.0,
        "equilibrium_tol": equilibrium_tol,
        "equilibrium_ok": bool(eq_rel.max() <= equilibrium_tol) if len(eq_rel) else True,
        "flux_energy_sq": flux_energy_sq,
        "solution_energy_sq": float(np.vdot(tilde, k_tilde)),
    }
    return Solution(
        u0=u0,
        u_broken=u0[:, None] + tilde,
        lam0=lam0,
        lam_coarse=lam_coarse,
        lam_delta=lam_delta,
        lam_total=lam_total,
        sigma=sigma,
        diagnostics=diagnostics,
    )


def solve_global(
    assembly: Assembly, variant: str, alpha_stab: float, lam0: np.ndarray, r_ttg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``lam_coarse = B c_B`` and ``lam_delta = W c_W`` of the four-step scheme without localization.

    The tilde space is the direct sum of ``span(W)`` (the projector's basis) and
    ``span(B)`` (the coarse basis), so that scheme is the flux-energy Galerkin solve
    ``V^T S V c = -V^T (S lam0 + r_ttg)`` on ``V = [W B]``, factored once per basis.
    """
    w = assembly.projector(variant, alpha_stab).basis
    b = assembly.coarse_basis(variant, alpha_stab)
    v = sp.hstack([w, b], format="csc")

    def build():
        return spd_factor(v.T @ (assembly.energy @ v), f"global {variant} tilde-space Gram matrix")

    factor = assembly._memo("global_factor", _variant_key(variant, alpha_stab), build)
    c = factor.solve(-(v.T @ (assembly.energy @ lam0 + r_ttg)))
    m = w.shape[1]
    return b @ c[m:], w @ c[:m]


def solve_lsd(
    assembly: Assembly,
    g: np.ndarray,
    j: int | None,
    variant: str = "plain",
    alpha_stab: float = 4.0,
    rhs_reduction: bool = False,
    h_target: float | None = None,
    c_j: float = 1.0,
    equilibrium_tol: float = EQUILIBRIUM_TOL,
) -> Solution:
    """Run the staged solve on an existing assembly.

    Any integer j >= 1 localizes every projection to j element layers.
    ``j=None`` is the exact four-step reference, solved at once on the
    whole tilde space by :func:`solve_global`; it builds no upscaled
    operator and no patch response.
    """
    if h_target is None:
        h_target = assembly.mesh.coarse_size
    g_used = np.asarray(g, dtype=float)
    reduction_info: dict = {}
    if rhs_reduction:
        spectra_e = assembly.element_spectra(h_target, c_j)
        g_used, remainders, load = project_rhs(spectra_e, assembly.caches, g)
        sig_next = spectra_e.sigma_next
        reduction_info = {
            "j_counts": spectra_e.j_count.tolist(),
            "sigma_next_min": float(sig_next.min()),
            "reduction_bound": float(np.max(1.0 / np.sqrt(sig_next))),
            "dropped_norm": float(np.linalg.norm(remainders)),
        }
    else:
        load = (assembly.caches.mass @ g_used[..., None])[..., 0]

    # The element load M g is formed once (by project_rhs when reducing); the
    # load potentials' functionals come from the stored flux potentials, and
    # the potentials themselves from the one local solve of reconstruct.
    ttg_functionals = load_functionals(assembly.caches, load)
    r_ttg = assembly.space.sum_element_rows(ttg_functionals)

    lam0 = solve_lambda0(assembly, g_used)
    if j is None:
        lam_coarse, lam_delta = solve_global(assembly, variant, alpha_stab, lam0, r_ttg)
    else:
        projector = assembly.projector(variant, alpha_stab)
        operator = assembly.upscaled_operator(variant, alpha_stab, j)
        system = assemble_upscaled(assembly, projector, operator, lam0, ttg_functionals, r_ttg, j)
        lam_coarse = solve_upscaled(system)
        lam_delta = recover_delta(lam_coarse, system)
    lam_total = lam0 + lam_coarse + lam_delta
    u0 = solve_u0(assembly, lam_total, r_ttg)
    solution = reconstruct(
        assembly, lam0, lam_coarse, lam_delta, u0, g_used, None, equilibrium_tol, load
    )
    solution.diagnostics["variant"] = variant
    solution.diagnostics["j"] = j
    solution.diagnostics["coarse_dim"] = int(assembly.coarse_basis(variant, alpha_stab).shape[1])
    solution.diagnostics["load_norm"] = float(np.vdot(g_used, load)) ** 0.5
    if rhs_reduction:
        solution.diagnostics["rhs_reduction"] = reduction_info
    return solution


def _configured_solve(assembly: Assembly, cfg: SolverConfig, g: np.ndarray, j: int | None) -> Solution:
    """:func:`solve_lsd` with every solve setting of ``cfg`` except the layer count ``j``."""
    return solve_lsd(assembly, g, j, cfg.variant, cfg.alpha_stab, cfg.rhs_reduction, cfg.h_target, cfg.c_j,
                     cfg.equilibrium_tol)


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def exact_hybrid_solve(assembly: Assembly, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monolithic symmetric-indefinite solve of the full hybrid system.

    Returns the broken solution ``(ne, nn)`` and the multiplier's stored
    values.  This is the localization-error reference; it is exact up to the
    direct solver, whose solution is refined once against the assembled
    matrix: at high contrast the plain sparse LU solve of this indefinite
    system leaves an error the staged solve does not have.
    """
    part = assembly.part
    caches = assembly.caches
    ne, nn = caches.stiffness.shape[:2]
    nu, nl = ne * nn, assembly.space.n_fine
    nodes = np.arange(nu).reshape(ne, nn)
    k_mat = scatter_blocks(caches.stiffness, nodes, nodes, (nu, nu))
    # Constraint block: -(mu, u) rows and the symmetric -(lambda, v) columns.
    cons = scatter_blocks(-part.trace_matrix, part.boundary_face_ids, nodes, (nl, nu))
    mat = sp.bmat([[k_mat, cons.T], [cons, None]], format="csc")
    load = np.einsum("eij,ej->ei", caches.mass, np.asarray(g, dtype=float))
    rhs = np.concatenate([load.ravel(), np.zeros(nl)])
    try:
        lu = spla.splu(mat)     # the saddle is indefinite, so not spd_factor: LU with partial pivoting
    except RuntimeError as exc:
        raise AssertionError(f"hybrid saddle system is singular: {exc}") from exc
    sol = lu.solve(rhs)
    sol += lu.solve(rhs - mat @ sol)
    return sol[:nu].reshape(ne, nn), sol[nu:]


def _union_free_matrix(assembly: Assembly, blocks: np.ndarray) -> sp.csc_matrix:
    """Element blocks summed on the union mesh, restricted to its nodes off the boundary.

    The restriction imposes the zero Dirichlet condition of both union-mesh
    computations, the conforming oracle and the Poincare estimate.
    """
    union = assembly.union_mesh()
    ng, free = union.nodes.shape[0], union.free
    return scatter_blocks(blocks, union.node_maps, union.node_maps, (ng, ng))[free][:, free].tocsc()


def poincare_estimate(assembly: Assembly) -> float:
    """Rayleigh-quotient estimate of the global weighted Poincare constant.

    Largest ratio of the weighted L2 norm to the energy norm over the
    conforming fine space with zero boundary values; computed from the
    smallest eigenvalue of the global stiffness/mass pencil.  A measured
    diagnostic, not an input to the method.
    """
    k_ff, lu = assembly.union_stiffness()
    m_ff = _union_free_matrix(assembly, assembly.caches.mass)
    v0 = np.ones(k_ff.shape[0])
    lam = spla.eigsh(k_ff, k=1, M=m_ff, sigma=0.0, which="LM", v0=v0,
                     OPinv=spla.LinearOperator(k_ff.shape, lu.solve), return_eigenvectors=False)
    return float(1.0 / np.sqrt(lam[0]))


def conforming_solve(assembly: Assembly, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conforming P1 solve on the union fine mesh with zero boundary values.

    Approximates the continuous solution; its discretization error is the
    one caveat when it serves as the reference for target-precision
    calibration.  Returns union nodal values and the broken view ``(ne, nn)``.
    """
    union = assembly.union_mesh()
    free = union.free
    loads = np.einsum("eij,ej->ei", assembly.caches.mass, np.asarray(g, dtype=float))
    rhs = np.bincount(union.node_maps.ravel(), loads.ravel(), union.nodes.shape[0])
    u = np.zeros(rhs.size)
    u[free] = assembly.union_stiffness()[1].solve(rhs[free])
    return u, u[union.node_maps]


# ---------------------------------------------------------------------------
# Full pipeline with report.
# ---------------------------------------------------------------------------


def full_pipeline(cfg: SolverConfig, assembly: Assembly | None = None) -> tuple[Solution, dict]:
    """Run every stage and emit a JSON-able report of all diagnostics."""
    if assembly is None:
        assembly = build_assembly(cfg)
    timings = dict(assembly.timings)
    with _stage("rhs", timings):
        g = sample_load(assembly.part, presets.load_function(cfg.rhs, cfg.rhs_params))
    with _stage("solve", timings):
        solution = _configured_solve(assembly, cfg, g, cfg.j)

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
        alphas = spectra.alphas
        report["face_spectrum"] = {
            "alpha_min": float(alphas.min()) if alphas.size else None,
            "alpha_max": float(alphas.max()) if alphas.size else None,
            "n_pi_total": int(spectra.n_pi.sum()),
            "n_delta_total": int(spectra.n_delta.sum()),
        }

    if cfg.compare_exact:
        with _stage("oracle_exact", timings):
            u_ref, _ = exact_hybrid_solve(assembly, g)
        err = energy_error(assembly.caches, u_ref, solution.u_broken)
        ref = broken_energy(assembly.caches, u_ref) ** 0.5
        report["oracle_exact"] = {
            "energy_error": err,
            "reference_energy": ref,
            "relative": err / ref if ref > 0 else 0.0,
        }
    if cfg.compare_conforming:
        with _stage("oracle_conforming", timings):
            _, u_conf = conforming_solve(assembly, g)
        err = energy_error(assembly.caches, u_conf, solution.u_broken)
        gn = solution.diagnostics["load_norm"]
        with _stage("poincare", timings):
            poincare = poincare_estimate(assembly)
        report["oracle_conforming"] = {
            "energy_error": err,
            "error_per_load": err / gn if gn > 0 else 0.0,
            "global_poincare_estimate": poincare,
        }
    report["timings"] = timings
    return solution, report
