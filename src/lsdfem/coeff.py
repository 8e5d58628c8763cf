"""Coefficient tensors, user weights, and contrast statistics.

Coefficients are piecewise constant on the fine interior cells: analytic
inputs are sampled at cell centroids, raster inputs are looked up there.
This makes all element quadratures exact and runs bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import CoarseMesh, FinePartition

__all__ = [
    "CoefficientField",
    "WeightField",
    "ContrastStats",
    "Raster",
    "CoefficientError",
    "local_bounds",
    "make_weight",
    "load_raster",
    "save_raster",
]

WEIGHT_CHOICES = ("one", "amin", "a_minus", "a_plus", "amax", "custom")


class CoefficientError(ValueError):
    """Invalid coefficient or weight data."""


def _sym_eig_bounds(tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest/largest eigenvalue of each symmetric 2x2 tensor, closed form."""
    a = tensors[:, 0, 0]
    b = tensors[:, 0, 1]
    d = tensors[:, 1, 1]
    mean = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + b**2)
    return mean - rad, mean + rad


@dataclass
class Raster:
    """Row-major cellwise values on a rectangle; scalar or 2x2 tensors."""

    nx: int
    ny: int
    values: np.ndarray                 # (ny, nx) or (ny, nx, 3) = (a11, a12, a22)
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    @property
    def is_tensor(self) -> bool:
        return self.values.ndim == 3

    def lookup(self, points: np.ndarray) -> np.ndarray:
        x0, y0, x1, y1 = self.domain
        ix = np.clip(((points[:, 0] - x0) / (x1 - x0) * self.nx).astype(int), 0, self.nx - 1)
        iy = np.clip(((points[:, 1] - y0) / (y1 - y0) * self.ny).astype(int), 0, self.ny - 1)
        return self.values[iy, ix]


@dataclass
class CoefficientField:
    """Symmetric positive definite 2x2 tensor per fine interior cell."""

    part: FinePartition
    tensors: list[np.ndarray]          # per element: (nc, 2, 2)
    a_min: float
    a_max: float

    @property
    def mesh(self) -> CoarseMesh:
        return self.part.mesh

    def cell_eigen_bounds(self, elem: int) -> tuple[np.ndarray, np.ndarray]:
        return _sym_eig_bounds(self.tensors[elem])

    def element_eigen_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest tensor eigenvalue on each element, for all elements at once."""
        emin, emax = _sym_eig_bounds(np.concatenate(self.tensors))
        ne = len(self.tensors)
        return emin.reshape(ne, -1).min(axis=1), emax.reshape(ne, -1).max(axis=1)

    def scaled(self, s: float) -> "CoefficientField":
        if s <= 0:
            raise CoefficientError("scale factor must be positive")
        return CoefficientField(
            self.part, [s * t for t in self.tensors], s * self.a_min, s * self.a_max
        )

    @classmethod
    def from_tensor_function(
        cls, part: FinePartition, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "CoefficientField":
        """Sample ``fn(points) -> (n, 2, 2)`` at interior cell centroids."""
        tensors = []
        for geom in part.geometry:
            t = np.asarray(fn(geom.cell_centroids), dtype=float)
            if t.shape != (len(geom.cell_centroids), 2, 2):
                raise CoefficientError("tensor function must return (n, 2, 2)")
            tensors.append(t)
        return cls._finalize(part, tensors)

    @classmethod
    def from_scalar_function(
        cls, part: FinePartition, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "CoefficientField":
        """Sample a scalar field a(x) and use a*I on each cell."""

        def tensor(points: np.ndarray) -> np.ndarray:
            a = np.asarray(fn(points), dtype=float)
            out = np.zeros((len(points), 2, 2))
            out[:, 0, 0] = a
            out[:, 1, 1] = a
            return out

        return cls.from_tensor_function(part, tensor)

    @classmethod
    def from_raster(cls, part: FinePartition, raster: Raster) -> "CoefficientField":
        if raster.is_tensor:

            def tensor(points: np.ndarray) -> np.ndarray:
                v = raster.lookup(points)
                out = np.empty((len(points), 2, 2))
                out[:, 0, 0] = v[:, 0]
                out[:, 0, 1] = v[:, 1]
                out[:, 1, 0] = v[:, 1]
                out[:, 1, 1] = v[:, 2]
                return out

            return cls.from_tensor_function(part, tensor)
        return cls.from_scalar_function(part, raster.lookup)

    @classmethod
    def constant(cls, part: FinePartition, value: float = 1.0) -> "CoefficientField":
        return cls.from_scalar_function(part, lambda pts: np.full(len(pts), float(value)))

    @classmethod
    def identity(cls, part: FinePartition) -> "CoefficientField":
        return cls.constant(part, 1.0)

    @classmethod
    def _finalize(cls, part: FinePartition, tensors: list[np.ndarray]) -> "CoefficientField":
        if len(tensors) != len(part.geometry):
            raise CoefficientError("field does not cover every element")
        lo = math.inf
        hi = -math.inf
        for t, geom in zip(tensors, part.geometry):
            if len(t) != len(geom.cells):
                raise CoefficientError(f"element {geom.elem} not fully covered")
            if not np.allclose(t[:, 0, 1], t[:, 1, 0], rtol=1e-12, atol=1e-14):
                raise CoefficientError(f"non-symmetric tensor in element {geom.elem}")
            emin, emax = _sym_eig_bounds(t)
            if emin.min() <= 0.0:
                raise CoefficientError(f"non-SPD tensor in element {geom.elem}")
            lo = min(lo, float(emin.min()))
            hi = max(hi, float(emax.max()))
        return cls(part, tensors, lo, hi)


@dataclass
class WeightField:
    """User weight rho > 0, one value per fine interior cell."""

    part: FinePartition
    values: list[np.ndarray]           # per element: (nc,)
    choice: str
    rho_min: float
    rho_max: float


def make_weight(
    choice: str,
    field: CoefficientField,
    custom: Callable[[np.ndarray], np.ndarray] | Raster | None = None,
) -> WeightField:
    """Realize the weight rho from one of the supported choices.

    ``one`` is the unit weight, ``amin``/``amax`` the global coefficient
    bounds, ``a_minus``/``a_plus`` the cellwise smallest/largest tensor
    eigenvalue, and ``custom`` samples a user raster or callable.
    """
    if choice not in WEIGHT_CHOICES:
        raise CoefficientError(f"unknown weight choice {choice!r}")
    part = field.part
    values: list[np.ndarray] = []
    for elem, geom in enumerate(part.geometry):
        n = len(geom.cells)
        if choice == "one":
            v = np.ones(n)
        elif choice == "amin":
            v = np.full(n, field.a_min)
        elif choice == "amax":
            v = np.full(n, field.a_max)
        elif choice == "a_minus":
            v = field.cell_eigen_bounds(elem)[0]
        elif choice == "a_plus":
            v = field.cell_eigen_bounds(elem)[1]
        else:
            if custom is None:
                raise CoefficientError("custom weight requires a raster or callable")
            if isinstance(custom, Raster):
                v = np.asarray(custom.lookup(geom.cell_centroids), dtype=float)
            else:
                v = np.asarray(custom(geom.cell_centroids), dtype=float)
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise CoefficientError(f"nonpositive weight value in element {elem}")
        values.append(v)
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    return WeightField(part, values, choice, lo, hi)


@dataclass
class ContrastStats:
    """Per-element coefficient bounds and the global contrast summary."""

    a_min_local: np.ndarray    # (ne,) per-element smallest eigenvalue
    a_max_local: np.ndarray    # (ne,) per-element largest eigenvalue
    kappa_local: np.ndarray    # (ne,) a_max^tau / a_min^tau
    kappa: float               # max over elements
    beta: float                # 1 + log(H/h)
    coarse_size: float
    fine_size: float

    def as_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "beta": self.beta,
            "H": self.coarse_size,
            "h": self.fine_size,
            "kappa_local_max": float(self.kappa_local.max()),
            "kappa_local_min": float(self.kappa_local.min()),
        }


def local_bounds(field: CoefficientField, mesh: CoarseMesh | None = None) -> ContrastStats:
    """Per-element eigenvalue bounds, contrasts, and beta = 1 + log(H/h)."""
    part = field.part
    if mesh is not None and mesh is not part.mesh:
        raise CoefficientError("field was sampled on a different mesh")
    lo, hi = field.element_eigen_bounds()
    kappa_local = hi / lo
    big_h = part.mesh.coarse_size
    small_h = part.fine_size
    return ContrastStats(
        a_min_local=lo,
        a_max_local=hi,
        kappa_local=kappa_local,
        kappa=float(kappa_local.max()),
        beta=1.0 + math.log(big_h / small_h),
        coarse_size=big_h,
        fine_size=small_h,
    )


# ---------------------------------------------------------------------------
# Raster file formats.  Text: "nx ny flag" header (flag 0 scalar, 1 tensor)
# followed by row-major values; JSON mirrors the same fields.
# ---------------------------------------------------------------------------


def save_raster(raster: Raster, path: str) -> None:
    if path.endswith(".json"):
        payload = {
            "nx": raster.nx,
            "ny": raster.ny,
            "tensor": raster.is_tensor,
            "domain": list(raster.domain),
            "values": raster.values.ravel().tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{raster.nx} {raster.ny} {1 if raster.is_tensor else 0}\n")
        flat = raster.values.reshape(raster.ny * raster.nx, -1)
        for row in flat:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_raster(path: str, domain: Sequence[float] = (0.0, 0.0, 1.0, 1.0)) -> Raster:
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        nx, ny = int(payload["nx"]), int(payload["ny"])
        tensor = bool(payload["tensor"])
        values = np.array(payload["values"], dtype=float)
        shape = (ny, nx, 3) if tensor else (ny, nx)
        dom = tuple(payload.get("domain", domain))
        return Raster(nx, ny, values.reshape(shape), dom)  # type: ignore[arg-type]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise CoefficientError(f"bad raster header in {path}")
        nx, ny, flag = int(header[0]), int(header[1]), int(header[2])
        values = np.loadtxt(fh, ndmin=2)
    if flag not in (0, 1):
        raise CoefficientError("raster flag must be 0 (scalar) or 1 (tensor)")
    if flag == 1:
        values = values.reshape(ny, nx, 3)
    else:
        values = values.reshape(ny, nx)
    return Raster(nx, ny, values, tuple(domain))  # type: ignore[arg-type]
