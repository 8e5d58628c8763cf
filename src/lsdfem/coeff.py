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

from .mesh import FinePartition

__all__ = [
    "CoefficientField",
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
    """Smallest/largest eigenvalue of each symmetric 2x2 tensor ``(..., 2, 2)``, closed form."""
    a = tensors[..., 0, 0]
    b = tensors[..., 0, 1]
    d = tensors[..., 1, 1]
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


def _sample(part: FinePartition, fn: Callable[[np.ndarray], np.ndarray], shape: tuple) -> np.ndarray:
    """``fn`` called once on every interior cell centroid; ``(ne, nc) + shape``."""
    points = part.cell_centroids.reshape(-1, 2)
    values = np.asarray(fn(points), dtype=float)
    if values.shape != (len(points),) + shape:
        raise CoefficientError(
            f"cell function must return {len(points)} values of shape {shape}, got {values.shape}"
        )
    return values.reshape(part.cell_centroids.shape[:2] + shape)


def _first(bad: np.ndarray) -> int:
    """First element whose cells are flagged in ``bad`` (ne, nc), or -1."""
    rows = bad.any(axis=1)
    return int(np.argmax(rows)) if rows.any() else -1


@dataclass
class CoefficientField:
    """Symmetric positive definite 2x2 tensor per fine interior cell."""

    part: FinePartition
    tensors: np.ndarray                # (ne, nc, 2, 2)
    a_min: float
    a_max: float

    def element_eigen_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest tensor eigenvalue on each element, for all elements at once."""
        emin, emax = _sym_eig_bounds(np.asarray(self.tensors))
        return emin.min(axis=1), emax.max(axis=1)

    @classmethod
    def from_tensor_function(
        cls, part: FinePartition, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "CoefficientField":
        """Sample ``fn(points) -> (n, 2, 2)`` at interior cell centroids."""
        return cls._finalize(part, _sample(part, fn, (2, 2)))

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
    def _finalize(cls, part: FinePartition, tensors: np.ndarray) -> "CoefficientField":
        elem = _first(~np.isclose(tensors[..., 0, 1], tensors[..., 1, 0], rtol=1e-12, atol=1e-14))
        if elem >= 0:
            raise CoefficientError(f"non-symmetric tensor in element {elem}")
        emin, emax = _sym_eig_bounds(tensors)
        elem = _first(~(emin > 0.0))
        if elem >= 0:
            raise CoefficientError(f"non-SPD tensor in element {elem}")
        return cls(part, tensors, float(emin.min()), float(emax.max()))


def make_weight(
    choice: str,
    field: CoefficientField,
    custom: Callable[[np.ndarray], np.ndarray] | Raster | None = None,
) -> np.ndarray:
    """The weight rho > 0 of one supported choice, per fine interior cell ``(ne, nc)``.

    ``one`` is the unit weight, ``amin``/``amax`` the global coefficient
    bounds, ``a_minus``/``a_plus`` the cellwise smallest/largest tensor
    eigenvalue, and ``custom`` samples a user raster or callable.
    """
    if choice not in WEIGHT_CHOICES:
        raise CoefficientError(f"unknown weight choice {choice!r}")
    part = field.part
    shape = part.cell_areas.shape
    if choice == "one":
        values = np.ones(shape)
    elif choice == "amin":
        values = np.full(shape, field.a_min)
    elif choice == "amax":
        values = np.full(shape, field.a_max)
    elif choice in ("a_minus", "a_plus"):
        lo, hi = _sym_eig_bounds(np.asarray(field.tensors))
        values = lo if choice == "a_minus" else hi
    elif custom is None:
        raise CoefficientError("custom weight requires a raster or callable")
    else:
        values = _sample(part, custom.lookup if isinstance(custom, Raster) else custom, ())
    bad = _first(~((values > 0.0) & np.isfinite(values)))
    if bad >= 0:
        raise CoefficientError(f"nonpositive weight value in element {bad}")
    return values


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


def local_bounds(field: CoefficientField) -> ContrastStats:
    """Per-element eigenvalue bounds, contrasts, and beta = 1 + log(H/h)."""
    part = field.part
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
