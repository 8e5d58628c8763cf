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

WEIGHT_CHOICES = ("one", "amin", "a_minus", "a_plus", "amax")


class CoefficientError(ValueError):
    """Invalid coefficient or weight data."""


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float, np.number))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


# Value rules shared by the config, sweep and raster checks: (requirement, check of one value).
_POSITIVE_INT = ("an integer >= 1", lambda v: _is_integer(v) and v >= 1)
_POSITIVE = ("a finite number > 0", lambda v: _is_finite_number(v) and v > 0)
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_DOMAIN = ("4 finite numbers (x0, y0, x1, y1) with x1 > x0 and y1 > y0",
           lambda v: isinstance(v, (list, tuple)) and len(v) == 4 and all(map(_is_finite_number, v))
           and v[2] > v[0] and v[3] > v[1])


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

    def __post_init__(self) -> None:
        rule, ok = _DOMAIN
        if not ok(self.domain):
            raise CoefficientError(f"raster has a bad 'domain' field: must be {rule}, got {self.domain!r}")

    @property
    def is_tensor(self) -> bool:
        return self.values.ndim == 3

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Values of the cells holding ``points``: ``(n,)`` scalars or ``(n, 2, 2)`` tensors."""
        x0, y0, x1, y1 = self.domain
        ix = np.clip(((points[:, 0] - x0) / (x1 - x0) * self.nx).astype(int), 0, self.nx - 1)
        iy = np.clip(((points[:, 1] - y0) / (y1 - y0) * self.ny).astype(int), 0, self.ny - 1)
        values = self.values[iy, ix]
        return values[:, [0, 1, 1, 2]].reshape(-1, 2, 2) if self.is_tensor else values


def _first(bad: np.ndarray) -> int:
    """First element whose cells are flagged in ``bad`` (ne, nc), or -1."""
    rows = bad.any(axis=1)
    return int(np.argmax(rows)) if rows.any() else -1


@dataclass
class CoefficientField:
    """Symmetric positive definite 2x2 tensor per fine interior cell."""

    part: FinePartition
    tensors: np.ndarray                # (ne, nc, 2, 2)
    eig_min: np.ndarray                # (ne, nc) smallest tensor eigenvalue per cell
    eig_max: np.ndarray                # (ne, nc) largest tensor eigenvalue per cell

    @classmethod
    def sample(
        cls, part: FinePartition, source: Callable[[np.ndarray], np.ndarray] | Raster
    ) -> "CoefficientField":
        """Sample a callable or a raster at the interior cell centroids.

        ``(n,)`` scalars a become ``a I``; ``(n, 2, 2)`` tensors are kept.
        """
        points = part.cell_centroids.reshape(-1, 2)
        values = np.asarray((source.lookup if isinstance(source, Raster) else source)(points), dtype=float)
        if values.shape[:1] != (len(points),) or values.shape[1:] not in ((), (2, 2)):
            raise CoefficientError(f"cell function must return {len(points)} values of shape () or (2, 2), "
                                   f"got {values.shape}")
        tensors = values.reshape(part.cell_centroids.shape[:2] + values.shape[1:])
        if tensors.ndim == 2:
            scalars, tensors = tensors, np.zeros(tensors.shape + (2, 2))
            tensors[..., 0, 0] = tensors[..., 1, 1] = scalars
        elem = _first(~np.isclose(tensors[..., 0, 1], tensors[..., 1, 0], rtol=1e-12, atol=1e-14))
        if elem >= 0:
            raise CoefficientError(f"non-symmetric tensor in element {elem}")
        emin, emax = _sym_eig_bounds(tensors)
        elem = _first(~(emin > 0.0))
        if elem >= 0:
            raise CoefficientError(f"non-SPD tensor in element {elem}")
        return cls(part, tensors, emin, emax)


def make_weight(choice: str, field: CoefficientField) -> np.ndarray:
    """The weight rho > 0 of one supported choice, per fine interior cell ``(ne, nc)``.

    ``one`` is the unit weight, ``amin``/``amax`` the global coefficient
    bounds, and ``a_minus``/``a_plus`` the cellwise smallest/largest tensor
    eigenvalue.
    """
    if choice not in WEIGHT_CHOICES:
        raise CoefficientError(f"unknown weight choice {choice!r}")
    shape = field.part.cell_areas.shape
    if choice == "one":
        values = np.ones(shape)
    elif choice == "amin":
        values = np.full(shape, field.eig_min.min())
    elif choice == "amax":
        values = np.full(shape, field.eig_max.max())
    else:
        values = field.eig_min if choice == "a_minus" else field.eig_max
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
    lo, hi = field.eig_min.min(axis=1), field.eig_max.max(axis=1)
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


# Raster header fields: name -> (requirement, check of the value).
_RASTER_RULES = {"nx": _POSITIVE_INT, "ny": _POSITIVE_INT, "tensor": _BOOL, "domain": _DOMAIN}


def load_raster(path: str, domain: Sequence[float] = (0.0, 0.0, 1.0, 1.0)) -> Raster:
    """Read a text or ``.json`` raster; ``domain`` applies unless the JSON gives its own."""
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise CoefficientError(f"raster {path} must hold a JSON object")
        for key in ("nx", "ny", "tensor", "values"):
            if key not in payload:
                raise CoefficientError(f"raster {path} has no {key!r} field")
        header = {key: payload[key] for key in ("nx", "ny", "tensor")}
        header["domain"], values = payload.get("domain", domain), payload["values"]
    else:
        with open(path, "r", encoding="utf-8") as fh:
            line, values = fh.readline(), fh.read().split()
        try:
            nx, ny, flag = map(int, line.split())
        except ValueError:
            raise CoefficientError(f"bad raster header {line.strip()!r} in {path}: "
                                   "expected integers 'nx ny flag'") from None
        if flag not in (0, 1):
            raise CoefficientError("raster flag must be 0 (scalar) or 1 (tensor)")
        header = {"nx": nx, "ny": ny, "tensor": flag == 1, "domain": domain}
    for key, (rule, ok) in _RASTER_RULES.items():
        if not ok(header[key]):
            raise CoefficientError(f"raster {path} has a bad {key!r} field: must be {rule}, got {header[key]!r}")
    nx, ny = header["nx"], header["ny"]
    try:
        values = np.array(values, dtype=float).reshape((ny, nx, 3) if header["tensor"] else (ny, nx))
    except (TypeError, ValueError) as exc:
        raise CoefficientError(f"raster {path} has a bad 'values' field: {exc}") from None
    return Raster(nx, ny, values, tuple(header["domain"]))  # type: ignore[arg-type]
