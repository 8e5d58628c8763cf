"""Bundled coefficient and load scenarios for experiments and tests.

Every preset is a deterministic closed-form field; rasterized variants
(for file round-trips or component counting) sample the same function on
a regular cell grid, so the two paths agree wherever cells resolve the
geometry.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .coeff import CoefficientField, Raster, load_raster
from .mesh import FinePartition

__all__ = [
    "COEFFICIENT_PRESETS",
    "LOAD_PRESETS",
    "coefficient_function",
    "coefficient_field",
    "load_function",
    "make_raster",
    "describe",
]

# Deterministic inclusion centers (unit-square coordinates); radius scales
# down as more inclusions are requested.
_INCLUSION_CENTERS = [
    (0.25, 0.25), (0.75, 0.75), (0.75, 0.25), (0.25, 0.75), (0.5, 0.5),
    (0.5, 0.125), (0.125, 0.5), (0.875, 0.5), (0.5, 0.875),
]


def _smooth(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    amp = float(params["amplitude"])
    if not 0.0 <= amp < 1.0:
        raise ValueError("smooth amplitude must lie in [0, 1)")

    def fn(points: np.ndarray) -> np.ndarray:
        return 1.0 + amp * np.sin(2 * math.pi * points[:, 0]) * np.cos(2 * math.pi * points[:, 1])

    return fn


def _checkerboard(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    contrast = float(params["contrast"])
    cells = int(params["cells"])

    def fn(points: np.ndarray) -> np.ndarray:
        ix = np.floor(points[:, 0] * cells).astype(int)
        iy = np.floor(points[:, 1] * cells).astype(int)
        return np.where((ix + iy) % 2 == 0, contrast, 1.0)

    return fn


def _channel(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    """One high-conductivity channel.

    ``spacing=0`` gives a straight horizontal strip.  With positive
    spacing the channel is a hairpin: two parallel strands joined at
    ``turn_x``, still a single connected region, but any face crossed by
    both strands sees two separate high-coefficient strands, which is
    what drives the face eigenvalues up with the contrast.
    """
    contrast = float(params["contrast"])
    center = float(params["center"])
    width = float(params["width"])
    spacing = float(params["spacing"])
    turn_x = float(params["turn_x"])

    def fn(points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        if spacing == 0.0:
            inside = np.abs(y - center) <= 0.5 * width
        else:
            y1 = center - 0.5 * spacing
            y2 = center + 0.5 * spacing
            strand1 = (np.abs(y - y1) <= 0.5 * width) & (x <= turn_x)
            strand2 = (np.abs(y - y2) <= 0.5 * width) & (x <= turn_x)
            connector = (np.abs(x - turn_x) <= 0.5 * width) & (y >= y1 - 0.5 * width) & (
                y <= y2 + 0.5 * width
            )
            inside = strand1 | strand2 | connector
        return np.where(inside, contrast, 1.0)

    return fn


def _inclusions(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    contrast = float(params["contrast"])
    count = int(params["count"])
    if not 1 <= count <= len(_INCLUSION_CENTERS):
        raise ValueError(f"inclusion count must be in [1, {len(_INCLUSION_CENTERS)}]")
    radius = 0.35 / math.sqrt(count) if params["radius"] is None else float(params["radius"])
    centers = np.array(_INCLUSION_CENTERS[:count])

    def fn(points: np.ndarray) -> np.ndarray:
        out = np.ones(len(points))
        for cx, cy in centers:
            inside = (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2 <= radius**2
            out[inside] = contrast
        return out

    return fn


def _constant(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    value = float(params["value"])
    return lambda points: np.full(len(points), value)


def _anisotropic(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    """The tensor diag(1, ratio); the other presets are scalar."""
    a2 = float(params["ratio"])

    def fn(points: np.ndarray) -> np.ndarray:
        out = np.zeros((len(points), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = a2
        return out

    return fn


# name -> (maker, its parameters with their defaults).  The makers read exactly
# these keys, and describe() lists them; None means derived from the others.
COEFFICIENT_PRESETS = {
    "smooth": (_smooth, {"amplitude": 0.5}),
    "checkerboard": (_checkerboard, {"contrast": 100.0, "cells": 8}),
    "channel": (_channel, {"contrast": 1e4, "center": 0.5, "width": 0.12, "spacing": 0.0, "turn_x": 0.8}),
    "inclusions": (_inclusions, {"contrast": 1e4, "count": 4, "radius": None}),  # radius 0.35/sqrt(count)
    "constant": (_constant, {"value": 1.0}),
    "anisotropic": (_anisotropic, {"ratio": 4.0}),
}


def _preset(table: dict, family: str, name: str, params: dict | None) -> Callable[[np.ndarray], np.ndarray]:
    """Preset ``name`` of ``table`` made with ``params`` over its defaults; a key it does not take raises."""
    try:
        maker, defaults = table[name]
    except KeyError:
        raise ValueError(f"unknown {family} preset {name!r}") from None
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"{family} preset {name!r} has no parameter {names}; it takes {sorted(defaults)}")
    return maker({**defaults, **(params or {})})


def coefficient_function(name: str, params: dict | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """Scalar values ``(n,)`` at ``n`` points, or tensors ``(n, 2, 2)`` for ``anisotropic``."""
    return _preset(COEFFICIENT_PRESETS, "coefficient", name, params)


def coefficient_field(
    part: FinePartition,
    name: str,
    params: dict | None = None,
    raster_file: str | None = None,
) -> CoefficientField:
    """Preset (or raster file) sampled on the fine interior cells."""
    if raster_file is not None:
        x0, y0 = part.mesh.vertices.min(axis=0)
        x1, y1 = part.mesh.vertices.max(axis=0)
        return CoefficientField.sample(part, load_raster(raster_file, (x0, y0, x1, y1)))
    return CoefficientField.sample(part, coefficient_function(name, params))


def make_raster(
    name: str,
    params: dict | None = None,
    nx: int = 64,
    ny: int = 64,
    domain: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> Raster:
    """Rasterized preset: the same function sampled at cell centers."""
    fn = coefficient_function(name, params)
    x0, y0, x1, y1 = domain
    xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    xx, yy = np.meshgrid(xs, ys)
    values = fn(np.column_stack((xx.ravel(), yy.ravel())))
    if values.ndim == 3:  # tensors, stored as (a11, a12, a22)
        values = values[:, [0, 0, 1], [0, 1, 1]]
    return Raster(nx, ny, values.reshape((ny, nx) + values.shape[1:]), domain)


def _g_smooth(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    def fn(points: np.ndarray) -> np.ndarray:
        return np.sin(math.pi * points[:, 0]) * np.sin(math.pi * points[:, 1])

    return fn


def _g_linear(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    ax = float(params["ax"])
    ay = float(params["ay"])
    return lambda points: ax * points[:, 0] + ay * points[:, 1]


def _g_bump(params: dict) -> Callable[[np.ndarray], np.ndarray]:
    cx = float(params["cx"])
    cy = float(params["cy"])
    w = float(params["width"])
    return lambda points: np.exp(
        -((points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2) / (2 * w * w)
    )


LOAD_PRESETS = {
    "smooth": (_g_smooth, {}),
    "constant": (_constant, {"value": 1.0}),
    "linear": (_g_linear, {"ax": 1.0, "ay": 0.0}),
    "bump": (_g_bump, {"cx": 0.5, "cy": 0.5, "width": 0.15}),
}


def load_function(name: str, params: dict | None = None) -> Callable[[np.ndarray], np.ndarray]:
    return _preset(LOAD_PRESETS, "load", name, params)


def describe() -> dict:
    """Catalog of bundled scenarios with their tunable parameters and defaults."""
    return {
        "coefficients": {name: dict(defaults) for name, (_, defaults) in COEFFICIENT_PRESETS.items()},
        "loads": {name: dict(defaults) for name, (_, defaults) in LOAD_PRESETS.items()},
    }
