"""Shared fixtures and independent oracle helpers."""

from __future__ import annotations

import numpy as np
import pytest

from lsdfem.coeff import CoefficientField, make_weight
from lsdfem.localop import assemble_all, edge_blocks
from lsdfem.localize import build_flux_energy
from lsdfem.mesh import build_structured_mesh, refine_faces
from lsdfem.pipeline import Assembly, SolverConfig, build_assembly
from lsdfem.traces import build_trace_space


def lambda0_basis(space):
    """The jump functionals, one trace vector per element: the columns of ``space.jump_basis``."""
    cols = space.jump_basis.toarray()
    return [cols[:, i].copy() for i in range(space.n_elements)]


def random_tilde_f(space, rng):
    """Random member of the zero-face-average block."""
    nfs = space.part.faces_per_coarse
    out = np.zeros(space.n_fine)
    if nfs > 1:
        out = (rng.standard_normal((space.n_coarse_faces, nfs - 1)) @ space.zero_mean.T).ravel()
    return out


def constant_field(part, value=1.0):
    """The coefficient ``value * I`` on every fine cell."""
    return CoefficientField.from_scalar_function(part, lambda pts: np.full(len(pts), float(value)))


def face_elements(mesh, face):
    """Incident element ids of a coarse face: one on the boundary, (left, right) otherwise."""
    if mesh.face_boundary[face]:
        return (int(mesh.face_left[face]),)
    return (int(mesh.face_left[face]), int(mesh.face_right[face]))


def face_rows(part, elem):
    """Coarse face id -> element ``elem``'s boundary rows on it, ordered by sub-face."""
    rows = np.arange(3 * part.faces_per_coarse).reshape(3, part.faces_per_coarse)
    return dict(zip(part.mesh.element_faces[elem].tolist(), rows))


def make_assembly(nx, ny, face_level, coefficient="constant", params=None, rho="one"):
    cfg = SolverConfig(
        nx=nx,
        ny=ny,
        face_level=face_level,
        coefficient=coefficient,
        coefficient_params=params or {},
        rho=rho,
    )
    return build_assembly(cfg)


def face_split(asm, elem, face):
    """Blocks ``(t_ff, t_ffc, t_fcfc, t_hat)`` of element ``elem``'s flux energy split by its face ``face``."""
    e = list(asm.mesh.element_faces[elem]).index(face)
    blocks = edge_blocks(asm.space, asm.caches.flux_energy[[elem]], np.array([elem]))
    return tuple(blk[0, e] for blk in blocks)


@pytest.fixture(scope="session")
def asm_const():
    """2x2 grid, one refinement level, A = I, rho = 1."""
    return make_assembly(2, 2, 1)


@pytest.fixture(scope="session")
def asm_mixed():
    """4x4 grid, two refinement levels, high-contrast checkerboard."""
    return make_assembly(4, 4, 2, "checkerboard", {"contrast": 1e3, "cells": 4})


@pytest.fixture(scope="session")
def asm_aniso():
    """2x2 grid with the anisotropic diag(1, 4) tensor."""
    cfg = SolverConfig(nx=2, ny=2, face_level=1, coefficient="anisotropic",
                       coefficient_params={"ratio": 4.0})
    return build_assembly(cfg)


@pytest.fixture(scope="session")
def asm_smooth_4():
    """4x4 grid, smooth coefficient, two refinement levels."""
    return make_assembly(4, 4, 2, "smooth")


# ---------------------------------------------------------------------------
# Independent oracle helpers (geometry-level, no reuse of trace matrices).
# ---------------------------------------------------------------------------


def eval_p1(geom, values, point):
    """Evaluate a P1 nodal field at a point by barycentric location."""
    for c, cell in enumerate(geom.cells):
        p = geom.nodes[cell]
        mat = np.column_stack((p[1] - p[0], p[2] - p[0]))
        try:
            ab = np.linalg.solve(mat, point - p[0])
        except np.linalg.LinAlgError:
            continue
        if ab[0] >= -1e-12 and ab[1] >= -1e-12 and ab.sum() <= 1 + 1e-12:
            bary = np.array([1 - ab.sum(), ab[0], ab[1]])
            return float(values[cell] @ bary)
    raise ValueError("point outside element")


def pairing_bruteforce(space, mu, v_broken, n_quad=64):
    """Quadrature oracle for the boundary pairing.

    Composite trapezoid with many panels per fine sub-face and explicit
    point evaluation of the broken function; independent of the cached
    trace-integral matrices.
    """
    part = space.part
    mesh = space.mesh
    total = 0.0
    for elem in range(mesh.n_elements):
        geom = part[elem]
        for local in range(3):
            fid = int(mesh.element_faces[elem, local])
            sign = int(mesh.element_face_signs[elem, local])
            for k in range(part.faces_per_coarse):
                fine = fid * part.faces_per_coarse + k
                a, b = part.fine_endpoints[fine]
                side_value = sign * mu[fine]
                ts = np.linspace(0.0, 1.0, n_quad + 1)
                pts = a[None, :] + ts[:, None] * (b - a)[None, :]
                vals = np.array([eval_p1(geom, v_broken[elem], p) for p in pts])
                seg = np.linalg.norm(b - a) / n_quad
                integral = seg * (vals[0] / 2 + vals[1:-1].sum() + vals[-1] / 2)
                total += side_value * integral
    return total
