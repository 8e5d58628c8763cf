import numpy as np
import pytest

from conftest import constant_field
from lsdfem.coeff import (
    CoefficientError,
    CoefficientField,
    Raster,
    load_raster,
    local_bounds,
    make_weight,
    save_raster,
)
from lsdfem.mesh import build_structured_mesh, refine_faces


@pytest.fixture(scope="module")
def part():
    return refine_faces(build_structured_mesh(2, 2), 1)


def test_identity_contrast(part):
    stats = local_bounds(constant_field(part))
    assert np.allclose(stats.kappa_local, 1.0)
    assert stats.kappa == 1.0
    assert stats.beta == pytest.approx(1.0 + np.log(part.mesh.coarse_size / part.fine_size))


def test_two_value_contrast(part):
    # Split one element's cells between 1 and 1e6.
    def fn(points):
        return np.where(points[:, 0] + points[:, 1] < 0.995, 1.0, 1e6)

    field = CoefficientField.from_scalar_function(part, fn)
    stats = local_bounds(field)
    assert stats.kappa == pytest.approx(1e6)


def test_anisotropic_bounds(part):
    def tensor(points):
        out = np.zeros((len(points), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 4.0
        return out

    field = CoefficientField.from_tensor_function(part, tensor)
    stats = local_bounds(field)
    assert np.allclose(stats.a_min_local, 1.0)
    assert np.allclose(stats.a_max_local, 4.0)


def test_scaling_property(part):
    def fn(points):
        return 1.0 + points[:, 0]

    base = local_bounds(CoefficientField.from_scalar_function(part, fn))
    scaled = local_bounds(CoefficientField.from_scalar_function(part, lambda points: 3.5 * fn(points)))
    assert np.allclose(scaled.a_min_local, 3.5 * base.a_min_local, rtol=1e-14)
    assert np.allclose(scaled.a_max_local, 3.5 * base.a_max_local, rtol=1e-14)
    assert np.allclose(scaled.kappa_local, base.kappa_local, rtol=1e-14)


def test_spd_validation(part):
    def bad(points):
        out = np.zeros((len(points), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = -1.0
        return out

    with pytest.raises(CoefficientError):
        CoefficientField.from_tensor_function(part, bad)


def test_weight_tags(part):
    def tensor(points):
        out = np.zeros((len(points), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 4.0
        return out

    field = CoefficientField.from_tensor_function(part, tensor)
    assert all(np.allclose(v, 1.0) for v in make_weight("one", field))
    assert all(np.allclose(v, 4.0) for v in make_weight("a_plus", field))
    assert all(np.allclose(v, 1.0) for v in make_weight("a_minus", field))
    scalar = CoefficientField.from_scalar_function(part, lambda p: 2.0 + 6.0 * (p[:, 0] > 0.5))
    w = make_weight("amin", scalar)
    assert all(np.allclose(v, 2.0) for v in w)
    with pytest.raises(CoefficientError):
        make_weight("bogus", field)
    with pytest.raises(CoefficientError):
        make_weight("custom", field, custom=lambda p: np.zeros(len(p)))


def quad_points(geom):
    """Second-order quadrature (edge midpoints) on every cell."""
    pts, wts, cells = [], [], []
    for c, cell in enumerate(geom.cells):
        p = geom.nodes[cell]
        for i in range(3):
            pts.append(0.5 * (p[i] + p[(i + 1) % 3]))
            wts.append(geom.cell_areas[c] / 3.0)
            cells.append((c, i))
    return np.array(pts), np.array(wts), cells


def test_weighted_norm_consistency(part):
    # Quadrature oracle: integral of rho*g^2 equals integral of (sqrt(rho)*g)^2
    # and of f^2/rho with f = rho*g, evaluated by exact midpoint quadrature.
    field = CoefficientField.from_scalar_function(part, lambda p: 1.0 + p[:, 1])
    weight = make_weight("a_plus", field)
    rng = np.random.default_rng(3)
    total_a = total_b = 0.0
    for elem, geom in enumerate(part.geometry):
        g = rng.standard_normal(geom.n_nodes)
        rho = weight[elem]
        for c, cell in enumerate(geom.cells):
            p = geom.nodes[cell]
            vals = np.array([0.5 * (g[cell[i]] + g[cell[(i + 1) % 3]]) for i in range(3)])
            w = geom.cell_areas[c] / 3.0
            total_a += rho[c] * float(w * (vals**2).sum())
            f_vals = rho[c] * vals
            total_b += float(w * (f_vals**2 / rho[c]).sum())
    assert total_a == pytest.approx(total_b, rel=1e-12)


def test_raster_roundtrip(tmp_path, part):
    values = np.arange(12.0).reshape(3, 4) + 1.0
    raster = Raster(4, 3, values)
    for name in ("r.txt", "r.json"):
        path = str(tmp_path / name)
        save_raster(raster, path)
        back = load_raster(path)
        assert back.nx == 4 and back.ny == 3
        assert np.array_equal(back.values, values)
    field = CoefficientField.from_raster(part, raster)
    stats = local_bounds(field)
    assert stats.kappa <= 12.0


def test_tensor_raster(tmp_path, part):
    values = np.zeros((2, 2, 3))
    values[..., 0] = 2.0
    values[..., 2] = 3.0
    raster = Raster(2, 2, values)
    path = str(tmp_path / "t.txt")
    save_raster(raster, path)
    back = load_raster(path)
    assert back.is_tensor
    field = CoefficientField.from_raster(part, back)
    stats = local_bounds(field)
    assert np.allclose(stats.a_min_local, 2.0)
    assert np.allclose(stats.a_max_local, 3.0)
