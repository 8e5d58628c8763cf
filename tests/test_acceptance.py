"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from conftest import make_assembly, random_tilde_f
from lsdfem.localize import ring_energies
from lsdfem.localop import broken_energy
from lsdfem.mesh import saturation_radius
from lsdfem.pipeline import (
    SolverConfig,
    conforming_solve,
    energy_error,
    exact_hybrid_solve,
    full_pipeline,
    load_norm,
    sample_load,
    solve_lsd,
)
from lsdfem.spectral import all_face_spectra, gensym_eig, project_rhs
from lsdfem.traces import boundary_functional, solve_V0_pairing
from test_localop import apply_Ttilde, identity_flux_energy

HAIRPIN = {"center": 0.4375, "width": 0.028, "spacing": 0.06, "turn_x": 0.8}


def smooth_g(points):
    return np.sin(np.pi * points[:, 0]) * np.sin(np.pi * points[:, 1])


def report(number, label, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {detail} [{elapsed:.1f}s / budget {budget}s]")
    assert ok, f"criterion {number} ({label}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget ({elapsed:.1f}s)"


def seed_probe(assembly, elem):
    v = np.zeros(assembly.part.nodes.shape[:2])
    v[elem] = assembly.part.nodes[elem, :, 0]
    return boundary_functional(assembly.space, v)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    asm = make_assembly(4, 4, 2, "constant")
    g = sample_load(asm.part, smooth_g)
    jstar = saturation_radius(asm.mesh)
    # Threshold above every face eigenvalue: the retained block is empty.
    spectra = asm.face_spectra(1e12)
    assert all(s.n_pi == 0 for s in spectra)
    sol = solve_lsd(asm, g, jstar, "delta", 1e12)
    u_ref, _ = exact_hybrid_solve(asm, g)
    ref = broken_energy(asm.caches, u_ref) ** 0.5
    rel = energy_error(asm.caches, u_ref, sol.u_broken) / ref
    report(1, "oracle equivalence", rel <= 1e-9, f"relative energy error {rel:.2e}", t0, 10)


def test_criterion_2_invariance_suite():
    t0 = time.perf_counter()
    asm = make_assembly(4, 4, 2, "checkerboard", {"contrast": 1e3, "cells": 4})
    rng = np.random.default_rng(2024)
    worst = 0.0
    for variant, alpha in (("plain", 2.0), ("delta", 2.0)):
        proj = asm.projector(variant, alpha)
        if variant == "delta":
            assert sum(s.n_pi for s in asm.face_spectra(alpha)) > 0
        for _ in range(20):
            if variant == "plain":
                lam = random_tilde_f(asm.space, rng)
            else:
                lam = proj.basis @ rng.standard_normal(proj.basis.shape[1])
            for j in (1, 2, 3):
                out = proj.apply_PjT(lam, j)
                worst = max(worst, np.abs(out - lam).max() / np.abs(lam).max())
    report(2, "invariance", worst <= 1e-10, f"worst relative defect {worst:.2e}", t0, 30)


def test_criterion_3_exponential_decay():
    t0 = time.perf_counter()
    asm = make_assembly(16, 16, 1, "smooth")
    center = int(np.argmin(np.linalg.norm(asm.mesh.centroids - 0.5, axis=1)))
    proj = asm.projector("plain", 4.0)
    mu = proj.project_functional(seed_probe(asm, center))
    prof = ring_energies(asm.caches, mu, ("element", center))
    floor = 1e-14 * prof.total
    monotone = all(
        prof.energies[r + 1] <= prof.energies[r] * (1 + 1e-12) + floor
        for r in range(2, len(prof.energies) - 1)
    )
    tail = prof.tail_fraction(6)
    ok = monotone and prof.ratio < 0.95 and tail < 0.01
    report(
        3,
        "exponential decay",
        ok,
        f"monotone={monotone} fitted ratio {prof.ratio:.3f} tail>ring6 {tail:.2e}",
        t0,
        60,
    )


def test_criterion_4_contrast_robustness():
    t0 = time.perf_counter()
    ratios = {}
    for contrast in (1e2, 1e4, 1e6):
        asm = make_assembly(8, 8, 2, "channel", {**HAIRPIN, "contrast": contrast})
        elem = int(np.argmin(np.linalg.norm(asm.mesh.centroids - np.array([0.06, 0.4375]), axis=1)))
        probe = seed_probe(asm, elem)
        for variant in ("plain", "delta"):
            proj = asm.projector(variant, 10.0)
            mu = proj.project_functional(probe)
            prof = ring_energies(asm.caches, mu, ("element", elem))
            ratios[(variant, contrast)] = prof.worst_step
    delta_vals = [ratios[("delta", c)] for c in (1e2, 1e4, 1e6)]
    delta_spread = max(delta_vals) / min(delta_vals)
    plain_degradation = ratios[("plain", 1e6)] / ratios[("plain", 1e2)]
    ok = delta_spread <= 2.0 and plain_degradation >= 2.0
    report(
        4,
        "contrast robustness",
        ok,
        f"delta per-ring ratios {['%.3f' % v for v in delta_vals]} (spread {delta_spread:.2f}x), "
        f"plain ratio 1e2 {ratios[('plain', 1e2)]:.3f} -> 1e6 {ratios[('plain', 1e6)]:.3f} "
        f"({plain_degradation:.1f}x worse)",
        t0,
        120,
    )


def test_criterion_5_equilibrium_every_run():
    t0 = time.perf_counter()
    worst = 0.0
    runs = [
        SolverConfig(nx=4, ny=4, face_level=2, coefficient="smooth", variant="plain", j=1),
        SolverConfig(nx=4, ny=4, face_level=1, coefficient="checkerboard",
                     coefficient_params={"contrast": 1e4, "cells": 8},
                     variant="delta", alpha_stab=8.0, j=1),
        SolverConfig(nx=8, ny=8, face_level=2, coefficient="channel",
                     coefficient_params={**HAIRPIN, "contrast": 1e6},
                     variant="delta", alpha_stab=10.0, j=1),
        SolverConfig(nx=4, ny=4, face_level=1, coefficient="inclusions",
                     coefficient_params={"count": 3, "contrast": 1e4},
                     variant="plain", j=2, rhs_reduction=True),
    ]
    for cfg in runs:
        solution, _ = full_pipeline(cfg)
        worst = max(worst, solution.diagnostics["equilibrium_rel_max"])
    report(5, "equilibrium", worst <= 1e-10, f"worst per-element residual {worst:.2e}", t0, 120)


def test_criterion_6_eigenvalue_floor():
    t0 = time.perf_counter()
    configs = [
        ("smooth", {}),
        ("checkerboard", {"contrast": 1e4, "cells": 8}),
        ("channel", {**HAIRPIN, "contrast": 1e6}),
        ("inclusions", {"count": 4, "contrast": 1e6}),
    ]
    lo = np.inf
    for name, params in configs:
        asm = make_assembly(4, 4, 2, name, params)
        spectra = all_face_spectra(asm.space, asm.caches, alpha_stab=10.0)
        for s in spectra:
            if s.alphas.shape[-1] > 0:
                lo = min(lo, float(s.alphas.min()))
    report(6, "eigenvalue floor", lo >= 1.0 - 1e-8, f"min face eigenvalue {lo:.12f}", t0, 60)


def test_criterion_7_rhs_reduction():
    t0 = time.perf_counter()
    asm = make_assembly(8, 8, 1, "inclusions", {"count": 4, "contrast": 1e4})
    g = sample_load(asm.part, smooth_g)
    u_full, _ = exact_hybrid_solve(asm, g)
    g_norm = load_norm(asm.caches, g)
    big_h = asm.mesh.coarse_size
    ok = True
    details = []
    for h_target in (big_h, 0.5 * big_h):
        spectra = asm.element_spectra(h_target, 1.0)
        g_proj = project_rhs(spectra, asm.caches, g)[0]
        u_red, _ = exact_hybrid_solve(asm, g_proj)
        err = energy_error(asm.caches, u_full, u_red)
        sig_next = np.array(
            [s.sigma[s.j_count] if s.j_count < len(s.sigma) else np.inf for s in spectra]
        )
        bound = float((1.0 / np.sqrt(sig_next)).max()) * g_norm
        ok = ok and err <= bound * (1 + 1e-9)
        details.append(f"H~={h_target:.3f}: err {err:.2e} <= bound {bound:.2e}")
    # Sampled weighted Poincare inequality on the dropped subspace.
    rng = np.random.default_rng(7)
    spectra = asm.element_spectra(big_h, 1.0)
    sampled = 0
    for cache, spec in zip(asm.caches, spectra):
        tail = gensym_eig(cache.stiffness, cache.mass)[1][:, spec.j_count :]   # the dropped modes
        if tail.shape[1] == 0:
            continue
        sampled += 1
        for _ in range(20):
            v = tail @ rng.standard_normal(tail.shape[1])
            mass = v @ (cache.mass @ v)
            energy = v @ (cache.stiffness @ v)
            ok = ok and mass <= energy / spec.sigma[spec.j_count] * (1 + 1e-10)
    assert sampled
    report(7, "rhs reduction", ok, "; ".join(details) + "; Poincare sampled OK", t0, 60)


def test_criterion_8_order_h_convergence():
    # Face level 1 keeps the fixed-j localization error an order below the
    # discretization error on the finest mesh, so the fitted rate reflects
    # the target-precision scaling rather than the truncation floor.
    t0 = time.perf_counter()
    errors = []
    sizes = []
    for n in (2, 4, 8):
        asm = make_assembly(n, n, 1, "smooth")
        g = sample_load(asm.part, smooth_g)
        sol = solve_lsd(asm, g, 4, "plain", 4.0)
        _, u_conf = conforming_solve(asm, g)
        errors.append(energy_error(asm.caches, u_conf, sol.u_broken))
        sizes.append(asm.mesh.coarse_size)
    rate = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    report(
        8,
        "order-H convergence",
        rate >= 0.8,
        f"errors {['%.3e' % e for e in errors]} rate {rate:.2f}",
        t0,
        180,
    )


def test_criterion_9_adjoint_and_sandwich():
    t0 = time.perf_counter()
    asm = make_assembly(4, 4, 1, "checkerboard", {"contrast": 1e3, "cells": 8})
    from lsdfem.localop import apply_T

    rng = np.random.default_rng(9)
    worst_adj = 0.0
    sandwich_ok = True
    nfs = asm.part.faces_per_coarse
    for t, cache in enumerate(asm.caches):
        b = cache.flux_energy
        b_id = identity_flux_energy(cache)
        signs = np.repeat(asm.mesh.element_face_signs[t], nfs)
        for _ in range(20):
            # Stored values drawn as the values element t sees, times its face signs.
            mu = signs * rng.standard_normal(cache.geom.boundary_face_ids.size)
            g = rng.standard_normal(cache.geom.n_nodes)
            t_g, t_mu = apply_Ttilde(cache, g), apply_T(cache, mu)
            left = mu @ (cache.geom.trace_matrix @ t_g)
            right = g @ (cache.mass @ t_mu)
            # Scaled by the size of the summands, not of the sums: a pairing that
            # cancels to near zero would turn its rounding into a large relative defect.
            scale = max(np.abs(mu) @ np.abs(cache.geom.trace_matrix) @ np.abs(t_g),
                        np.abs(g) @ np.abs(cache.mass) @ np.abs(t_mu), 1e-30)
            worst_adj = max(worst_adj, abs(left - right) / scale)
            e = mu @ (b @ mu)
            e_id = mu @ (b_id @ mu)
            a_min, a_max = asm.stats.a_min_local[t], asm.stats.a_max_local[t]
            slack = 1e-11 * max(e, e_id / a_min)
            sandwich_ok = sandwich_ok and (e >= e_id / a_max - slack)
            sandwich_ok = sandwich_ok and (e <= e_id / a_min + slack)
    ok = worst_adj <= 1e-11 and sandwich_ok
    report(
        9,
        "adjoint/structure identities",
        ok,
        f"worst adjoint defect {worst_adj:.2e}, sandwich holds: {sandwich_ok}",
        t0,
        30,
    )


def test_criterion_10_jump_system():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, level in ((4, 2), (8, 1)):
        asm = make_assembly(n, n, level, "smooth")
        space = asm.space
        m = space.pairing_matrix
        mesh = asm.mesh
        for i in range(m.shape[0]):
            off = np.abs(m[i]).sum() - abs(m[i, i])
            ok = ok and abs(m[i, i]) >= off - 1e-12
            if any(mesh.face_boundary[f] for f in mesh.element_faces[i]):
                ok = ok and abs(m[i, i]) > off
        graph = sp.csr_matrix((np.abs(m) > 1e-14).astype(int))
        ncomp, _ = csgraph.connected_components(graph, directed=False)
        ok = ok and ncomp == 1
        rng = np.random.default_rng(n)
        rhs = rng.standard_normal(m.shape[0])
        x = solve_V0_pairing(space, rhs)
        dense = np.linalg.solve(m, rhs)
        defect = np.abs(x - dense).max() / max(np.abs(dense).max(), 1e-30)
        ok = ok and defect <= 1e-12
        details.append(f"{n}x{n}: dominance+irreducible, solve defect {defect:.1e}")
    report(10, "jump-coefficient system", ok, "; ".join(details), t0, 30)
