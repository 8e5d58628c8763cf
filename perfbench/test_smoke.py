"""Smoke test of the benchmark at toy size (nx=4).

    python3 -m pytest perfbench

Runs every workload of BENCHMARK.json shrunk to nx=4, untraced and
traced, checks the result line against BENCHMARK.json's metric schema,
and checks that the gates trip on deliberately perturbed solutions.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gates
import run
from workloads import WORKLOADS, seeded_loads, solver_config

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name: str):
    w = WORKLOADS[name]
    return replace(
        w,
        name=f"toy_{name}",  # not in expected.json, which holds full-size errors
        nx=4,
        face_level=2,
        loads_per_op=min(w.loads_per_op, 2),
        n_loads=min(w.n_loads, 2),
        min_ops=1,
        err_ceiling=0.5,
    )


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_result_matches_schema(name, trace, tmp_path):
    result = run.run(toy(name), seed=0, seconds=0.0, trace=trace, run_dir=tmp_path)
    assert result["failed"] == 0, result["failures"]
    line = json.loads(json.dumps(run.summary(result)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    schema = BENCH["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in schema]
    for m in schema:
        value = line["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] != 0 for m in schema)


def test_gates_trip_on_perturbed_solution():
    sys.path.insert(0, str(ROOT / "src"))
    from lsdfem import pipeline, presets

    w = toy("cli_solve_n16")
    cfg = pipeline.SolverConfig.from_dict(solver_config(w))
    assembly = pipeline.build_assembly(cfg)
    n_pi = sum(s.n_pi for s in assembly.face_spectra(cfg.alpha_stab))
    g = pipeline.sample_load(assembly.part, presets.load_function("bump", seeded_loads(0, 1)[0]))
    sol = pipeline.solve_lsd(assembly, g, cfg.j, cfg.variant, cfg.alpha_stab)
    u_ref, _ = pipeline.exact_hybrid_solve(assembly, g)

    def check(solution, expected=None):
        rec = {
            "equilibrium_rel_max": solution.diagnostics["equilibrium_rel_max"],
            "equilibrium_ok": solution.diagnostics["equilibrium_ok"],
            "energy_err_rel": gates.relative_energy_error(
                assembly.caches, u_ref, solution.u_broken
            ),
            "n_pi_total": n_pi,
        }
        return rec["energy_err_rel"], gates.check_load(rec, cfg.variant, w.err_ceiling, expected)

    err, failures = check(sol)
    assert failures == []
    assert check(sol, expected=err * (1 + 1e-6))[1] == []
    assert any("seed code" in f for f in check(sol, expected=1.01 * err)[1])

    # A multiplier whose face averages are off breaks the element load balance.
    rng = np.random.default_rng(0)
    noise = assembly.space.vector(rng.standard_normal(assembly.space.n_fine))
    ttg = pipeline.compute_ttilde(assembly, g)
    unbalanced = pipeline.reconstruct(
        assembly, sol.lam0, sol.lam_coarse + noise, sol.lam_delta, sol.u0, g, ttg
    )
    assert any("equilibrium" in f for f in check(unbalanced)[1])

    # A field with spurious oscillations fails the energy-error gate.
    sol.u_broken[0] = sol.u_broken[0] + rng.standard_normal(sol.u_broken[0].shape)
    assert any("energy_err_rel" in f for f in check(sol)[1])

    # A delta run without retained modes is a silent plain run.
    rec = {"equilibrium_rel_max": 0.0, "equilibrium_ok": True, "energy_err_rel": err}
    assert any("n_pi_total" in f for f in gates.check_load(rec, "delta", w.err_ceiling, None))
