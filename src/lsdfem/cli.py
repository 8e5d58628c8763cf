"""Batch front end: run solves and parameter studies, emit CSV/JSON.

One experiment per invocation.  All output is plot-ready CSV plus a JSON
summary; there is no plotting dependency.  Runs are bitwise reproducible
for a fixed (spec, seed).  Exit codes: 0 on success, 2 for a bad flag,
environment variable or config, 3 when a numerical check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import presets
from .coeff import _POSITIVE, _POSITIVE_INT, _is_integer
from .localize import ring_energies
from .pipeline import (
    Assembly,
    PipelineError,
    SolverConfig,
    _configured_solve,
    _stage,
    build_assembly,
    broken_energy,
    conforming_solve,
    energy_error,
    exact_hybrid_solve,
    full_pipeline,
    load_norm,
    sample_load,
)
from .spectral import project_rhs
from .traces import boundary_functional

EXPERIMENT_KINDS = ("solve", "decay", "j_sweep", "contrast_sweep", "h_convergence", "rhs_reduction")
ENV_PREFIX = "LSDFEM_"
# Sweep lists the runners read: key -> (requirement, check of one value).
SWEEP_RULES = {"j": _POSITIVE_INT, "nx": _POSITIVE_INT, "contrasts": _POSITIVE, "h_target": _POSITIVE}


class SpecError(ValueError):
    """An experiment spec value that only a runner can check: against the built mesh, or the kind it runs."""


@dataclass
class ExperimentSpec:
    """Parsed experiment description: kind, base config, sweeps, output."""

    kind: str
    config: SolverConfig
    sweep: dict = field(default_factory=dict)
    out_dir: str = "lsdfem-out"
    seed: int = 0

    @classmethod
    def from_file(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec must be a JSON object, got {data!r}")
        unknown = set(data) - {"experiment", "config", "sweep", "seed", "out"}
        if unknown:
            raise ValueError(f"unknown experiment spec keys: {sorted(unknown)}")
        kind = data.get("experiment", "solve")
        if kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {kind!r}")
        cfg = SolverConfig.from_dict(data.get("config", {}))
        sweep = data.get("sweep", {})
        if not isinstance(sweep, dict):
            raise ValueError(f"sweep must be an object, got {sweep!r}")
        unknown = set(sweep) - {*SWEEP_RULES, "seed_element", "random_probe"}
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        if not isinstance(sweep.get("random_probe", False), bool):
            raise ValueError(f"sweep.random_probe must be true or false, got {sweep['random_probe']!r}")
        for key, (rule, ok) in SWEEP_RULES.items():
            values = sweep.get(key, [])
            if not isinstance(values, list) or not all(map(ok, values)):
                raise ValueError(f"sweep.{key} must be a list, each value {rule}, got {values!r}")
        seed = data.get("seed", 0)
        if not _is_integer(seed) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        out = data.get("out", "lsdfem-out")
        if not isinstance(out, str):
            raise ValueError(f"out must be a directory path string, got {out!r}")
        return cls(kind=kind, config=cfg, sweep=sweep, out_dir=out, seed=seed)


def _write_csv(path: str, columns: dict) -> None:
    """Write equal-length columns as CSV (floats as ``repr``, CRLF line ends); nothing without rows."""
    rows = list(zip(*columns.values()))
    if rows:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _write_study(spec: ExperimentSpec, rows: list[dict], payload: dict) -> dict:
    """Write ``<kind>.csv`` from rows that share their keys and ``<kind>.json`` from ``payload``; return it."""
    path = os.path.join(spec.out_dir, spec.kind)
    _write_csv(path + ".csv", {key: [row[key] for row in rows] for key in (rows[0] if rows else ())})
    _write_json(path + ".json", payload)
    return payload


def _nearest_element(assembly: Assembly, point) -> int:
    """The element whose centroid is nearest ``point``."""
    return int(np.argmin(np.linalg.norm(assembly.mesh.centroids - point, axis=1)))


def _seed_element(spec: ExperimentSpec, assembly: Assembly, default: int) -> int:
    """``sweep.seed_element`` checked against the built mesh, or ``default``."""
    elem = spec.sweep.get("seed_element", default)
    n = assembly.mesh.n_elements
    if not _is_integer(elem) or not 0 <= elem < n:
        raise SpecError(f"sweep.seed_element must be an integer in [0, {n}), got {elem!r}")
    return int(elem)


def _seed_profile(assembly: Assembly, variant: str, alpha_stab: float, elem: int, rng):
    """Ring profile of the projected potential of a one-element source."""
    nodes = assembly.part.nodes
    v = np.zeros(nodes.shape[:2])
    if rng is None:
        v[elem] = nodes[elem, :, 0]     # linear probe varies along every face
    else:
        v[elem] = rng.standard_normal(v.shape[1])
    r = boundary_functional(assembly.space, v)
    projector = assembly.projector(variant, alpha_stab)
    mu = projector.project_functional(r)
    return ring_energies(assembly.mesh, assembly.caches, mu, ("element", elem))


def run_solve(spec: ExperimentSpec) -> dict:
    assembly = build_assembly(spec.config)
    solution, report = full_pipeline(spec.config, assembly=assembly)
    out = spec.out_dir
    _write_json(os.path.join(out, "report.json"), report)
    solution.lam_total.astype("<f8").tofile(os.path.join(out, "multiplier.bin"))
    u, sigma, part = solution.u_broken, solution.sigma, assembly.part
    (ne, nn), nc = u.shape, sigma.shape[1]
    _write_csv(os.path.join(out, "solution_summary.csv"), {
        "element": range(ne),
        "u_constant": solution.u0.tolist(),
        "u_min": u.min(axis=1).tolist(),
        "u_max": u.max(axis=1).tolist(),
        "flux_max": np.abs(sigma).max(axis=(1, 2)).tolist(),
        "config_hash": [report["config_hash"]] * ne,
    })
    _write_csv(os.path.join(out, "solution_nodal.csv"), {
        "element": np.repeat(np.arange(ne), nn).tolist(),
        "node": np.tile(np.arange(nn), ne).tolist(),
        "x": part.nodes[..., 0].ravel().tolist(),
        "y": part.nodes[..., 1].ravel().tolist(),
        "u": u.ravel().tolist(),
    })
    _write_csv(os.path.join(out, "flux_cells.csv"), {
        "element": np.repeat(np.arange(ne), nc).tolist(),
        "cell": np.tile(np.arange(nc), ne).tolist(),
        "x": part.cell_centroids[..., 0].ravel().tolist(),
        "y": part.cell_centroids[..., 1].ravel().tolist(),
        "sigma_x": sigma[..., 0].ravel().tolist(),
        "sigma_y": sigma[..., 1].ravel().tolist(),
    })
    return report


def run_decay(spec: ExperimentSpec) -> dict:
    cfg = spec.config
    assembly = build_assembly(cfg)
    vertices = assembly.mesh.vertices
    center = 0.5 * (vertices.min(axis=0) + vertices.max(axis=0))
    elem = _seed_element(spec, assembly, _nearest_element(assembly, center))
    rng = np.random.default_rng(spec.seed) if spec.sweep.get("random_probe") else None
    rows = []
    summary = {}
    variants = ["plain"] if cfg.variant == "plain" else ["plain", "delta"]
    for variant in variants:
        profile = _seed_profile(assembly, variant, cfg.alpha_stab, elem, rng)
        cum = profile.cumulative_fraction()
        for r, (e, c) in enumerate(zip(profile.energies, cum)):
            rows.append(
                {
                    "variant": variant,
                    "seed_element": elem,
                    "ring": r,
                    "energy": e,
                    "cumulative_fraction": c,
                    "config_hash": cfg.digest(),
                }
            )
        summary[variant] = {
            "ratio": profile.ratio,
            "worst_step": profile.worst_step,
            "total": profile.total,
        }
    return _write_study(spec, rows, {"config_hash": cfg.digest(), "seed_element": elem, "fit": summary})


def run_j_sweep(spec: ExperimentSpec) -> dict:
    cfg = spec.config
    assembly = build_assembly(cfg)
    g = sample_load(assembly.part, presets.load_function(cfg.rhs, cfg.rhs_params))
    reference = _configured_solve(assembly, cfg, g, None)
    ref_energy = broken_energy(assembly.caches, reference.u_broken) ** 0.5
    js = [int(j) for j in spec.sweep.get("j", [1, 2, 3])]
    rows = []
    for j in js:
        sol = _configured_solve(assembly, cfg, g, j)
        err = energy_error(assembly.caches, reference.u_broken, sol.u_broken)
        rows.append(
            {
                "j": j,
                "energy_error": err,
                "relative_error": err / ref_energy if ref_energy else 0.0,
                "equilibrium_rel_max": sol.diagnostics["equilibrium_rel_max"],
                "oracle": "global_projection_reference",
                "config_hash": cfg.digest(),
            }
        )
    return _write_study(spec, rows, {"rows": rows, "config_hash": cfg.digest()})


def run_contrast_sweep(spec: ExperimentSpec) -> dict:
    cfg = spec.config
    if cfg.coefficient_file is not None:
        raise SpecError("contrast_sweep samples the channel preset at each contrast; drop config.coefficient_file")
    contrasts = [float(c) for c in spec.sweep.get("contrasts", [1e2, 1e4, 1e6])]
    rows = []
    for contrast in contrasts:
        sub = replace(
            cfg, coefficient="channel", coefficient_params={**cfg.coefficient_params, "contrast": contrast}
        )
        assembly = build_assembly(sub)
        # Default seed: the element inside the channel nearest the domain's left edge.
        center = float(sub.coefficient_params.get("center", presets.COEFFICIENT_PRESETS["channel"][1]["center"]))
        left = assembly.mesh.vertices[:, 0].min()
        elem = _seed_element(spec, assembly, _nearest_element(assembly, (left, center)))
        for variant in ("plain", "delta"):
            profile = _seed_profile(assembly, variant, cfg.alpha_stab, elem, None)
            rows.append(
                {
                    "contrast": contrast,
                    "variant": variant,
                    "decay_ratio": profile.ratio,
                    "worst_step": profile.worst_step,
                    "tail_after_ring4": profile.tail_fraction(4),
                    "seed_element": elem,
                    "oracle": "ring_energies_of_projected_seed_potential",
                    "config_hash": sub.digest(),
                }
            )
    return _write_study(spec, rows, {"rows": rows})


def run_h_convergence(spec: ExperimentSpec) -> dict:
    cfg = spec.config
    if cfg.mesh_file:
        raise SpecError("h_convergence builds a structured mesh for each sweep.nx; drop config.mesh_file")
    sizes = [int(n) for n in spec.sweep.get("nx", [2, 4, 8])]
    rows = []
    prev = None
    for n in sizes:
        sub = replace(cfg, nx=n, ny=n)
        assembly = build_assembly(sub)
        g = sample_load(assembly.part, presets.load_function(sub.rhs, sub.rhs_params))
        sol = _configured_solve(assembly, sub, g, sub.j)
        _, u_conf = conforming_solve(assembly, g)
        err = energy_error(assembly.caches, u_conf, sol.u_broken)
        gn = load_norm(assembly.caches, g)
        h_coarse = assembly.mesh.coarse_size
        rate = None
        if prev is not None and err > 0 and prev[1] > 0:
            rate = float(np.log(prev[1] / err) / np.log(prev[0] / h_coarse))
        rows.append(
            {
                "nx": n,
                "H": h_coarse,
                "energy_error": err,
                "error_per_load": err / gn if gn else 0.0,
                "rate": "" if rate is None else rate,
                "oracle": "conforming_union_mesh",
                "config_hash": sub.digest(),
            }
        )
        prev = (h_coarse, err)
    return _write_study(spec, rows, {"rows": rows})


def run_rhs_reduction(spec: ExperimentSpec) -> dict:
    cfg = spec.config
    assembly = build_assembly(cfg)
    g = sample_load(assembly.part, presets.load_function(cfg.rhs, cfg.rhs_params))
    u_full, _ = exact_hybrid_solve(assembly, g)
    targets = spec.sweep.get("h_target")
    if targets is None:
        h_coarse = assembly.mesh.coarse_size
        targets = [h_coarse, 0.5 * h_coarse]
    rows = []
    for h_target in [float(t) for t in targets]:
        spectra = assembly.element_spectra(h_target, cfg.c_j)
        g_proj, dropped, _ = project_rhs(spectra, assembly.caches, g)
        u_red, _ = exact_hybrid_solve(assembly, g_proj)
        err = energy_error(assembly.caches, u_full, u_red)
        bound = float(np.max(1.0 / np.sqrt(spectra.sigma_next))) * load_norm(assembly.caches, g)
        rows.append(
            {
                "h_target": h_target,
                "energy_error": err,
                "bound": bound,
                "bound_satisfied": err <= bound * (1 + 1e-9),
                "mean_modes_kept": float(np.mean(spectra.j_count)),
                "dropped_load_norm": float(np.linalg.norm(dropped)),
                "oracle": "exact_hybrid",
                "config_hash": cfg.digest(),
            }
        )
    return _write_study(spec, rows, {"rows": rows})


RUNNERS = {
    "solve": run_solve,
    "decay": run_decay,
    "j_sweep": run_j_sweep,
    "contrast_sweep": run_contrast_sweep,
    "h_convergence": run_h_convergence,
    "rhs_reduction": run_rhs_reduction,
}


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def build_parser() -> argparse.ArgumentParser:
    """The CLI flags; each defaults to its ``LSDFEM_<FLAG>`` environment variable."""
    parser = argparse.ArgumentParser(
        prog="lsdfem",
        description="Multiscale hybrid solver batch runner (CSV/JSON output).",
        epilog=(
            "Flags can also be set through the environment with the "
            f"{ENV_PREFIX} prefix (e.g. {ENV_PREFIX}SEED, {ENV_PREFIX}OUT)."
        ),
    )
    parser.add_argument("--config", default=_env("CONFIG"), help="experiment JSON file")
    parser.add_argument("--out", default=_env("OUT"), help="output directory")
    # argparse converts a string default with ``type``, so a bad LSDFEM_SEED exits 2.
    parser.add_argument("--seed", type=int, default=_env("SEED"), help="seed for randomized test vectors")
    parser.add_argument("--experiment", choices=EXPERIMENT_KINDS, default=_env("EXPERIMENT"))
    parser.add_argument("--list-presets", action="store_true", help="print bundled scenarios and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse checks ``choices`` only on the command line, not on a default.
    if args.experiment is not None and args.experiment not in EXPERIMENT_KINDS:
        parser.error(
            f"{ENV_PREFIX}EXPERIMENT: invalid choice {args.experiment!r} "
            f"(choose from {', '.join(EXPERIMENT_KINDS)})"
        )
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.list_presets:
        json.dump(presets.describe(), sys.stdout, indent=1)
        print()
        return 0
    if args.config is None:
        parser.error("--config is required (or set " + ENV_PREFIX + "CONFIG)")
    try:
        spec = ExperimentSpec.from_file(args.config)
    except json.JSONDecodeError as exc:
        print(f"config parse error at line {exc.lineno}, col {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.experiment:
        spec.kind = args.experiment
    if args.out:
        spec.out_dir = args.out
    if args.seed is not None:
        spec.seed = args.seed

    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {spec.out_dir!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        with _stage(spec.kind):
            RUNNERS[spec.kind](spec)
    except PipelineError as exc:
        # A bad seed element and unreadable or invalid mesh and coefficient inputs are config errors.
        if isinstance(exc.cause, SpecError) or (
            exc.stage in ("mesh", "coefficients") and isinstance(exc.cause, (OSError, ValueError))
        ):
            print(f"config error [{exc.stage}]: {exc}", file=sys.stderr)
            return 2
        print(f"numerical assertion failed [{exc.stage}]: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
