"""One benchmark op in a fresh process.

Modes:

* ``full``: set up the workload's assembly, solve each given load, print
  ``SOLVED <monotonic time>``, read the peak RSS, then compute each load's
  energy error against the reference solve and print one JSON record;
* ``setup``: the set-up part alone;
* ``cli``: run the lsdfem CLI in-process under the tracer (the untraced
  CLI runs as ``python3 -m lsdfem.cli`` instead).

With ``--trace-out`` the package's public functions are wrapped by
``tracer.install()`` before anything runs, and the spans are written to
that file at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import gates


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("full", "setup", "cli"), required=True)
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--loads", default="[]", help="bump params of the loads, as JSON")
    parser.add_argument("--ref-dir", default=None, help="directory caching reference solutions")
    parser.add_argument("--trace-out", default=None, help="write spans here")
    parser.add_argument("--op-id", type=int, default=0, help="op id the spans carry")
    parser.add_argument("cli_args", nargs="*", help="lsdfem CLI arguments (mode cli)")
    return parser.parse_args(argv)


def setup(pipeline, spec: dict, span):
    """Load-independent work: assembly, face/element spectra, projector, coarse basis."""
    cfg = pipeline.SolverConfig.from_dict(spec["config"])
    with span("op.setup"):
        assembly = pipeline.build_assembly(cfg)
        if cfg.variant == "delta":
            assembly.face_spectra(cfg.alpha_stab)
        assembly.projector(cfg.variant, cfg.alpha_stab)
        assembly.coarse_basis(cfg.variant, cfg.alpha_stab)
        if cfg.rhs_reduction:
            assembly.element_spectra(assembly.mesh.coarse_size, cfg.c_j)
    return cfg, assembly


def load_vector(pipeline, presets, assembly, params: dict):
    """The sampled load of one seeded bump."""
    return pipeline.sample_load(assembly.part, presets.load_function("bump", params))


def solve(pipeline, assembly, cfg, g):
    return pipeline.solve_lsd(
        assembly, g, cfg.j, cfg.variant, cfg.alpha_stab, cfg.rhs_reduction,
        cfg.h_target, cfg.c_j, cfg.equilibrium_tol,
    )


def n_pi_total(assembly, cfg) -> int:
    if cfg.variant != "delta":
        return 0
    return int(sum(s.n_pi for s in assembly.face_spectra(cfg.alpha_stab)))


def reference(pipeline, presets, assembly, cfg, spec: dict, params: dict, ref_dir: str | None):
    """Reference broken solution for one load, cached on disk between ops of a run."""
    path = None
    if ref_dir:
        key = hashlib.sha256(json.dumps([spec, params], sort_keys=True).encode()).hexdigest()[:16]
        path = Path(ref_dir) / f"ref-{key}.npy"
        if path.exists():
            flat = np.load(path)
            return np.split(flat, np.cumsum([g.n_nodes for g in assembly.part.geometry])[:-1])
    g = load_vector(pipeline, presets, assembly, params)
    if spec["reference"] == "exact":
        u_ref, _ = pipeline.exact_hybrid_solve(assembly, g)
    else:
        u_ref = pipeline.solve_lsd(assembly, g, None, cfg.variant, cfg.alpha_stab).u_broken
    if path is not None:
        np.save(path, np.concatenate(u_ref))
    return u_ref


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(args.spec)
    tracer = None
    if args.trace_out:
        import tracer as tracer_mod

        tracer = tracer_mod.install()
        tracer.op_id = args.op_id
    import lsdfem
    from lsdfem import pipeline, presets

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(lsdfem.__file__).resolve().parent.parent != src:
        print(f"lsdfem imported from {lsdfem.__file__}, not from {src}", file=sys.stderr)
        return 2

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    try:
        if args.mode == "cli":
            from lsdfem import cli

            return cli.main(args.cli_args)
        t0 = time.perf_counter()
        cfg, assembly = setup(pipeline, spec, span)
        record = {"setup_s": time.perf_counter() - t0, "n_pi_total": n_pi_total(assembly, cfg)}
        loads = json.loads(args.loads)
        if args.mode == "setup":
            print(json.dumps(record))
            return 0

        solutions, solve_s = [], []
        with span("op.solve"):
            for params in loads:
                g = load_vector(pipeline, presets, assembly, params)
                t = time.perf_counter()
                sol = solve(pipeline, assembly, cfg, g)
                solve_s.append(time.perf_counter() - t)
                solutions.append(sol)
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time.
        print(f"SOLVED {time.monotonic()!r}", flush=True)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["solve_s"] = solve_s
        if tracer:
            tracer.enabled = False
        record["loads"] = []
        for params, sol in zip(loads, solutions):
            u_ref = reference(pipeline, presets, assembly, cfg, spec, params, args.ref_dir)
            record["loads"].append(
                {
                    "equilibrium_rel_max": sol.diagnostics["equilibrium_rel_max"],
                    "equilibrium_ok": sol.diagnostics["equilibrium_ok"],
                    "energy_err_rel": gates.relative_energy_error(
                        assembly.caches, u_ref, sol.u_broken
                    ),
                    "coarse_dim": sol.diagnostics["coarse_dim"],
                    "n_pi_total": record["n_pi_total"],
                }
            )
        print(json.dumps(record))
        return 0
    finally:
        if tracer:
            tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
