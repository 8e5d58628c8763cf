"""Record the energy errors the current code gives, for the gates to compare against.

    python3 perfbench/make_expected.py [--seeds N] [--workload NAME ...]

Writes ``perfbench/expected.json``: for each workload and each seed
0..N-1 of the workloads BENCHMARK.json lists (or the named ones), the relative energy error of every seeded load, computed the way
the benchmark's ops compute it (the CLI workload solves its loads through
the library; the CLI report gives the same error).  Run it on the code
whose accuracy the gates should pin.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import gates
import op
from run import op_spec
from workloads import WORKLOADS, seeded_loads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from lsdfem import pipeline, presets

    path = HERE / "expected.json"
    table = json.loads(path.read_text())
    listed = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
    for name in args.workload or listed:
        w = WORKLOADS[name]
        spec = op_spec(w)
        cfg, assembly = op.setup(pipeline, spec, lambda _: contextlib.nullcontext())
        for seed in range(args.seeds):
            errors = []
            for params in seeded_loads(seed, w.n_loads):
                g = op.load_vector(pipeline, presets, assembly, params)
                sol = op.solve(pipeline, assembly, cfg, g)
                u_ref = op.reference(pipeline, presets, assembly, cfg, spec, params, None)
                errors.append(gates.relative_energy_error(assembly.caches, u_ref, sol.u_broken))
            table.setdefault(name, {})[str(seed)] = errors
            print(name, seed, errors, flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
