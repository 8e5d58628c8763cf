"""Workload definitions and the seeded load generator.

Every workload solves the hairpin ``channel`` coefficient at contrast 1e4
with ``alpha_stab=10`` and ``j=2``.  The hairpin is scaled with the coarse
mesh size ``H = 1/nx`` so that both strands cross the same coarse faces at
every ``nx``: with the fixed hairpin (``spacing=0.06``) the face pencils at
``nx=16`` peak at ``alpha_max`` about 4.4, no mode is retained and
``delta`` silently degenerates to ``plain``.  The scaled hairpin gives
``alpha_max`` about 1e3 and 26 retained modes at ``nx=16``.

The seed only generates the loads (Gaussian bump centres and widths); the
program receives the sampled load (library workloads) or the bump's
``rhs_params`` (CLI workload).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CONTRAST = 1e4
ALPHA_STAB = 10.0
LAYERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "library": calls into the package; "cli": the lsdfem CLI
    nx: int
    face_level: int
    variant: str
    loads_per_op: int         # loads solved on one assembly in one child process
    n_loads: int              # distinct seeded loads per run; ops cycle through them
    min_ops: int              # ops every untraced run makes, however long they take
    rhs_reduction: bool = False
    reference: str = "exact"  # "exact": monolithic hybrid solve; "global": the j=None staged solve
    err_ceiling: float = 0.2  # energy_err_rel above this fails the gate on any seed
    why: str = ""


# BENCHMARK.json lists rhs_batch_n16 and cli_solve_n16, which between them
# run every layer.  The other two run on demand (``--workload NAME``).  On a
# shared 2-vCPU machine the speed drifts by 10-30% in phases of tens of
# seconds, so a workload needs runs of about a minute for steady medians,
# and the benchmark's time budget holds two such workloads.  One scale_n32
# op alone takes about 37 s and 1.7 GB.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scale_n32",
            kind="library",
            nx=32,
            face_level=2,
            variant="plain",
            loads_per_op=1,
            n_loads=1,
            min_ops=1,
            err_ceiling=0.2,
            why="cold nx=32 run where the quadratic patch loops and dense global matrices dominate",
        ),
        Workload(
            name="fine_skeleton_l4",
            kind="library",
            nx=8,
            face_level=4,
            variant="delta",
            loads_per_op=1,
            n_loads=3,
            min_ops=3,
            # The monolithic oracle peaks above 4 GB at face_level=4; the j=None
            # staged solve equals it up to the direct solvers (acceptance
            # criterion 1) and costs about 1 s and 0.1 GB.
            reference="global",
            err_ceiling=0.2,
            why="cold run dominated by element-local assembly; patch layer small",
        ),
        Workload(
            name="rhs_batch_n16",
            kind="library",
            nx=16,
            face_level=2,
            variant="delta",
            loads_per_op=8,
            n_loads=8,
            min_ops=2,
            rhs_reduction=True,
            err_ceiling=0.15,
            why="eight loads per warm assembly with load reduction: per-load back-solves dominate",
        ),
        Workload(
            name="cli_solve_n16",
            kind="cli",
            nx=16,
            face_level=2,
            variant="delta",
            loads_per_op=1,
            n_loads=3,
            min_ops=3,
            err_ceiling=0.15,
            why="lsdfem CLI solve with both oracles: report, oracles and CSV/JSON writers",
        ),
    )
}


def hairpin_params(nx: int) -> dict:
    """Hairpin channel scaled with the coarse mesh size H = 1/nx."""
    h = 1.0 / nx
    return {
        "contrast": CONTRAST,
        "center": (nx / 2 - 0.5) * h,
        "width": 0.224 * h,
        "spacing": 0.48 * h,
    }


def solver_config(w: Workload) -> dict:
    """The ``SolverConfig`` fields of a workload, as plain JSON."""
    return {
        "nx": w.nx,
        "ny": w.nx,
        "face_level": w.face_level,
        "coefficient": "channel",
        "coefficient_params": hairpin_params(w.nx),
        "variant": w.variant,
        "alpha_stab": ALPHA_STAB,
        "j": LAYERS,
        "rhs_reduction": w.rhs_reduction,
    }


def seeded_loads(seed: int, count: int) -> list[dict]:
    """``count`` Gaussian bumps drawn from ``seed``: the ``bump`` preset's params."""
    rng = random.Random(seed)
    return [
        {"cx": rng.uniform(0.3, 0.7), "cy": rng.uniform(0.3, 0.7), "width": rng.uniform(0.1, 0.2)}
        for _ in range(count)
    ]
