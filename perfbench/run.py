"""End-to-end and per-layer benchmark for lsdfem.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every op runs in a fresh child process
with the BLAS/OpenMP thread count pinned, so each op pays its own start-up
and gets its own peak-RSS reading.  The run repeats ops until ``--seconds``
have passed (at least until every seeded load was solved once), then
times the set-up until it has ``MIN_SETUPS`` samples, and checks every
op's outputs (``gates.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops on the same loads and reports the per-layer
metrics of the traced ones (``tracer.py``), plus the tracing overhead:
traced minus untraced ``time_to_solution_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, goes to ``.perfbench/result-<workload>-<seed>-<trace>.json``
and the spans of a traced run to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import gates
import tracer
from workloads import WORKLOADS, Workload, seeded_loads, solver_config

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench"

# One BLAS/OpenMP thread: the steadiest setting on a shared machine, and the
# single-threaded baseline a later multi-threaded change is measured against.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_SETUPS = 3
# A run must end within 180 s: children still running at this age are
# killed and counted as failed, and no new child starts after it.
RUN_LIMIT_S = 165.0

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_s_p90", "s"),
    ("loads_per_s", "1/s"),
    ("time_to_solution_s", "s"),
    ("peak_rss_mb", "MB"),
    ("energy_err_rel", "ratio"),
]
UNITS = dict(END_TO_END + tracer.LAYER_METRICS + tracer.WORKLOAD_SPECIFIC_METRICS)


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LSDFEM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


@dataclass
class Context:
    w: Workload
    seed: int
    run_dir: Path
    stop_at: float  # monotonic time after which no child may run


def spawn(ctx: Context, cmd: list[str], tag: str) -> dict:
    """Run one child to completion; wall times on CLOCK_MONOTONIC and its rusage."""
    out_path, err_path = ctx.run_dir / f"{tag}.out", ctx.run_dir / f"{tag}.err"
    with open(out_path, "w") as fo, open(err_path, "w") as fe:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
    reaped: dict = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.update(t_exit=time.monotonic(), status=status, usage=usage)

    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    waiter.join(max(ctx.stop_at - time.monotonic(), 0.0))
    if waiter.is_alive():
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    stderr = err_path.read_text()
    if proc.returncode != 0:
        sys.stderr.write(f"[{tag}] exit {proc.returncode}: {' '.join(cmd)}\n{stderr[-4000:]}\n")
    return {
        "returncode": proc.returncode,
        "stdout": out_path.read_text().splitlines(),
        "t_spawn": t_spawn,
        "t_exit": reaped["t_exit"],
        "maxrss_mb": reaped["usage"].ru_maxrss / 1024.0,
    }


def last_json(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def op_spec(w: Workload) -> dict:
    return {"config": solver_config(w), "reference": w.reference}


def library_op(ctx: Context, batch, tag, trace_out=None, op_id=0) -> dict:
    cmd = [
        sys.executable, str(HERE / "op.py"), "--mode", "full",
        "--spec", json.dumps(op_spec(ctx.w)),
        "--loads", json.dumps([params for _, params in batch]),
        "--ref-dir", str(ctx.run_dir),
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out), "--op-id", str(op_id)]
    child = spawn(ctx, cmd, tag)
    record = last_json(child["stdout"])
    solved = [line for line in child["stdout"] if line.startswith("SOLVED ")]
    if child["returncode"] != 0 or record is None or not solved:
        return {"ok": False, "loads": [(idx, None) for idx, _ in batch]}
    return {
        "ok": True,
        "setup_s": record["setup_s"],
        "solve_s": record["solve_s"],
        "time_to_solution_s": float(solved[0].split()[1]) - child["t_spawn"],
        "peak_rss_mb": record["peak_rss_mb"],
        "loads": [(idx, rec) for (idx, _), rec in zip(batch, record["loads"])],
    }


def cli_op(ctx: Context, batch, tag, trace_out=None, op_id=0) -> dict:
    (idx, params), = batch
    out_dir = ctx.run_dir / f"{tag}-out"
    config = {
        **solver_config(ctx.w),
        "rhs": "bump",
        "rhs_params": params,
        "compare_exact": True,
        "compare_conforming": True,
    }
    exp_path = ctx.run_dir / f"{tag}.json"
    exp_path.write_text(json.dumps({"experiment": "solve", "seed": ctx.seed, "config": config}))
    cli_args = ["--config", str(exp_path), "--out", str(out_dir)]
    if trace_out:
        cmd = [
            sys.executable, str(HERE / "op.py"), "--mode", "cli", "--spec", json.dumps(op_spec(ctx.w)),
            "--trace-out", str(trace_out), "--op-id", str(op_id), "--", *cli_args,
        ]
    else:
        cmd = [sys.executable, "-m", "lsdfem.cli", *cli_args]
    child = spawn(ctx, cmd, tag)
    report_path = out_dir / "report.json"
    if child["returncode"] != 0 or not report_path.exists():
        return {"ok": False, "loads": [(idx, None)]}
    report = json.loads(report_path.read_text())
    rec = {
        "equilibrium_rel_max": report["diagnostics"]["equilibrium_rel_max"],
        "equilibrium_ok": report["diagnostics"]["equilibrium_ok"],
        "energy_err_rel": report["oracle_exact"]["relative"],
        "coarse_dim": report["dimensions"]["coarse_dim"],
        "n_pi_total": report.get("face_spectrum", {}).get("n_pi_total", 0),
    }
    return {
        "ok": True,
        "solve_s": [report["timings"]["solve"]],
        "time_to_solution_s": child["t_exit"] - child["t_spawn"],
        "peak_rss_mb": child["maxrss_mb"],
        "bytes_written": sum(p.stat().st_size for p in out_dir.iterdir()),
        "loads": [(idx, rec)],
    }


def setup_sample(ctx: Context, tag: str) -> tuple[float | None, list[str]]:
    """One set-up time and its failures.

    Library workloads time the load-independent set-up in a fresh child.  On
    the CLI workload the set-up is the CLI's start-up (spawn, imports,
    argument parsing), timed with ``--list-presets``.
    """
    if ctx.w.kind == "cli":
        child = spawn(ctx, [sys.executable, "-m", "lsdfem.cli", "--list-presets"], tag)
        if child["returncode"] != 0 or last_json(["".join(child["stdout"])]) is None:
            return None, ["CLI start-up failed"]
        return child["t_exit"] - child["t_spawn"], []
    cmd = [sys.executable, str(HERE / "op.py"), "--mode", "setup", "--spec", json.dumps(op_spec(ctx.w))]
    child = spawn(ctx, cmd, tag)
    record = last_json(child["stdout"])
    if child["returncode"] != 0 or record is None:
        return None, ["set-up failed"]
    if ctx.w.variant == "delta" and record["n_pi_total"] <= 0:
        return record["setup_s"], ["delta run retained no face modes (n_pi_total == 0)"]
    return record["setup_s"], []


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_expected(w: Workload, seed: int) -> list | None:
    table = json.loads((HERE / "expected.json").read_text())
    return table.get(w.name, {}).get(str(seed))


def run(w: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    loads = seeded_loads(seed, w.n_loads)
    expected = load_expected(w, seed)
    # min_ops covers every seeded load, so energy_err_rel is over the same
    # loads on every run; a traced run needs one untraced/traced pair.
    min_ops = 1 if trace else w.min_ops
    start = time.monotonic()
    deadline = start + seconds
    ctx = Context(w, seed, run_dir, start + RUN_LIMIT_S)
    plain, traced, failures = [], [], []
    attempted = failed = 0
    errors: dict[int, float] = {}

    def tally(item: str, problems: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += bool(problems)
        failures.extend(f"{item}: {p}" for p in problems)

    def do_op(k: int, trace_out=None) -> dict:
        batch = [
            ((k * w.loads_per_op + i) % w.n_loads, loads[(k * w.loads_per_op + i) % w.n_loads])
            for i in range(w.loads_per_op)
        ]
        tag = f"op{k}{'-traced' if trace_out else ''}"
        run_op = cli_op if w.kind == "cli" else library_op
        op = run_op(ctx, batch, tag, trace_out, k)
        for idx, rec in op["loads"]:
            if rec is None:
                tally(f"{tag} load {idx}", ["op failed"])
                continue
            want = expected[idx] if expected else None
            tally(f"{tag} load {idx}", gates.check_load(rec, w.variant, w.err_ceiling, want))
            errors.setdefault(idx, rec["energy_err_rel"])
        return op

    k = 0
    while True:
        t0 = time.monotonic()
        plain.append(do_op(k))
        if trace:
            trace_out = run_dir / f"spans-op{k}.jsonl"
            op = do_op(k, trace_out)
            if op["ok"]:
                op["spans"] = tracer.load(trace_out)
            traced.append(op)
        k += 1
        now = time.monotonic()
        if now >= ctx.stop_at or (k >= min_ops and now + (now - t0) > deadline):
            break

    setups = [op["setup_s"] for op in plain if op.get("setup_s") is not None]
    n_setup = 0
    while not trace and len(setups) < MIN_SETUPS and time.monotonic() < ctx.stop_at:
        value, problems = setup_sample(ctx, f"setup{n_setup}")
        tally(f"setup{n_setup}", problems)
        n_setup += 1
        if value is not None:
            setups.append(value)

    return {
        "workload": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loads": loads,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "energy_err_rel_by_load": {str(i): errors[i] for i in sorted(errors)},
        "plain_ops": [{k: v for k, v in op.items() if k != "loads"} for op in plain],
        "setups": setups,
        "traced_ops": traced,
        "metrics": trace_metrics(plain, traced) if trace else end_to_end(plain, setups, errors),
        "counts": counts(plain),
    }


def counts(ops: list[dict]) -> dict:
    recs = [rec for op in ops for _, rec in op["loads"] if rec]
    return {
        "coarse_dim": recs[0]["coarse_dim"] if recs else None,
        "n_pi_total": recs[0]["n_pi_total"] if recs else None,
        "solves": sum(len(op.get("solve_s", [])) for op in ops),
        "ops": len(ops),
    }


def end_to_end(ops: list[dict], setups: list[float], errors: dict[int, float]) -> dict | None:
    ok = [op for op in ops if op["ok"]]
    solve = [s for op in ok for s in op["solve_s"]]
    if not ok or not setups or not errors:
        return None
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solve),
        "solve_s_p90": percentile(solve, 90),
        "loads_per_s": len(solve) / sum(solve),
        "time_to_solution_s": statistics.median(op["time_to_solution_s"] for op in ok),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ok),
        "energy_err_rel": statistics.fmean(errors.values()),
    }


def trace_metrics(plain: list[dict], traced: list[dict]) -> dict | None:
    plain = [op for op in plain if op["ok"]]
    traced = [op for op in traced if op["ok"]]
    if not plain or not traced:
        return None
    per_op = []
    for op in traced:
        layers = tracer.layer_metrics(op["spans"])
        layers["cli.bytes_written"] = float(op.get("bytes_written", 0))
        per_op.append(layers)
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.overhead_s"] = statistics.median(
        op["time_to_solution_s"] for op in traced
    ) - statistics.median(op["time_to_solution_s"] for op in plain)
    return out


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = git.stdout.strip() or "unknown"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
    }


def print_report(result: dict) -> None:
    w, metrics = result["workload"], result["metrics"]
    c = result["counts"]
    print(
        f"workload {w['name']} seed {result['seed']} trace {int(result['trace'])}: "
        f"{c['ops']} ops, {c['solves']} solves, {len(result['setups'])} set-ups, "
        f"coarse_dim {c['coarse_dim']}, n_pi_total {c['n_pi_total']}"
    )
    for name, value in (metrics or {}).items():
        print(f"  {name:36s} {value:14.6g} {UNITS[name]}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':36s} {frac:14.6g} ratio ({result['attempted']} attempted)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def summary(result: dict) -> dict:
    """The result line: correctness, op counts and the BENCHMARK.json metrics with units."""
    listed = tracer.LAYER_METRICS if result["trace"] else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lsdfem benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lsdfem" / "__init__.py").is_file():
        print(f"no lsdfem sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_dir = OUT / f"{w.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        spans = sorted(run_dir.glob("spans-op*.jsonl"))
        if spans:
            with open(OUT / f"trace-{w.name}-{args.seed}.jsonl", "w") as fh:
                for path in spans:
                    fh.write(path.read_text())
        shutil.rmtree(run_dir, ignore_errors=True)
    result["env"] = environment()
    for op in result["traced_ops"]:
        op.pop("spans", None)
    (OUT / f"result-{w.name}-{args.seed}-{args.trace}.json").write_text(json.dumps(result, indent=1))
    print_report(result)
    if result["metrics"] is None:
        print("no op produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
