"""Correctness gates applied to every benchmark op after it has been timed.

The gates read numbers only, so they run in the parent process on what
each child reported.  ``relative_energy_error`` runs in the child, after
the child has read its peak RSS.
"""

from __future__ import annotations

import math

EQUILIBRIUM_TOL = 1e-10
# Relative tolerance against the energy errors the seed code gave (expected.json).
ERR_RTOL = 1e-4


def relative_energy_error(caches, u_ref, u) -> float:
    """Broken A-energy distance of ``u`` from ``u_ref``, relative to ``u_ref``'s energy."""
    num = sum(float((a - b) @ (c.stiffness @ (a - b))) for c, a, b in zip(caches, u_ref, u))
    den = sum(float(a @ (c.stiffness @ a)) for c, a in zip(caches, u_ref))
    return math.sqrt(num / den) if den > 0 else math.inf


def check_load(rec: dict, variant: str, ceiling: float, expected: float | None) -> list[str]:
    """Failures of one solved load; ``rec`` holds what the op reported for it."""
    failures = []
    eq = rec.get("equilibrium_rel_max")
    if eq is None or not math.isfinite(eq) or eq > EQUILIBRIUM_TOL:
        failures.append(f"equilibrium_rel_max {eq} > {EQUILIBRIUM_TOL}")
    if not rec.get("equilibrium_ok", False):
        failures.append("equilibrium_ok is false")
    err = rec.get("energy_err_rel")
    if err is None or not math.isfinite(err) or err > ceiling:
        failures.append(f"energy_err_rel {err} not within the ceiling {ceiling}")
    elif expected is not None and abs(err - expected) > ERR_RTOL * expected:
        failures.append(f"energy_err_rel {err} differs from the seed code's {expected}")
    if variant == "delta" and not rec.get("n_pi_total", 0) > 0:
        failures.append("delta run retained no face modes (n_pi_total == 0)")
    return failures
