"""Output checks.  Each raises CheckFailed; a failed check fails the
operation it was made on, which counts into the result's ``failed``.

These are invariants every correct version of the program keeps, plus
reference values at seed 0 with tolerances wide enough for last-bit
changes in the arithmetic (the final objective of a descent moves by about
1e-8 relative when the initial grid moves by 1e-15).
"""

from __future__ import annotations

import math

import numpy as np

# Terminations a run at a fixed iteration budget may end with.  A line
# search that fails is an optimization failure (CLI exit 2).
ALLOWED_TERMINATIONS = frozenset({"max_iters", "grad_tol"})


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def finite(name: str, values) -> None:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{name}: non-finite value")


def monotone_stages(trace, iters_per_stage) -> None:
    """The objective never increases within a stage.

    Stage k contributes iters_per_stage[k] + 1 entries (its start value and
    one per accepted iteration); Armijo acceptance makes every step a
    decrease, so the check is exact.
    """
    trace = list(trace)
    if sum(i + 1 for i in iters_per_stage) != len(trace):
        raise CheckFailed(f"trace length {len(trace)} does not match "
                          f"iters per stage {list(iters_per_stage)}")
    pos = 0
    for stage, iters in enumerate(iters_per_stage):
        part = np.asarray(trace[pos:pos + iters + 1], dtype=float)
        pos += iters + 1
        rises = np.nonzero(np.diff(part) > 0)[0]
        if rises.size:
            raise CheckFailed(f"objective rises in stage {stage} at "
                              f"iteration {int(rises[0]) + 1}")


def immersed(homotopy) -> None:
    bad = homotopy.validate_slices()
    if bad is not None:
        raise CheckFailed(f"slice {bad[0]} fails the immersion test at "
                          f"segment {bad[1]}")


def termination(reason: str) -> None:
    if reason not in ALLOWED_TERMINATIONS:
        raise CheckFailed(f"termination {reason!r} not in "
                          f"{sorted(ALLOWED_TERMINATIONS)}")


def close(name: str, got: float, want: float, rel: float) -> None:
    """|got - want| <= rel * |want|, with both finite."""
    if not (math.isfinite(got) and math.isfinite(want)):
        raise CheckFailed(f"{name}: non-finite ({got!r} vs {want!r})")
    if abs(got - want) > rel * abs(want):
        raise CheckFailed(f"{name}: {got!r} differs from {want!r} by more "
                          f"than {rel:g} relative")


def stages_by_eps(eps_column) -> list[int]:
    """Iterations per stage of a trace whose eps column marks the stage."""
    counts = []
    prev = None
    for eps in eps_column:
        if eps != prev:
            counts.append(0)
            prev = eps
        else:
            counts[-1] += 1
    return counts
