"""Size ladder: how far each exponential path grows within a time budget.

For each op the ladder builds one instance per size, smallest first,
times the call untraced with the timer it is given (``run.py`` passes
one that scales to the reference speed), and stops at the first step
that takes longer than ``STEP_BUDGET_S``.  A step is cut off at ``STEP_CEILING_S``, so the
ladder always ends.  ``max_size`` is the last size within budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import frontier
from frontier import Op

STEP_BUDGET_S = 0.25
STEP_CEILING_S = 2.0


@dataclass(frozen=True)
class Rung:
    """How one ladder op builds an instance, and how to report its size."""

    build: Callable[[random.Random, int], Op]
    start: int
    size: Callable[[int], int]
    dims: Callable[[int], dict]


RUNGS: dict[str, Rung] = {
    "outer_evaluate": Rung(
        lambda rng, n: frontier.outer_evaluate(rng, n, atoms=1, blocks=4, points=n),
        4,
        lambda n: n,
        lambda n: {"atoms": 1, "points": n, "blocks": 4},
    ),
    "generate_sigma": Rung(
        frontier.sigma_singletons,
        2,
        lambda n: n,
        lambda n: {"atoms": 1, "points": n + 1, "blocks": n + 1},
    ),
    "radon_nikodym": Rung(
        lambda rng, bits: frontier.density(rng, bits, atoms=1),
        4,
        lambda bits: 1 << bits,
        lambda bits: {"atoms": 1, "points": bits + 2, "blocks": bits},
    ),
    "caratheodory_extend": Rung(
        lambda rng, n: frontier.caratheodory(rng, n, atoms=1),
        1,
        lambda n: n,
        lambda n: {"atoms": 1, "points": 2 * n + 1, "blocks": n},
    ),
}


@dataclass
class LadderResult:
    op: str
    max_size: int
    stop_size: int
    stop_dims: dict
    stop_s: float
    cut_off: bool


def climb(name: str, seed: int, timed: Callable[[Op, float], tuple[float, object, str | None]]) -> LadderResult:
    """Run one ladder.  ``timed(op, ceiling)`` returns (seconds, result, error)."""
    rung = RUNGS[name]
    rng = random.Random(seed)
    step = rung.start
    max_size = 0
    while True:
        op = rung.build(rng, step)
        seconds, result, error = timed(op, STEP_CEILING_S)
        cut_off = error == "timeout"
        if error is None:
            op.check(result)
        elif not cut_off:
            raise RuntimeError(f"ladder {name} at size {rung.size(step)}: {error}")
        if cut_off or seconds > STEP_BUDGET_S:
            return LadderResult(name, max_size, rung.size(step), rung.dims(step), seconds, cut_off)
        max_size = rung.size(step)
        step += 1
