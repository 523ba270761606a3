"""The three workloads: seeded op lists built on condmeasure's public API.

``build(name, seed, root)`` does a workload's set-up (input generation
and construction of scenarios and domains) and returns one pass of ops,
the fixed op list of the traced run, and the correctness gates that run
once after timing.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import frontier
import scenarios
from frontier import CheckFailed, Op
from condmeasure.scenario import build_scenario, load_scenario, render_text, run_scenario
from condmeasure.verify import SUITES, Draw, Size

#: Scenario documents generated per pass; the size schedule cycles every 120.
SCENARIO_DOCUMENTS = 120
#: Verify cases per suite in one pass, and in the traced run.
VERIFY_CASES = 162
VERIFY_TRACE_CASES = 18


@dataclass
class Prepared:
    ops: list[Op]
    trace_ops: list[Op]
    gates: list[Callable[[], str | None]] = field(default_factory=list)


def _scenario_op(scn, q) -> Op:
    single = dataclasses.replace(scn, queries=[q])

    def check(text: str) -> str:
        if "oracle: agree" not in text or not text.endswith("verdict: 1 query, all verified\n"):
            raise CheckFailed(f"query {q['op']} of {scn.title!r} is not verified:\n{text}")
        return text

    return Op(q["op"], lambda: render_text(run_scenario(single)), check)


def _golden_gate(path: Path, golden: Path, scn) -> Callable[[], str | None]:
    def gate() -> str | None:
        if render_text(run_scenario(scn)) != golden.read_text():
            return f"{path.name}: report differs from {golden}"
        return None

    return gate


def scenario_typical(seed: int, root: Path) -> Prepared:
    """The ``cms run`` path, one op per query: the shipped scenarios and
    seeded documents that use all nine query ops."""
    shipped = sorted((root / "src" / "condmeasure" / "scenarios").glob("*.json"))
    loaded = [load_scenario(str(path)) for path in shipped]
    rng = random.Random(seed)
    generated = [build_scenario(scenarios.generate_document(rng, i)) for i in range(SCENARIO_DOCUMENTS)]
    ops = [_scenario_op(scn, q) for scn in loaded + generated for q in scn.queries]
    gates = [_golden_gate(p, root / "tests" / "golden" / f"{p.stem}.txt", scn) for p, scn in zip(shipped, loaded)]
    return Prepared(ops, ops, gates)


#: (factory, arguments, repeats) of one ``api-frontier`` pass.  Blocks of
#: ops of one size and equal cost sit where the pass's median and 90th
#: percentile fall (16 four-point and 8 five-point outer evaluations), so
#: that a few ops trading places do not move either.  Sizes stop at 8
#: singleton generators and 2**11 members: 9 and 2**12 take about 3 s
#: each, which would leave room for only two passes a run.
FRONTIER_SCHEDULE = (
    (frontier.outer_evaluate, (3,), 10),
    (frontier.outer_evaluate, (4,), 16),
    (frontier.outer_evaluate, (5,), 8),
    (frontier.caratheodory_measurable, (7,), 5),
    (frontier.caratheodory, (4,), 6),
    (frontier.caratheodory, (5,), 3),
    (frontier.caratheodory, (6,), 1),
    (frontier.sigma_singletons, (7,), 2),
    (frontier.sigma_singletons, (8,), 1),
    (frontier.density, (8,), 1),
    (frontier.density, (10,), 1),
    (frontier.density, (11,), 1),
    (frontier.axioms, ([2, 2],), 8),
    (frontier.axioms, ([3, 2],), 3),
    (frontier.axioms, ([3, 3],), 1),
    (frontier.uniqueness, (2, 3), 5),
    (frontier.uniqueness, (2, 4), 4),
    (frontier.uniqueness, (3, 3), 3),
    (frontier.dynkin, (2, 3, 2), 5),
    (frontier.dynkin, (2, 3, 3), 3),
    (frontier.dynkin, (2, 4, 3), 3),
    (frontier.dynkin, (3, 3, 2), 2),
    (frontier.dyadic, (2, 6, 5), 6),
    (frontier.dyadic, (3, 6, 6), 3),
    (frontier.daniell, (2, 3), 3),
    (frontier.daniell, (3, 4), 2),
)


def api_frontier(seed: int, root: Path) -> Prepared:
    """Direct calls on the steep part of every known exponential path."""
    rng = random.Random(seed)
    ops = [factory(rng, *args) for factory, args, repeats in FRONTIER_SCHEDULE for _ in range(repeats)]
    return Prepared(ops, ops)


def verify_cases(seed: int, cases: int) -> list[tuple[str, int]]:
    """Per suite, ``cases`` case indices of ``cms verify --seed SEED``.

    Case ``i`` is seeded exactly as ``run_suite`` seeds it, and its size
    is the first draw of that seed.  Cases are taken in index order, with
    an equal quota for every size the suite can draw; the sizes are drawn
    uniformly, so this is the mix ``cms verify`` has on average, and a
    run's work does not depend on how the sizes happen to fall.
    """
    chosen = []
    for name, (_, cap) in SUITES.items():
        sizes = [(a, p) for a in range(1, cap.atoms + 1) for p in range(2, cap.points + 1)]
        quota = {s: cases // len(sizes) + (1 if k < cases % len(sizes) else 0) for k, s in enumerate(sizes)}
        i = 0
        while any(quota.values()):
            rng = random.Random(seed * 1000003 + i)
            size = (rng.randint(1, cap.atoms), rng.randint(2, cap.points))
            if quota[size]:
                quota[size] -= 1
                chosen.append((name, i))
            i += 1
    return chosen


def _verify_op(seed: int, name: str, i: int) -> Op:
    case, cap = SUITES[name]

    def call() -> None:
        rng = random.Random(seed * 1000003 + i)
        size = Size(rng.randint(1, cap.atoms), rng.randint(2, cap.points))
        case(Draw(rng), size)

    return Op(name, call, lambda _: f"{name} case {i} ok")


def verify_suites(seed: int, root: Path) -> Prepared:
    """All 14 suites, each case one op, as ``cms verify`` runs them."""
    ops = [_verify_op(seed, name, i) for name, i in verify_cases(seed, VERIFY_CASES)]
    trace_ops = [_verify_op(seed, name, i) for name, i in verify_cases(seed, VERIFY_TRACE_CASES)]
    return Prepared(ops, trace_ops)


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "scenario-typical": scenario_typical,
    "api-frontier": api_frontier,
    "verify-suites": verify_suites,
}


def build(name: str, seed: int, root: Path) -> Prepared:
    prepared = WORKLOADS[name](seed, root)
    # Interleave the kinds of op, so that a change of machine speed during
    # a pass falls on all of them alike instead of on one group.
    random.Random(seed).shuffle(prepared.ops)
    return prepared
