"""Instances on the steep part of condmeasure's exponential paths.

Each factory takes an RNG and the size that sets the path's cost, and
returns an ``Op``: a call into the public API and a check of its result
against a closed form or an independent route.  The seed draws only the
contents (block shapes, masses, fibers); the size is an argument, so
runs at different seeds do the same amount of work.  The same factories
serve the ``api-frontier`` workload and the size ladder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from condmeasure import classical
from condmeasure.algebra import INF, MeasureAlgebra, ext_sum, format_value
from condmeasure.condsets import CondSpace, ConditionalSet, GroundSpace
from condmeasure.integral import Integrand, integrate, integrate_via_dyadic
from condmeasure.measure import (
    OuterMeasure,
    StableMeasure,
    caratheodory_extend,
    check_measure_axioms,
    is_caratheodory_measurable,
    uniqueness_check,
)
from condmeasure.product import daniell_stone_finite, radon_nikodym
from condmeasure.sigma import (
    SetRing,
    StableRing,
    StableSigmaAlgebra,
    classify,
    fiberwise_sigma_oracle,
    generate_dynkin,
    generate_sigma,
    mix_closure,
)


class CheckFailed(Exception):
    """An op returned a wrong result."""


@dataclass
class Op:
    """One timed call and the check of what it returned.

    ``check`` raises ``CheckFailed`` on a wrong result and otherwise
    returns a line that goes into the workload's output digest.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _cspace(rng: random.Random, atoms: int, points: int) -> CondSpace:
    raw = [rng.randint(1, 6) for _ in range(atoms)]
    algebra = MeasureAlgebra([(f"a{i + 1}", Fraction(w, sum(raw))) for i, w in enumerate(raw)])
    return CondSpace(algebra, GroundSpace(tuple(range(1, points + 1))))


def _blocks(rng: random.Random, points, k: int) -> list[frozenset]:
    """A random partition of ``points`` into exactly ``k`` blocks."""
    shuffled = list(points)
    rng.shuffle(shuffled)
    blocks = [[p] for p in shuffled[:k]]
    for p in shuffled[k:]:
        rng.choice(blocks).append(p)
    return [frozenset(b) for b in blocks]


def _mass(rng: random.Random, lo: int = 1) -> Fraction:
    return Fraction(rng.randint(lo, 9), rng.randint(1, 4))


def _premeasure(rng: random.Random, cspace: CondSpace, blocks: dict) -> StableMeasure:
    ring = StableRing(cspace, {a: SetRing(bs) for a, bs in blocks.items()})
    return StableMeasure(ring, {a: {b: _mass(rng) for b in bs} for a, bs in blocks.items()})


def _hull_mass(pre: StableMeasure, atom: str, fiber: frozenset):
    """Closed-form outer mass: the blocks meeting the fiber, INF if uncovered."""
    ring = pre.domain.ring_at(atom)
    if not fiber <= ring.covered:
        return INF
    return ext_sum(m for b, m in pre.block_mass[atom].items() if b & fiber)


def outer_evaluate(rng: random.Random, fiber_points: int, *, atoms: int = 2, blocks: int = 4, points: int = 8) -> Op:
    """``OuterMeasure.evaluate`` on a covered fiber of ``fiber_points`` points."""
    points = max(points, fiber_points)
    cspace = _cspace(rng, atoms, points)
    pre = _premeasure(rng, cspace, {a: _blocks(rng, cspace.space.points, blocks) for a in cspace.algebra.atoms})
    outer = OuterMeasure(pre)
    fibers = {a: frozenset(rng.sample(cspace.space.points, fiber_points)) for a in cspace.algebra.atoms}
    v = ConditionalSet(fibers.keys(), fibers)

    def check(got) -> str:
        for a in cspace.algebra.atoms:
            _require(got[a] == _hull_mass(pre, a, fibers[a]), f"outer mass at {a}")
        return f"outer {got.format()}"

    return Op("outer_evaluate", lambda: outer.evaluate(v), check)


def caratheodory_measurable(rng: random.Random, points: int) -> Op:
    """``is_caratheodory_measurable`` of a union of ring blocks, tested
    against every set of a one-atom space.

    Ring members are measurable, so every test set is tried; a
    non-measurable set would stop at a first failing test whose place
    depends on the seed, and with it the cost.
    """
    cspace = _cspace(rng, 1, points)
    (a,) = cspace.algebra.atoms
    blocks = _blocks(rng, rng.sample(cspace.space.points, points - 1), 3)
    outer = OuterMeasure(_premeasure(rng, cspace, {a: blocks}))
    v = ConditionalSet((a,), {a: frozenset().union(*rng.sample(blocks, 2))})

    def check(got) -> str:
        _require(got is True, "a ring member reported not measurable")
        return f"measurable {got}"

    return Op("caratheodory_measurable", lambda: is_caratheodory_measurable(outer, v), check)


def caratheodory(rng: random.Random, ring_blocks: int, *, atoms: int = 2) -> Op:
    """``caratheodory_extend`` from a ring of ``ring_blocks`` small blocks per atom."""
    # Two points per block: a block's outer mass searches covers of up to
    # its size, so equal block sizes keep the cost fixed by ``ring_blocks``.
    cspace = _cspace(rng, atoms, 2 * ring_blocks + 1)
    blocks = {}
    for a in cspace.algebra.atoms:
        covered = rng.sample(cspace.space.points, 2 * ring_blocks)
        blocks[a] = [frozenset(covered[i : i + 2]) for i in range(0, len(covered), 2)]
    pre = _premeasure(rng, cspace, blocks)

    def check(ext) -> str:
        for a in cspace.algebra.atoms:
            got = ext.block_mass[a]
            uncovered = cspace.space.point_set - pre.domain.ring_at(a).covered
            want = dict(pre.block_mass[a])
            if uncovered:
                want[uncovered] = INF
            _require(got == want, f"extension blocks at {a}")
        return "extension " + "; ".join(
            ",".join(format_value(m) for _, m in sorted(ext.block_mass[a].items(), key=lambda kv: sorted(kv[0])))
            for a in cspace.algebra.atoms
        )

    return Op("caratheodory_extend", lambda: caratheodory_extend(pre), check)


def sigma_singletons(rng: random.Random, generators: int) -> Op:
    """``generate_sigma`` on ``generators`` singleton generators of one atom."""
    cspace = _cspace(rng, 1, generators + 1)
    (a,) = cspace.algebra.atoms
    chosen = rng.sample(cspace.space.points, generators)
    gen = [ConditionalSet((a,), {a: frozenset((p,))}) for p in chosen]
    want = fiberwise_sigma_oracle(cspace, gen)

    def check(sig) -> str:
        _require(sig == want, "generated sigma-algebra differs from the signature route")
        return f"sigma {len(sig.blocks(a))} blocks"

    return Op("generate_sigma", lambda: generate_sigma(cspace, gen), check)


def _sigma(rng: random.Random, cspace: CondSpace, per_atom: list[int]) -> StableSigmaAlgebra:
    return StableSigmaAlgebra(
        cspace, {a: SetRing(_blocks(rng, cspace.space.points, k)) for a, k in zip(cspace.algebra.atoms, per_atom)}
    )


def density(rng: random.Random, bits: int, *, atoms: int = 2) -> Op:
    """``radon_nikodym`` on a domain of ``2**bits`` members, below the certificate cap."""
    per_atom = [bits // atoms + (1 if i < bits % atoms else 0) for i in range(atoms)]
    cspace = _cspace(rng, atoms, max(per_atom) + 2)
    sig = _sigma(rng, cspace, per_atom)
    # Positive masses and a different density value on every block: the
    # certificate's cost grows with the number of distinct values, so this
    # keeps it fixed by ``bits``.
    mu_table, nu_table, ratio = {}, {}, {}
    for a in cspace.algebra.atoms:
        blocks = sig.blocks(a)
        raw = [rng.randint(1, 6) for _ in blocks]
        mu_table[a] = {b: Fraction(w, sum(raw)) for b, w in zip(blocks, raw)}
        numerators, denominator = rng.sample(range(1, 4 * len(blocks) + 1), len(blocks)), rng.randint(1, 3)
        ratio[a] = {b: Fraction(k, denominator) for b, k in zip(blocks, numerators)}
        nu_table[a] = {b: ratio[a][b] * mu_table[a][b] for b in blocks}
    mu, nu = StableMeasure(sig, mu_table), StableMeasure(sig, nu_table)

    def check(f) -> str:
        for a in cspace.algebra.atoms:
            for b in sig.blocks(a):
                _require(all(f.values[a][p] == ratio[a][b] for p in b), f"density at {a}")
        return "density " + "; ".join(
            ",".join(format_value(f.values[a][p]) for p in cspace.space.points) for a in cspace.algebra.atoms
        )

    return Op("radon_nikodym", lambda: radon_nikodym(mu, nu), check)


def axioms(rng: random.Random, per_atom: list[int]) -> Op:
    """``check_measure_axioms`` on a genuine measure, all members sampled."""
    cspace = _cspace(rng, len(per_atom), max(per_atom) + 1)
    sig = _sigma(rng, cspace, per_atom)
    mu = StableMeasure(sig, {a: {b: (INF if rng.random() < 0.1 else _mass(rng, 0)) for b in sig.blocks(a)}
                             for a in cspace.algebra.atoms})

    def check(report) -> str:
        _require(report.ok, f"axiom {report.axiom} fails on a genuine measure")
        return "axioms ok"

    return Op("check_measure_axioms", lambda: check_measure_axioms(mu), check)


def _chain_generator(rng: random.Random, cspace: CondSpace, length: int) -> list[ConditionalSet]:
    """A stable, meet-closed generator: all atomwise mixes of a nested chain.

    Each step drops one point per atom, so the generated sigma-algebra
    has ``length`` blocks per atom whatever the seed.
    """
    chain = []
    fibers = {a: cspace.space.point_set for a in cspace.algebra.atoms}
    for _ in range(length):
        chain.append(ConditionalSet(fibers.keys(), fibers))
        fibers = {a: frozenset(rng.sample(sorted(f), max(1, len(f) - 1))) for a, f in fibers.items()}
    return sorted(mix_closure(cspace, chain), key=repr)


def uniqueness(rng: random.Random, atoms: int, chain: int) -> Op:
    """``uniqueness_check`` of two equal measures, enumerating the generated sigma-algebra."""
    cspace = _cspace(rng, atoms, chain + 2)
    gen = _chain_generator(rng, cspace, chain)
    sig = generate_sigma(cspace, gen)
    table = {a: {b: _mass(rng, 0) for b in sig.blocks(a)} for a in cspace.algebra.atoms}
    mu, nu = StableMeasure(sig, table), StableMeasure(sig, {a: dict(row) for a, row in table.items()})

    def check(same) -> str:
        _require(same is True, "equal measures reported different")
        return f"unique {sig.member_count()}"

    return Op("uniqueness_check", lambda: uniqueness_check(mu, nu, gen), check)


def dynkin(rng: random.Random, atoms: int, points: int, chain: int) -> Op:
    """``generate_dynkin`` then ``classify`` on a meet-closed stable generator."""
    cspace = _cspace(rng, atoms, points)
    gen = _chain_generator(rng, cspace, chain)
    want = frozenset(fiberwise_sigma_oracle(cspace, gen).members())

    def call():
        members = generate_dynkin(cspace, gen)
        return members, classify(cspace, members)

    def check(got) -> str:
        members, label = got
        _require(members == want, "Dynkin system differs from the generated sigma-algebra")
        _require(label == "sigma", f"classified as {label}")
        return f"dynkin {len(members)} {label}"

    return Op("generate_dynkin", call, check)


def dyadic(rng: random.Random, atoms: int, points: int, top: int) -> Op:
    """``integrate_via_dyadic``; values up to ``top`` set the staircase level reached."""
    cspace = _cspace(rng, atoms, points)
    sig = StableSigmaAlgebra.discrete(cspace)
    pm = {a: {p: _mass(rng, 0) for p in cspace.space.points} for a in cspace.algebra.atoms}
    mu = StableMeasure.from_point_masses(sig, pm)
    # ``top`` and ``top - 1/4`` on every atom make ``top`` the staircase
    # level at which the cells first separate the values.
    values = {}
    for a in cspace.algebra.atoms:
        row = [Fraction(top), Fraction(4 * top - 1, 4)] + [Fraction(rng.randint(0, 4 * top), 4) for _ in range(points - 2)]
        rng.shuffle(row)
        values[a] = dict(zip(cspace.space.points, row))
    f = Integrand(sig, values)

    def check(got) -> str:
        for a in cspace.algebra.atoms:
            _require(got[a] == classical.integral(pm[a], values[a]), f"dyadic integral at {a}")
        return f"dyadic {got.format()}"

    return Op("integrate_via_dyadic", lambda: integrate_via_dyadic(f, mu), check)


def daniell(rng: random.Random, atoms: int, points: int) -> Op:
    """``daniell_stone_finite`` recovering a hidden measure from its integral."""
    cspace = _cspace(rng, atoms, points)
    sig = StableSigmaAlgebra.discrete(cspace)
    hidden = StableMeasure.from_point_masses(
        sig, {a: {p: _mass(rng, 0) for p in cspace.space.points} for a in cspace.algebra.atoms}
    )
    seed = rng.randint(0, 10**6)

    def check(got) -> str:
        _require(got.block_mass == hidden.block_mass, "recovered measure differs from the hidden one")
        return "daniell ok"

    return Op("daniell_stone_finite", lambda: daniell_stone_finite(cspace, lambda g: integrate(g, hidden), seed=seed), check)
