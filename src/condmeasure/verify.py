"""Seeded verification suites with fault injection.

Each suite draws random instances from a deterministic seed and checks
one layer of the library against its laws and against the classical
fiberwise oracles.  A failing case is re-run at smaller sizes to report
the smallest witness found.  Fault injection deliberately breaks one
production code path at a time, to demonstrate that the suites catch
real bugs; the faults live here, never in the production modules.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import classical, condsets, integral, kernels, measure
from . import product as products
from .algebra import INF, ExtValue, Field, MeasureAlgebra, ext_mul, ext_sum, format_value
from .condsets import (
    BOTTOM,
    CondSpace,
    ConditionalSet,
    GroundSpace,
    cartesian_product,
    cond_le,
    cond_union,
    membership_event,
    product_space,
)
from .integral import ElementaryFunction, Integrand, canonical_elementary, concatenate_integrands, elementary_integral, indicator
from .kernels import SubAlgebra, field_as_observation
from .measure import OuterMeasure, StableMeasure, check_measure_axioms, sample_members, uniqueness_check
from .sigma import (
    StableFunction,
    StableRing,
    StableSigmaAlgebra,
    classify,
    cond_preimage,
    fiberwise_sigma_oracle,
    generate_dynkin,
    generate_sigma,
    generate_sigma_extensional,
    is_stably_measurable,
    mix_closure,
)


@dataclass(frozen=True)
class Size:
    atoms: int
    points: int


#: Shrink ladder: failing cases are retried at these sizes, smallest first.
SHRINK_LADDER = (Size(1, 2), Size(1, 3), Size(2, 2), Size(2, 3), Size(3, 3), Size(3, 4), Size(4, 5))


class Draw:
    """Domain-specific random draws over one RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def algebra(self, n_atoms: int) -> MeasureAlgebra:
        raw = [self.rng.randint(1, 6) for _ in range(n_atoms)]
        total = sum(raw)
        return MeasureAlgebra([(f"a{i+1}", Fraction(w, total)) for i, w in enumerate(raw)])

    def space(self, n_points: int, coords: bool = False) -> GroundSpace:
        points = tuple(range(1, n_points + 1))
        if coords:
            den = self.rng.randint(1, 3)
            vals = sorted(self.rng.sample(range(-8, 9), n_points))
            return GroundSpace(points, {p: Fraction(v, den) for p, v in zip(points, vals)})
        return GroundSpace(points)

    def cspace(self, size: Size, coords: bool = False) -> CondSpace:
        return CondSpace(self.algebra(size.atoms), self.space(size.points, coords))

    def fiber(self, space: GroundSpace) -> frozenset:
        k = self.rng.randint(1, len(space.points))
        return frozenset(self.rng.sample(space.points, k))

    def cset(self, cspace: CondSpace) -> ConditionalSet:
        fibers = {}
        for a in cspace.algebra.atoms:
            if self.rng.random() < 0.8:
                fibers[a] = self.fiber(cspace.space)
        return ConditionalSet(fibers.keys(), fibers)

    def point_fun(self, cspace: CondSpace) -> dict:
        return {a: self.rng.choice(cspace.space.points) for a in cspace.algebra.atoms}

    def partition(self, items: Sequence, max_blocks: int) -> list[frozenset]:
        """A random partition of ``items`` into at most ``max_blocks`` blocks."""
        labels = {x: self.rng.randrange(min(max_blocks, len(items))) for x in items}
        blocks: dict[int, set] = {}
        for x, l in labels.items():
            blocks.setdefault(l, set()).add(x)
        return [frozenset(b) for b in blocks.values()]

    def sigma_algebra(self, cspace: CondSpace) -> StableSigmaAlgebra:
        """Per atom, the field of a partition of the points into at most 4 blocks."""
        return StableSigmaAlgebra.from_blocks(
            cspace, {a: self.partition(cspace.space.points, 4) for a in cspace.algebra.atoms}
        )

    def ring(self, cspace: CondSpace) -> StableRing:
        per_atom = {a: [self.fiber(cspace.space) for _ in range(self.rng.randint(1, 2))] for a in cspace.algebra.atoms}
        return StableRing.from_fiber_sets(cspace, per_atom)

    def value(self, allow_inf: bool = False, nonneg: bool = True) -> Fraction:
        if allow_inf and self.rng.random() < 0.15:
            return INF
        lo = 0 if nonneg else -4
        return Fraction(self.rng.randint(lo, 5), self.rng.randint(1, 4))

    def probability_row(self, keys: Sequence) -> dict:
        """Random rational masses on ``keys`` that sum to one."""
        raw = [self.rng.randint(0, 5) for _ in keys]
        if sum(raw) == 0:
            raw[self.rng.randrange(len(raw))] = 1
        total = sum(raw)
        return {k: Fraction(w, total) for k, w in zip(keys, raw)}

    def measure_on(self, domain, allow_inf: bool = False, probability: bool = False) -> StableMeasure:
        table = {}
        for a in domain.algebra.atoms:
            blocks = domain.ring_at(a).blocks
            if probability:
                table[a] = self.probability_row(blocks)
            else:
                table[a] = {b: self.value(allow_inf=allow_inf) for b in blocks}
        return StableMeasure(domain, table)

    def point_masses(self, cspace: CondSpace, probability: bool = False) -> dict:
        out = {}
        for a in cspace.algebra.atoms:
            if probability:
                out[a] = self.probability_row(cspace.space.points)
            else:
                out[a] = {p: self.value() for p in cspace.space.points}
        return out

    def integrand(self, sig: StableSigmaAlgebra, nonneg: bool = False) -> Integrand:
        values = {}
        for a in sig.algebra.atoms:
            row = {}
            for b in sig.blocks(a):
                v = self.value(nonneg=nonneg)
                for p in b:
                    row[p] = v
            values[a] = row
        return Integrand(sig, values)

    def scalar_field(self, algebra: MeasureAlgebra) -> Field:
        return Field(algebra, {a: self.value(nonneg=False) for a in algebra.atoms})

    def meet_closed_generator(self, cspace: CondSpace, cap: int = 160) -> list[ConditionalSet]:
        """A stable, meet-closed generator from one or two drawn sets whose
        sigma-algebra stays small.

        Retries a few times, then falls back to a single-set generator,
        which is always small enough.
        """
        for attempt in range(10):
            seeds = [self.cset(cspace) for _ in range(1 if attempt == 9 else self.rng.randint(1, 2))]
            fam = {s for s in seeds if not s.is_bottom}
            if not fam:
                continue
            while True:
                fresh = {condsets.cond_intersection([a, b]) for a in fam for b in fam} - fam
                fresh |= set(mix_closure(cspace, fam)) - fam
                fresh.discard(BOTTOM)
                if not fresh:
                    break
                fam |= fresh
            fam.add(BOTTOM)
            if generate_sigma(cspace, fam).member_count() <= cap:
                return sorted(fam, key=repr)
        raise AssertionError("could not draw a small meet-closed generator")

    def atom_partition(self, algebra: MeasureAlgebra) -> list[frozenset]:
        """A partition of the atoms into at most 3 events."""
        return self.partition(algebra.atoms, 3)

    def event(self, algebra: MeasureAlgebra) -> frozenset:
        return frozenset(a for a in algebra.atoms if self.rng.random() < 0.5)


# ---------------------------------------------------------------------------
# suite case bodies; each raises AssertionError with a witness message


def _case_lattice(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    v, w, u = (draw.cset(cspace) for _ in range(3))
    meet, join, comp = condsets.cond_intersection, condsets.cond_union, CondSpace.complement

    assert meet([v, join([w, u])]) == join([meet([v, w]), meet([v, u])]), f"distributivity: {v!r} {w!r} {u!r}"
    assert join([v, meet([w, u])]) == meet([join([v, w]), join([v, u])]), f"dual distributivity: {v!r} {w!r} {u!r}"
    assert comp(cspace, join([v, w])) == meet([comp(cspace, v), comp(cspace, w)]), f"de morgan: {v!r} {w!r}"
    assert comp(cspace, meet([v, w])) == join([comp(cspace, v), comp(cspace, w)]), f"de morgan dual: {v!r} {w!r}"
    assert comp(cspace, comp(cspace, v)) == v, f"double complement: {v!r}"
    assert join([v, comp(cspace, v)]) == cspace.top, f"excluded middle: {v!r}"
    assert meet([v, comp(cspace, v)]).is_bottom, f"non-contradiction: {v!r}"
    assert cond_le(v, w) == (meet([v, w]) == v) == (join([v, w]) == w), f"order consistency: {v!r} {w!r}"

    # concatenation: restriction pastes back together along any partition
    partition = draw.atom_partition(cspace.algebra)
    pieces = [draw.cset(cspace) for _ in partition]
    glued = cspace.concatenate(pieces, partition)
    for piece, ev in zip(pieces, partition):
        assert glued.restrict(ev) == piece.restrict(ev), f"concatenation: {pieces!r} along {partition!r}"
    x = draw.point_fun(cspace)
    got = membership_event(x, glued)
    expect = frozenset().union(*(membership_event(x, p.restrict(ev)) for p, ev in zip(pieces, partition)))
    assert got == expect, f"membership along concatenation: {glued!r}"

    # stable hull: exactly the join of the generating singletons
    xs = [draw.point_fun(cspace) for _ in range(draw.rng.randint(1, 3))]
    hull = cspace.stable_hull(xs)
    assert hull == cond_union([cspace.singleton(x) for x in xs]), f"hull of {xs!r}"

    # largest_event with full contract verification on an atom-local predicate
    target = draw.event(cspace.algebra)
    got_ev = checked_largest_event(cspace.algebra, lambda ev: ev <= target)
    assert got_ev == target, f"largest_event: {sorted(target)}"


def checked_largest_event(algebra: MeasureAlgebra, pred: Callable[[frozenset], bool]) -> frozenset:
    """`algebra.largest_event(pred)`, with its contract checked on all 2^n
    events: the result satisfies the predicate unless it is empty, and
    every satisfying event lies inside it.  Raises ValueError otherwise."""
    result = algebra.largest_event(pred)
    if result and not pred(result):
        raise ValueError("largest_event: union of satisfying atoms fails the predicate")
    for mask in range(1 << len(algebra.atoms)):
        ev = frozenset(a for i, a in enumerate(algebra.atoms) if mask >> i & 1)
        if pred(ev) and not ev <= result:
            raise ValueError(f"largest_event: satisfying event {sorted(ev)} escapes the result")
    return result


def exhaustive_complement_check(cspace: CondSpace) -> int:
    """Check the complement of every conditional set against a brute-force
    order-theoretic oracle: the join of everything disjoint from the set.
    Returns the number of sets enumerated.  Disjointness is read off the
    fibers, so the oracle builds no meets."""
    sets = list(cspace.all_sets())
    for v in sets:
        want = cond_union(
            [w for w in sets if all(a not in w.fibers or f.isdisjoint(w.fibers[a]) for a, f in v.fibers.items())]
        )
        got = cspace.complement(v)
        assert got == want, f"complement of {v!r}: {got!r} != brute-force {want!r}"
    return len(sets)


def _case_lattice_exhaustive(draw: Draw, size: Size) -> None:
    size = Size(min(size.atoms, 2), min(size.points, 2))
    exhaustive_complement_check(draw.cspace(size))


def _case_sigma(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    gen = draw.meet_closed_generator(cspace)
    sig = generate_sigma(cspace, gen)
    oracle = fiberwise_sigma_oracle(cspace, gen)
    assert sig == oracle, f"fixpoint vs fiberwise oracle on generator {gen!r}"
    dynkin = generate_dynkin(cspace, gen)
    listed = list(sig.members())
    members = frozenset(listed)
    assert members == dynkin, f"sigma vs dynkin members on generator {gen!r}"
    if sig.member_count() <= 96:
        assert members == generate_sigma_extensional(cspace, gen), f"extensional closure differs: {gen!r}"
        assert classify(cspace, members) == "sigma", f"classification of the closure: {gen!r}"

    # measurability via generators is measurability via all members
    maps = {a: {p: draw.rng.choice(cspace.space.points) for p in cspace.space.points} for a in cspace.algebra.atoms}
    f = StableFunction(maps)
    by_gen = is_stably_measurable(f, sig, gen)
    # in enumeration order: the check stops at its first miss, so a
    # frozenset's hash order would decide how many preimages get built
    by_all = is_stably_measurable(f, sig, listed)
    assert by_gen == by_all, f"generator criterion: {maps!r} against {gen!r}"

    # preimage respects the lattice
    w1, w2 = draw.cset(cspace), draw.cset(cspace)
    assert cond_preimage(f, cond_union([w1, w2])) == cond_union(
        [cond_preimage(f, w1), cond_preimage(f, w2)]
    ), f"preimage of the union of {w1!r} and {w2!r}"
    assert cond_preimage(f, condsets.cond_intersection([w1, w2])) == condsets.cond_intersection(
        [cond_preimage(f, w1), cond_preimage(f, w2)]
    ), f"preimage of the meet of {w1!r} and {w2!r}"
    assert cond_preimage(f, cspace.complement(w1)) == cspace.complement(
        cond_preimage(f, w1)
    ), f"preimage of the complement of {w1!r}"


def _case_measure(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    sig = draw.sigma_algebra(cspace)
    mu = draw.measure_on(sig, allow_inf=draw.rng.random() < 0.3)
    report = check_measure_axioms(mu, cap=64)
    assert report.ok, f"axioms: {report.axiom} at {report.witness}"

    # evaluation is a stable function: it respects concatenation
    partition = draw.atom_partition(cspace.algebra)
    pieces = [draw.cset(cspace) for _ in partition]
    pieces = [p if sig.contains(p) else cspace.full_on(p.support) for p in pieces]
    glued = cspace.concatenate(pieces, partition)
    assert mu.eval(glued) == cspace.algebra.concatenate_field(
        [mu.eval(p.restrict(ev)) for p, ev in zip(pieces, partition)], partition
    ), "evaluation does not respect concatenation"

    # the unit point mass measures membership
    x = draw.point_fun(cspace)
    delta = StableMeasure.dirac(sig, x)
    v = draw.cset(cspace)
    if sig.contains(v):
        ev = membership_event(x, v)
        got = delta.eval(v)
        assert all(got[a] == (1 if a in ev else 0) for a in cspace.algebra.atoms), f"point mass on {v!r}"


def _case_outer(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    ring = draw.ring(cspace)
    pre = draw.measure_on(ring, allow_inf=draw.rng.random() < 0.25)
    outer = OuterMeasure(pre)
    v, w = draw.cset(cspace), draw.cset(cspace)

    ev = draw.event(cspace.algebra)
    assert outer.evaluate(v.restrict(ev)) == outer.evaluate(v).restrict(ev), f"outer localization: {v!r} on {sorted(ev)}"
    if cond_le(v, w):
        assert outer.evaluate(v).le(outer.evaluate(w)), f"outer monotone: {v!r} in {w!r}"
    family = [draw.cset(cspace) for _ in range(draw.rng.randint(1, 3))]
    lhs = outer.evaluate(cond_union(family))
    rhs = outer.evaluate(family[0])
    for m in family[1:]:
        rhs = rhs + outer.evaluate(m)
    assert lhs.le(rhs), f"outer subadditivity: {family!r}"
    if ring.contains(v):
        assert outer.evaluate(v) == pre.eval(v), f"outer disagrees with the pre-measure on {v!r}"

    # uncovered fibers cost infinity; with a finite pre-measure that is the
    # only way an infinite value can arise
    cover = outer.coverable_event(v)
    val = outer.evaluate(v)
    for a in cspace.algebra.atoms:
        if a in v.support and a not in cover:
            assert val[a] is INF, f"coverability at {a}: {v!r}"
        elif pre.is_finite():
            assert val[a] is not INF, f"coverability at {a}: {v!r}"

    # the cover search against the closed form: the mass of the blocks met
    for a in v.support:
        want = classical.outer_mass(pre.block_mass[a], v.fibers[a])
        assert val[a] == want, f"outer mass at {a} of {v!r}: {format_value(val[a])} != {format_value(want)}"


def _splits_additively(outer: OuterMeasure, v: ConditionalSet, tests: Sequence[ConditionalSet]) -> bool:
    """Carathéodory's definition: v cuts every test set additively."""
    return all(
        outer.evaluate(w)
        == outer.evaluate(condsets.cond_intersection([w, v])) + outer.evaluate(condsets.cond_difference(w, v))
        for w in tests
    )


def _case_caratheodory(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    ring = draw.ring(cspace)
    pre = draw.measure_on(ring, allow_inf=draw.rng.random() < 0.2)
    outer = OuterMeasure(pre)
    ext = measure.caratheodory_extend(pre)

    # the block-local test against the splitting definition; a split block
    # is its own failing test, so adding every single-atom ring block to
    # the drawn tests makes the definition exact
    v = draw.cset(cspace)
    tests = [draw.cset(cspace) for _ in range(12)]
    tests += [ConditionalSet((a,), {a: b}) for a in cspace.algebra.atoms for b in ring.ring_at(a).blocks]
    measurable = measure.is_caratheodory_measurable(outer, v)
    assert measurable == _splits_additively(outer, v, tests), f"measurability of {v!r}: local test says {measurable}"
    # ring members are measurable and keep their pre-measure mass
    if ring.contains(v):
        assert measurable, f"ring member {v!r} reported not measurable"
        assert ext.eval(v) == pre.eval(v), f"extension disagrees on ring member {v!r}"
    # extension blocks match the classical fiberwise extension
    for a in cspace.algebra.atoms:
        for b, mass in classical.caratheodory_blocks(cspace.space.point_set, pre.block_mass[a]).items():
            got = ext.eval(ConditionalSet((a,), {a: b}))[a]
            assert got == mass, f"extension block {sorted(b)} at {a}: {format_value(got)} != {format_value(mass)}"


def _case_uniqueness(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    fam = set(draw.meet_closed_generator(cspace, cap=96))
    fam.discard(BOTTOM)
    fam.add(cspace.top)
    while True:
        fresh = {condsets.cond_intersection([a, b]) for a in fam for b in fam} - fam
        fresh |= set(mix_closure(cspace, fam)) - fam
        if not fresh:
            break
        fam |= fresh
    gen = sorted(fam, key=repr)
    # meet-closure decided from the fibers, not by the meet that built the family
    for v in gen:
        for w in gen:
            common = {a: v.fibers[a] & w.fibers[a] for a in v.support & w.support}
            meet = ConditionalSet._of({a: f for a, f in common.items() if f})
            assert meet in fam, f"generator not closed under meets: {v!r} and {w!r}"
    sig = generate_sigma(cspace, gen)
    mu = draw.measure_on(sig, probability=draw.rng.random() < 0.5)
    assert uniqueness_check(mu, mu, gen), "a measure must agree with itself"
    nu = draw.measure_on(sig)
    agree = all(mu.eval(v) == nu.eval(v) for v in gen)
    everywhere = all(mu.eval(v) == nu.eval(v) for v in sig.members())
    assert uniqueness_check(mu, nu, gen) == everywhere, "uniqueness verdict differs from full enumeration"
    if agree:
        assert everywhere, f"distinct extensions over a meet-closed generator: {gen!r}"


def _case_integral(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    sig = draw.sigma_algebra(cspace)
    pm = draw.point_masses(cspace)
    mu = StableMeasure.from_point_masses(sig, pm)
    f = draw.integrand(sig)
    g = draw.integrand(sig)
    r = draw.scalar_field(cspace.algebra)

    # classical oracle: plain weighted sums per atom
    intf = integral.integrate(f, mu)
    for a in cspace.algebra.atoms:
        want = classical.integral(pm[a], f.values[a])
        assert intf[a] == want, f"oracle at {a}: {format_value(intf[a])} != {format_value(want)}"

    assert integral.integrate(f + g * r, mu) == intf + integral.integrate(g, mu) * r, f"linearity: {f!r} {g!r} {r!r}"
    if f.le(g):
        assert intf.le(integral.integrate(g, mu)), f"monotonicity: {f!r} below {g!r}"

    partition = draw.atom_partition(cspace.algebra)
    fs = [draw.integrand(sig) for _ in partition]
    mixed = concatenate_integrands(fs, partition)
    assert integral.integrate(mixed, mu) == cspace.algebra.concatenate_field(
        [integral.integrate(h, mu) for h in fs], partition
    ), "stability of the integral"

    # indicator laws tie the integral back to the measure
    v = draw.cset(cspace)
    v = v if sig.contains(v) else cspace.full_on(v.support)
    assert integral.integrate(indicator(v, sig), mu) == mu.eval(v), f"indicator of {v!r}"

    fpos = draw.integrand(sig, nonneg=True)
    assert integral.integrate_via_dyadic(fpos, mu) == integral.integrate(fpos, mu), f"dyadic route: {fpos!r}"
    prev = None
    for n in (1, 2, 3):
        stair = integral.dyadic_approximation(fpos, n).as_integrand()
        assert stair.le(fpos), f"staircase above the integrand at level {n}"
        if prev is not None:
            assert prev.le(stair), f"staircase not monotone at level {n}"
        prev = stair

    # monotone convergence along truncations, and for series of nonnegative terms
    running = None
    for c in fpos.distinct_values():
        cur = integral.integrate(fpos.min2(Integrand.constant(sig, c)), mu)
        if running is not None:
            assert running.le(cur), "truncation integrals must increase"
        running = cur
    assert running == integral.integrate(fpos, mu), "truncation integrals must reach the integral"
    terms = [draw.integrand(sig, nonneg=True) for _ in range(3)]
    lhs = integral.integrate(terms[0] + terms[1] + terms[2], mu)
    rhs = integral.integrate(terms[0], mu) + integral.integrate(terms[1], mu) + integral.integrate(terms[2], mu)
    assert lhs == rhs, "series form of monotone convergence"

    # the canonical staircase attains the supremum; scaled-down ones stay below
    phi = canonical_elementary(fpos)
    assert elementary_integral(phi, mu) == integral.integrate(fpos, mu), "canonical staircase misses the supremum"
    t = Fraction(draw.rng.randint(0, 4), 4)
    shrunk = ElementaryFunction(fpos.sigma, [(coef * t, cell) for coef, cell in phi.terms])
    assert shrunk.as_integrand().le(fpos), "scaled staircase escapes domination"
    assert elementary_integral(shrunk, mu).le(integral.integrate(fpos, mu)), "dominated staircase exceeds the integral"

    # extended values: infinite blocks obey the zero-absorbs-infinity rule
    mu_inf = draw.measure_on(sig, allow_inf=True)
    f2 = draw.integrand(sig, nonneg=True)
    got = integral.integrate(f2, mu_inf)
    for a in cspace.algebra.atoms:
        want = ext_sum(
            ext_mul(f2.values[a][next(iter(b))], mu_inf.block_mass[a][b]) for b in sig.blocks(a)
        )
        assert got[a] == want, f"extended-value integral at {a}"


def _case_kernel(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size, coords=True)
    sig = StableSigmaAlgebra.discrete(cspace)
    pm = draw.point_masses(cspace, probability=True)
    mu = StableMeasure.from_point_masses(sig, pm)
    kappa = kernels.measure_to_kernel(mu)
    # classical oracle: the jumps of each atom's distribution function
    for a in cspace.algebra.atoms:
        for p, jump in classical.distribution_jumps(cspace.space.coords, pm[a]).items():
            got = kappa.mass(a, frozenset((p,)))
            assert got == jump, f"kernel at {a}, point {p}: {format_value(got)} != distribution jump {format_value(jump)}"
    back = kernels.kernel_to_measure(kappa)
    assert back.block_mass == mu.block_mass, "measure -> kernel -> measure is not the identity"
    again = kernels.measure_to_kernel(back)
    assert again == kappa, "kernel -> measure -> kernel is not the identity"

    # conditional expectation against the classical blockwise average
    algebra = cspace.algebra
    sub = SubAlgebra(algebra, draw.atom_partition(algebra))
    xi = draw.point_fun(cspace)
    fmap = {p: draw.value(nonneg=False) for p in cspace.space.points}
    got = kernels.conditional_expectation(sub, xi, cspace.space, fmap)
    want = classical.conditional_expectation(algebra.weights, xi, list(sub.blocks), fmap)
    spread = sub.spread_to_atoms(got)
    for a in algebra.atoms:
        assert spread[a] == want[a], f"conditional expectation at {a}"

    # tower: conditioning the conditional expectation on a coarser grouping
    coarse = SubAlgebra(algebra, [frozenset(algebra.atoms)])
    ospace, oxi = field_as_observation(spread)
    outer_ce = kernels.conditional_expectation(coarse, oxi, ospace, {p: p for p in ospace.points})
    direct = kernels.conditional_expectation(coarse, xi, cspace.space, fmap)
    assert outer_ce == direct, "tower property"

    # the conditional law over the trivial grouping is the plain law
    law = classical.pushforward(algebra.weights, xi, cspace.space.points)
    dist = kernels.conditional_distribution(coarse, xi, cspace.space)
    label = coarse.labels[0]
    for p in cspace.space.points:
        v = ConditionalSet((label,), {label: frozenset((p,))})
        assert dist.eval(v)[label] == law[p], f"pushforward at {p}"


def _case_product(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    algebra = cspace.algebra
    spx = cspace.space
    spy = draw.space(draw.rng.randint(2, max(2, size.points)))
    csy = CondSpace(algebra, spy)
    sx = draw.sigma_algebra(cspace)
    sy = draw.sigma_algebra(csy)
    pmx = draw.point_masses(cspace)
    pmy = draw.point_masses(csy)
    mu = StableMeasure.from_point_masses(sx, pmx)
    nu = StableMeasure.from_point_masses(sy, pmy)
    lam = products.product_measure(mu, nu)

    v = draw.cset(cspace)
    w = draw.cset(csy)
    v = v if sx.contains(v) else cspace.full_on(v.support)
    w = w if sy.contains(w) else csy.full_on(w.support)
    rect = cartesian_product(v, w)
    assert lam.eval(rect) == mu.eval(v) * nu.eval(w), f"rectangle law: {v!r} x {w!r}"
    # fiberwise classical product oracle
    for a in algebra.atoms:
        classic = classical.product_point_masses(pmx[a], pmy[a])
        for b in lam.domain.blocks(a):
            assert lam.block_mass[a][b] == classical.mass_of(classic, b), f"classical product at {a}"

    # sections respect the lattice, localization and the rectangle shape
    pcs = CondSpace(algebra, product_space(spx, spy))
    z1, z2 = draw.cset(pcs), draw.cset(pcs)
    x = draw.point_fun(cspace)
    assert products.section_at(cond_union([z1, z2]), x) == cond_union(
        [products.section_at(z1, x), products.section_at(z2, x)]
    ), f"section at {x!r} of the union of {z1!r} and {z2!r}"
    assert products.section_at(condsets.cond_intersection([z1, z2]), x) == condsets.cond_intersection(
        [products.section_at(z1, x), products.section_at(z2, x)]
    ), f"section at {x!r} of the meet of {z1!r} and {z2!r}"
    assert products.section_at(pcs.complement(z1), x) == csy.complement(
        products.section_at(z1, x)
    ), f"section at {x!r} of the complement of {z1!r}"
    assert products.section_at(cartesian_product(v, w), x) == w.restrict(membership_event(x, v)), "rectangle section"
    ev = draw.event(algebra)
    assert products.section_at(z1.restrict(ev), x) == products.section_at(z1, x).restrict(ev), "section localization"

    psig = products.product_sigma(sx, sy)
    fprod = draw.integrand(psig, nonneg=draw.rng.random() < 0.5)
    left, right, joint = products.fubini(fprod, mu, nu)
    assert left == right == joint, f"iterated and joint integrals differ: {left!r} {right!r} {joint!r}"


def _case_markov(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    algebra = cspace.algebra
    sx = draw.sigma_algebra(cspace)
    spy = draw.space(draw.rng.randint(2, 3))
    sy = StableSigmaAlgebra.discrete(CondSpace(algebra, spy))
    rows: dict[str, dict] = {}
    for a in algebra.atoms:
        rows[a] = {}
        for bx in sx.blocks(a):
            raw = [draw.rng.randint(0, 4) for _ in spy.points]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            row = {q: Fraction(wq, total) for q, wq in zip(spy.points, raw)}
            for p in bx:
                rows[a][p] = row
    kernel = products.StableMarkovKernel(sx, sy, rows)
    pm = draw.point_masses(cspace, probability=True)
    mu = StableMeasure.from_point_masses(sx, pm)
    joint = products.markov_product(kernel, mu)
    # joint block mass: the classical pointwise sum of source mass times transition
    for a in algebra.atoms:
        for b in joint.domain.blocks(a):
            want = sum((pm[a][p] * rows[a][p][q] for (p, q) in b), Fraction(0))
            assert joint.block_mass[a][b] == want, f"joint mass at {a}"
    # marginal: the first coordinate keeps the source law
    v = draw.cset(cspace)
    v = v if sx.contains(v) else cspace.full_on(v.support)
    assert joint.eval(cartesian_product(v, sy.cspace.top)) == mu.eval(v), "marginal law"


def _case_hahn(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    sig = draw.sigma_algebra(cspace)
    mu1 = draw.measure_on(sig)
    mu2 = draw.measure_on(sig)
    pos = products.hahn_positive_set(mu1, mu2)
    # oracle: per atom, the union of the blocks where mu2 dominates
    for a in cspace.algebra.atoms:
        diffs = {b: Fraction(mu2.block_mass[a][b]) - Fraction(mu1.block_mass[a][b]) for b in sig.blocks(a)}
        want = classical.hahn_positive(sig.blocks(a), diffs)
        got = pos.fibers.get(a, frozenset())
        assert got == want, f"positive set at {a}: {sorted(map(str, got))} != {sorted(map(str, want))}"
    # defining properties: dominates the total difference, nonnegative below
    d_total = mu2.eval(cspace.top) - mu1.eval(cspace.top)
    if not pos.is_bottom:
        d_pos = mu2.eval(pos) - mu1.eval(pos)
        assert d_total.le(d_pos), "total difference exceeds the positive set"
        for below in sample_members(sig, 12, seed=draw.rng.randint(0, 999)):
            piece = condsets.cond_intersection([below, pos])
            if piece.is_bottom:
                continue
            d = mu2.eval(piece) - mu1.eval(piece)
            assert all(d[a] >= 0 for a in cspace.algebra.atoms), f"negative mass below the positive set: {piece!r}"
    else:
        assert all(d_total[a] <= 0 for a in cspace.algebra.atoms), "empty positive set with positive difference"


def _case_rn(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    sig = draw.sigma_algebra(cspace)
    mu = draw.measure_on(sig, probability=True)
    f = draw.integrand(sig, nonneg=True)
    nu = StableMeasure(
        sig,
        {
            a: {b: f.values[a][next(iter(b))] * Fraction(mu.block_mass[a][b]) for b in sig.blocks(a)}
            for a in cspace.algebra.atoms
        },
    )
    density = products.radon_nikodym(mu, nu)
    for a in cspace.algebra.atoms:
        for b in sig.blocks(a):
            got = density.values[a][next(iter(b))]
            if mu.block_mass[a][b] != 0:
                assert got == f.values[a][next(iter(b))], f"density at {a}"
            else:
                assert got == 0, f"density not zero on a null block at {a}"
    v = draw.cset(cspace)
    if sig.contains(v):
        assert integral.integrate(density * indicator(v, sig), mu) == nu.eval(v), f"density identity on {v!r}"

    # one improvement step from a strictly dominated candidate
    half = density * Fraction(1, 2)
    improved = products.rn_improvement_step(half, mu, nu)
    base_int = integral.integrate(half, mu)
    new_int = integral.integrate(improved, mu)
    gap_atoms = (nu.total() - base_int).support()
    for a in cspace.algebra.atoms:
        if a in gap_atoms:
            assert new_int[a] > base_int[a], f"no strict improvement at {a}"
        else:
            assert new_int[a] == base_int[a], f"improvement off the gap at {a}"
    for a in cspace.algebra.atoms:
        for b in sig.blocks(a):
            slab_mass = improved.values[a][next(iter(b))] * Fraction(mu.block_mass[a][b])
            assert slab_mass <= nu.block_mass[a][b], "improved candidate escapes the dominated family"


def _case_daniell(draw: Draw, size: Size) -> None:
    cspace = draw.cspace(size)
    sig = StableSigmaAlgebra.discrete(cspace)
    hidden = StableMeasure.from_point_masses(sig, draw.point_masses(cspace))
    recovered = products.daniell_stone_finite(
        cspace, lambda g: integral.integrate(g, hidden), seed=draw.rng.randint(0, 10**6)
    )
    assert recovered.block_mass == hidden.block_mass, "functional measure differs from the hidden measure"
    x = draw.point_fun(cspace)
    delta = products.daniell_stone_finite(cspace, lambda g: g.at(x), seed=draw.rng.randint(0, 10**6))
    assert delta.block_mass == StableMeasure.dirac(sig, x).block_mass, "evaluation functional is not a point mass"


# ---------------------------------------------------------------------------
# suite registry and the runner

SUITES: dict[str, tuple[Callable[[Draw, Size], None], Size]] = {
    "lattice": (_case_lattice, Size(4, 5)),
    "lattice-exhaustive": (_case_lattice_exhaustive, Size(2, 2)),
    "sigma": (_case_sigma, Size(3, 4)),
    "measure": (_case_measure, Size(3, 4)),
    "outer": (_case_outer, Size(3, 4)),
    "caratheodory": (_case_caratheodory, Size(3, 4)),
    "uniqueness": (_case_uniqueness, Size(2, 3)),
    "integral": (_case_integral, Size(3, 4)),
    "kernel": (_case_kernel, Size(3, 4)),
    "product": (_case_product, Size(2, 3)),
    "markov": (_case_markov, Size(3, 3)),
    "hahn": (_case_hahn, Size(3, 4)),
    "rn": (_case_rn, Size(3, 4)),
    "daniell": (_case_daniell, Size(2, 3)),
}


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _case_size(rng: random.Random, cap: Size) -> Size:
    return Size(rng.randint(1, cap.atoms), rng.randint(2, cap.points))


def _failure(case: Callable[[Draw, Size], None], rng: random.Random, size: Size) -> str | None:
    """The failure message of one run of a case, or None when it passes.

    A failed check reports its witness; any other exception is named."""
    try:
        case(Draw(rng), size)
    except AssertionError as exc:
        return str(exc)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _shrink(case: Callable[[Draw, Size], None], seed: int, index: int, cap: Size, size: Size, message: str) -> str:
    """Re-run a failing case at smaller sizes; report the smallest witness,
    or the failing ``size`` when no smaller size fails.

    Only ladder sizes within ``size`` in both atoms and points are tried,
    so a shrunk witness is never larger than the failing case.  Each
    re-run replays the case's own draws: its seed, with the two size
    draws of `run_suite` (within ``cap``) spent first, so at the failing
    size it is the failing case."""
    for small in SHRINK_LADDER:
        if small.atoms > size.atoms or small.points > size.points:
            continue
        rng = random.Random(seed * 1000003 + index)
        _case_size(rng, cap)
        found = _failure(case, rng, small)
        if found is not None:
            return f"(shrunk to {small.atoms} atoms, {small.points} points) {found}"
    return f"(not shrunk: {size.atoms} atoms, {size.points} points) {message}"


def run_suite(name: str, seed: int, cases: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    case, cap = SUITES[name]
    failures: list[str] = []
    for i in range(cases):
        rng = random.Random(seed * 1000003 + i)
        size = _case_size(rng, cap)
        message = _failure(case, rng, size)
        if message is not None:
            failures.append(f"case {i}: {_shrink(case, seed, i, cap, size, message)}")
        if len(failures) >= 3:
            break
    return SuiteResult(name, cases, failures)


# ---------------------------------------------------------------------------
# fault injection: deliberately broken variants of production operations

@dataclass(frozen=True)
class _Swap:
    """Calling it gives a context that replaces ``owner.attr``, and every
    module-level binding of it in the other ``condmeasure`` modules (they
    import functions by name), by ``replacement``, and restores them all
    on exit.  This module keeps its own bindings: the broken variants
    call the originals through them.
    """

    owner: object
    attr: str
    replacement: Callable

    @contextmanager
    def __call__(self):
        original = getattr(self.owner, self.attr)
        bindings = {(self.owner, self.attr)} | {
            (module, name)
            for key, module in list(sys.modules.items())
            if key.partition(".")[0] == __package__ and key != __name__
            for name, value in vars(module).items()
            if value is original
        }
        for owner, name in bindings:
            setattr(owner, name, self.replacement)
        try:
            yield
        finally:
            for owner, name in bindings:
                setattr(owner, name, original)


def _broken_complement(self: CondSpace, v: ConditionalSet) -> ConditionalSet:
    # drops the full fibers outside the support
    e = self.space.point_set
    fibers = {}
    for a in v.support:
        rest = e - v.fibers[a]
        if rest:
            fibers[a] = rest
    return ConditionalSet(fibers.keys(), fibers)


def _broken_intersection(sets):
    # keeps atoms whose fibers miss each other, backfilling with the union
    sets = list(sets)
    support = set(sets[0].support)
    for s in sets[1:]:
        support &= s.support
    fibers = {}
    for a in support:
        common = sets[0].fibers[a]
        union = sets[0].fibers[a]
        for s in sets[1:]:
            common = common & s.fibers[a]
            union = union | s.fibers[a]
        fibers[a] = common if common else union
    return ConditionalSet(fibers.keys(), fibers)


def _broken_eval(self: StableMeasure, v: ConditionalSet) -> Field:
    # takes the largest block mass inside the fiber instead of their sum
    if not self.domain.contains(v):
        raise ValueError(f"not measurable: {v!r}")
    values = {}
    for a in self.algebra.atoms:
        inside = [m for b, m in self.block_mass[a].items() if a in v.support and b <= v.fibers[a]]
        values[a] = INF if INF in inside else max(inside, default=Fraction(0))
    return Field(self.algebra, values)


_original_outer_mass_at = OuterMeasure.mass_at


def _broken_outer_mass_at(self: OuterMeasure, a: str, fiber: frozenset) -> ExtValue:
    # forgets that uncovered regions must be infinite
    out = _original_outer_mass_at(self, a, fiber)
    return Fraction(0) if out is INF else out


_original_measurable = measure.is_caratheodory_measurable


def _broken_measurable(outer: OuterMeasure, v: ConditionalSet) -> bool:
    # also rejects sets that reach points no ring block covers
    ring = outer.premeasure.domain
    if any(not v.fibers[a] <= ring.ring_at(a).covered for a in v.support):
        return False
    return _original_measurable(outer, v)


_original_dyadic = integral.dyadic_approximation


def _broken_dyadic(f: Integrand, n: int) -> ElementaryFunction:
    # rounds the staircase up instead of down
    phi = _original_dyadic(f, n)
    step = Field.constant(phi.sigma.algebra, Fraction(1, 2**n))
    return ElementaryFunction(phi.sigma, [(coef + step, cell) for coef, cell in phi.terms])


_original_integrand_mul = Integrand.__mul__


def _broken_integrand_mul(self: Integrand, other):
    # scales every atom by the first atom's factor of a field
    if isinstance(other, Field):
        other = Field.constant(other.algebra, other[other.algebra.atoms[0]])
    return _original_integrand_mul(self, other)


_original_cond_dist = kernels.conditional_distribution


def _broken_cond_dist(sub, xi, space):
    # forgets to renormalize by the block weight
    out = _original_cond_dist(sub, xi, space)
    table = {}
    for label in sub.labels:
        table[label] = {b: ext_mul(m, sub.quotient.weights[label]) for b, m in out.block_mass[label].items()}
    return StableMeasure(out.domain, table)


_original_measure_to_kernel = kernels.measure_to_kernel


def _broken_measure_to_kernel(mu: StableMeasure) -> kernels.Kernel:
    # reads the distribution function from the left: each point takes its
    # left neighbour's mass in coordinate order, the lowest point gets 0
    kappa = _original_measure_to_kernel(mu)
    coords = mu.domain.space.coords
    by_coord = sorted(coords, key=coords.__getitem__)
    table = {}
    for a, row in kappa.block_mass.items():
        shifted = [Fraction(0)] + [row[frozenset((q,))] for q in by_coord[:-1]]
        table[a] = {frozenset((p,)): m for p, m in zip(by_coord, shifted)}
    return kernels.Kernel(kappa.measure.domain.cspace, kappa.field, table)


_original_radon_nikodym = products.radon_nikodym


def _broken_radon_nikodym(mu: StableMeasure, nu: StableMeasure) -> Integrand:
    # gives the density 1 instead of 0 on mu-null blocks, which no integral
    # against mu can see
    density = _original_radon_nikodym(mu, nu)
    table = {a: dict(row) for a, row in density.values.items()}
    for a, row in table.items():
        for b in mu.domain.blocks(a):
            if mu.block_mass[a][b] == 0:
                row.update(dict.fromkeys(b, Fraction(1)))
    return Integrand(mu.domain, table)


FAULTS: dict[str, tuple[str, Callable, str]] = {
    "complement-support": (
        "complement forgets the region outside the support",
        _Swap(CondSpace, "complement", _broken_complement),
        "lattice",
    ),
    "intersection-empty-fiber": (
        "intersection keeps atoms whose fibers do not overlap",
        _Swap(condsets, "cond_intersection", _broken_intersection),
        "lattice",
    ),
    "measure-eval-max": (
        "measure evaluation takes the largest block mass instead of the sum",
        _Swap(StableMeasure, "eval", _broken_eval),
        "measure",
    ),
    "outer-ignores-uncovered": (
        "outer measure reports zero instead of infinity off the coverable event",
        _Swap(OuterMeasure, "mass_at", _broken_outer_mass_at),
        "outer",
    ),
    "caratheodory-rejects-uncovered": (
        "Caratheodory test also rejects sets reaching points the ring does not cover",
        _Swap(measure, "is_caratheodory_measurable", _broken_measurable),
        "caratheodory",
    ),
    "dyadic-ceil": (
        "dyadic staircase rounds up and overshoots the integrand",
        _Swap(integral, "dyadic_approximation", _broken_dyadic),
        "integral",
    ),
    "cond-expect-unnormalized": (
        "conditional distribution skips the renormalization by block weight",
        _Swap(kernels, "conditional_distribution", _broken_cond_dist),
        "kernel",
    ),
    "kernel-left-continuous": (
        "kernel recovery reads the distribution function from the left",
        _Swap(kernels, "measure_to_kernel", _broken_measure_to_kernel),
        "kernel",
    ),
    "integrand-scale-first-atom": (
        "scaling an integrand by a field uses the first atom's factor on every atom",
        _Swap(Integrand, "__mul__", _broken_integrand_mul),
        "daniell",
    ),
    "density-nonzero-on-null": (
        "density recovery gives 1 instead of 0 on the blocks the base measure does not charge",
        _Swap(products, "radon_nikodym", _broken_radon_nikodym),
        "rn",
    ),
}


@contextmanager
def inject_fault(name: str | None):
    if name is None:
        yield
        return
    if name not in FAULTS:
        raise ValueError(f"unknown fault: {name}")
    _, patcher, _ = FAULTS[name]
    with patcher():
        yield
