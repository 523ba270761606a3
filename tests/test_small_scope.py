"""Bounded-exhaustive checks of sigma generation and listed rings.

Every instance of a small scope is checked against a definition that
uses another algorithm:

- `generate_sigma`, the per-atom option fixpoint on point bitmasks, on
  every family of generators: up to 3 on one atom with up to 3 points,
  up to 3 on two atoms with 2 points, and up to 2 on two atoms with 3
  points.  It must equal `fiberwise_sigma_oracle` (signature blocks per
  atom), and its members must equal `generate_sigma_extensional` (the
  member-level closure with concatenations).
- `generate_dynkin` and `generate_sigma_extensional`, on the same
  families, against a fixpoint written on `ConditionalSet`s: it adds
  `CondSpace.complement`s, `cond_union`s of every pair (of every pair
  with disjoint fibers, for the Dynkin system) and `CondSpace.concatenate`
  along every partition of the atoms, and uses no `MaskCodec` code.
- `SetRing.from_members`, which decides closure by a count, on every
  family of subsets of a universe of 1, 2 or 3 points, and on seeded
  families on 4 and 5 points.  The reference is the definition: the
  family with the empty set is closed under pairwise union and
  difference.
- `OuterMeasure.mass_at`, the cover search, and `caratheodory_extend`
  on every pre-measure of one atom on 1-3 points and of two atoms on
  1-2 points, with block masses in {0, 1/2, 1, INF}.  The per-atom
  outer mass of every fiber, the empty one included, must equal
  `classical.outer_mass` (the mass of the blocks the fiber meets, 0 for
  the empty fiber), and the extension's blocks and masses must equal
  `classical.caratheodory_blocks`; the extension must also agree with
  the pre-measure on every ring member.  On the same pre-measures,
  `is_caratheodory_measurable` must equal the splitting definition: the
  set cuts every test set of the space additively.
- `radon_nikodym` on one atom with every partition of 4 points into
  blocks and block masses in {0, 1/2, 1}: the density times the mass
  of each block under mu must be its mass under nu, or the call must
  raise with the union of the mu-null blocks that nu charges as its
  witness.
- `mix_closure`, the per-atom parts of `MaskCodec`, on every family of
  up to 3 sets on two atoms with 2 points and on one atom with 3
  points.  It must equal the fixpoint of `CondSpace.concatenate` along
  every partition of the atoms.
- The pastings `MeasureAlgebra.paste` serves, on every partition of
  two atoms with 2 points and of three atoms with 1 point, and every
  choice of one set per event: a pasted set's indicator is the pasted
  indicators (`concatenate_integrands`), its mass is the pasted masses
  (`concatenate_field`), and `SubAlgebra.spread_to_atoms` pastes
  constant fields along the blocks.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product

import pytest

from condmeasure import (
    INF,
    CondSpace,
    ConditionalSet,
    Field,
    GroundSpace,
    MeasureAlgebra,
    OuterMeasure,
    SetRing,
    StableMeasure,
    StableRing,
    StableSigmaAlgebra,
    SubAlgebra,
    caratheodory_extend,
    classical,
    concatenate_integrands,
    cond_difference,
    cond_intersection,
    cond_union,
    fiberwise_sigma_oracle,
    generate_sigma,
    indicator,
    is_caratheodory_measurable,
    radon_nikodym,
)
from condmeasure.sigma import generate_dynkin, generate_sigma_extensional, mix_closure

#: (atoms, points, largest number of generators) of every sigma scope.
SIGMA_SCOPES = ((1, 1, 3), (1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2))
NOT_CLOSED = "^member list is not closed under union and difference$"


def cspace_of(atoms: int, points: int) -> CondSpace:
    algebra = MeasureAlgebra.uniform([f"a{i + 1}" for i in range(atoms)])
    return CondSpace(algebra, GroundSpace(tuple(range(1, points + 1))))


def subsets(items) -> list[frozenset]:
    items = list(items)
    return [frozenset(c) for c in chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))]


@pytest.mark.parametrize("atoms, points, most", SIGMA_SCOPES)
def test_generate_sigma_equals_both_oracles_on_every_family(atoms, points, most):
    cspace = cspace_of(atoms, points)
    sets = list(cspace.all_sets())
    for k in range(most + 1):
        for gen in map(list, combinations(sets, k)):
            sig = generate_sigma(cspace, gen)
            assert sig == fiberwise_sigma_oracle(cspace, gen), gen
            assert frozenset(sig.members()) == generate_sigma_extensional(cspace, gen), gen


class SetOps:
    """The operations of a stable closure, computed on the `ConditionalSet`s
    of one space and remembered across families.  Each set seen is kept
    once, under its index in ``sets``, and the operations take and return
    those indices, so that looking one up hashes ints."""

    def __init__(self, cspace: CondSpace):
        sets: list[ConditionalSet] = []
        index: dict[ConditionalSet, int] = {}

        def intern(v: ConditionalSet) -> int:
            if v not in index:
                index[v] = len(sets)
                sets.append(v)
            return index[v]

        self.sets, self.intern = sets, intern
        self.top = intern(cspace.top)
        self.partitions = [tuple(part) for part in set_partitions(cspace.algebra.atoms)]
        self.events = sorted({ev for part in self.partitions for ev in part}, key=sorted)
        self.complement = cache(lambda i: intern(cspace.complement(sets[i])))
        self.union = cache(lambda i, j: intern(cond_union([sets[i], sets[j]])))
        self.disjoint = cache(
            lambda i, j: all(not sets[i].fibers[a] & sets[j].fibers[a] for a in sets[i].support & sets[j].support)
        )
        self.restrict = cache(lambda i, ev: intern(sets[i].restrict(ev)))
        self.paste = cache(lambda chosen, part: intern(cspace.concatenate([sets[i] for i in chosen], part)))

    def closure(self, family, *, disjoint_unions: bool) -> frozenset:
        """The least family that holds ``family`` and the top and is closed
        under complement, union of (disjoint) pairs and concatenation.
        Semi-naive: each round takes at least one set new in the last."""
        closed = {self.top, *map(self.intern, family)}
        fresh = set(closed)
        while fresh:
            listed = list(closed)
            new = {self.complement(i) for i in fresh}
            if disjoint_unions:
                new.update(self.union(i, j) for i in fresh for j in listed if self.disjoint(i, j))
            else:
                new.update(self.union(i, j) for i in fresh for j in listed)
            # a concatenation reads each piece on its own event only, so
            # the pieces are the distinct restrictions to the events
            pieces = {ev: {self.restrict(i, ev) for i in listed} for ev in self.events}
            fresh_pieces = {ev: {self.restrict(i, ev) for i in fresh} for ev in self.events}
            for part in self.partitions:
                for k, ev in enumerate(part):
                    choices = [pieces[e] for e in part]
                    choices[k] = fresh_pieces[ev]
                    new.update(self.paste(chosen, part) for chosen in product(*choices))
            fresh = new - closed
            closed |= fresh
        return frozenset(self.sets[i] for i in closed)


@pytest.mark.parametrize("atoms, points, most", SIGMA_SCOPES)
def test_member_closures_equal_a_fixpoint_on_conditional_sets(atoms, points, most):
    cspace = cspace_of(atoms, points)
    ops = SetOps(cspace)
    sets = list(cspace.all_sets())
    for k in range(most + 1):
        for gen in combinations(sets, k):
            assert generate_dynkin(cspace, gen) == ops.closure(gen, disjoint_unions=True), gen
            assert generate_sigma_extensional(cspace, gen) == ops.closure(gen, disjoint_unions=False), gen


def closed(family) -> bool:
    """The definition: with the empty set, closed under union and difference."""
    ms = set(family) | {frozenset()}
    return all(a | b in ms and a - b in ms for a in ms for b in ms)


def check_from_members(family: list[frozenset]) -> bool:
    if not closed(family):
        with pytest.raises(ValueError, match=NOT_CLOSED):
            SetRing.from_members(family)
        return False
    members = list(SetRing.from_members(family).members())
    assert len(members) == len(set(members))
    assert set(members) == set(family) | {frozenset()}
    return True


def test_from_members_matches_the_closure_definition_on_every_family():
    outcomes = [
        check_from_members(list(family)) for points in (1, 2, 3) for family in subsets(subsets(range(points)))
    ]
    assert len(outcomes) == 4 + 16 + 256
    assert outcomes.count(True) > 10 and outcomes.count(False) > 10


def test_from_members_matches_the_closure_definition_on_seeded_families():
    outcomes = []
    for seed in range(300):
        rng = random.Random(seed)
        points = list(range(rng.choice((4, 5))))
        power = subsets(points)
        # a ring from random blocks on part of the points, then perhaps
        # one member dropped or one subset added, or a random family
        labels = [rng.randrange(4) for _ in points]
        blocks = [frozenset(p for p, c in zip(points, labels) if c == label) for label in range(3)]
        family = {frozenset().union(*bs) for bs in subsets(b for b in blocks if b)}
        move = rng.randrange(4)
        if move == 1:
            family.discard(rng.choice(sorted(family, key=sorted)))
        elif move == 2:
            family.add(rng.choice(power))
        elif move == 3:
            family = set(rng.sample(power, rng.randint(1, 8)))
        outcomes.append(check_from_members(sorted(family, key=sorted)))
    assert outcomes.count(True) > 50 and outcomes.count(False) > 50


#: (atoms, points, number of pre-measures) of every pre-measure scope.
PREMEASURE_SCOPES = ((1, 1, 5), (1, 2, 29), (1, 3, 189), (2, 1, 25), (2, 2, 841))
MASSES = (Fraction(0), Fraction(1, 2), Fraction(1), INF)


def partial_partitions(points) -> list[tuple[frozenset, ...]]:
    """Every family of disjoint nonempty blocks of ``points``: each point
    takes a block label, and label 0 leaves it uncovered."""
    families = set()
    for labels in product(range(len(points) + 1), repeat=len(points)):
        blocks = (frozenset(p for p, k in zip(points, labels) if k == label) for label in range(1, len(points) + 1))
        families.add(frozenset(b for b in blocks if b))
    return sorted((tuple(sorted(f, key=sorted)) for f in families), key=lambda f: [sorted(b) for b in f])


def premeasures(cspace: CondSpace):
    """Every pre-measure on ``cspace`` with block masses in MASSES."""
    local = [
        (blocks, dict(zip(blocks, ms)))
        for blocks in partial_partitions(cspace.space.points)
        for ms in product(MASSES, repeat=len(blocks))
    ]
    atoms = cspace.algebra.atoms
    for choice in product(local, repeat=len(atoms)):
        ring = StableRing(cspace, {a: SetRing(list(blocks)) for a, (blocks, _) in zip(atoms, choice)})
        yield StableMeasure(ring, {a: masses for a, (_, masses) in zip(atoms, choice)})


@pytest.mark.parametrize("atoms, points, count", PREMEASURE_SCOPES)
def test_outer_mass_and_extension_equal_the_closed_forms_on_every_premeasure(atoms, points, count):
    cspace = cspace_of(atoms, points)
    universe = cspace.space.point_set
    fibers = subsets(universe)
    seen = 0
    for pre in premeasures(cspace):
        outer, ext = OuterMeasure(pre), caratheodory_extend(pre)
        for a in cspace.algebra.atoms:
            masses = pre.block_mass[a]
            for fiber in fibers:
                assert outer.mass_at(a, fiber) == classical.outer_mass(masses, fiber), (pre, a, fiber)
            assert ext.block_mass[a] == classical.caratheodory_blocks(universe, masses), pre
        for v in pre.domain.members():
            assert ext.eval(v) == pre.eval(v), (pre, v)
        seen += 1
    assert seen == count


@pytest.mark.parametrize("atoms, points, count", PREMEASURE_SCOPES)
def test_local_measurability_is_the_splitting_definition_on_every_premeasure(atoms, points, count):
    cspace = cspace_of(atoms, points)
    sets = list(cspace.all_sets())
    verdicts = {True: 0, False: 0}
    seen = 0
    for pre in premeasures(cspace):
        seen += 1
        outer = OuterMeasure(pre)
        value = {w: outer.evaluate(w) for w in sets}
        for v in sets:
            splits = all(value[w] == value[cond_intersection([w, v])] + value[cond_difference(w, v)] for w in sets)
            got = is_caratheodory_measurable(outer, v)
            assert got is splits, (pre, v)
            verdicts[got] += 1
    assert seen == count
    assert verdicts[True] and (verdicts[False] or points == 1), verdicts


def set_partitions(items) -> list[list[frozenset]]:
    """Every partition of ``items`` into nonempty events."""
    items = list(items)
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        out.append([frozenset({first}), *part])
        for i, ev in enumerate(part):
            out.append([*part[:i], ev | {first}, *part[i + 1 :]])
    return out


DENSITY_MASSES = (Fraction(0), Fraction(1, 2), Fraction(1))


def test_density_times_mu_is_nu_on_every_block_or_the_witness_is_named():
    cspace = cspace_of(1, 4)
    outcomes = {"density": 0, "witness": 0}
    for blocks in set_partitions(cspace.space.points):
        domain = StableSigmaAlgebra(cspace, {"a1": SetRing(blocks)})
        blocks = domain.blocks("a1")
        for mu_masses in product(DENSITY_MASSES, repeat=len(blocks)):
            if sum(mu_masses) != 1:
                continue
            mu = StableMeasure(domain, {"a1": dict(zip(blocks, mu_masses))})
            for nu_masses in product(DENSITY_MASSES, repeat=len(blocks)):
                nu = StableMeasure(domain, {"a1": dict(zip(blocks, nu_masses))})
                charged = [b for b, m, n in zip(blocks, mu_masses, nu_masses) if m == 0 and n != 0]
                if charged:
                    witness = ConditionalSet(["a1"], {"a1": frozenset().union(*charged)})
                    with pytest.raises(ValueError) as err:
                        radon_nikodym(mu, nu)
                    assert str(err.value) == f"not absolutely continuous: witness {witness!r}"
                    outcomes["witness"] += 1
                    continue
                density = radon_nikodym(mu, nu)
                for b, m, n in zip(blocks, mu_masses, nu_masses):
                    assert {density.value("a1", p) * m for p in b} == {n}, (mu, nu, b)
                outcomes["density"] += 1
    assert outcomes == {"density": 390, "witness": 1584}, outcomes


#: (atoms, points, largest family) of every concatenation scope.
MIX_SCOPES = ((2, 2, 3), (1, 3, 3))


def concatenation_fixpoint(cspace: CondSpace, family) -> frozenset:
    """The family closed under `CondSpace.concatenate` along every
    partition of the atoms, with any choice of one member per event."""
    partitions = set_partitions(cspace.algebra.atoms)
    closed = set(family)
    while True:
        new = {
            cspace.concatenate(pieces, part)
            for part in partitions
            for pieces in product(list(closed), repeat=len(part))
        }
        if new <= closed:
            return frozenset(closed)
        closed |= new


@pytest.mark.parametrize("atoms, points, most", MIX_SCOPES)
def test_mix_closure_is_the_concatenation_fixpoint_on_every_family(atoms, points, most):
    cspace = cspace_of(atoms, points)
    sets = list(cspace.all_sets())
    for k in range(most + 1):
        for family in combinations(sets, k):
            assert mix_closure(cspace, family) == concatenation_fixpoint(cspace, family), family


#: (atoms, points) of every pasting scope.
PASTING_SCOPES = ((2, 2), (3, 1))


@pytest.mark.parametrize("atoms, points", PASTING_SCOPES)
def test_the_pastings_agree_on_every_partition_and_choice_of_pieces(atoms, points):
    cspace = cspace_of(atoms, points)
    algebra = cspace.algebra
    sigma = StableSigmaAlgebra.discrete(cspace)
    masses = (Fraction(1, 2), INF, Fraction(0), Fraction(1), Fraction(1, 3))
    mu = StableMeasure.from_point_masses(
        sigma,
        {a: {p: masses[(i * points + j) % len(masses)] for j, p in enumerate(cspace.space.points)}
         for i, a in enumerate(algebra.atoms)},
    )
    sets = list(cspace.all_sets())
    ind = {v: indicator(v, sigma) for v in sets}
    mass = {v: mu.eval(v) for v in sets}
    for partition in set_partitions(algebra.atoms):
        for pieces in product(sets, repeat=len(partition)):
            pasted = cspace.concatenate(pieces, partition)
            for v, ev in zip(pieces, partition):
                assert pasted.restrict(ev) == v.restrict(ev), (pieces, partition)
            assert indicator(pasted, sigma) == concatenate_integrands([ind[v] for v in pieces], partition)
            assert mu.eval(pasted) == algebra.concatenate_field([mass[v] for v in pieces], partition)
        sub = SubAlgebra(algebra, partition)
        g = Field(sub.quotient, {label: Fraction(i + 1) for i, label in enumerate(sub.labels)})
        constants = [Field.constant(algebra, g[label]) for label in sub.labels]
        assert sub.spread_to_atoms(g) == algebra.concatenate_field(constants, sub.blocks)
