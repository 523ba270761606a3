"""Bounded-exhaustive checks of sigma generation and listed rings.

Every instance of a small scope is checked against a definition that
uses another algorithm:

- `generate_sigma`, the per-atom option fixpoint on point bitmasks, on
  every family of generators: up to 3 on one atom with up to 3 points,
  up to 3 on two atoms with 2 points, and up to 2 on two atoms with 3
  points.  It must equal `fiberwise_sigma_oracle` (signature blocks per
  atom), and its members must equal `generate_sigma_extensional` (the
  member-level closure with concatenations).
- `SetRing.from_members`, which decides closure by a count, on every
  family of subsets of a universe of 1, 2 or 3 points, and on seeded
  families on 4 and 5 points.  The reference is the definition: the
  family with the empty set is closed under pairwise union and
  difference.
- `OuterMeasure.mass_at`, the cover search, and `caratheodory_extend`
  on every pre-measure of one atom on 1-3 points and of two atoms on
  1-2 points, with block masses in {0, 1/2, 1, INF}.  The per-atom
  outer mass of every nonempty fiber must equal `classical.outer_mass`
  (the mass of the blocks the fiber meets), and the extension's blocks
  and masses must equal `classical.caratheodory_blocks`.
"""

import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from condmeasure import (
    INF,
    CondSpace,
    GroundSpace,
    MeasureAlgebra,
    OuterMeasure,
    SetRing,
    StableMeasure,
    StableRing,
    caratheodory_extend,
    classical,
    fiberwise_sigma_oracle,
    generate_sigma,
)
from condmeasure.sigma import generate_sigma_extensional

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
    fibers = subsets(universe)[1:]
    seen = 0
    for pre in premeasures(cspace):
        outer, ext = OuterMeasure(pre), caratheodory_extend(pre)
        for a in cspace.algebra.atoms:
            masses = pre.block_mass[a]
            for fiber in fibers:
                assert outer.mass_at(a, fiber) == classical.outer_mass(masses, fiber), (pre, a, fiber)
            assert ext.block_mass[a] == classical.caratheodory_blocks(universe, masses), pre
        seen += 1
    assert seen == count
