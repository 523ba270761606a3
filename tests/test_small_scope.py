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
"""

import random
from itertools import chain, combinations

import pytest

from condmeasure import CondSpace, GroundSpace, MeasureAlgebra, SetRing, fiberwise_sigma_oracle, generate_sigma
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
