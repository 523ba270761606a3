"""Bounded-exhaustive checks of the integer kernels.

`StableMeasure.eval`, `Kernel.mass`, `integrate`, `Integrand` validation
and `Integrand * indicator` are checked on every instance of a small
scope: one atom on 1-3 ground points and two atoms on 1-2 points.  Each
atom's domain blocks are any family of disjoint nonempty sets of points
(a stable ring, or a stable sigma-algebra when they cover every point),
each block mass is one of ``MASSES`` and each integrand value one of
``VALUES``.  The oracles use other algorithms: a fiber is measurable when
it is the union of the blocks inside it, and the integral is the
canonical staircase's elementary integral.

On two atoms the integrands take one value per atom: the varying
integrands are covered on one atom, and what couples the atoms (a
signed part on one atom against an infinite part on another, and the
level cell an error names) shows with one value per atom.
"""

from fractions import Fraction
from itertools import product

import pytest

from condmeasure import (
    INF,
    CondSpace,
    ConditionalSet,
    Field,
    GroundSpace,
    Integrand,
    MeasureAlgebra,
    StableMeasure,
    StableRing,
    StableSigmaAlgebra,
    canonical_elementary,
    elementary_integral,
    indicator,
    integrate,
)
from condmeasure.algebra import ext_sum
from condmeasure.kernels import Kernel
from condmeasure.sigma import SetRing

MASSES = (Fraction(0), Fraction(1, 2), Fraction(1), INF)
VALUES = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2))
#: (atoms, points) of every space in the scope.
SPACES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))


def cspace_of(atoms: int, points: int) -> CondSpace:
    algebra = MeasureAlgebra.uniform([f"a{i + 1}" for i in range(atoms)])
    return CondSpace(algebra, GroundSpace(tuple(range(1, points + 1))))


def partitions(items: list) -> list[list[list]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for p in partitions(rest):
        out.append([[first], *p])
        for i in range(len(p)):
            out.append([*p[:i], [first, *p[i]], *p[i + 1 :]])
    return out


def block_families(points) -> list[list[frozenset]]:
    """Every family of disjoint nonempty blocks of ``points``: a partition
    of the points and one extra item, whose block is left uncovered."""
    return [[frozenset(b) for b in p if None not in b] for p in partitions([None, *points])]


def measures(cspace: CondSpace) -> list[StableMeasure]:
    """Every measure of the scope on ``cspace``: any blocks, any masses."""
    rows = [
        dict(zip(blocks, masses))
        for blocks in block_families(cspace.space.points)
        for masses in product(MASSES, repeat=len(blocks))
    ]
    atoms = cspace.algebra.atoms
    out = []
    for choice in product(rows, repeat=len(atoms)):
        per_atom = {a: SetRing(list(row)) for a, row in zip(atoms, choice)}
        if all(ring.covered == cspace.space.point_set for ring in per_atom.values()):
            domain = StableSigmaAlgebra(cspace, per_atom)
        else:
            domain = StableRing(cspace, per_atom)
        out.append(StableMeasure(domain, dict(zip(atoms, choice))))
    return out


def block_sum(masses: dict, fiber: frozenset):
    """The masses of the blocks inside ``fiber`` summed, or None when those
    blocks do not make up the fiber."""
    inside = [b for b in masses if b <= fiber]
    if frozenset().union(*inside) != fiber:
        return None
    return ext_sum(masses[b] for b in inside)


def staircases(f: Integrand) -> tuple:
    """The canonical staircases of the two parts; None for the negative
    part of a nonnegative integrand."""
    pos = canonical_elementary(f.pos_part())
    return pos, None if f.is_nonnegative() else canonical_elementary(f.neg_part())


def staircase_integral(parts: tuple, mu: StableMeasure) -> Field:
    """The supremum route: elementary integrals of the two staircases."""
    pos = elementary_integral(parts[0], mu)
    if parts[1] is None:
        return pos
    neg = elementary_integral(parts[1], mu)
    if not (pos.is_finite() and neg.is_finite()):
        raise ValueError("not integrable: a signed part has infinite integral")
    return pos - neg


def outcome(route, f, mu):
    try:
        return route(f, mu)
    except ValueError as exc:
        return str(exc)


def integrands(cspace: CondSpace) -> list[Integrand]:
    """On one atom every row of values; on more, one value per atom."""
    sigma = StableSigmaAlgebra.discrete(cspace)
    atoms, points = cspace.algebra.atoms, cspace.space.points
    if len(atoms) == 1:
        return [Integrand(sigma, {atoms[0]: dict(zip(points, row))}) for row in product(VALUES, repeat=len(points))]
    return [
        Integrand(sigma, {a: dict.fromkeys(points, v) for a, v in zip(atoms, row)})
        for row in product(VALUES, repeat=len(atoms))
    ]


def is_exact(field: Field) -> bool:
    return all(type(x) is Fraction or x is INF for x in field.as_dict().values())


@pytest.fixture(scope="module")
def scope():
    return [(cspace, measures(cspace)) for cspace in (cspace_of(*size) for size in SPACES)]


def test_scope_sizes(scope):
    assert [len(ms) for _, ms in scope] == [5, 29, 189, 25, 841]


def test_eval_is_the_block_sum_on_every_set(scope):
    refused = set()
    for cspace, ms in scope:
        stranger = ConditionalSet(("zz",), {"zz": frozenset((1,))})
        sets = list(cspace.all_sets())
        for mu in ms:
            for v in sets:
                want = {}
                for a in cspace.algebra.atoms:
                    fiber = v.fibers.get(a, frozenset())
                    want[a] = block_sum(mu.block_mass[a], fiber)
                    if want[a] is None:
                        ring = mu.domain.ring_at(a)
                        refused.add("uncovered" if not fiber <= ring.covered else "cut")
                if None in want.values():
                    with pytest.raises(ValueError, match="not measurable"):
                        mu.eval(v)
                else:
                    got = mu.eval(v)
                    assert got == Field(cspace.algebra, want) and is_exact(got), (mu, v)
            with pytest.raises(ValueError, match="not measurable"):
                mu.eval(stranger)
    assert refused == {"uncovered", "cut"}


def test_kernel_mass_is_the_block_sum_on_every_subset(scope):
    for cspace, ms in scope[:3]:
        points = cspace.space.points
        subsets = [frozenset(p for part in s for p in part) for s in product(*[((), (p,)) for p in points])]
        for mu in ms:
            if not isinstance(mu.domain, StableSigmaAlgebra):
                continue
            field = mu.domain.ring_at("a1")
            kappa = Kernel(cspace, field, mu.block_mass)
            for s in subsets:
                want = block_sum(mu.block_mass["a1"], s)
                if want is None:
                    with pytest.raises(ValueError, match="not measurable"):
                        kappa.mass("a1", s)
                else:
                    assert kappa.mass("a1", s) == want


def test_integrate_is_the_staircase_integral(scope):
    seen = set()
    for cspace, ms in scope:
        fs = [(f, staircases(f)) for f in integrands(cspace)]
        for mu in ms:
            for f, parts in fs:
                got = outcome(integrate, f, mu)
                assert got == outcome(staircase_integral, parts, mu), (f, mu)
                if isinstance(got, str):
                    seen.add(got.split(":")[0])
                else:
                    assert is_exact(got)
                    seen.add("finite" if got.is_finite() else "infinite")
    assert seen == {"finite", "infinite", "not measurable", "not integrable"}


def test_integrand_keeps_exact_values_and_rejects_a_varying_block():
    for points in (1, 2, 3):
        cspace = cspace_of(1, points)
        pts = cspace.space.points
        fields = [b for b in block_families(pts) if frozenset().union(*b) == cspace.space.point_set]
        for blocks in fields:
            sigma = StableSigmaAlgebra.from_blocks(cspace, {"a1": blocks})
            for row in product(VALUES, repeat=points):
                # whole values given as int, the rest as Fraction
                given = {p: int(v) if v.denominator == 1 else v for p, v in zip(pts, row)}
                varies = any(len({given[p] for p in b}) > 1 for b in blocks)
                if varies:
                    with pytest.raises(ValueError, match="not measurable"):
                        Integrand(sigma, {"a1": given})
                else:
                    f = Integrand(sigma, {"a1": given})
                    assert f.values["a1"] == dict(zip(pts, row))
                    assert all(type(x) is Fraction for x in f.values["a1"].values())


def test_product_with_an_indicator_is_the_pointwise_product():
    for points in (1, 2, 3):
        cspace = cspace_of(1, points)
        sigma = StableSigmaAlgebra.discrete(cspace)
        members = list(sigma.members())
        for f in integrands(cspace):
            for v in members:
                fiber = v.fibers.get("a1", frozenset())
                want = {p: x * Fraction(p in fiber) for p, x in f.values["a1"].items()}
                got = (f * indicator(v, sigma)).values["a1"]
                assert got == want and all(type(x) is Fraction for x in got.values()), (f, v)
