"""Stable measures, outer measures and the extension theorem.

A stable measure assigns one classical measure per atom, stored as
exact masses on the blocks of its domain.  Localization and additivity
then hold by construction; the behavioral checker still verifies the
whole axiom list on any measure-shaped object, so deliberately broken
evaluators can be caught.  Pre-measures live on stable rings; their
outer masses come from exact enumeration of finite ring covers, one
atom at a time (`OuterMeasure.mass_at`).  The enumeration tries only the
ring members inside the fiber's hull, the union of the blocks the fiber
meets: a cover cut down to the hull is still a cover, with no more
members and no greater mass, because masses are nonnegative and add
over blocks, so the cheapest cover is among those members.  It adds
integers: each atom has one scale, the least common multiple of the
denominators of its finite block masses, and each finite ring member's
mass is one `int` numerator over it, so a cover's total is a plain sum
and only the cheapest becomes a `Fraction`.  Members of infinite mass
are left out, since a covered fiber's hull is a cover and a finite
cover, when there is one, holds no infinite member.  That search is
the only one in the package: its oracle, `classical.outer_mass`, reads
the value off the block masses in closed form.

`caratheodory_extend` restricts the outer measure to the generated
stable sigma-algebra, which it reads off the ring without a closure:
at each atom the generated blocks are the ring's blocks plus one block
of the points the ring does not cover, each weighed by `mass_at`.

`StableMeasure(domain, block_mass)` validates its masses against the
domain's blocks, each read through `algebra.exact` (an `int`, a
`Fraction` or INF, stored as a `Fraction` or INF); `from_point_masses`
reads its point masses the same way before it sums them.  The trusted
`StableMeasure._of` takes a table that already holds one nonnegative
value per block: `scale` and the rectangle measures of `product` build
through it.  `StableMeasure.eval` makes one membership pass over
each atom's blocks (`_fiber_mass`): a block inside the fiber joins the
sum, while a block the fiber cuts, or a fiber point outside every
block, makes the set unmeasurable.  `Kernel.mass` and the sections of
`product.section_mass_integrand` use the same helper, and the `Field`
is built through the trusted `Field._of`.  Every other block sum here,
those of `_fiber_mass` as well as `StableMeasure.total` and
`from_point_masses`, goes through the one exact accumulator,
`algebra.ext_sum`: integer numerators over a running least common
denominator, an INF flag, and one `Fraction` at the end.

`check_measure_axioms` runs its pair loop on one int per conditional
set (`condsets.MaskCodec`): the union, meet and difference of a pair
are each one integer operation, and its value table is keyed by the
int code, so a `ConditionalSet` is built only for a set the table has
not seen.  Each value turns into scaled numerators: per atom, the value
times the least common multiple of the denominators of that atom's
finite block masses.  Every sum of block masses is then an `int`, and a
sum, difference or comparison of scaled values holds exactly when it
holds for the values themselves, because the scale is positive; a value
off that lattice stays an exact `Fraction`, and `INF` stays `INF`.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .algebra import (
    INF,
    Event,
    ExtValue,
    Field,
    ext_add,
    ext_mul,
    ext_sub,
    ext_sum,
    exact,
    format_value,
    is_finite,
)
from .condsets import BOTTOM, ConditionalSet, MaskCodec, PointFun, cond_intersection, cond_union
from .sigma import SetRing, StableRing, StableSigmaAlgebra


_ZERO = Fraction(0)


def _fiber_mass(masses: Mapping[frozenset, ExtValue], covered: frozenset, fiber: frozenset) -> ExtValue | None:
    """The extended sum of the masses of the blocks inside ``fiber``, or
    None when the blocks, which cover ``covered``, cannot measure it.

    A fiber point outside ``covered`` gives None.  Then one pass over the
    blocks tests membership: a block inside the fiber joins the sum, and
    a block the fiber cuts gives None.  `ext_sum` adds the masses.
    """
    if not fiber <= covered:
        return None
    inside = []
    for b, m in masses.items():
        if b <= fiber:
            inside.append(m)
        elif not b.isdisjoint(fiber):
            return None
    return ext_sum(inside)


class StableMeasure:
    """Exact extended-valued masses on the blocks of a stable domain.

    The domain is a stable sigma-algebra, or a stable ring for
    pre-measures; either way each atom carries a block partition and
    the measure stores one nonnegative (possibly infinite) mass per
    block.  Evaluation localizes to the support and sums blocks.
    """

    __slots__ = ("domain", "block_mass")

    def __init__(self, domain, block_mass: Mapping[str, Mapping[frozenset, ExtValue]]):
        self.domain = domain
        table: dict[str, dict[frozenset, ExtValue]] = {}
        for a in domain.algebra.atoms:
            blocks = domain.ring_at(a).blocks
            given = {b: exact(m, "mass at atom {!r}", a, infinite=True) for b, m in block_mass.get(a, {}).items()}
            if set(given) != set(blocks):
                raise ValueError(f"masses at atom {a!r} must cover exactly the domain blocks")
            for b, m in given.items():
                if m is not INF and m < 0:
                    raise ValueError(f"negative mass {format_value(m)} at atom {a!r}")
            table[a] = given
        self.block_mass = table

    @classmethod
    def _of(cls, domain, table: dict[str, dict[frozenset, ExtValue]]) -> "StableMeasure":
        """Trusted constructor: ``table`` holds, per atom, one nonnegative
        `Fraction` or INF per block of the domain."""
        out = object.__new__(cls)
        out.domain = domain
        out.block_mass = table
        return out

    @classmethod
    def from_point_masses(cls, domain, point_mass: Mapping[str, Mapping]) -> "StableMeasure":
        """Sum per-point masses into block masses; finer input is allowed.
        Each point mass is checked for sign before the sum."""
        table = {}
        for a in domain.algebra.atoms:
            pm = {p: exact(m, "point mass of {!r} at atom {!r}", p, a, infinite=True) for p, m in point_mass[a].items()}
            for m in pm.values():
                if m is not INF and m < 0:
                    raise ValueError(f"negative mass {format_value(m)} at atom {a!r}")
            table[a] = {b: ext_sum(pm[p] for p in b) for b in domain.ring_at(a).blocks}
        return cls(domain, table)

    @classmethod
    def dirac(cls, domain, x: PointFun) -> "StableMeasure":
        """Unit mass at one chosen point per atom."""
        table = {}
        for a in domain.algebra.atoms:
            if x[a] not in domain.space.point_set:
                raise ValueError(f"dirac point {x[a]!r} at atom {a!r} is not a ground point")
            table[a] = {b: Fraction(1 if x[a] in b else 0) for b in domain.ring_at(a).blocks}
        return cls(domain, table)

    @classmethod
    def zero(cls, domain) -> "StableMeasure":
        return cls(domain, {a: {b: Fraction(0) for b in domain.ring_at(a).blocks} for a in domain.algebra.atoms})

    @property
    def algebra(self):
        return self.domain.algebra

    def eval(self, v: ConditionalSet) -> Field:
        """Mass of a conditional set, atom by atom; zero off the support.

        Raises when the domain cannot measure the set: an atom of its
        support is off the algebra, or a fiber cuts a block or reaches a
        point outside every block.
        """
        fibers = v.fibers
        block_mass = self.block_mass
        if not fibers.keys() <= block_mass.keys():
            raise ValueError(f"not measurable: {v!r}")
        algebra, per_atom = self.domain.algebra, self.domain.per_atom
        values = []
        for a in algebra.atoms:
            fiber = fibers.get(a)
            m = _ZERO if fiber is None else _fiber_mass(block_mass[a], per_atom[a].covered, fiber)
            if m is None:
                raise ValueError(f"not measurable: {v!r}")
            values.append(m)
        return Field._of(algebra, tuple(values))

    def total(self) -> Field:
        """Mass of the whole covered region at every atom."""
        return Field(self.algebra, {a: ext_sum(self.block_mass[a].values()) for a in self.algebra.atoms})

    def is_probability(self) -> bool:
        t = self.total()
        return all(t[a] == 1 for a in self.algebra.atoms)

    def is_finite(self) -> bool:
        return self.total().is_finite()

    def scale(self, r: "Field | ExtValue | int") -> "StableMeasure":
        if not isinstance(r, Field):
            r = Field.constant(self.algebra, exact(r, "measure scale factor", infinite=True))
        table = {}
        for a in self.algebra.atoms:
            factor = r[a]
            if factor is not INF and factor < 0:
                raise ValueError("negative scaling of a measure")
            table[a] = {b: ext_mul(factor, m) for b, m in self.block_mass[a].items()}
        return StableMeasure._of(self.domain, table)

    def add(self, other: "StableMeasure") -> "StableMeasure":
        if self.domain != other.domain:
            raise ValueError("measures live on different domains")
        table = {
            a: {b: ext_add(m, other.block_mass[a][b]) for b, m in self.block_mass[a].items()}
            for a in self.algebra.atoms
        }
        return StableMeasure(self.domain, table)

    def __repr__(self) -> str:
        parts = []
        for a in self.algebra.atoms:
            inner = ", ".join(
                "{" + ",".join(map(str, sorted(b, key=str))) + "}=" + format_value(m)
                for b, m in sorted(self.block_mass[a].items(), key=lambda kv: sorted(map(str, kv[0])))
            )
            parts.append(f"{a}: {inner}")
        return "StableMeasure(" + "; ".join(parts) + ")"


def sample_members(domain, cap: int, seed: int = 0) -> list[ConditionalSet]:
    """A deterministic spread of domain members, exhaustive when small.

    A sampled member draws, at each atom with k blocks, one index below
    2^k and takes `SetRing.member(index)`, off the support at index 0.
    That is the draw `random.choice` makes on `list(ring.members())`,
    without building the list.
    """
    if domain.member_count() <= cap:
        return list(domain.members())
    rng = random.Random(seed)
    atoms = domain.algebra.atoms
    rings = [domain.ring_at(a) for a in atoms]
    # the first member in enumeration order, every atom off the support
    out = {BOTTOM}
    while len(out) < cap:
        fibers = {}
        for a, ring in zip(atoms, rings):
            index = rng.randrange(1 << len(ring.blocks))
            if index:
                fibers[a] = ring.member(index)
        out.add(ConditionalSet._of(fibers))
    return sorted(out, key=repr)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    axiom: str | None = None
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _scaled(field: Field, scale: tuple[int, ...]) -> tuple:
    """The values of ``field`` times each atom's scale: an `int` when the
    product is whole, an exact `Fraction` otherwise, and `INF` as `INF`."""
    out = []
    for x, d in zip(field._values, scale):
        if x is INF:
            out.append(INF)
        else:
            whole, rest = divmod(x.numerator * d, x.denominator)
            out.append(x * d if rest else whole)
    return tuple(out)


def check_measure_axioms(mu, *, cap: int = 200) -> AxiomReport:
    """Behavioral check of the measure axiom list on sampled members.

    Verifies localization, additivity on disjoint unions, modularity,
    monotonicity, guarded subtraction, subadditivity and continuity
    along increasing and decreasing chains.  Returns the first
    violation found, with a witness.

    The pair loop treats ``eval`` as a function of its argument: each
    distinct set (member, union, meet or difference) is evaluated once
    and its value read from a table.  The table is keyed by the set's
    code, one int (`MaskCodec`), and the loop forms unions (``|``),
    meets (``&``) and differences (``hi & ~lo``) on the codes; ``lo``
    lies inside ``hi`` when their meet is ``lo``, and a pair is disjoint
    when its meet is 0.  Only a code the table lacks is decoded into a
    `ConditionalSet`, tested for membership in the domain and evaluated.
    The continuity chains build their sets with `cond_union` and
    `cond_intersection` and read their values from the same table.
    Localization and the limit checks evaluate afresh, so an evaluator
    that answers differently for the same set is still caught.

    The pair loop compares scaled numerators, not `Field`s of
    `Fraction`s.  Each atom's scale is the least common multiple of the
    denominators of its finite block masses, so every value on the
    block-mass lattice scales to an `int`, and sums, differences and
    comparisons run on integers: a pair whose values are all `int`s adds
    them with plain ``+``.  A value off that lattice (only a broken
    evaluator returns one) scales to an exact `Fraction`, and `INF`
    stays `INF`; a pair that holds either adds with `ext_add`, so the
    comparisons stay exact either way.
    """
    algebra = mu.domain.algebra
    atoms = algebra.atoms
    members = sample_members(mu.domain, cap)
    codec = MaskCodec(mu.domain.cspace)
    scale = tuple(
        math.lcm(*(m.denominator for m in mu.block_mass[a].values() if m is not INF)) for a in atoms
    )
    table: dict[int, tuple | None] = {}
    # the codes whose scaled value holds INF or a Fraction
    extended: set[int] = set()

    def record(code: int, field: Field) -> tuple:
        out = table[code] = _scaled(field, scale)
        if not all(type(x) is int for x in out):
            extended.add(code)
        return out

    def value(code: int) -> tuple | None:
        """The scaled mass of the set ``code`` encodes, or None when the
        domain cannot measure it."""
        try:
            return table[code]
        except KeyError:
            v = codec.decode(code)
            if not mu.domain.contains(v):
                table[code] = None
                return None
            return record(code, mu.eval(v))

    def fail(axiom: str, witness: str) -> AxiomReport:
        return AxiomReport(False, axiom, witness)

    events: list[Event] = [frozenset((a,)) for a in atoms]
    events.append(frozenset(atoms))
    codes = []
    for v in members:
        mv = mu.eval(v)
        code = codec.encode(v)
        codes.append(code)
        record(code, mv)
        for ev in events:
            expected = Field._of(algebra, tuple(x if a in ev else _ZERO for a, x in zip(atoms, mv._values)))
            if mu.eval(v.restrict(ev)) != expected:
                return fail("localization", f"{v!r} restricted to {sorted(ev)}")
        if any(mv[a] != 0 for a in atoms if a not in v.support):
            return fail("localization", f"{v!r} carries mass off its support")

    add, sub, le = operator.add, operator.sub, operator.le
    for k, (v, cv) in enumerate(zip(members, codes)):
        mv = table[cv]
        for w, cw in zip(members[k:], codes[k:]):
            mw = table[cw]
            meet, union = cv & cw, cv | cw
            mu_u, mu_i = value(union), value(meet)
            if mu_u is None or mu_i is None:
                continue
            exact = not extended or extended.isdisjoint((cv, cw, union, meet))
            plus = add if exact else ext_add
            total = tuple(map(plus, mv, mw))
            if not meet and mu_u != total:
                return fail("additivity", f"{v!r} and {w!r}")
            if tuple(map(plus, mu_u, mu_i)) != total:
                return fail("modularity", f"{v!r} and {w!r}")
            if not all(map(le, mu_u, total)):
                return fail("subadditivity", f"{v!r} and {w!r}")
            for lo, hi, clo, chi, mlo, mhi in ((v, w, cv, cw, mv, mw), (w, v, cw, cv, mw, mv)):
                if meet == clo:
                    if not all(map(le, mlo, mhi)):
                        return fail("monotonicity", f"{lo!r} inside {hi!r}")
                    mdiff = value(chi & ~clo)
                    if mdiff is None or (exact and tuple(map(sub, mhi, mlo)) == mdiff):
                        continue
                    for a, d, x, y in zip(atoms, mdiff, mhi, mlo):
                        if y is not INF and d != ext_sub(x, y):
                            return fail("subtraction", f"{hi!r} minus {lo!r} at atom {a}")

    rng = random.Random(1)
    for _ in range(min(20, len(members))):
        chain_members = rng.sample(members, min(len(members), 4))
        acc = chain_members[0]
        chain = [acc]
        for v in chain_members[1:]:
            acc = cond_union([acc, v])
            chain.append(acc)
        values = [value(codec.encode(c)) for c in chain]
        if None in values:
            continue
        for lo, hi in zip(values, values[1:]):
            if not all(map(le, lo, hi)):
                return fail("continuity-below", f"chain {chain!r} is not monotone in mass")
        if values[-1] != _scaled(mu.eval(chain[-1]), scale):
            return fail("continuity-below", f"chain {chain!r} misses its limit")
        dec = chain_members[0]
        dchain = [dec]
        for v in chain_members[1:]:
            dec = cond_intersection([dec, v])
            dchain.append(dec)
        dvalues = [value(codec.encode(c)) for c in dchain]
        if None in dvalues:
            continue
        if INF not in dvalues[0]:
            for hi, lo in zip(dvalues, dvalues[1:]):
                if not all(map(le, lo, hi)):
                    return fail("continuity-above", f"chain {dchain!r} is not monotone in mass")
            if dvalues[-1] != _scaled(mu.eval(dchain[-1]), scale):
                return fail("continuity-above", f"chain {dchain!r} misses its limit")
    return AxiomReport(True)


class OuterMeasure:
    """Outer measure induced by a pre-measure on a stable ring.

    Evaluation works on every conditional set whose support lies in the
    algebra: on the coverable part it is the exact infimum over finite
    ring covers, found at each atom by trying every combination of up to
    |fiber| ring members inside the fiber's hull, the union of the
    blocks it meets (`mass_at`); off the coverable part it is infinite,
    and off the support it is zero.  The members outside the hull can be
    left out, because cutting a cover down to the hull keeps it a cover
    and raises no mass.

    The search adds integers.  Each atom has one scale, the least common
    multiple of the denominators of its finite block masses, and the
    member table holds each finite ring member's mass as one `int`
    numerator over that scale: the numerator of the member without its
    lowest block, plus that block's.  Members of infinite mass are left
    out of the table.  A covered fiber lies inside its hull, a member, so
    it has a cover; when one cover is finite, the cheapest holds no
    infinite member, and when none is, the search over the finite
    members finds nothing and the answer is INF either way.
    """

    __slots__ = ("premeasure", "_scale", "_numerators")

    def __init__(self, premeasure: StableMeasure):
        if not isinstance(premeasure.domain, StableRing):
            raise ValueError("outer measures are built from pre-measures on stable rings")
        self.premeasure = premeasure
        self._scale: dict[str, int] = {}
        self._numerators: dict[str, dict[frozenset, int]] = {}
        for a in premeasure.algebra.atoms:
            ring = premeasure.domain.ring_at(a)
            masses = [premeasure.block_mass[a][b] for b in ring.blocks]
            scale = math.lcm(*(m.denominator for m in masses if m is not INF))
            block_nums = [None if m is INF else m.numerator * (scale // m.denominator) for m in masses]
            # by member index: the bits of an index are its blocks, None is INF
            nums: list[int | None] = [0]
            table = {}
            members = ring.members()
            next(members)
            for index, m in enumerate(members, 1):
                rest, low = nums[index & (index - 1)], block_nums[(index & -index).bit_length() - 1]
                n = None if rest is None or low is None else rest + low
                nums.append(n)
                if n is not None:
                    table[m] = n
            self._scale[a] = scale
            self._numerators[a] = table

    @property
    def algebra(self):
        return self.premeasure.algebra

    def coverable_event(self, v: ConditionalSet) -> Event:
        """Largest event on which the set can be covered by ring members.
        Raises when an atom of its support is off the algebra."""
        ring = self.premeasure.domain
        if not v.fibers.keys() <= self.premeasure.block_mass.keys():
            raise ValueError(f"not measurable: {v!r}")

        def coverable(ev: Event) -> bool:
            return all(a not in v.support or v.fibers[a] <= ring.ring_at(a).covered for a in ev)

        return self.algebra.largest_event(coverable)

    def mass_at(self, a: str, fiber: frozenset) -> ExtValue:
        """Outer mass of a fiber at atom ``a``: 0 when it is empty, else its
        cheapest cover by at most |fiber| ring members, or INF when it
        leaves the ring or has no cover of finite mass.

        The search runs over the finite members inside the fiber's hull
        H, the union of the blocks the fiber meets.  That loses no cover:
        each member m of a cover can be replaced by m ∩ H, which is empty
        or a member inside H of no greater mass, since masses are
        nonnegative and add over blocks, and the nonempty ones still
        cover the fiber with no more members.  Each cover's total is a
        sum of the members' integer numerators over the atom's scale, so
        only the cheapest total becomes a `Fraction`.
        """
        if not fiber:
            return _ZERO
        ring = self.premeasure.domain.ring_at(a)
        if not fiber <= ring.covered:
            return INF
        hull = frozenset().union(*(b for b in ring.blocks if not b.isdisjoint(fiber)))
        table = {m: n for m, n in self._numerators[a].items() if m <= hull}
        numerator = table.__getitem__
        best: int | None = None
        for k in range(1, len(fiber) + 1):
            for combo in combinations(table, k):
                if fiber <= frozenset().union(*combo):
                    total = sum(map(numerator, combo))
                    if best is None or total < best:
                        best = total
        return INF if best is None else Fraction(best, self._scale[a])

    def evaluate(self, v: ConditionalSet) -> Field:
        """Outer mass of a conditional set, atom by atom; zero off the
        support.  Raises when an atom of its support is off the algebra."""
        atoms, fibers = self.algebra.atoms, v.fibers
        if not fibers.keys() <= self.premeasure.block_mass.keys():
            raise ValueError(f"not measurable: {v!r}")
        return Field._of(self.algebra, tuple(self.mass_at(a, fibers[a]) if a in fibers else _ZERO for a in atoms))


def is_caratheodory_measurable(outer: OuterMeasure, v: ConditionalSet) -> bool:
    """Carathéodory splitting, decided block by block.

    A set splits every test set additively iff, at each atom of its
    support, its fiber cuts no ring block of finite nonzero mass.  The
    outer mass of a covered fiber is the mass of the blocks it meets,
    so only a block met on both sides of the cut is counted twice, and
    that block is itself a test set that fails; an infinite block, or
    an uncovered point, costs infinity on both sides.  A set with an
    atom of its support off the algebra raises.
    """
    block_mass = outer.premeasure.block_mass
    if not v.fibers.keys() <= block_mass.keys():
        raise ValueError(f"not measurable: {v!r}")
    return not any(
        is_finite(m) and m != 0 and b & v.fibers[a] and not b <= v.fibers[a]
        for a in v.support
        for b, m in block_mass[a].items()
    )


def caratheodory_extend(premeasure: StableMeasure) -> StableMeasure:
    """Extension of a ring pre-measure to the generated sigma-algebra.

    The generated sigma-algebra is read off the ring: at each atom its
    blocks are the ring's blocks, plus one block holding the ground
    points the ring does not cover, when there are any.  Each block of
    the result gets its outer mass, which agrees with the pre-measure
    on the ring.
    """
    outer = OuterMeasure(premeasure)
    ring = premeasure.domain
    cspace = ring.cspace
    per_atom: dict[str, SetRing] = {}
    table: dict[str, dict[frozenset, ExtValue]] = {}
    for a in cspace.algebra.atoms:
        ring_a = ring.ring_at(a)
        rest = cspace.space.point_set - ring_a.covered
        per_atom[a] = SetRing([*ring_a.blocks, rest] if rest else ring_a.blocks)
        # in the result's block order, which the mass table then keeps
        table[a] = {b: outer.mass_at(a, b) for b in per_atom[a].blocks}
    return StableMeasure(StableSigmaAlgebra(cspace, per_atom), table)


def uniqueness_check(mu: StableMeasure, nu: StableMeasure, generator: Sequence[ConditionalSet]) -> bool:
    """Two measures agreeing on a good generator agree on what it generates.

    Premises checked: the generator is closed under pairwise meets and
    contains the whole space with finite mass under both measures (the
    finite form of an exhausting sequence).  Violated premises raise.
    Under them agreement on the generator decides the answer: on each
    atom the generator's fibers form a pi-system holding the whole space,
    the sets where two finite measures agree form a lambda-system, and by
    the pi-lambda theorem that lambda-system holds the generated
    sigma-algebra.
    """
    generator = list(generator)
    domain = mu.domain
    if not isinstance(domain, StableSigmaAlgebra) or domain != nu.domain:
        raise ValueError("uniqueness needs two measures on one sigma-algebra")
    gen_set = frozenset(generator)
    for v in generator:
        for w in generator:
            if cond_intersection([v, w]) not in gen_set:
                raise ValueError("generator is not closed under pairwise meets")
    top = domain.cspace.top
    if top not in gen_set:
        raise ValueError("generator has no exhausting sequence: the whole space is missing")
    if not (mu.eval(top).is_finite() and nu.eval(top).is_finite()):
        raise ValueError("exhausting sequence does not have finite mass")
    return all(mu.eval(v) == nu.eval(v) for v in generator)
