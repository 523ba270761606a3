"""Conditional sets over a finite ground space and their complete lattice.

A conditional set is a region that may live only on part of the measure
algebra: a support event together with one nonempty fiber of ground
points per supported atom.  The empty-support object is the bottom
element and is shared by all spaces.  Union, intersection, complement
and concatenation along partitions make the collection of conditional
sets a complete Boolean algebra; the operations here compute each of
them exactly.

`ConditionalSet(support, fibers)` validates its input: the fibers must
sit exactly on the support and none may be empty.  The lattice
operations (`cond_union`, `cond_intersection`, `cond_difference`,
`ConditionalSet.restrict`, `CondSpace.complement`) build their results
through the trusted `ConditionalSet._of`, because those results are
well-formed by construction: they drop every atom whose fiber comes out
empty, and they keep only frozensets.

`MaskCodec` encodes each set of one space as one int, one field of
point bits per atom, for the member-level loops that apply the lattice
operations to many pairs: there each operation is one integer
operation, and a `ConditionalSet` is built only where a loop needs one.
`MaskCodec.mixes` is the one enumeration of conditional sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .algebra import Event, MeasureAlgebra

Point = Hashable
#: A total choice of one ground point per atom.
PointFun = Mapping[str, Point]


@dataclass(frozen=True)
class GroundSpace:
    """A finite set of ground points, optionally with rational coordinates.

    Coordinates are only needed when a space has to be read as a subset
    of the real line (the cumulative-distribution construction); plain
    set-level work ignores them.
    """

    points: tuple
    coords: Mapping[Point, Fraction] | None = None

    def __post_init__(self):
        if not self.points:
            raise ValueError("ground space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate ground points")
        if self.coords is not None:
            if set(self.coords) != set(self.points):
                raise ValueError("coords must cover exactly the ground points")
            if len(set(self.coords.values())) != len(self.points):
                raise ValueError("coords must be injective")

    # Both are built once per space; cached attributes, not fields, so
    # they take no part in equality or hashing.
    @cached_property
    def point_set(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def _order(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    def sort_key(self):
        """Key function ordering points as in ``points``."""
        return self._order.__getitem__


class ConditionalSet:
    """A support event with one nonempty fiber per supported atom.

    Pure data: equality and hashing look only at the support and the
    fibers, so the same object can be tested for membership in any
    compatible collection.
    """

    __slots__ = ("support", "fibers", "_key")

    def __init__(self, support: Iterable[str], fibers: Mapping[str, Iterable[Point]]):
        supp = frozenset(support)
        fib = {a: frozenset(ps) for a, ps in fibers.items()}
        if set(fib) != set(supp):
            raise ValueError("fibers must be given exactly on the support")
        for a, ps in fib.items():
            if not ps:
                raise ValueError(f"empty fiber at atom {a!r}; shrink the support instead")
        _set_support(self, supp)
        _set_fibers(self, fib)
        _set_key(self, (supp, frozenset(fib.items())))

    @classmethod
    def _of(cls, fibers: dict[str, frozenset]) -> "ConditionalSet":
        """Trusted constructor: ``fibers`` maps each supported atom to a
        nonempty frozenset, and the support is its key set."""
        out = object.__new__(cls)
        supp = frozenset(fibers)
        _set_support(out, supp)
        _set_fibers(out, fibers)
        _set_key(out, (supp, frozenset(fibers.items())))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ConditionalSet is immutable")

    @property
    def is_bottom(self) -> bool:
        return not self.support

    def restrict(self, event: Event) -> "ConditionalSet":
        """The same set conditioned on a smaller event: V|A restricted to B is V|(A and B)."""
        fibers = self.fibers
        return ConditionalSet._of({a: fibers[a] for a in self.support & frozenset(event)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConditionalSet):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if self.is_bottom:
            return "ConditionalSet(bottom)"
        atoms = sorted(self.support, key=str)
        inner = "; ".join(f"{a}:{{{','.join(map(str, sorted(self.fibers[a], key=str)))}}}" for a in atoms)
        return f"ConditionalSet({inner})"


# The slot setters of both constructors: they bypass the immutability
# guard in `__setattr__`.
_set_support = ConditionalSet.support.__set__
_set_fibers = ConditionalSet.fibers.__set__
_set_key = ConditionalSet._key.__set__

#: The distinguished bottom element, shared by every conditional power set.
BOTTOM = ConditionalSet(frozenset(), {})


def cond_le(v: ConditionalSet, w: ConditionalSet) -> bool:
    """Conditional inclusion: the support shrinks and fibers are contained on it."""
    if not v.support <= w.support:
        return False
    return all(v.fibers[a] <= w.fibers[a] for a in v.support)


def cond_union(sets: Iterable[ConditionalSet]) -> ConditionalSet:
    fibers: dict[str, frozenset] = {}
    for s in sets:
        for a, f in s.fibers.items():
            have = fibers.get(a)
            fibers[a] = f if have is None else have | f
    return ConditionalSet._of(fibers)


def cond_intersection(sets: Sequence[ConditionalSet]) -> ConditionalSet:
    """Meet of a family: keeps exactly the atoms where all fibers overlap."""
    sets = list(sets)
    if not sets:
        raise ValueError("empty intersection has no meaning without the ambient space")
    first, rest = sets[0], sets[1:]
    support = first.support
    for s in rest:
        support &= s.support
    fibers: dict[str, frozenset] = {}
    for a in support:
        common = first.fibers[a]
        for s in rest:
            common &= s.fibers[a]
        if common:
            fibers[a] = common
    return ConditionalSet._of(fibers)


def cond_difference(w: ConditionalSet, v: ConditionalSet) -> ConditionalSet:
    """Relative complement w minus v, which never needs the ambient space."""
    fibers: dict[str, frozenset] = {}
    cut = v.fibers
    for a, f in w.fibers.items():
        rest = f - cut[a] if a in cut else f
        if rest:
            fibers[a] = rest
    return ConditionalSet._of(fibers)


class MaskCodec:
    """The conditional sets of one space, each as one int.

    With ``n`` ground points, atom ``i`` of the algebra (in atom order)
    owns bits ``i*n`` to ``i*n+n-1``, and point ``j`` of the ground space
    is bit ``j`` of each atom's field; an atom off the support has its
    field at 0.  Every lattice operation is then one integer operation:
    union ``x | y``, meet ``x & y``, relative complement ``x & ~y`` and
    complement ``top ^ x``; bottom is ``0``, and ``x & fields[i]`` is the
    part of ``x`` at atom ``i``.  Decoding builds the set through the
    trusted `ConditionalSet._of`, with one shared fiber per point mask.
    """

    __slots__ = ("atoms", "top", "fields", "_width", "_shifts", "_bits", "_fibers")

    def __init__(self, cspace: "CondSpace"):
        self.atoms = cspace.algebra.atoms
        points = cspace.space.points
        n = self._width = len(points)
        self._shifts = {a: i * n for i, a in enumerate(self.atoms)}
        self.fields = tuple(((1 << n) - 1) << shift for shift in self._shifts.values())
        self.top = (1 << n * len(self.atoms)) - 1
        self._bits = {p: 1 << j for j, p in enumerate(points)}
        self._fibers: dict[int, frozenset] = {}

    def encode(self, v: ConditionalSet) -> int:
        """The code of ``v``; raises ValueError when it leaves the space."""
        shifts = self._shifts
        if not v.support <= shifts.keys():
            raise ValueError(f"{v!r} is supported off the algebra's atoms")
        code = 0
        for a, fiber in v.fibers.items():
            code |= self.mask(fiber) << shifts[a]
        return code

    def decode(self, code: int) -> ConditionalSet:
        n = self._width
        full = (1 << n) - 1
        fibers = {}
        for a in self.atoms:
            m = code & full
            if m:
                fibers[a] = self.fiber(m)
            code >>= n
        return ConditionalSet._of(fibers)

    def parts(self, codes: set[int]) -> list[set[int]]:
        """Per atom, in atom order, the distinct parts ``c & fields[i]`` of
        the codes.  Taking one part per atom and summing is a concatenation
        of the sets the codes encode, and every concatenation arises so."""
        return [{c & f for c in codes} for f in self.fields]

    def at(self, atom: str, masks: Iterable[int]) -> list[int]:
        """The codes of the point masks ``masks`` placed at ``atom``."""
        return [m << self._shifts[atom] for m in masks]

    def mixes(self, options: Sequence[Iterable[int]]) -> Iterator[ConditionalSet]:
        """Decode each sum of one code per atom, in product order; the codes
        in ``options[i]`` lie in ``fields[i]``, and 0 leaves atom i off the support."""
        return map(self.decode, map(sum, product(*options)))

    def mask(self, fiber: frozenset) -> int:
        """The point mask of ``fiber``: bit ``j`` for point ``j``."""
        try:
            m = sum(self._bits[p] for p in fiber)
        except KeyError:
            raise ValueError(f"fiber {sorted(map(str, fiber))} uses points outside the ground space") from None
        self._fibers.setdefault(m, fiber)
        return m

    def fiber(self, m: int) -> frozenset:
        """The points of point mask ``m``, one shared frozenset per mask."""
        fiber = self._fibers.get(m)
        if fiber is None:
            fiber = self._fibers[m] = frozenset(p for p, bit in self._bits.items() if m & bit)
        return fiber


def membership_event(x: PointFun, v: ConditionalSet) -> Event:
    """The largest event on which the point choice x falls inside v."""
    return frozenset(a for a in v.support if x[a] in v.fibers[a])


def cartesian_product(v: ConditionalSet, w: ConditionalSet) -> ConditionalSet:
    """Pairwise rectangle: supported where both are, fibers are point pairs."""
    support = v.support & w.support
    fibers = {a: frozenset((p, q) for p in v.fibers[a] for q in w.fibers[a]) for a in support}
    return ConditionalSet(support, fibers)


class CondSpace:
    """A conditional power set: all conditional subsets of one ground space.

    Bundles the measure algebra with the ground space and provides the
    operations that need both: complement, concatenation, stable hulls
    and exhaustive enumeration.
    """

    __slots__ = ("algebra", "space", "_top")

    def __init__(self, algebra: MeasureAlgebra, space: GroundSpace):
        self.algebra = algebra
        self.space = space
        self._top = ConditionalSet(algebra.atoms, {a: space.point_set for a in algebra.atoms})

    @property
    def top(self) -> ConditionalSet:
        return self._top

    def make(self, support: Iterable[str], fibers: Mapping[str, Iterable[Point]]) -> ConditionalSet:
        supp = self.algebra.event(support)
        out = ConditionalSet(supp, fibers)
        for a in out.support:
            stray = out.fibers[a] - self.space.point_set
            if stray:
                raise ValueError(f"fiber at {a!r} uses unknown points {sorted(map(str, stray))}")
        return out

    def full_on(self, event: Event) -> ConditionalSet:
        """The whole ground space conditioned on an event: X restricted to A."""
        ev = self.algebra.event(event)
        return ConditionalSet(ev, {a: self.space.point_set for a in ev})

    def singleton(self, x: PointFun) -> ConditionalSet:
        return ConditionalSet(self.algebra.atoms, {a: frozenset((x[a],)) for a in self.algebra.atoms})

    def contains(self, v: ConditionalSet) -> bool:
        if not v.support <= set(self.algebra.atoms):
            return False
        return all(v.fibers[a] <= self.space.point_set for a in v.support)

    def complement(self, v: ConditionalSet) -> ConditionalSet:
        """Boolean complement: flip fibers where they are proper, go full off-support.

        On the support the complement keeps exactly the atoms whose
        fiber misses some point; off the support it is the whole space.
        """
        e = self.space.point_set
        fibers: dict[str, frozenset] = {}
        for a, f in v.fibers.items():
            rest = e - f
            if rest:
                fibers[a] = rest
        for a in self.algebra.atoms:
            if a not in v.fibers:
                fibers[a] = e
        return ConditionalSet._of(fibers)

    def concatenate(self, sets: Sequence[ConditionalSet], partition: Sequence[Event]) -> ConditionalSet:
        """Paste one conditional set per partition block into a single set."""
        piece_of = self.algebra.paste(sets, partition)
        return ConditionalSet._of({a: s.fibers[a] for a, s in piece_of.items() if a in s.support})

    def stable_hull(self, xs: Iterable[PointFun]) -> ConditionalSet:
        """Smallest full-support conditional set containing every choice in xs."""
        fibers: dict[str, set] = {a: set() for a in self.algebra.atoms}
        for x in xs:
            for a in self.algebra.atoms:
                fibers[a].add(x[a])
        if any(not ps for ps in fibers.values()):
            raise ValueError("stable_hull needs at least one point choice")
        return ConditionalSet(self.algebra.atoms, fibers)

    def all_sets(self) -> Iterator[ConditionalSet]:
        """Enumerate the whole conditional power set (exponential; small spaces only)."""
        codec = MaskCodec(self)
        masks = range(1 << len(self.space.points))
        yield from codec.mixes([codec.at(a, masks) for a in self.algebra.atoms])


def product_space(left: GroundSpace, right: GroundSpace) -> GroundSpace:
    """Ground space of ordered pairs, in lexicographic point order."""
    pts = tuple((p, q) for p in left.points for q in right.points)
    return GroundSpace(pts)
