"""Stable collections of conditional sets: rings, Dynkin systems, sigma-algebras.

A collection is stable when it is closed under concatenation along
partitions; in a finite atomic algebra that means closed under all
atomwise mixes of its members.  Stable sigma-algebras then factor into
one classical field of sets per atom, which gives a compact block
representation next to the extensional member view.  Generation is a
least-fixpoint closure; an independent fiberwise route recomputes it
through classical signature partitions for cross-checking.

The member-level closure (`generate_dynkin`,
`generate_sigma_extensional`), `classify` and `mix_closure` work on
one int per conditional set (`condsets.MaskCodec`): complement, union,
difference and disjointness are single integer operations, and the
concatenations of a family are the product of its `MaskCodec.parts`.
`_close` is the one complement/union fixpoint: per atom on point masks
in `generate_sigma`, and on whole codes in `_member_closure`.
`SetRing.from_members` decides closure by a count: a listed ring has
exactly ``2**k`` members for its ``k`` blocks.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Iterator, Mapping

from . import classical
from .algebra import MeasureAlgebra
from .condsets import CondSpace, ConditionalSet, GroundSpace, MaskCodec, Point

# No longer called here, since the member loops run on masks; the binding
# stays because `bench/selftest` checks that the tracer swaps it here.
from .condsets import cond_intersection  # noqa: F401


class SetRing:
    """A classical ring of subsets of a finite point set, stored by its blocks.

    The blocks are the minimal nonempty members; they partition the
    covered part of the universe and every member is a union of blocks.
    A ring whose blocks cover the whole universe is a field.
    """

    __slots__ = ("blocks", "covered")

    def __init__(self, blocks: Iterable[frozenset]):
        blocks = [frozenset(b) for b in blocks]
        seen: set = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks must be disjoint")
            seen |= b
        self.blocks = tuple(sorted(blocks, key=lambda b: sorted(map(str, b))))
        self.covered = frozenset(seen)

    @classmethod
    def generated(cls, sets: Iterable[frozenset]) -> "SetRing":
        """Ring generated by arbitrary subsets: signature blocks on their union."""
        sets = [frozenset(s) for s in sets]
        covered = frozenset().union(*sets) if sets else frozenset()
        return cls(classical.blocks_from_sets(covered, sets))

    @classmethod
    def from_members(cls, members: Iterable[frozenset]) -> "SetRing":
        """Recover the blocks of an explicitly listed ring, validating closure.

        Closure is decided by a count, as `_stable_codes` decides
        stability: the list (with the empty set) is a ring exactly when it
        has ``2**k`` members for its ``k`` signature blocks."""
        ms = {frozenset(m) for m in members}
        ms.add(frozenset())
        covered = frozenset().union(*ms)
        blocks = classical.blocks_from_sets(covered, list(ms))
        # Every member is a union of the signature blocks, so ms lies
        # inside the 2**k unions of its k blocks.  If ms is closed it has
        # meets, since a & b == a - (a - b), so it holds each block: the
        # meet of the members that hold a point, minus the union of those
        # that miss it; then it holds every union of blocks.  Hence ms is
        # closed exactly when the counts match.
        if len(ms) != 1 << len(blocks):
            raise ValueError("member list is not closed under union and difference")
        return cls(blocks)

    def is_field_on(self, universe: frozenset) -> bool:
        return self.covered == frozenset(universe)

    def contains(self, s: frozenset) -> bool:
        if not s <= self.covered:
            return False
        return all(not (b & s) or b <= s for b in self.blocks)

    def member(self, index: int) -> frozenset:
        """The union of the blocks whose bits are set in ``index``."""
        return frozenset().union(*(b for i, b in enumerate(self.blocks) if index >> i & 1))

    def members(self) -> Iterator[frozenset]:
        return map(self.member, range(1 << len(self.blocks)))

    def member_count(self) -> int:
        return 1 << len(self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetRing):
            return NotImplemented
        return frozenset(self.blocks) == frozenset(other.blocks)

    def __hash__(self) -> int:
        return hash(frozenset(self.blocks))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(b, key=str))) + "}" for b in self.blocks)
        return f"SetRing({inner})"


class _PerAtomFamily:
    """Shared behavior of stable rings and stable sigma-algebras.

    Membership of a conditional set is atom-local: each supported fiber
    must belong to that atom's classical collection.
    """

    __slots__ = ("cspace", "per_atom")

    def __init__(self, cspace: CondSpace, per_atom: Mapping[str, SetRing]):
        if set(per_atom) != set(cspace.algebra.atoms):
            raise ValueError("per-atom collections must cover every atom")
        self.cspace = cspace
        self.per_atom = dict(per_atom)

    @property
    def algebra(self) -> MeasureAlgebra:
        return self.cspace.algebra

    @property
    def space(self) -> GroundSpace:
        return self.cspace.space

    def ring_at(self, atom: str) -> SetRing:
        return self.per_atom[atom]

    def contains(self, v: ConditionalSet) -> bool:
        per_atom = self.per_atom
        return all(a in per_atom and per_atom[a].contains(f) for a, f in v.fibers.items())

    def members(self) -> Iterator[ConditionalSet]:
        """All members, mixing per-atom members; the empty one is off the
        support (exponential; small use only)."""
        codec = MaskCodec(self.cspace)
        options = [codec.at(a, map(codec.mask, self.per_atom[a].members())) for a in self.algebra.atoms]
        yield from codec.mixes(options)

    def member_count(self) -> int:
        n = 1
        for a in self.algebra.atoms:
            n *= self.per_atom[a].member_count()
        return n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _PerAtomFamily):
            return NotImplemented
        return self.algebra.atoms == other.algebra.atoms and self.per_atom == other.per_atom

    def __hash__(self) -> int:
        return hash((self.algebra.atoms, tuple(self.per_atom[a] for a in self.algebra.atoms)))

    def __repr__(self) -> str:
        inner = "; ".join(f"{a}:{self.per_atom[a]!r}" for a in self.algebra.atoms)
        return f"{type(self).__name__}({inner})"


class StableRing(_PerAtomFamily):
    """A stable ring: per atom a classical ring of fibers, any support allowed."""

    def __init__(self, cspace: CondSpace, per_atom: Mapping[str, SetRing]):
        super().__init__(cspace, per_atom)
        for a, ring in self.per_atom.items():
            if not ring.covered <= cspace.space.point_set:
                raise ValueError(f"blocks at atom {a!r} are not inside the ground points")

    @classmethod
    def from_fiber_sets(cls, cspace: CondSpace, per_atom_sets: Mapping[str, Iterable[frozenset]]) -> "StableRing":
        per_atom = {a: SetRing.generated(list(per_atom_sets.get(a, ()))) for a in cspace.algebra.atoms}
        return cls(cspace, per_atom)


class StableSigmaAlgebra(_PerAtomFamily):
    """A stable sigma-algebra: per atom a classical field on the ground points."""

    def __init__(self, cspace: CondSpace, per_atom: Mapping[str, SetRing]):
        super().__init__(cspace, per_atom)
        for a, ring in self.per_atom.items():
            if not ring.is_field_on(cspace.space.point_set):
                raise ValueError(f"collection at atom {a!r} is not a field on the ground points")

    @classmethod
    def discrete(cls, cspace: CondSpace) -> "StableSigmaAlgebra":
        blocks = [frozenset((p,)) for p in cspace.space.points]
        return cls(cspace, {a: SetRing(blocks) for a in cspace.algebra.atoms})

    @classmethod
    def trivial(cls, cspace: CondSpace) -> "StableSigmaAlgebra":
        blocks = [cspace.space.point_set]
        return cls(cspace, {a: SetRing(blocks) for a in cspace.algebra.atoms})

    @classmethod
    def from_blocks(cls, cspace: CondSpace, blocks_per_atom: Mapping[str, Iterable[frozenset]]) -> "StableSigmaAlgebra":
        return cls(cspace, {a: SetRing(list(bs)) for a, bs in blocks_per_atom.items()})

    def blocks(self, atom: str) -> tuple:
        return self.per_atom[atom].blocks


def mix_closure(cspace: CondSpace, members: Iterable[ConditionalSet]) -> frozenset:
    """Closure under concatenation along partitions: all atomwise mixes,
    the sums of one `MaskCodec.parts` part per atom."""
    codec = MaskCodec(cspace)
    codes = {codec.encode(v) for v in members}
    return frozenset(codec.mixes(codec.parts(codes)))


def _stable_codes(cspace: CondSpace, members: Iterable[ConditionalSet]) -> tuple[MaskCodec, set] | None:
    """The codes of a nonempty stable collection, or None.

    A collection always lies inside its concatenations, the product of
    its per-atom parts, so it is stable exactly when it is as large as
    that product."""
    ms = frozenset(members)
    if not ms:
        return None
    if not all(cspace.contains(v) for v in ms):
        raise ValueError("members outside the conditional power set")
    codec = MaskCodec(cspace)
    codes = {codec.encode(v) for v in ms}
    if math.prod(map(len, codec.parts(codes))) != len(codes):
        return None
    return codec, codes


def is_stable_collection(cspace: CondSpace, members: Iterable[ConditionalSet]) -> bool:
    """Nonempty and closed under every concatenation of its own members."""
    return _stable_codes(cspace, members) is not None


def classify(cspace: CondSpace, members: Iterable[ConditionalSet]) -> str:
    """Strongest applicable label: 'sigma', 'dynkin', 'ring' or 'none'.

    Decided on one int per set (`MaskCodec`), as in `_member_closure`."""
    stable = _stable_codes(cspace, members)
    if stable is None:
        return "none"
    codec, codes = stable
    top = codec.top
    listed = list(codes)
    has_top = top in codes
    complements = all((top ^ m) in codes for m in listed)
    all_unions = all((m | k) in codes for m in listed for k in listed)
    if has_top and complements and all_unions:
        return "sigma"
    disjoint_unions = all((m | k) in codes for m in listed for k in listed if not m & k)
    if has_top and complements and disjoint_unions:
        return "dynkin"
    relative = all((m & ~k) in codes for m in listed for k in listed)
    if relative and all_unions:
        return "ring"
    return "none"


def _close(family: set[int], fresh: Iterable[int], top: int, *, disjoint_unions: bool) -> None:
    """Close ``family`` in place under complement ``top ^ x`` and union
    ``x | y`` (of disjoint pairs, ``x & y == 0``, when ``disjoint_unions``).
    Semi-naive: each round pairs only the codes new in the last round,
    starting from ``fresh``, with all codes."""
    while fresh:
        listed = list(family)
        if disjoint_unions:
            additions = {m | k for m in fresh for k in listed if not m & k}
        else:
            additions = {m | k for m in fresh for k in listed}
        additions.update(top ^ m for m in fresh)
        additions -= family
        family |= additions
        fresh = additions


def _member_closure(cspace: CondSpace, seeds: Iterable[ConditionalSet], *, disjoint_unions: bool) -> frozenset:
    """Least fixpoint of complement, (disjoint) pairwise union and concatenation.

    Runs on one int per set (`MaskCodec`): `_close` and the concatenations,
    the sums of one part per atom (`MaskCodec.parts`), take turns until
    neither adds a code.  The conditional sets are built once, at the end.
    """
    codec = MaskCodec(cspace)
    family = {codec.encode(v) for v in seeds}
    family.add(codec.top)
    fresh = list(family)
    while fresh:
        _close(family, fresh, codec.top, disjoint_unions=disjoint_unions)
        fresh = {m for m in map(sum, product(*codec.parts(family))) if m not in family}
        family |= fresh
    return frozenset(map(codec.decode, family))


def generate_sigma_extensional(cspace: CondSpace, generator: Iterable[ConditionalSet]) -> frozenset:
    """Member-level closure; the reference path for small instances."""
    return _member_closure(cspace, generator, disjoint_unions=False)


def generate_sigma(cspace: CondSpace, generator: Iterable[ConditionalSet]) -> StableSigmaAlgebra:
    """Least stable sigma-algebra containing the generator.

    Computed per atom: the option set (absent marker plus fibers) is
    closed under the lifted complement and union, which is the same
    fixpoint as the member-level closure but without re-enumerating
    cross-atom pairs.  An option is a point mask (`MaskCodec.mask`), the
    absent marker 0, and `_close` runs with the full fiber ``e`` as its
    top.  `SetRing.from_members` checks the members' closure by a count.
    """
    codec = MaskCodec(cspace)
    e = codec.mask(cspace.space.point_set)
    options: dict[str, set[int]] = {a: {e} for a in cspace.algebra.atoms}
    for v in generator:
        if not cspace.contains(v):
            raise ValueError("generator member outside the conditional power set")
        # an atom off the support would add the absent marker 0, which
        # every option set reaches anyway as the complement of e
        for a, fiber in v.fibers.items():
            options[a].add(codec.mask(fiber))
    per_atom: dict[str, SetRing] = {}
    for a, opts in options.items():
        _close(opts, list(opts), e, disjoint_unions=False)
        per_atom[a] = SetRing.from_members(map(codec.fiber, opts))
    return StableSigmaAlgebra(cspace, per_atom)


def generate_dynkin(cspace: CondSpace, generator: Iterable[ConditionalSet]) -> frozenset:
    """Least stable Dynkin system containing the generator, extensionally.

    Disjointness of a pair is a cross-atom condition, so this closure
    has to stay at the member level.
    """
    return _member_closure(cspace, generator, disjoint_unions=True)


def fiberwise_sigma_oracle(cspace: CondSpace, generator: Iterable[ConditionalSet]) -> StableSigmaAlgebra:
    """Independent route: classical signature-partition field generation per atom."""
    e = cspace.space.point_set
    per_atom: dict[str, SetRing] = {}
    for a in cspace.algebra.atoms:
        gens = [v.fibers[a] for v in generator if a in v.support]
        gens.append(e)
        per_atom[a] = SetRing(classical.blocks_from_sets(e, gens))
    return StableSigmaAlgebra(cspace, per_atom)


class StableFunction:
    """A stable point map between ground spaces: one classical map per atom."""

    __slots__ = ("maps",)

    def __init__(self, maps: Mapping[str, Mapping[Point, Point]]):
        self.maps = {a: dict(m) for a, m in maps.items()}

    def __repr__(self) -> str:
        return f"StableFunction(atoms={sorted(self.maps)})"


def cond_preimage(f: StableFunction, w: ConditionalSet) -> ConditionalSet:
    """Preimage of a conditional set: supported where some point maps in."""
    fibers: dict[str, frozenset] = {}
    for a in w.support:
        pre = frozenset(p for p, q in f.maps[a].items() if q in w.fibers[a])
        if pre:
            fibers[a] = pre
    return ConditionalSet(fibers.keys(), fibers)


def is_stably_measurable(
    f: StableFunction,
    domain: StableSigmaAlgebra,
    targets: Iterable[ConditionalSet],
) -> bool:
    """Every target preimage lands in the domain sigma-algebra.

    Passing only generators of the target sigma-algebra suffices.
    """
    return all(domain.contains(cond_preimage(f, w)) for w in targets)
