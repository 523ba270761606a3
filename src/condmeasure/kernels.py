"""Kernels, sub-algebras, conditional distributions and expectations.

In the finite model a kernel is one classical measure on a shared
ground field per atom, which is the same data as a stable measure read
sideways; the two translation maps here make that identification
explicit and exactly invertible.  A stable probability on the discrete
sigma-algebra of a coordinate space is read as a kernel atom by atom,
with no distribution function in between; the classical route through
the jumps of the distribution function (`classical.distribution_jumps`)
is the oracle it is checked against.  Conditioning on a sub-algebra
coarsens the atoms into blocks, labeled through `MeasureAlgebra.paste`;
conditional distributions then live over the quotient algebra and
conditional expectations are integrals against them.  Over the
one-block grouping the conditional distribution is the plain law of
the observation, which `classical.pushforward` computes as its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import ExtValue, Field, MeasureAlgebra
from .condsets import CondSpace, GroundSpace, PointFun
from .integral import Integrand, integrate
from .measure import StableMeasure, _fiber_mass
from .sigma import SetRing, StableSigmaAlgebra


class Kernel:
    """One classical measure per atom on a single shared field of ground sets.

    That is the stable measure on the sigma-algebra that takes the
    field at every atom, and the kernel holds it as `measure`: the mass
    table, its checks and `is_probability` are the measure's.
    """

    __slots__ = ("field", "measure")

    def __init__(self, cspace: CondSpace, field: SetRing, block_mass: Mapping[str, Mapping[frozenset, ExtValue]]):
        if not field.is_field_on(cspace.space.point_set):
            raise ValueError("kernel target collection must be a field on the ground points")
        self.field = field
        self.measure = StableMeasure(StableSigmaAlgebra(cspace, {a: field for a in cspace.algebra.atoms}), block_mass)

    @property
    def block_mass(self) -> dict[str, dict[frozenset, ExtValue]]:
        return self.measure.block_mass

    def mass(self, atom: str, subset: frozenset) -> ExtValue:
        subset = frozenset(subset)
        m = _fiber_mass(self.block_mass[atom], self.field.covered, subset)
        if m is None:
            raise ValueError(f"not measurable: {sorted(map(str, subset))}")
        return m

    def is_probability(self) -> bool:
        return self.measure.is_probability()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.field == other.field and self.block_mass == other.block_mass

    def __repr__(self) -> str:
        # the measure's repr, under the kernel's name
        return "Kernel" + repr(self.measure).removeprefix("StableMeasure")


def kernel_to_measure(kappa: Kernel) -> StableMeasure:
    """Read a kernel as a stable measure on the induced stable sigma-algebra."""
    return kappa.measure


def measure_to_kernel(mu: StableMeasure) -> Kernel:
    """Recover a kernel from a stable probability on the discrete sigma-algebra.

    The kernel is the measure read per atom: on the discrete
    sigma-algebra its point masses are the measure's block masses.  The
    verification suites check them against the jumps of the classical
    distribution function (`classical.distribution_jumps`).
    """
    domain = mu.domain
    if not isinstance(domain, StableSigmaAlgebra):
        raise ValueError("kernel recovery needs a measure on a sigma-algebra")
    space = domain.space
    if space.coords is None:
        raise ValueError("kernel recovery needs ground coordinates")
    if any(len(b) != 1 for a in domain.algebra.atoms for b in domain.blocks(a)):
        raise ValueError("kernel recovery needs the discrete sigma-algebra")
    if not mu.is_probability():
        raise ValueError("kernel recovery needs a probability measure")
    blocks = [frozenset((p,)) for p in space.points]
    return Kernel(domain.cspace, SetRing(blocks), mu.block_mass)


class SubAlgebra:
    """A coarsening of the measure algebra into blocks of atoms.

    Each block becomes one atom of the quotient algebra, labeled by the
    joined member ids, with the summed weight.
    """

    __slots__ = ("algebra", "blocks", "labels", "quotient", "_label_of")

    def __init__(self, algebra: MeasureAlgebra, blocks: Sequence[Iterable[str]]):
        # checked first: sorting needs known atoms and a first atom per block
        events = [frozenset(b) for b in blocks]
        if not all(events):
            raise ValueError("sub-algebra blocks must be nonempty")
        if not algebra.is_partition(events):
            raise ValueError("sub-algebra blocks must partition the atoms")
        blocks = sorted((tuple(sorted(ev, key=algebra.index)) for ev in events), key=lambda b: algebra.index(b[0]))
        self.algebra = algebra
        self.blocks = tuple(frozenset(b) for b in blocks)
        self.labels = tuple("+".join(b) for b in blocks)
        self.quotient = MeasureAlgebra(
            [(label, sum((algebra.weights[a] for a in block), Fraction(0)))
             for label, block in zip(self.labels, self.blocks)]
        )
        self._label_of = algebra.paste(self.labels, self.blocks)

    def spread_to_atoms(self, g: Field) -> Field:
        """Copy a quotient-level field back onto the original atoms."""
        return Field(self.algebra, {a: g[self._label_of[a]] for a in self.algebra.atoms})


def conditional_distribution(sub: SubAlgebra, xi: PointFun, space: GroundSpace) -> StableMeasure:
    """The distribution of an observation conditioned on a sub-algebra.

    Over each quotient atom the mass of a ground point is the joint
    probability of observing it, renormalized by the block weight; the
    domain is the discrete sigma-algebra over the quotient atoms.
    """
    algebra = sub.algebra
    for a in algebra.atoms:
        if xi[a] not in space.point_set:
            raise ValueError(f"observation {xi[a]!r} at atom {a!r} is not a ground point")
    domain = StableSigmaAlgebra.discrete(CondSpace(sub.quotient, space))
    table: dict[str, dict[frozenset, ExtValue]] = {}
    for label, block in zip(sub.labels, sub.blocks):
        total = sub.quotient.weights[label]
        table[label] = {
            b: sum((algebra.weights[a] for a in block if xi[a] in b), Fraction(0)) / total
            for b in domain.blocks(label)
        }
    return StableMeasure(domain, table)


def conditional_expectation(sub: SubAlgebra, xi: PointFun, space: GroundSpace, f: Mapping) -> Field:
    """Expected value of f at the observation, given the sub-algebra.

    Returned over the quotient atoms; integrate the lifted function
    against the conditional distribution.
    """
    dist = conditional_distribution(sub, xi, space)
    return integrate(Integrand.from_point_map(dist.domain, f), dist)


def field_as_observation(h: Field) -> tuple[GroundSpace, dict]:
    """Repackage a finite scalar field as a ground space plus observation map.

    The points are the distinct values with themselves as coordinates;
    useful for conditioning on an already-computed scalar quantity.
    """
    if not h.is_finite():
        raise ValueError("only finite fields can be observed")
    values = sorted({h[a] for a in h.algebra.atoms})
    space = GroundSpace(tuple(values), {v: v for v in values})
    xi = {a: h[a] for a in h.algebra.atoms}
    return space, xi
