"""The stable integral: indicators, elementary functions, exact integration.

Integrands are measurable vector-valued functions given per atom and
per ground point by exact rationals.  The integral of a nonnegative
integrand is the supremum of the integrals of dominated elementary
functions.  In the finite model a measurable integrand is constant on
each block of the measure's domain, so that supremum is the block sum
of value times mass, with zero absorbing infinity; `integrate` computes
exactly that, under the usual finiteness requirement for signed
integrands.  The elementary integral of the canonical level-set
staircase (`canonical_elementary`) and the dyadic staircase route
(`integrate_via_dyadic`) build the supremum itself and serve as oracles
for the block sum; both staircases and `_not_measurable` take their
level cells from `_level_cells`.

`integrate` keeps one signed term list per atom and sums it with
`algebra.ext_sum`, the package's one exact accumulator.  A finite term
is the unreduced product of value and mass, an `algebra.Ratio`, so no
`Fraction` is built per block; an infinite mass under a nonzero value
is the term INF.

`Integrand(sigma, values)` validates its input: a value for every atom
and ground point, read through `algebra.exact` (an `int` or a
`Fraction`, stored as a `Fraction`; a float, a `bool` or a string is a
named error), constant on each block of ``sigma`` (each point is
compared with its block's first).  `Integrand.constant` and scaling by
a number read their value the same way.  Integrand arithmetic (`+`,
`-`, `*`, `max2`, `min2`, `pos_part`, `neg_part`), `indicator` and
`concatenate_integrands` build their results through the trusted
`Integrand._of`: pointwise operations on block-constant rows are
block-constant, an indicator of a member of ``sigma`` is constant on
its blocks, and rows pasted by `MeasureAlgebra.paste` keep theirs.  A
product with an indicator selects values instead of multiplying them
(`_times`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import INF, Event, ExtValue, Field, Ratio, exact, ext_sum, format_value
from .condsets import ConditionalSet, PointFun, cond_intersection, cond_union
from .measure import StableMeasure
from .sigma import StableSigmaAlgebra


_ZERO, _ONE = Fraction(0), Fraction(1)


def _scaled(row: Mapping, r: Fraction) -> dict:
    return {p: v * r for p, v in row.items()}


def _block_value(row: Mapping, block: frozenset) -> Fraction | None:
    """The one value ``row`` takes on ``block``, or None when it varies:
    each point is compared with the block's first."""
    points = iter(block)
    v = row[next(points)]
    for p in points:
        w = row[p]
        if w is not v and w != v:
            return None
    return v


def _times(x: Fraction, y: Fraction) -> Fraction:
    """``x * y``, reading the shared ``_ONE`` and ``_ZERO`` of `indicator`
    as a selection instead of a `Fraction` product."""
    if y is _ONE:
        return x
    if y is _ZERO:
        return _ZERO
    return x * y


class Integrand:
    """A measurable function into scalars: one rational per atom and point.

    Carries the sigma-algebra it is measurable against; the values must
    be constant on each of that algebra's blocks.
    """

    __slots__ = ("sigma", "values")

    def __init__(self, sigma: StableSigmaAlgebra, values: Mapping[str, Mapping]):
        atoms = sigma.algebra.atoms
        points = sigma.space.point_set
        if set(values) != set(atoms):
            raise ValueError("integrand must assign values on every atom")
        table: dict[str, dict] = {}
        for a in atoms:
            row = {p: exact(v, "integrand value at atom {!r}, point {!r}", a, p) for p, v in values[a].items()}
            if row.keys() != points:
                raise ValueError(f"integrand at atom {a!r} must cover every ground point")
            for b in sigma.blocks(a):
                if _block_value(row, b) is None:
                    raise ValueError(f"integrand not measurable: varies on a block at atom {a!r}")
            table[a] = row
        self.sigma = sigma
        self.values = table

    @classmethod
    def _of(cls, sigma: StableSigmaAlgebra, table: dict[str, dict]) -> "Integrand":
        """Trusted constructor: ``table`` holds one row of rationals per atom,
        in atom order, covering every ground point and constant on blocks."""
        out = object.__new__(cls)
        out.sigma = sigma
        out.values = table
        return out

    @classmethod
    def constant(cls, sigma: StableSigmaAlgebra, r) -> "Integrand":
        r = exact(r, "integrand constant")
        return cls(sigma, {a: {p: r for p in sigma.space.points} for a in sigma.algebra.atoms})

    @classmethod
    def from_point_map(cls, sigma: StableSigmaAlgebra, m: Mapping) -> "Integrand":
        """The same classical function on every atom."""
        return cls(sigma, {a: m for a in sigma.algebra.atoms})

    def value(self, atom: str, point) -> Fraction:
        return self.values[atom][point]

    def at(self, x: PointFun) -> Field:
        """Evaluate along a point choice, one scalar per atom."""
        return Field(self.sigma.algebra, {a: self.values[a][x[a]] for a in self.sigma.algebra.atoms})

    def _zip(self, other: "Integrand", op: Callable) -> "Integrand":
        if self.sigma != other.sigma:
            raise ValueError("integrands measurable against different sigma-algebras")
        table = {}
        for a, row in self.values.items():
            theirs = other.values[a]
            table[a] = {p: op(v, theirs[p]) for p, v in row.items()}
        return Integrand._of(self.sigma, table)

    def __add__(self, other: "Integrand") -> "Integrand":
        return self._zip(other, lambda x, y: x + y)

    def __sub__(self, other: "Integrand") -> "Integrand":
        return self._zip(other, lambda x, y: x - y)

    def __mul__(self, other: "Integrand | Field | Fraction | int") -> "Integrand":
        if isinstance(other, Integrand):
            return self._zip(other, _times)
        if isinstance(other, Field):
            if not other.is_finite():
                raise ValueError("integrands scale by finite fields only")
            return Integrand._of(self.sigma, {a: _scaled(row, other[a]) for a, row in self.values.items()})
        r = exact(other, "integrand scale factor")
        return Integrand._of(self.sigma, {a: _scaled(row, r) for a, row in self.values.items()})

    def __rmul__(self, other: "Field | Fraction | int") -> "Integrand":
        return self * other

    def max2(self, other: "Integrand") -> "Integrand":
        return self._zip(other, max)

    def min2(self, other: "Integrand") -> "Integrand":
        return self._zip(other, min)

    def pos_part(self) -> "Integrand":
        return Integrand._of(self.sigma, {a: {p: max(v, _ZERO) for p, v in row.items()} for a, row in self.values.items()})

    def neg_part(self) -> "Integrand":
        return Integrand._of(self.sigma, {a: {p: max(-v, _ZERO) for p, v in row.items()} for a, row in self.values.items()})

    def le(self, other: "Integrand") -> bool:
        if self.sigma != other.sigma:
            raise ValueError("integrands measurable against different sigma-algebras")
        return all(
            row[p] <= other.values[a][p] for a, row in self.values.items() for p in row
        )

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.values.values() for v in row.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Integrand):
            return NotImplemented
        return self.sigma == other.sigma and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.sigma, tuple(sorted((a, tuple(sorted(row.items(), key=repr))) for a, row in self.values.items()))))

    def distinct_values(self) -> list[Fraction]:
        return sorted({v for row in self.values.values() for v in row.values()})

    def __repr__(self) -> str:
        atoms = self.sigma.algebra.atoms
        inner = "; ".join(
            f"{a}:" + ",".join(f"{p}->{format_value(self.values[a][p])}" for p in self.sigma.space.points)
            for a in atoms
        )
        return f"Integrand({inner})"


def indicator(v: ConditionalSet, sigma: StableSigmaAlgebra) -> Integrand:
    """The indicator integrand of a measurable conditional set."""
    if not sigma.contains(v):
        raise ValueError(f"not measurable: {v!r}")
    values = {}
    for a in sigma.algebra.atoms:
        fiber = v.fibers.get(a, frozenset())
        values[a] = {p: _ONE if p in fiber else _ZERO for p in sigma.space.points}
    return Integrand._of(sigma, values)


def concatenate_integrands(fs: Sequence[Integrand], partition: Sequence[Event]) -> Integrand:
    """Paste one integrand per partition block."""
    if not fs:
        raise ValueError("nothing to concatenate")
    sigma = fs[0].sigma
    piece_of = sigma.algebra.paste(fs, partition)
    if any(f.sigma != sigma for f in fs):
        raise ValueError("integrands measurable against different sigma-algebras")
    return Integrand._of(sigma, {a: piece_of[a].values[a] for a in sigma.algebra.atoms})


class ElementaryFunction:
    """A nonnegative staircase: coefficient fields on disjoint cells covering everything."""

    __slots__ = ("sigma", "terms")

    def __init__(self, sigma: StableSigmaAlgebra, terms: Iterable[tuple[Field, ConditionalSet]]):
        terms = tuple((coef, cell) for coef, cell in terms)
        for coef, cell in terms:
            if not coef.is_finite() or any(coef[a] < 0 for a in sigma.algebra.atoms):
                raise ValueError("elementary coefficients must be finite and nonnegative")
            if not sigma.contains(cell):
                raise ValueError(f"not measurable: {cell!r}")
        cells = [cell for _, cell in terms if not cell.is_bottom]
        for i, c in enumerate(cells):
            for d in cells[i + 1 :]:
                if not cond_intersection([c, d]).is_bottom:
                    raise ValueError("elementary cells must be pairwise disjoint")
        if cells and cond_union(cells) != sigma.cspace.top:
            raise ValueError("elementary cells must cover the whole space")
        if not cells:
            raise ValueError("an elementary function needs at least one nonbottom cell")
        self.sigma = sigma
        self.terms = terms

    def as_integrand(self) -> Integrand:
        values: dict[str, dict] = {a: {} for a in self.sigma.algebra.atoms}
        for coef, cell in self.terms:
            for a in cell.support:
                for p in cell.fibers[a]:
                    values[a][p] = coef[a]
        return Integrand(self.sigma, values)

    def __repr__(self) -> str:
        inner = " + ".join(f"({coef.format()})*1[{cell!r}]" for coef, cell in self.terms)
        return f"ElementaryFunction({inner})"


def elementary_integral(phi: ElementaryFunction, mu: StableMeasure) -> Field:
    """Sum of coefficient times cell mass, with zero absorbing infinity."""
    total = Field.zero(phi.sigma.algebra)
    for coef, cell in phi.terms:
        total = total + coef * mu.eval(cell)
    return total


def _level_cells(f: Integrand, level: Callable[[Fraction], Fraction]) -> list[tuple[Fraction, ConditionalSet]]:
    """The nonempty level cells of f, in increasing order of level: the
    cell of a level holds, at each atom, the points whose value has it."""
    cells: dict[Fraction, dict[str, set]] = {}
    for a, row in f.values.items():
        for p, v in row.items():
            cells.setdefault(level(v), {}).setdefault(a, set()).add(p)
    return [(lv, ConditionalSet(fibers.keys(), fibers)) for lv, fibers in sorted(cells.items())]


def _cell_values(f: Integrand, cell: ConditionalSet) -> Field:
    """The coefficient of a cell on which f is constant at each atom: that
    value at each supported atom, zero elsewhere."""
    fibers = cell.fibers
    values = {a: f.values[a][next(iter(fibers[a]))] if a in fibers else _ZERO for a in f.sigma.algebra.atoms}
    return Field(f.sigma.algebra, values)


def canonical_elementary(f: Integrand) -> ElementaryFunction:
    """Level-set form: one cell per attained value, coefficients per atom.

    For each cell the coefficient field carries the actual value of f
    on that cell's fiber at each supported atom (zero elsewhere), so
    the staircase reproduces f exactly.
    """
    if not f.is_nonnegative():
        raise ValueError("canonical elementary form needs a nonnegative integrand")
    return ElementaryFunction(f.sigma, [(_cell_values(f, cell), cell) for _, cell in _level_cells(f, lambda v: v)])


def dyadic_approximation(f: Integrand, n: int) -> ElementaryFunction:
    """The n-th dyadic staircase under f: steps of height 2^-n, capped at n.

    Each value v goes to the cell of its level: floor(v * 2^n) / 2^n
    below n, and n itself from n up.  Only the nonempty cells are
    built, in increasing order of level.
    """
    if n < 1:
        raise ValueError("dyadic level must be at least 1")
    if not f.is_nonnegative():
        raise ValueError("dyadic approximation needs a nonnegative integrand")
    scale = 2**n
    cells = _level_cells(f, lambda v: Fraction(n) if v >= n else Fraction(math.floor(v * scale), scale))
    return ElementaryFunction(f.sigma, [(Field.constant(f.sigma.algebra, level), cell) for level, cell in cells])


#: The deepest staircase level `integrate_via_dyadic` tries.
_DYADIC_LEVELS = 64


def integrate_via_dyadic(f: Integrand, mu: StableMeasure) -> Field:
    """The dyadic route to the same supremum.

    Raises the staircase level until each cell carries one value of f
    per atom; past that point the cells are frozen and the coefficient
    suprema are the values themselves, so the limit integral is exact.
    """
    if not f.is_nonnegative():
        raise ValueError("dyadic integration needs a nonnegative integrand")
    for n in range(1, _DYADIC_LEVELS + 1):
        staircase = dyadic_approximation(f, n)
        if all(
            len({f.values[a][p] for p in cell.fibers[a]}) == 1
            for _, cell in staircase.terms
            for a in cell.support
        ):
            exact = ElementaryFunction(f.sigma, [(_cell_values(f, cell), cell) for _, cell in staircase.terms])
            return elementary_integral(exact, mu)
    raise ValueError("dyadic cells failed to separate the integrand values")


def _not_measurable(f: Integrand, mu: StableMeasure) -> ValueError:
    """The error the level-set route raises on an integrand mu cannot measure.

    It names the first level cell, of the positive part and then of the
    negative part, that the measure's domain does not contain.
    """
    for level in (lambda v: max(v, _ZERO), lambda v: max(-v, _ZERO)):
        for _, cell in _level_cells(f, level):
            if not mu.domain.contains(cell):
                return ValueError(f"not measurable: {cell!r}")
    return ValueError("not measurable: the measure's domain covers other ground points")


def integrate(f: Integrand, mu: StableMeasure) -> Field:
    """Integral of a measurable integrand against a stable measure.

    The block sum: at each atom, the value of f on each block of the
    measure's domain times the block's mass, with zero absorbing
    infinity.  That is the supremum of the dominated elementary
    integrals, which the canonical staircase (`canonical_elementary`)
    and `integrate_via_dyadic` build as oracles.  The domain must cover
    every ground point and f must be constant on its blocks.
    Nonnegative integrands may integrate to infinity; genuinely signed
    ones must have both part integrals finite, otherwise the integrand
    is not integrable.  Each atom's terms, positive and negative
    together, go to `ext_sum` as one list: an unreduced `Ratio` per
    finite term, or INF.  A signed integrand with an INF term anywhere
    has an infinite part, so the ``signed`` flag and the INF value
    decide integrability without summing the parts apart.
    """
    algebra = f.sigma.algebra
    if mu.algebra.atoms != algebra.atoms:
        raise ValueError("fields over different algebras")
    signed = False
    values: list[ExtValue] = []
    for a in algebra.atoms:
        row = f.values[a]
        if mu.domain.ring_at(a).covered != row.keys():
            raise _not_measurable(f, mu)
        terms = []
        for block, m in mu.block_mass[a].items():
            v = _block_value(row, block)
            if v is None:
                raise _not_measurable(f, mu)
            n = v.numerator
            if n < 0:
                signed = True
            elif not n:
                continue  # zero absorbs infinity
            terms.append(m if m is INF else Ratio(n * m.numerator, v.denominator * m.denominator))
        values.append(ext_sum(terms))
    if signed and any(x is INF for x in values):
        raise ValueError("not integrable: a signed part has infinite integral")
    return Field._of(algebra, tuple(values))
