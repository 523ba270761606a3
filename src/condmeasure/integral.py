"""The stable integral: indicators, elementary functions, exact integration.

Integrands are measurable vector-valued functions given per atom and
per ground point by exact rationals.  The integral of a nonnegative
integrand is the supremum of the integrals of dominated elementary
functions.  In the finite model a measurable integrand is constant on
each block of the measure's domain, so that supremum is the block sum
of value times mass, with zero absorbing infinity; `integrate` computes
exactly that, keeping the positive and negative parts apart under the
usual finiteness requirement for signed integrands.  The canonical
level-set staircase (`integrate_nonneg`) and the dyadic staircase route
(`integrate_via_dyadic`) build the supremum itself and serve as oracles
for the block sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import Event, ExtValue, Field, ext_add, ext_mul, format_value
from .condsets import ConditionalSet, PointFun, cond_intersection, cond_union
from .measure import StableMeasure
from .sigma import StableSigmaAlgebra


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
            row = {p: Fraction(v) for p, v in values[a].items()}
            if set(row) != points:
                raise ValueError(f"integrand at atom {a!r} must cover every ground point")
            for b in sigma.blocks(a):
                if len({row[p] for p in b}) != 1:
                    raise ValueError(f"integrand not measurable: varies on a block at atom {a!r}")
            table[a] = row
        self.sigma = sigma
        self.values = table

    @classmethod
    def constant(cls, sigma: StableSigmaAlgebra, r) -> "Integrand":
        r = Fraction(r)
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
        return Integrand(
            self.sigma,
            {a: {p: op(row[p], other.values[a][p]) for p in row} for a, row in self.values.items()},
        )

    def __add__(self, other: "Integrand") -> "Integrand":
        return self._zip(other, lambda x, y: x + y)

    def __sub__(self, other: "Integrand") -> "Integrand":
        return self._zip(other, lambda x, y: x - y)

    def __mul__(self, other: "Integrand | Field | Fraction | int") -> "Integrand":
        if isinstance(other, Integrand):
            return self._zip(other, lambda x, y: x * y)
        if isinstance(other, Field):
            if not other.is_finite():
                raise ValueError("integrands scale by finite fields only")
            return Integrand(
                self.sigma,
                {a: {p: v * other[a] for p, v in row.items()} for a, row in self.values.items()},
            )
        r = Fraction(other)
        return Integrand(self.sigma, {a: {p: v * r for p, v in row.items()} for a, row in self.values.items()})

    __rmul__ = __mul__

    def max2(self, other: "Integrand") -> "Integrand":
        return self._zip(other, max)

    def min2(self, other: "Integrand") -> "Integrand":
        return self._zip(other, min)

    def pos_part(self) -> "Integrand":
        return Integrand(self.sigma, {a: {p: max(v, Fraction(0)) for p, v in row.items()} for a, row in self.values.items()})

    def neg_part(self) -> "Integrand":
        return Integrand(self.sigma, {a: {p: max(-v, Fraction(0)) for p, v in row.items()} for a, row in self.values.items()})

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

    def level_at_least(self, r: Fraction) -> ConditionalSet:
        """The conditional set where the value is at least r."""
        fibers = {}
        for a, row in self.values.items():
            f = frozenset(p for p, v in row.items() if v >= r)
            if f:
                fibers[a] = f
        return ConditionalSet(fibers.keys(), fibers)

    def level_below(self, r: Fraction) -> ConditionalSet:
        fibers = {}
        for a, row in self.values.items():
            f = frozenset(p for p, v in row.items() if v < r)
            if f:
                fibers[a] = f
        return ConditionalSet(fibers.keys(), fibers)

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
        values[a] = {p: Fraction(1 if p in fiber else 0) for p in sigma.space.points}
    return Integrand(sigma, values)


def concatenate_integrands(fs: Sequence[Integrand], partition: Sequence[Event]) -> Integrand:
    """Paste one integrand per partition block."""
    if not fs:
        raise ValueError("nothing to concatenate")
    sigma = fs[0].sigma
    algebra = sigma.algebra
    if len(fs) != len(partition):
        raise ValueError("one integrand per partition block required")
    if not algebra.is_partition(partition):
        raise ValueError("not a partition")
    values: dict[str, Mapping] = {}
    for f, ev in zip(fs, partition):
        if f.sigma != sigma:
            raise ValueError("integrands measurable against different sigma-algebras")
        for a in ev:
            values[a] = f.values[a]
    return Integrand(sigma, values)


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


def canonical_elementary(f: Integrand) -> ElementaryFunction:
    """Level-set form: one cell per attained value, coefficients per atom.

    For each cell the coefficient field carries the actual value of f
    on that cell's fiber at each supported atom (zero elsewhere), so
    the staircase reproduces f exactly.
    """
    if not f.is_nonnegative():
        raise ValueError("canonical elementary form needs a nonnegative integrand")
    algebra = f.sigma.algebra
    by_value: dict[Fraction, dict[str, set]] = {}
    for a, row in f.values.items():
        for p, v in row.items():
            by_value.setdefault(v, {}).setdefault(a, set()).add(p)
    terms = []
    for v in sorted(by_value):
        fibers = by_value[v]
        cell = ConditionalSet(fibers.keys(), fibers)
        coef = Field(algebra, {a: (v if a in fibers else Fraction(0)) for a in algebra.atoms})
        terms.append((coef, cell))
    return ElementaryFunction(f.sigma, terms)


def dyadic_approximation(f: Integrand, n: int) -> ElementaryFunction:
    """The n-th dyadic staircase under f: steps of height 2^-n, capped at n."""
    if n < 1:
        raise ValueError("dyadic level must be at least 1")
    if not f.is_nonnegative():
        raise ValueError("dyadic approximation needs a nonnegative integrand")
    algebra = f.sigma.algebra
    step = Fraction(1, 2**n)
    terms = []
    for k in range(n * 2**n):
        cell = cond_intersection([f.level_at_least(k * step), f.level_below((k + 1) * step)])
        if not cell.is_bottom:
            terms.append((Field.constant(algebra, k * step), cell))
    top_cell = f.level_at_least(Fraction(n))
    if not top_cell.is_bottom:
        terms.append((Field.constant(algebra, Fraction(n)), top_cell))
    return ElementaryFunction(f.sigma, terms)


def integrate_nonneg(f: Integrand, mu: StableMeasure) -> Field:
    """Supremum of elementary integrals under f, exact via the canonical form.

    Not on the production path: it checks the block sum of `integrate`.
    """
    if not f.is_nonnegative():
        raise ValueError("integrate_nonneg needs a nonnegative integrand")
    return elementary_integral(canonical_elementary(f), mu)


def integrate_via_dyadic(f: Integrand, mu: StableMeasure, *, max_level: int = 64) -> Field:
    """The dyadic route to the same supremum.

    Raises the staircase level until each cell carries one value of f
    per atom; past that point the cells are frozen and the coefficient
    suprema are the values themselves, so the limit integral is exact.
    """
    if not f.is_nonnegative():
        raise ValueError("dyadic integration needs a nonnegative integrand")
    for n in range(1, max_level + 1):
        staircase = dyadic_approximation(f, n)
        if all(
            len({f.values[a][p] for p in cell.fibers[a]}) == 1
            for _, cell in staircase.terms
            for a in cell.support
        ):
            exact_terms = []
            for _, cell in staircase.terms:
                coef = Field(
                    f.sigma.algebra,
                    {
                        a: (f.values[a][next(iter(cell.fibers[a]))] if a in cell.support else Fraction(0))
                        for a in f.sigma.algebra.atoms
                    },
                )
                exact_terms.append((coef, cell))
            return elementary_integral(ElementaryFunction(f.sigma, exact_terms), mu)
    raise ValueError("dyadic cells failed to separate the integrand values")


def _not_measurable(f: Integrand, mu: StableMeasure) -> ValueError:
    """The error the level-set route raises on an integrand mu cannot measure.

    It names the first level cell, of the positive part and then of the
    negative part, that the measure's domain does not contain.
    """
    for part in (f.pos_part(), f.neg_part()):
        for _, cell in canonical_elementary(part).terms:
            if not mu.domain.contains(cell):
                return ValueError(f"not measurable: {cell!r}")
    return ValueError("not measurable: the measure's domain covers other ground points")


def integrate(f: Integrand, mu: StableMeasure) -> Field:
    """Integral of a measurable integrand against a stable measure.

    The block sum: at each atom, the value of f on each block of the
    measure's domain times the block's mass, with zero absorbing
    infinity.  That is the supremum of the dominated elementary
    integrals, which `integrate_nonneg` and `integrate_via_dyadic`
    build as oracles.  The domain must cover every ground point and f
    must be constant on its blocks.  Nonnegative integrands may
    integrate to infinity; genuinely signed ones must have both part
    integrals finite, otherwise the integrand is not integrable.
    """
    algebra = f.sigma.algebra
    if mu.algebra.atoms != algebra.atoms:
        raise ValueError("fields over different algebras")
    signed = False
    pos: dict[str, ExtValue] = {}
    neg: dict[str, ExtValue] = {}
    for a in algebra.atoms:
        row = f.values[a]
        if mu.domain.ring_at(a).covered != row.keys():
            raise _not_measurable(f, mu)
        up: ExtValue = Fraction(0)
        down: ExtValue = Fraction(0)
        for block, m in mu.block_mass[a].items():
            points = iter(block)
            v = row[next(points)]
            if any(row[p] != v for p in points):
                raise _not_measurable(f, mu)
            if v > 0:
                up = ext_add(up, ext_mul(v, m))
            elif v < 0:
                signed = True
                down = ext_add(down, ext_mul(-v, m))
        pos[a] = up
        neg[a] = down
    positive = Field(algebra, pos)
    if not signed:
        return positive
    negative = Field(algebra, neg)
    if not (positive.is_finite() and negative.is_finite()):
        raise ValueError("not integrable: a signed part has infinite integral")
    return positive - negative
