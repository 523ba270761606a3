"""Finite measure algebras with exact rational weights.

The ambient object everywhere in this package is a finite probability
algebra: a fixed tuple of atoms, each carrying a positive rational
weight, with the weights summing to one.  Events are plain frozensets
of atom ids.  Numeric results are reported atom by atom as `Field`
vectors whose entries are exact rationals, optionally extended with a
single positive infinity for unbounded measures.

Values enter the package through one coercion, `exact`: an `int` (not
a `bool`) becomes a `Fraction`, a `Fraction` is kept as it is, and INF
is kept where a value may be infinite.  Anything else, a float (even a
whole one), a `bool` or a string, raises an `ExactValueError`, a
`ValueError` that names the place and the value.  Every validating
public constructor calls it: `MeasureAlgebra` weights, `Field` values
and scale factors, `GroundSpace` coordinates, `StableMeasure` masses,
point masses and scale factors, `Integrand` values, constants and scale
factors, and the rows of `product.StableMarkovKernel`.  So every stored
value is a `Fraction` or INF, and no reader converts it again.

`Field(algebra, values)` validates its input: it needs a value for
every atom.  Field arithmetic (`+`, `-`, `*`) and `StableMeasure.eval`
build their results through the trusted `Field._of`, which takes the
values as a tuple already in atom order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence


class _Infinity:
    """The single positive infinity used by extended-valued measures."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("condmeasure-infinity")

    def __lt__(self, other: object) -> bool:
        if other is self or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other is self:
            return False
        if isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other is self or isinstance(other, (int, Fraction)):
            return True
        return NotImplemented


INF = _Infinity()

#: Values taken by extended nonnegative quantities: exact rationals or INF.
ExtValue = Fraction | _Infinity


def is_finite(v: ExtValue) -> bool:
    return v is not INF


def ext_add(a: ExtValue, b: ExtValue) -> ExtValue:
    if a is INF or b is INF:
        return INF
    return a + b


def ext_sub(a: ExtValue, b: ExtValue) -> ExtValue:
    """Subtraction with the usual guard: the subtrahend must be finite."""
    if b is INF:
        raise ValueError("undefined extended difference: subtrahend is infinite")
    if a is INF:
        return INF
    return a - b


def ext_mul(a: ExtValue, b: ExtValue) -> ExtValue:
    """The extended product of rationals (`Fraction` or `int`) and INF.

    A finite product is one `Fraction` of the integer products, reduced
    by one gcd.  Zero absorbs infinity, so 0 * inf = 0; a negative times
    infinity is undefined.
    """
    if a is INF or b is INF:
        x = b if a is INF else a
        if x is INF:
            return INF
        if not x.numerator:
            return Fraction(0)
        if x.numerator < 0:
            raise ValueError("undefined extended product: negative times infinity")
        return INF
    return Fraction(a.numerator * b.numerator, a.denominator * b.denominator)


class Ratio:
    """An unreduced term ``numerator / denominator`` for `ext_sum`, with a
    positive denominator: a product of two rationals summed without
    building, and reducing, its `Fraction`."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


def ext_sum(values: Iterable[ExtValue | int | Ratio]) -> ExtValue:
    """The extended sum of rationals (`Fraction`, `int` or `Ratio`) and INF:
    one `Fraction`, or INF.

    The one exact accumulator of the package: it sums integer numerators
    over the running least common denominator, reading each finite term
    by its ``numerator`` and ``denominator`` only.  A term whose
    denominator divides it is scaled up by one division; any other
    denominator costs one gcd, and the numerator so far is rescaled to
    the new common multiple.  An INF flag absorbs every finite term;
    otherwise one `Fraction` is built at the end.
    """
    num, den, inf = 0, 1, False
    for v in values:
        if v is INF:
            inf = True
            continue
        d = v.denominator
        if d == den:
            num += v.numerator
        elif not den % d:
            num += v.numerator * (den // d)
        else:
            g = gcd(den, d)
            num = num * (d // g) + v.numerator * (den // g)
            den = den // g * d
    return INF if inf else Fraction(num, den)


class ExactValueError(ValueError, TypeError):
    """A value that is not an `int`, a `Fraction` or, where allowed, INF.

    A `ValueError` like every other rejected input; also a `TypeError`,
    which is what a non-number given to an operator raises.
    """


def exact(v: object, where: str, *args: object, infinite: bool = False) -> ExtValue:
    """The one way a value enters the package: an `int` that is not a
    `bool` becomes a `Fraction`, a `Fraction` is kept as it is, and INF
    is kept when ``infinite`` allows it.

    Anything else raises an `ExactValueError` naming the place and the
    value.  The place is ``where.format(*args)``, built only then.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and type(v) is not bool:
        return Fraction(v)
    if infinite and v is INF:
        return v
    kinds = "an int, a Fraction or inf" if infinite else "an int or a Fraction"
    raise ExactValueError(f"{where.format(*args)}: expected {kinds}, got {v!r}")


def format_value(v: ExtValue) -> str:
    """Render a value the way scenario files spell it: 'p/q' or 'inf'."""
    if v is INF:
        return "inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_value(text: str) -> ExtValue:
    if text.strip() == "inf":
        return INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


Event = frozenset  # events are frozensets of atom ids


class MeasureAlgebra:
    """A finite probability algebra: ordered atoms with rational weights.

    The atom order is fixed at construction and drives every piece of
    deterministic output downstream (field rendering, reports, random
    case generation).
    """

    __slots__ = ("atoms", "weights", "_index")

    def __init__(self, weights: Mapping[str, Fraction] | Sequence[tuple[str, Fraction]]):
        items = list(weights.items()) if isinstance(weights, Mapping) else list(weights)
        if not items:
            raise ValueError("a measure algebra needs at least one atom")
        atoms = tuple(a for a, _ in items)
        if len(set(atoms)) != len(atoms):
            raise ValueError("duplicate atom ids")
        w = {}
        for a, p in items:
            p = exact(p, "weight of atom {!r}", a)
            if p <= 0:
                raise ValueError(f"atom {a!r} has non-positive weight {p}")
            w[a] = p
        if sum(w.values()) != 1:
            raise ValueError("atom weights must sum to 1 exactly")
        self.atoms = atoms
        self.weights = w
        self._index = {a: i for i, a in enumerate(atoms)}

    @classmethod
    def uniform(cls, atoms: Sequence[str]) -> "MeasureAlgebra":
        n = len(atoms)
        return cls([(a, Fraction(1, n)) for a in atoms])

    def __repr__(self) -> str:
        parts = ", ".join(f"{a}:{format_value(self.weights[a])}" for a in self.atoms)
        return f"MeasureAlgebra({parts})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasureAlgebra):
            return NotImplemented
        return self.atoms == other.atoms and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.atoms, tuple(self.weights[a] for a in self.atoms)))

    def index(self, atom: str) -> int:
        return self._index[atom]

    def event(self, atoms: Iterable[str]) -> Event:
        ev = frozenset(atoms)
        unknown = ev - set(self.atoms)
        if unknown:
            raise ValueError(f"unknown atoms in event: {sorted(unknown)}")
        return ev

    @property
    def top(self) -> Event:
        return frozenset(self.atoms)

    def complement_event(self, event: Event) -> Event:
        return self.top - self.event(event)

    def largest_event(self, pred: Callable[[Event], bool]) -> Event:
        """Largest event satisfying an atom-local, union-closed predicate.

        In a finite atomic algebra the supremum of all satisfying events
        is the union of the satisfying singletons.  The verification
        suites check that contract against all 2^n events.
        """
        return frozenset(a for a in self.atoms if pred(frozenset((a,))))

    def is_partition(self, events: Sequence[Event]) -> bool:
        seen: set[str] = set()
        for ev in events:
            ev = self.event(ev)
            if seen & ev:
                return False
            seen |= ev
        return seen == set(self.atoms)

    def paste(self, pieces: Sequence, partition: Sequence[Event]) -> dict:
        """The pasting rule of every concatenation (of sets, fields and
        integrands) and of `kernels.SubAlgebra`: each atom gets the piece
        of the partition event that holds it.  Needs one piece per event,
        and events that partition the atoms."""
        if len(pieces) != len(partition):
            raise ValueError("concatenate: one piece per partition block required")
        if not self.is_partition(partition):
            raise ValueError("not a partition")
        return {a: piece for piece, ev in zip(pieces, partition) for a in ev}

    def concatenate_field(self, fields: Sequence["Field"], partition: Sequence[Event]) -> "Field":
        """Paste one field value per partition block into a single field."""
        piece_of = self.paste(fields, partition)
        if any(f.algebra is not self and f.algebra != self for f in fields):
            raise ValueError("field belongs to a different algebra")
        return Field._of(self, tuple(piece_of[a][a] for a in self.atoms))

class Field:
    """An atom-indexed vector of exact values.

    Finite instances play the role of scalar results (one rational per
    atom); measures and integrals of nonnegative integrands may also
    take the value INF on some atoms.
    """

    __slots__ = ("algebra", "_values")

    def __init__(self, algebra: MeasureAlgebra, values: Mapping[str, ExtValue]):
        if set(values) != set(algebra.atoms):
            raise ValueError("field must assign a value to every atom")
        self.algebra = algebra
        self._values = tuple(exact(values[a], "field value at atom {!r}", a, infinite=True) for a in algebra.atoms)

    @classmethod
    def _of(cls, algebra: MeasureAlgebra, values: tuple) -> "Field":
        """Trusted constructor: one value per atom, in the algebra's atom order."""
        out = object.__new__(cls)
        out.algebra = algebra
        out._values = values
        return out

    @classmethod
    def constant(cls, algebra: MeasureAlgebra, v: ExtValue) -> "Field":
        return cls(algebra, {a: v for a in algebra.atoms})

    @classmethod
    def zero(cls, algebra: MeasureAlgebra) -> "Field":
        return cls.constant(algebra, Fraction(0))

    def __getitem__(self, atom: str) -> ExtValue:
        return self._values[self.algebra.index(atom)]

    def as_dict(self) -> dict[str, ExtValue]:
        return {a: v for a, v in zip(self.algebra.atoms, self._values)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.algebra.atoms == other.algebra.atoms and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.algebra.atoms, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={format_value(v)}" for a, v in zip(self.algebra.atoms, self._values))
        return f"Field({inner})"

    def map2(self, other: "Field", op: Callable[[ExtValue, ExtValue], ExtValue]) -> "Field":
        if self.algebra.atoms != other.algebra.atoms:
            raise ValueError("fields over different algebras")
        return Field._of(self.algebra, tuple(map(op, self._values, other._values)))

    def __add__(self, other: "Field") -> "Field":
        return self.map2(other, ext_add)

    def __sub__(self, other: "Field") -> "Field":
        return self.map2(other, ext_sub)

    def __mul__(self, other: "Field | ExtValue | int") -> "Field":
        if isinstance(other, Field):
            return self.map2(other, ext_mul)
        from .integral import Integrand  # integral imports this module
        if isinstance(other, Integrand):
            # an integrand scales itself by a field: `Integrand.__rmul__`
            return NotImplemented
        r = exact(other, "field scale factor", infinite=True)
        return Field._of(self.algebra, tuple(ext_mul(v, r) for v in self._values))

    __rmul__ = __mul__

    def le(self, other: "Field") -> bool:
        """Pointwise comparison: self <= other at every atom."""
        if self.algebra.atoms != other.algebra.atoms:
            raise ValueError("fields over different algebras")
        return all(x <= y for x, y in zip(self._values, other._values))

    def is_finite(self) -> bool:
        return all(v is not INF for v in self._values)

    def restrict(self, event: Event) -> "Field":
        """Keep the value on the event, zero elsewhere."""
        ev = self.algebra.event(event)
        return Field(self.algebra, {a: (v if a in ev else Fraction(0)) for a, v in zip(self.algebra.atoms, self._values)})

    def support(self) -> Event:
        return frozenset(a for a, v in zip(self.algebra.atoms, self._values) if v != 0)

    def total(self) -> ExtValue:
        return ext_sum(self._values)

    def format(self) -> str:
        return ", ".join(f"{a}={format_value(v)}" for a, v in zip(self.algebra.atoms, self._values))

