"""Products of stable measures, iterated integrals and exact densities.

Product sigma-algebras carry rectangle blocks per atom; `product_sigma`
builds them through the trusted constructors, since rectangles of
disjoint factor blocks are disjoint and cover the product.  The paper
defines the product measure, and the joint law of a source measure
with a Markov kernel, by integrating section masses; in the finite
model that integral collapses on each rectangle block to the left
block mass times the right mass of the section, which is how both are
built here.  The section-mass integrand stays available as the
definition the closed form is checked against.  On top of that sit
the swap of iterated integrals, the positive set of a difference of
measures, exact density recovery with a full certificate, one
improvement step of the density-climbing argument, and the finite
representation of positive stable linear functionals as integrals.

`fubini` builds no section integrands: after the joint integral has
validated the integrand, each iterated integral is a block sum per
atom over one point of each factor block, inner then outer, on
integer numerators.  The joint integral measures the product on the
integrand's own sigma-algebra when that is already the rectangle
algebra of the factors, so a query that built that algebra for its
integrand does not build it again.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .algebra import Field, Ratio, exact, ext_mul, ext_sum
from .condsets import CondSpace, ConditionalSet, PointFun, product_space
from .integral import Integrand, concatenate_integrands, indicator, integrate
from .measure import StableMeasure, _fiber_mass
from .sigma import SetRing, StableSigmaAlgebra


def product_sigma(sx: StableSigmaAlgebra, sy: StableSigmaAlgebra) -> StableSigmaAlgebra:
    """Rectangle blocks: one block per pair of factor blocks, per atom.

    Rectangles of disjoint factor blocks are disjoint and cover the
    product, so the rings and the algebra are built trusted.  Each ring
    lists its blocks in `SetRing`'s order, by the sorted ``str`` of their
    points; that ``str`` is taken once per product point.
    """
    if sx.algebra != sy.algebra:
        raise ValueError("factors live over different measure algebras")
    pspace = CondSpace(sx.algebra, product_space(sx.space, sy.space))
    covered = pspace.space.point_set
    name = {pq: str(pq) for pq in pspace.space.points}.__getitem__
    per_atom = {}
    for a in sx.algebra.atoms:
        blocks = [frozenset(product(bx, by)) for bx in sx.blocks(a) for by in sy.blocks(a)]
        blocks.sort(key=lambda b: sorted(map(name, b)))
        per_atom[a] = SetRing._of(tuple(blocks), covered)
    return StableSigmaAlgebra._of(pspace, per_atom)


def _is_rectangle_algebra(sigma: StableSigmaAlgebra, sx: StableSigmaAlgebra, sy: StableSigmaAlgebra) -> bool:
    """Whether ``sigma`` is `product_sigma(sx, sy)`: the same algebra and
    product space, and at every atom one block per pair of factor blocks,
    each block exactly the rectangle ``bx x by`` of the blocks of its
    points."""
    algebra = sx.algebra
    if not (sigma.algebra == algebra == sy.algebra):
        return False
    if sigma.space.points != tuple(product(sx.space.points, sy.space.points)):
        return False
    return all(
        len(sigma.blocks(a)) == len(sx.blocks(a)) * len(sy.blocks(a))
        and all(b == frozenset(product(bx, by)) for b, bx, by in _block_pairs(sigma, sx, sy, a))
        for a in algebra.atoms
    )


def _block_pairs(psigma: StableSigmaAlgebra, sx: StableSigmaAlgebra, sy: StableSigmaAlgebra, a: str) -> Iterator:
    """Each block b of ``psigma`` at atom ``a`` with the pair (bx, by) of
    factor blocks that holds one of its points, read through point-to-block
    maps of the two factors."""
    left = {p: bx for bx in sx.blocks(a) for p in bx}
    right = {q: by for by in sy.blocks(a) for q in by}
    for b in psigma.blocks(a):
        p, q = next(iter(b))
        yield b, left[p], right[q]


def section_at(z: ConditionalSet, x: PointFun) -> ConditionalSet:
    """Slice of a product set along a left point choice, supported where nonempty."""
    fibers = {}
    for a in z.support:
        ys = frozenset(q for (p, q) in z.fibers[a] if p == x[a])
        if ys:
            fibers[a] = ys
    return ConditionalSet(fibers.keys(), fibers)


def section_mass_integrand(z: ConditionalSet, nu: StableMeasure, sx: StableSigmaAlgebra) -> Integrand:
    """The function x -> mass of the x-section under the right measure.

    Raises when the right measure cannot measure a section: one that cuts
    a block of its domain.
    """
    if not nu.is_finite():
        raise ValueError("section masses need a finite right factor")
    values: dict[str, dict] = {}
    for a in sx.algebra.atoms:
        masses, covered = nu.block_mass[a], nu.domain.ring_at(a).covered
        fiber = z.fibers.get(a, frozenset())
        row = values[a] = {}
        for p in sx.space.points:
            m = _fiber_mass(masses, covered, frozenset(q for (pp, q) in fiber if pp == p))
            if m is None:
                raise ValueError(f"not measurable: the section of {z!r} at {p!r} on atom {a!r}")
            row[p] = m
    return Integrand(sx, values)


def _rectangle_measure(
    mu: StableMeasure,
    psigma: StableSigmaAlgebra,
    sy: StableSigmaAlgebra,
    right_mass: Callable[[str, frozenset, frozenset], Fraction],
) -> StableMeasure:
    """Mass mu(bx) * right_mass(a, bx, by) on each block bx x by of
    ``psigma``, the rectangle algebra of mu's domain and ``sy``, per atom.

    Each block is read as its pair (bx, by) by `_block_pairs`, so no
    rectangle is built a second time.  The masses are products of
    validated finite masses, so the measure is built trusted.
    """
    table: dict[str, dict[frozenset, Fraction]] = {}
    for a in psigma.algebra.atoms:
        masses = mu.block_mass[a]
        table[a] = {
            b: ext_mul(masses[bx], right_mass(a, bx, by)) for b, bx, by in _block_pairs(psigma, mu.domain, sy, a)
        }
    return StableMeasure._of(psigma, table)


def _product_measure(mu: StableMeasure, nu: StableMeasure, sigma: StableSigmaAlgebra | None) -> StableMeasure:
    """`product_measure`, on ``sigma`` when that is already the rectangle
    algebra of the two factors, and on a new `product_sigma` otherwise."""
    sx, sy = mu.domain, nu.domain
    if not isinstance(sx, StableSigmaAlgebra) or not isinstance(sy, StableSigmaAlgebra):
        raise ValueError("product factors must live on sigma-algebras")
    if not (mu.is_finite() and nu.is_finite()):
        raise ValueError("product needs finite factors")
    if sigma is None or not _is_rectangle_algebra(sigma, sx, sy):
        sigma = product_sigma(sx, sy)
    return _rectangle_measure(mu, sigma, sy, lambda a, bx, by: nu.block_mass[a][by])


def product_measure(mu: StableMeasure, nu: StableMeasure) -> StableMeasure:
    """Product of two finite stable measures: mu(bx) * nu(by) on each rectangle.

    This is the integral of the section-mass integrand of the rectangle
    against mu, taken block by block.
    """
    return _product_measure(mu, nu, None)


def _mass_sum(terms: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """The sum of value times mass over finite (value, mass) pairs: one
    unreduced `Ratio` per nonzero value, summed by `ext_sum`."""
    return ext_sum(
        Ratio(v.numerator * m.numerator, v.denominator * m.denominator) for v, m in terms if v.numerator
    )


def fubini(f: Integrand, mu: StableMeasure, nu: StableMeasure) -> tuple[Field, Field, Field]:
    """Iterated-left, iterated-right and joint integrals of a product integrand.

    The joint integral runs first and validates f.  Its product measure
    lives on f's own sigma-algebra when that is already the rectangle
    algebra of the factors; otherwise `product_sigma` builds it.  The
    iterated integrals are then block sums on integer numerators
    (`_mass_sum`), inner then outer, over one point of each factor block.
    """
    joint = integrate(f, _product_measure(mu, nu, f.sigma))
    # The joint integral has proved that f covers every pair (p, q) and is
    # constant on every rectangle bx x by, so f(p, q) for one p in bx and
    # one q in by is its value on all of bx x by.  The integral of f(p, .)
    # against nu is then the same for every p in bx, and the integral of
    # f(., q) against mu the same for every q in by.  Both factors are
    # finite, so every sum below is an exact rational.
    left, right = [], []
    for a in mu.algebra.atoms:
        xmasses, ymasses = mu.block_mass[a], nu.block_mass[a]
        xs, ys = [next(iter(bx)) for bx in xmasses], [next(iter(by)) for by in ymasses]
        row = f.values[a]
        grid = [[row[(p, q)] for q in ys] for p in xs]
        xmass, ymass = list(xmasses.values()), list(ymasses.values())
        inner_left = [_mass_sum(zip(line, ymass)) for line in grid]
        inner_right = [_mass_sum(zip(column, xmass)) for column in zip(*grid)]
        left.append(_mass_sum(zip(inner_left, xmass)))
        right.append(_mass_sum(zip(inner_right, ymass)))
    return Field._of(mu.algebra, tuple(left)), Field._of(nu.algebra, tuple(right)), joint


class StableMarkovKernel:
    """A transition rule: per atom and left point, a probability row on the right points.

    Rows must be constant on the left factor's blocks and are stored
    pointwise on the right, so any right sigma-algebra refines them.
    """

    __slots__ = ("sx", "sy", "rows")

    def __init__(self, sx: StableSigmaAlgebra, sy: StableSigmaAlgebra, rows: Mapping[str, Mapping]):
        where = "kernel row at atom {!r}, point {!r}"
        table = {a: {p: {q: exact(v, where, a, p) for q, v in row.items()} for p, row in rows[a].items()} for a in rows}
        for a in sx.algebra.atoms:
            for p in sx.space.points:
                row = table[a][p]
                if set(row) != sy.space.point_set:
                    raise ValueError("kernel rows must cover the right points")
                if any(v < 0 for v in row.values()):
                    raise ValueError("kernel rows must be nonnegative")
                if sum(row.values()) != 1:
                    raise ValueError("kernel rows must sum to one")
            for bx in sx.blocks(a):
                reference = table[a][next(iter(bx))]
                if any(table[a][p] != reference for p in bx):
                    raise ValueError("kernel rows must be constant on left blocks")
        self.sx = sx
        self.sy = sy
        self.rows = table


def markov_product(kernel: StableMarkovKernel, mu: StableMeasure) -> StableMeasure:
    """Joint law of source and transition: mu(bx) * K(p, by) on each rectangle.

    This is the integral of the kernel's section masses against mu;
    rows are constant on left blocks, so any point p of bx will do.
    """
    sx = mu.domain
    if sx != kernel.sx:
        raise ValueError("kernel left factor must match the measure domain")
    if not mu.is_finite():
        raise ValueError("joint construction needs a finite source")
    return _rectangle_measure(
        mu,
        product_sigma(sx, kernel.sy),
        kernel.sy,
        lambda a, bx, by: ext_sum(kernel.rows[a][next(iter(bx))][q] for q in by),
    )


def hahn_positive_set(mu1: StableMeasure, mu2: StableMeasure) -> ConditionalSet:
    """The largest region where mu2 dominates mu1.

    The exhaustion argument carves the negative part out of every atom
    in one step, because both measures are block-additive: what is left
    on each atom is the union of the blocks where mu2 - mu1 >= 0.
    """
    domain = mu1.domain
    if not isinstance(domain, StableSigmaAlgebra) or domain != mu2.domain:
        raise ValueError("both measures must live on one sigma-algebra")
    if not (mu1.is_finite() and mu2.is_finite()):
        raise ValueError("signed comparison needs finite measures")
    fibers = {}
    for a in domain.algebra.atoms:
        keep = [b for b in domain.blocks(a) if mu2.block_mass[a][b] >= mu1.block_mass[a][b]]
        if keep:
            fibers[a] = frozenset().union(*keep)
    return ConditionalSet(fibers.keys(), fibers)


def radon_nikodym(mu: StableMeasure, nu: StableMeasure) -> Integrand:
    """Exact density of nu against a stable probability mu, fully certified.

    Requires absolute continuity; the witness of a violation is named.
    The returned integrand reproduces nu by integration over every
    measurable conditional set, and that identity is checked by
    enumeration before returning.

    Up to 20,000 members the certificate integrates, for each member v
    in `members` order, the density times the indicator of v and
    compares the integral with ``nu.eval(v)``.  That integrand is built
    from rows made before the loop: per atom and ring member m, the
    density's row with every point outside m set to zero.  Such a row
    is still constant on blocks, so the integrand is built trusted, and
    the row work is once per ring member instead of once per
    conditional member.  The check stays one `integrate` per member
    until a certificate per block replaces it.  Above the cap the
    identity is checked per atom and ring member, on block sums.
    """
    domain = mu.domain
    if not isinstance(domain, StableSigmaAlgebra) or domain != nu.domain:
        raise ValueError("both measures must live on one sigma-algebra")
    if not mu.is_probability():
        raise ValueError("density recovery needs a probability base measure")
    if not nu.is_finite():
        raise ValueError("density recovery needs a finite numerator measure")
    algebra = domain.algebra
    null_witness = {}
    for a in algebra.atoms:
        bad = [b for b in domain.blocks(a) if mu.block_mass[a][b] == 0 and nu.block_mass[a][b] != 0]
        if bad:
            null_witness[a] = frozenset().union(*bad)
    if null_witness:
        witness = ConditionalSet(null_witness.keys(), null_witness)
        raise ValueError(f"not absolutely continuous: witness {witness!r}")
    values: dict[str, dict] = {}
    for a in algebra.atoms:
        row = {}
        for b in domain.blocks(a):
            m = mu.block_mass[a][b]
            ratio = Fraction(0) if m == 0 else nu.block_mass[a][b] / m
            for p in b:
                row[p] = ratio
        values[a] = row
    density = Integrand(domain, values)
    cap = 20000
    if domain.member_count() <= cap:
        zero, empty = Fraction(0), frozenset()
        rows = {
            a: {m: {p: r if p in m else zero for p, r in row.items()} for m in domain.ring_at(a).members()}
            for a, row in density.values.items()
        }
        for v in domain.members():
            restricted = Integrand._of(domain, {a: rows[a][v.fibers.get(a, empty)] for a in rows})
            if integrate(restricted, mu) != nu.eval(v):
                raise ValueError(f"density certificate failed on {v!r}")
    else:
        for a in algebra.atoms:
            for m in domain.ring_at(a).members():
                if not m:
                    continue
                got = ext_sum(
                    ext_mul(values[a][next(iter(b))], mu.block_mass[a][b])
                    for b in domain.blocks(a)
                    if b <= m
                )
                if got != _fiber_mass(nu.block_mass[a], domain.ring_at(a).covered, m):
                    raise ValueError("density certificate failed")
    return density


def rn_improvement_step(f: Integrand, mu: StableMeasure, nu: StableMeasure) -> Integrand:
    """One climb of the density search: add a slab on the dominated region.

    Given a candidate with integrals below nu everywhere, the remaining
    gap picks a threshold (half the gap), the positive set of the
    thresholded comparison picks the region, and the candidate rises by
    the threshold there.  Strictly increases the integral on every atom
    with a positive gap.
    """
    domain = mu.domain
    if f.sigma != domain or domain != nu.domain:
        raise ValueError("candidate and measures must share one sigma-algebra")
    if not f.is_nonnegative():
        raise ValueError("density candidates are nonnegative")
    if not mu.is_finite():
        raise ValueError("density search needs a finite base measure")
    if not nu.is_finite():
        raise ValueError("density search needs a finite numerator measure")
    algebra = domain.algebra
    lam_blocks: dict[str, dict[frozenset, Fraction]] = {}
    for a in algebra.atoms:
        lam_blocks[a] = {}
        for b in domain.blocks(a):
            gap = nu.block_mass[a][b] - f.values[a][next(iter(b))] * mu.block_mass[a][b]
            if gap < 0:
                raise ValueError("candidate already exceeds the target on a block")
            lam_blocks[a][b] = gap
    lam = StableMeasure(domain, lam_blocks)
    total_gap = lam.total()
    live = total_gap.support()
    if not live:
        return f
    s = Field(algebra, {a: (total_gap[a] / 2 if a in live else Fraction(0)) for a in algebra.atoms})
    region = hahn_positive_set(mu.scale(s), lam)
    slab = indicator(region.restrict(live), domain) * s
    return f + slab


#: Seeded random integrands per premise check of `daniell_stone_finite`.
_PROBES = 8


def daniell_stone_finite(
    cspace: CondSpace,
    functional: Callable[[Integrand], Field],
    *,
    seed: int = 0,
) -> StableMeasure:
    """Represent a positive stable linear functional as an integral.

    Probes positivity, linearity over scalar fields and concatenation
    stability with seeded random integrands, one call per probe.  Then
    one call per point p, on the indicator of {p} on every atom, reads
    the mass of {p} at every atom: by concatenation stability, which the
    probes test, its value at a is that of the call on {p} at a alone.
    Further probes verify the integral identity.  Any failed premise or
    failed identity raises with the premise named.
    """
    sigma = StableSigmaAlgebra.discrete(cspace)
    algebra = cspace.algebra
    rng = random.Random(seed)

    def random_integrand(nonneg: bool) -> Integrand:
        lo = 0 if nonneg else -3
        return Integrand(
            sigma,
            {
                a: {p: Fraction(rng.randint(lo, 4), rng.randint(1, 3)) for p in cspace.space.points}
                for a in algebra.atoms
            },
        )

    for _ in range(_PROBES):
        g = random_integrand(nonneg=True)
        if any(x < 0 for x in functional(g).as_dict().values()):
            raise ValueError("functional violates positivity")
        f1, f2 = random_integrand(False), random_integrand(False)
        r = Field(algebra, {a: Fraction(rng.randint(-2, 3)) for a in algebra.atoms})
        v1, v2 = functional(f1), functional(f2)
        if functional(f1 + f2 * r) != v1 + v2 * r:
            raise ValueError("functional violates linearity over scalar fields")
        if len(algebra.atoms) > 1:
            pivot = rng.randint(1, len(algebra.atoms) - 1)
            ev = frozenset(algebra.atoms[:pivot])
            parts = [ev, algebra.complement_event(ev)]
            mixed = concatenate_integrands([f1, f2], parts)
            if functional(mixed) != algebra.concatenate_field([v1, v2], parts):
                raise ValueError("functional violates concatenation stability")
    atoms, points = algebra.atoms, cspace.space.points
    reads = [functional(indicator(ConditionalSet(atoms, {a: (p,) for a in atoms}), sigma)) for p in points]
    if any(x < 0 for r in reads for x in r.as_dict().values()):
        raise ValueError("functional violates positivity")
    measure = StableMeasure(sigma, {a: {frozenset((p,)): r[a] for p, r in zip(points, reads)} for a in atoms})
    for _ in range(_PROBES):
        g = random_integrand(False)
        if functional(g) != integrate(g, measure):
            raise ValueError("functional is not the integral of its indicator measure")
    return measure
