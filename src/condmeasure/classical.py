"""Classical finite measure theory on one fiber.

Everything here speaks the ordinary language: subsets of a finite point
set, set rings and set fields, outer measures, Hahn decompositions,
distribution functions, laws of observations, blockwise averages and
plain weighted sums.  The conditional machinery is checked atom by atom
against these routines, so this module intentionally avoids importing
any of it; the only shared vocabulary is the extended value type.

A ring is given by its block masses.  The blocks partition the covered
points, so outer mass and the Carathéodory extension are read off them
in closed form; the cover search they check lives in
`measure.OuterMeasure.mass_at` only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import INF, ExtValue, ext_mul, ext_sub, ext_sum


def mass_of(point_masses: Mapping, subset: Iterable) -> ExtValue:
    """Total mass of a subset under pointwise masses."""
    return ext_sum(point_masses[p] for p in subset)


def blocks_from_sets(universe: frozenset, sets: Iterable[frozenset]) -> frozenset:
    """Atoms of the generated field: classes of points with equal membership signature."""
    gens = list(sets)
    by_sig: dict[tuple, set] = {}
    for p in universe:
        sig = tuple(p in s for s in gens)
        by_sig.setdefault(sig, set()).add(p)
    return frozenset(frozenset(b) for b in by_sig.values())


def distribution_jumps(coords: Mapping, point_mass: Mapping) -> dict:
    """Point masses read back as the jumps of the distribution function.

    The cumulative mass is evaluated once at each rational grid point,
    the value at each coordinate is the one-sided infimum over larger
    grid points, and each point's mass is the jump there.  Returned in
    coordinate order.
    """
    by_coord = sorted(coords, key=coords.__getitem__)
    coords_sorted = [coords[p] for p in by_coord]
    # two interior points between neighbours, so every one-sided
    # infimum is realized on the grid itself
    grid = [coords_sorted[0] - 1, coords_sorted[0] - Fraction(1, 2)]
    for lo, hi in zip(coords_sorted, coords_sorted[1:]):
        gap = hi - lo
        grid.extend([lo, lo + gap / 2, lo + 3 * gap / 4])
    grid.extend([coords_sorted[-1], coords_sorted[-1] + 1])

    cumulative = [sum((point_mass[p] for p in coords if coords[p] <= q), Fraction(0)) for q in grid]

    def cdf(x: Fraction) -> Fraction:
        return min(f for q, f in zip(grid, cumulative) if q > x)

    jumps = {}
    prev = coords_sorted[0] - 1
    for p, c in zip(by_coord, coords_sorted):
        jumps[p] = cdf(c) - cdf(prev)
        prev = c
    return jumps


def outer_mass(block_masses: Mapping[frozenset, ExtValue], target: frozenset) -> ExtValue:
    """Outer mass of the target under a pre-measure given by its ring blocks.

    The blocks partition the covered points, so the cheapest ring cover
    of the target is the union of the blocks it meets: the value is
    their extended mass sum, or INF when a point of the target lies in
    no block.
    """
    if not target <= frozenset().union(*block_masses):
        return INF
    return ext_sum(m for b, m in block_masses.items() if b & target)


def caratheodory_blocks(universe: frozenset, block_masses: Mapping[frozenset, ExtValue]) -> dict[frozenset, ExtValue]:
    """Extension to the generated field, by outer mass on each block."""
    blocks = blocks_from_sets(universe, list(block_masses))
    return {b: outer_mass(block_masses, b) for b in blocks}


def hahn_positive(blocks: Iterable[frozenset], signed_masses: Mapping[frozenset, Fraction]) -> frozenset:
    """Union of the blocks with nonnegative signed mass."""
    out: set = set()
    for b in blocks:
        if signed_masses[b] >= 0:
            out |= b
    return frozenset(out)


def integral(point_masses: Mapping, g: Mapping) -> ExtValue:
    """Plain weighted sum of a nonnegative-or-signed integrand.

    Positive and negative parts are summed separately; a signed
    integrand with an infinite part raises, mirroring non-integrability.
    A value's sign is read off its numerator.
    """
    pos, neg = [], []
    for p, x in g.items():
        if type(x) is not Fraction:
            x = Fraction(x)
        if x.numerator > 0:
            pos.append(ext_mul(x, point_masses[p]))
        elif x.numerator < 0:
            neg.append(ext_mul(-x, point_masses[p]))
    return ext_sub(ext_sum(pos), ext_sum(neg))


def product_point_masses(mx: Mapping, my: Mapping) -> dict:
    return {(p, q): ext_mul(mx[p], my[q]) for p in mx for q in my}


def pushforward(weights: Mapping[str, Fraction], xi: Mapping[str, object], points: Iterable) -> dict:
    """The law of an observation: total weight of the atoms observing each point."""
    out = {p: Fraction(0) for p in points}
    for a, w in weights.items():
        out[xi[a]] += w
    return out


def conditional_expectation(
    weights: Mapping[str, Fraction],
    xi: Mapping[str, object],
    blocks: Sequence[frozenset],
    f: Mapping,
) -> dict[str, Fraction]:
    """Blockwise weighted average of f at the observed points, spread back to atoms."""
    out: dict[str, Fraction] = {}
    for block in blocks:
        total = sum((weights[a] for a in block), Fraction(0))
        if total == 0:
            raise ValueError("conditioning block with zero probability")
        avg = sum((weights[a] * Fraction(f[xi[a]]) for a in block), Fraction(0)) / total
        for a in block:
            out[a] = avg
    return out


def radon_nikodym_density(
    blocks: Iterable[frozenset],
    mu_masses: Mapping[frozenset, Fraction],
    nu_masses: Mapping[frozenset, Fraction],
) -> dict:
    """Pointwise density: block ratio on mu-positive blocks, zero on mu-null ones."""
    density: dict = {}
    for b in blocks:
        if mu_masses[b] == 0:
            if nu_masses[b] != 0:
                raise ValueError("not absolutely continuous on a null block")
            ratio = Fraction(0)
        else:
            ratio = Fraction(nu_masses[b]) / mu_masses[b]
        for p in b:
            density[p] = ratio
    return density
