"""Block sums on mixed denominators, from one block to a few thousand.

`StableMeasure.eval`, `Kernel.mass` and `integrate` add their block terms
with `ext_sum`.  The references here fold the same terms with `ext_add`
and `ext_mul`, one exact `Fraction` at a time, with the positive and the
negative part of an integrand kept apart.  Masses and values have
denominators 1-12; some blocks have infinite mass, some values on them
are zero, and the integrands are nonnegative or signed.
"""

import functools
import random
from fractions import Fraction

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
    StableSigmaAlgebra,
    integrate,
)
from condmeasure.algebra import ext_add, ext_mul, ext_sub
from condmeasure.kernels import Kernel
from condmeasure.sigma import SetRing

BLOCK_COUNTS = (1, 2, 3, 12, 100, 700, 2000)
ATOMS = ("a1", "a2")


def fold(terms):
    return functools.reduce(ext_add, terms, Fraction(0))


def rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def blocks_of(rng, points):
    """Consecutive runs of 1-3 points."""
    out, i = [], 0
    while i < len(points):
        k = rng.randint(1, 3)
        out.append(frozenset(points[i : i + k]))
        i += k
    return out


def setting(n_blocks, seed, infinite):
    """Two atoms, each with about ``n_blocks`` blocks of mixed denominators;
    with ``infinite``, about one block in 50 (at least one) has mass INF."""
    rng = random.Random(seed)
    space = GroundSpace(tuple(range(2 * n_blocks)))
    cspace = CondSpace(MeasureAlgebra.uniform(ATOMS), space)
    per_atom, table = {}, {}
    for a in ATOMS:
        blocks = blocks_of(rng, space.points)[:n_blocks]
        rest = space.point_set - frozenset().union(*blocks)
        if rest:
            blocks.append(rest)
        per_atom[a] = SetRing(blocks)
        table[a] = {b: rational(rng, 0, 30) for b in blocks}
        if infinite:
            for b in rng.sample(blocks, max(1, len(blocks) // 50)):
                table[a][b] = INF
    mu = StableMeasure(StableSigmaAlgebra(cspace, per_atom), table)
    return rng, cspace, mu


def cases():
    for n in BLOCK_COUNTS:
        for infinite in (False, True):
            yield pytest.param(n, infinite, id=f"{n}-blocks{'-inf' if infinite else ''}")


def integrand(rng, mu, signed, on_inf):
    """Values of mixed denominators, constant on blocks; on the INF blocks
    they are ``on_inf``: "zero", "positive" or "negative"."""
    values = {}
    for a in ATOMS:
        row = values[a] = {}
        for b, m in mu.block_mass[a].items():
            v = rational(rng, -20 if signed else 0, 20)
            if m is INF:
                v = {"zero": Fraction(0), "positive": abs(v) + 1, "negative": -abs(v) - 1}[on_inf]
            row.update(dict.fromkeys(b, v))
    return Integrand(mu.domain, values)


def folded_integral(f, mu):
    """The two part integrals, each an `ext_mul` and `ext_add` fold."""
    values, signed = {}, False
    for a in ATOMS:
        pos, neg = [], []
        for b, m in mu.block_mass[a].items():
            v = f.values[a][next(iter(b))]
            signed |= v < 0
            if v >= 0:
                pos.append(ext_mul(v, m))
            else:
                neg.append(ext_mul(-v, m))
        p, q = fold(pos), fold(neg)
        values[a] = INF if p is INF or q is INF else ext_sub(p, q)
    if signed and INF in values.values():
        return "not integrable"
    return Field(mu.algebra, values)


@pytest.mark.parametrize("n, infinite", cases())
def test_eval_and_kernel_mass_are_the_fold(n, infinite):
    rng, cspace, mu = setting(n, n, infinite)
    kernel = {a: Kernel(cspace, mu.domain.ring_at(a), {x: mu.block_mass[a] for x in ATOMS}) for a in ATOMS}
    for _ in range(4):
        fibers, want = {}, {}
        for a in ATOMS:
            masses = mu.block_mass[a]
            inside = [b for b in masses if rng.random() < 0.5]
            fibers[a] = frozenset().union(*inside)
            want[a] = fold(masses[b] for b in inside)
            assert kernel[a].mass(a, fibers[a]) == want[a]
        fibers = {a: fiber for a, fiber in fibers.items() if fiber}
        got = mu.eval(ConditionalSet(fibers.keys(), fibers))
        assert got == Field(cspace.algebra, want)
        assert all(type(x) is Fraction or x is INF for x in got.as_dict().values())
    top = mu.eval(cspace.top)
    for a in ATOMS:
        assert top[a] == fold(mu.block_mass[a].values())
        assert (top[a] is INF) == infinite
    wide = next((b for b in mu.block_mass["a1"] if len(b) > 1), None)
    if wide is not None:
        cut = frozenset(list(wide)[:1])
        with pytest.raises(ValueError, match="not measurable"):
            mu.eval(ConditionalSet(("a1",), {"a1": cut}))
        with pytest.raises(ValueError, match="not measurable"):
            kernel["a1"].mass("a1", cut)


@pytest.mark.parametrize("n, infinite", cases())
def test_integrate_is_the_fold(n, infinite):
    rng, _, mu = setting(n, 1000 + n, infinite)
    seen = set()
    for signed in (False, True):
        for on_inf in ("zero", "positive", "negative") if infinite else ("zero",):
            f = integrand(rng, mu, signed, on_inf)
            want = folded_integral(f, mu)
            if isinstance(want, str):
                with pytest.raises(ValueError, match=want):
                    integrate(f, mu)
                seen.add(want)
                continue
            got = integrate(f, mu)
            assert got == want
            assert all(type(x) is Fraction or x is INF for x in got.as_dict().values())
            seen.add("finite" if got.is_finite() else "infinite")
    assert seen == ({"finite", "infinite", "not integrable"} if infinite else {"finite"})
