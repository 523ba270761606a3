import random
from fractions import Fraction

import pytest

from condmeasure import (
    ElementaryFunction,
    Field,
    INF,
    Integrand,
    StableMeasure,
    StableRing,
    StableSigmaAlgebra,
    canonical_elementary,
    concatenate_integrands,
    dyadic_approximation,
    elementary_integral,
    indicator,
    integrate,
    integrate_via_dyadic,
)
from condmeasure.integral import integrate_nonneg
from condmeasure.verify import Draw, Size


def mk(space, fibers):
    return space.make(fibers.keys(), fibers)


@pytest.fixture
def setting(coin_space):
    """Discrete two-point setting with a skewed second atom; the integral of
    f below comes out to 2 on a1 and 7/4 on a2."""
    sigma = StableSigmaAlgebra.discrete(coin_space)
    mu = StableMeasure.from_point_masses(
        sigma,
        {"a1": {1: Fraction(1, 2), 2: Fraction(1, 2)}, "a2": {1: Fraction(1, 4), 2: Fraction(3, 4)}},
    )
    f = Integrand(sigma, {"a1": {1: Fraction(1), 2: Fraction(3)}, "a2": {1: Fraction(1), 2: Fraction(2)}})
    return sigma, mu, f


class TestIntegrand:
    def test_values_must_cover_and_respect_blocks(self, coin_space):
        coarse = StableSigmaAlgebra.trivial(coin_space)
        with pytest.raises(ValueError, match="varies on a block"):
            Integrand(coarse, {a: {1: Fraction(0), 2: Fraction(1)} for a in ("a1", "a2")})
        sigma = StableSigmaAlgebra.discrete(coin_space)
        with pytest.raises(ValueError, match="cover every ground point"):
            Integrand(sigma, {a: {1: Fraction(0)} for a in ("a1", "a2")})

    def test_pointwise_operations(self, setting):
        sigma, _, f = setting
        g = Integrand.constant(sigma, Fraction(2))
        assert (f + g).value("a1", 2) == 5
        assert (f - g).value("a2", 1) == -1
        assert (f * g).value("a1", 1) == 2
        assert f.max2(g).value("a2", 1) == 2
        assert f.min2(g).value("a1", 2) == 2
        assert (f - g).pos_part().value("a2", 1) == 0
        assert (f - g).neg_part().value("a2", 1) == 1

    def test_field_scaling(self, setting):
        sigma, _, f = setting
        weights = Field(sigma.algebra, {"a1": Fraction(2), "a2": Fraction(0)})
        scaled = f * weights
        assert scaled.value("a1", 2) == 6 and scaled.value("a2", 2) == 0

    def test_level_sets(self, setting, coin_space):
        _, _, f = setting
        assert f.level_at_least(Fraction(2)) == mk(coin_space, {"a1": {2}, "a2": {2}})
        assert f.level_below(Fraction(2)) == mk(coin_space, {"a1": {1}, "a2": {1}})
        assert f.distinct_values() == [1, 2, 3]

    def test_evaluate_along_choice(self, setting):
        _, _, f = setting
        assert f.at({"a1": 2, "a2": 1}).as_dict() == {"a1": 3, "a2": 1}

    def test_indicator_matches_membership(self, setting, coin_space):
        sigma, mu, _ = setting
        v = mk(coin_space, {"a1": {2}})
        assert integrate(indicator(v, sigma), mu) == mu.eval(v)

    def test_concatenation(self, setting):
        sigma, _, f = setting
        g = Integrand.constant(sigma, Fraction(5))
        pasted = concatenate_integrands([f, g], [frozenset({"a2"}), frozenset({"a1"})])
        assert pasted.value("a1", 1) == 5 and pasted.value("a2", 2) == 2


class TestElementary:
    def test_cells_must_be_disjoint_and_cover(self, setting, coin_space):
        sigma, _, _ = setting
        half = mk(coin_space, {"a1": {1}, "a2": {1}})
        other = mk(coin_space, {"a1": {2}, "a2": {2}})
        one = Field.constant(sigma.algebra, Fraction(1))
        ElementaryFunction(sigma, [(one, half), (2 * one, other)])
        with pytest.raises(ValueError):
            ElementaryFunction(sigma, [(one, half), (one, half)])
        with pytest.raises(ValueError):
            ElementaryFunction(sigma, [(one, half)])
        with pytest.raises(ValueError):
            ElementaryFunction(sigma, [(Field.constant(sigma.algebra, INF), half), (one, other)])

    def test_elementary_integral(self, setting, coin_space):
        sigma, mu, _ = setting
        half = mk(coin_space, {"a1": {1}, "a2": {1}})
        other = mk(coin_space, {"a1": {2}, "a2": {2}})
        one = Field.constant(sigma.algebra, Fraction(1))
        phi = ElementaryFunction(sigma, [(one, half), (3 * one, other)])
        assert elementary_integral(phi, mu).as_dict() == {"a1": 2, "a2": Fraction(5, 2)}

    def test_canonical_form_reproduces_the_integrand(self, setting):
        _, _, f = setting
        assert canonical_elementary(f).as_integrand() == f


class TestIntegration:
    def test_all_routes_agree_on_the_frozen_value(self, setting):
        _, mu, f = setting
        expected = {"a1": 2, "a2": Fraction(7, 4)}
        assert integrate(f, mu).as_dict() == expected
        assert integrate_nonneg(f, mu).as_dict() == expected
        assert integrate_via_dyadic(f, mu).as_dict() == expected
        assert elementary_integral(canonical_elementary(f), mu).as_dict() == expected

    def test_dyadic_staircase_is_dominated_and_converges(self, setting):
        sigma, mu, _ = setting
        third = Integrand.constant(sigma, Fraction(1, 3))
        approx2 = dyadic_approximation(third, 2).as_integrand()
        assert approx2.le(third)
        assert approx2.value("a1", 1) == Fraction(1, 4)
        assert elementary_integral(dyadic_approximation(third, 1), mu).as_dict() == {"a1": 0, "a2": 0}
        assert integrate_via_dyadic(third, mu).as_dict() == {"a1": Fraction(1, 3), "a2": Fraction(1, 3)}

    def test_dyadic_levels_increase(self, setting):
        sigma, _, f = setting
        prev = dyadic_approximation(f, 1).as_integrand()
        for n in (2, 3, 4):
            cur = dyadic_approximation(f, n).as_integrand()
            assert prev.le(cur) and cur.le(f)
            prev = cur

    def test_signed_split(self, setting):
        sigma, mu, f = setting
        g = f - Integrand.constant(sigma, Fraction(2))
        got = integrate(g, mu)
        assert got.as_dict() == {"a1": 0, "a2": Fraction(-1, 4)}

    def test_infinite_mass_blocks(self, setting, coin_space):
        sigma, _, f = setting
        heavy = StableMeasure.from_point_masses(
            sigma, {"a1": {1: INF, 2: Fraction(0)}, "a2": {1: Fraction(1), 2: Fraction(0)}}
        )
        assert integrate(f, heavy)["a1"] is INF
        vanish = Integrand(sigma, {"a1": {1: Fraction(0), 2: Fraction(1)}, "a2": {1: Fraction(1), 2: Fraction(0)}})
        # zero times an infinite block contributes nothing
        assert integrate(vanish, heavy).as_dict() == {"a1": 0, "a2": 1}

    def test_signed_with_infinite_part_raises(self, setting, coin_space):
        sigma, _, _ = setting
        heavy = StableMeasure.from_point_masses(
            sigma, {"a1": {1: INF, 2: INF}, "a2": {1: Fraction(1), 2: Fraction(1)}}
        )
        g = Integrand(sigma, {"a1": {1: Fraction(1), 2: Fraction(-1)}, "a2": {1: Fraction(1), 2: Fraction(-1)}})
        with pytest.raises(ValueError, match="not integrable"):
            integrate(g, heavy)

    def test_integral_is_monotone_and_linear(self, setting):
        sigma, mu, f = setting
        g = Integrand.constant(sigma, Fraction(1, 2))
        assert integrate(g, mu).le(integrate(f, mu))
        lhs = integrate(f + g, mu)
        assert lhs == integrate(f, mu) + integrate(g, mu)


def staircase_integral(f, mu):
    """The level-set route: canonical staircases of the two parts."""
    pos = elementary_integral(canonical_elementary(f.pos_part()), mu)
    if f.is_nonnegative():
        return pos
    neg = elementary_integral(canonical_elementary(f.neg_part()), mu)
    if not (pos.is_finite() and neg.is_finite()):
        raise ValueError("not integrable: a signed part has infinite integral")
    return pos - neg


def outcome(route, f, mu):
    try:
        return route(f, mu)
    except ValueError as exc:
        return str(exc)


class TestBlockSum:
    """The block sum against the canonical staircase, values and errors alike."""

    def test_zero_on_an_infinite_block_is_zero(self, coin_sigma):
        heavy = StableMeasure.from_point_masses(
            coin_sigma, {"a1": {1: INF, 2: Fraction(1)}, "a2": {1: INF, 2: INF}}
        )
        zero = Integrand.constant(coin_sigma, 0)
        assert integrate(zero, heavy).is_zero()
        assert integrate(zero, heavy) == staircase_integral(zero, heavy)

    def test_signed_with_an_infinite_part_raises_as_the_staircase(self, coin_sigma):
        heavy = StableMeasure.from_point_masses(
            coin_sigma, {"a1": {1: Fraction(1), 2: INF}, "a2": {1: Fraction(1), 2: Fraction(1)}}
        )
        # only the negative part is infinite, and only on a1
        g = Integrand(coin_sigma, {"a1": {1: Fraction(2), 2: Fraction(-1)}, "a2": {1: Fraction(1), 2: Fraction(-1)}})
        with pytest.raises(ValueError, match="not integrable"):
            integrate(g, heavy)
        assert outcome(integrate, g, heavy) == outcome(staircase_integral, g, heavy)

    def test_coarser_integrand_against_a_finer_measure(self, coin_space, coin_sigma):
        coarse = StableSigmaAlgebra.trivial(coin_space)
        mu = StableMeasure.from_point_masses(
            coin_sigma, {"a1": {1: Fraction(1, 2), 2: Fraction(1, 3)}, "a2": {1: INF, 2: Fraction(0)}}
        )
        f = Integrand(coarse, {"a1": {1: Fraction(3), 2: Fraction(3)}, "a2": {1: Fraction(2), 2: Fraction(2)}})
        assert integrate(f, mu).as_dict() == {"a1": Fraction(5, 2), "a2": INF}
        assert integrate(f, mu) == staircase_integral(f, mu)

    def test_integrand_varying_on_a_coarser_block_is_not_measurable(self, coin_space, setting):
        _, _, f = setting
        coarse = StableMeasure(
            StableSigmaAlgebra.trivial(coin_space),
            {a: {frozenset((1, 2)): Fraction(1)} for a in ("a1", "a2")},
        )
        with pytest.raises(ValueError, match="not measurable"):
            integrate(f, coarse)
        assert outcome(integrate, f, coarse) == outcome(staircase_integral, f, coarse)

    def test_ring_premeasure_missing_a_point_is_not_measurable(self, coin_space, coin_sigma):
        ring = StableRing.from_fiber_sets(coin_space, {"a1": [frozenset((1,))], "a2": [frozenset((1, 2))]})
        pre = StableMeasure.from_point_masses(
            ring, {"a1": {1: Fraction(1), 2: Fraction(0)}, "a2": {1: Fraction(1), 2: Fraction(1)}}
        )
        f = Integrand.constant(coin_sigma, 1)
        with pytest.raises(ValueError, match="not measurable"):
            integrate(f, pre)
        assert outcome(integrate, f, pre) == outcome(staircase_integral, f, pre)

    def test_seeded_pairs_agree_with_the_staircase(self):
        for seed in range(300):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4)))
            sig = draw.sigma_algebra(cspace)
            domain = rng.choice(
                [sig, draw.sigma_algebra(cspace), StableSigmaAlgebra.discrete(cspace),
                 StableSigmaAlgebra.trivial(cspace), draw.ring(cspace)]
            )
            mu = draw.measure_on(domain, allow_inf=rng.random() < 0.5)
            f = draw.integrand(sig, nonneg=rng.random() < 0.4)
            got, want = outcome(integrate, f, mu), outcome(staircase_integral, f, mu)
            assert got == want, f"seed {seed}: {got!r} != {want!r}"
