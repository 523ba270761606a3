import functools
import itertools
import random
from fractions import Fraction

import pytest

from condmeasure import (
    INF,
    CondSpace,
    Field,
    GroundSpace,
    Integrand,
    MeasureAlgebra,
    StableSigmaAlgebra,
    SubAlgebra,
    concatenate_integrands,
    format_value,
    parse_value,
)
from condmeasure.algebra import ext_add, ext_mul, ext_sub, ext_sum, is_finite
from condmeasure.verify import checked_largest_event


class TestExtendedValues:
    def test_addition_absorbs_infinity(self):
        assert ext_add(INF, Fraction(3)) is INF
        assert ext_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_zero_times_infinity_is_zero(self):
        assert ext_mul(Fraction(0), INF) == 0
        assert ext_mul(INF, Fraction(0)) == 0
        assert ext_mul(Fraction(2), INF) is INF

    def test_negative_times_infinity_raises(self):
        with pytest.raises(ValueError):
            ext_mul(Fraction(-1), INF)

    def test_product_is_the_fraction_product_with_the_infinity_rules(self):
        rationals = [-2, Fraction(-1, 2), 0, Fraction(1, 3), 3]
        grid = [*(x for x in rationals if type(x) is int), *map(Fraction, rationals), INF]
        for x, y in itertools.product(grid, repeat=2):
            if x is not INF and y is not INF:
                got = ext_mul(x, y)
                assert got == Fraction(x) * Fraction(y) and type(got) is Fraction, (x, y)
                continue
            finite = y if x is INF else x
            if finite is INF or finite > 0:
                assert ext_mul(x, y) is INF, (x, y)
            elif finite == 0:
                got = ext_mul(x, y)
                assert got == 0 and type(got) is Fraction, (x, y)
            else:
                with pytest.raises(ValueError) as err:
                    ext_mul(x, y)
                assert str(err.value) == "undefined extended product: negative times infinity"

    def test_subtraction_guards_infinity(self):
        assert ext_sub(INF, Fraction(5)) is INF
        with pytest.raises(ValueError):
            ext_sub(INF, INF)
        with pytest.raises(ValueError):
            ext_sub(Fraction(1), INF)

    def test_ordering(self):
        assert Fraction(10**9) < INF
        assert INF == INF
        assert not INF < INF
        assert is_finite(Fraction(7)) and not is_finite(INF)

    def test_sum_with_infinite_term(self):
        assert ext_sum([Fraction(1), INF, Fraction(2)]) is INF
        assert ext_sum([]) == 0

    def test_parse_format_round_trip(self):
        assert parse_value("3/4") == Fraction(3, 4)
        assert parse_value("inf") is INF
        assert format_value(Fraction(6, 3)) == "2"
        assert format_value(Fraction(-1, 4)) == "-1/4"
        assert format_value(INF) == "inf"
        with pytest.raises(ValueError):
            parse_value("one half")


def left_fold(xs):
    return functools.reduce(ext_add, xs, Fraction(0))


def assert_sums_like_the_fold(xs, got):
    want = left_fold(xs)
    if want is INF:
        assert got is INF, xs
    else:
        assert type(got) is Fraction and got == want, xs


class TestExtSum:
    """`ext_sum` sums on integers; the `ext_add` left fold is the reference."""

    TERMS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 6), Fraction(7, 12), INF)

    @pytest.mark.parametrize("terms", [TERMS, (0, *TERMS[1:3], 2, *TERMS[4:])], ids=["fractions", "ints"])
    def test_every_short_sequence(self, terms):
        for n in range(5):
            for xs in itertools.product(terms, repeat=n):
                assert_sums_like_the_fold(xs, ext_sum(xs))
                assert_sums_like_the_fold(xs, ext_sum(x for x in xs))

    def test_a_long_sum_over_many_denominators(self):
        rng = random.Random(12)
        xs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4000)]
        assert_sums_like_the_fold(xs, ext_sum(xs))
        assert_sums_like_the_fold(xs + [INF], ext_sum(iter(xs + [INF])))


class TestMeasureAlgebra:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MeasureAlgebra([("a1", Fraction(1, 2)), ("a2", Fraction(1, 3))])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            MeasureAlgebra([("a1", Fraction(0)), ("a2", Fraction(1))])

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            MeasureAlgebra([("a1", Fraction(1, 2)), ("a1", Fraction(1, 2))])

    def test_uniform(self):
        alg = MeasureAlgebra.uniform(["x", "y", "z"])
        assert sum(alg.weights.values()) == 1
        assert alg.weights["y"] == Fraction(1, 3)

    def test_equality_compares_weights(self):
        fair = MeasureAlgebra.uniform(["a1", "a2"])
        assert fair == MeasureAlgebra.uniform(["a1", "a2"])
        assert fair != MeasureAlgebra([("a1", Fraction(1, 3)), ("a2", Fraction(2, 3))])

    def test_event_operations(self):
        alg = MeasureAlgebra.uniform(["a1", "a2", "a3", "a4"])
        ev = alg.event(["a1", "a3"])
        assert alg.complement_event(ev) == frozenset({"a2", "a4"})
        assert sum(alg.weights[a] for a in ev) == Fraction(1, 2)
        with pytest.raises(ValueError):
            alg.event(["zz"])

    def test_largest_event_is_union_of_singletons(self):
        alg = MeasureAlgebra.uniform(["a1", "a2", "a3"])
        target = frozenset({"a1", "a3"})
        assert checked_largest_event(alg, lambda ev: ev <= target) == target

    def test_largest_event_verify_rejects_non_local_predicate(self):
        alg = MeasureAlgebra.uniform(["a1", "a2"])
        with pytest.raises(ValueError, match="escapes the result"):
            checked_largest_event(alg, lambda ev: len(ev) == 2)

    def test_concatenate_field(self):
        alg = MeasureAlgebra.uniform(["a1", "a2", "a3"])
        f = Field.constant(alg, Fraction(1))
        g = Field.constant(alg, Fraction(2))
        pasted = alg.concatenate_field([f, g], [frozenset({"a2"}), frozenset({"a1", "a3"})])
        assert pasted.as_dict() == {"a1": 2, "a2": 1, "a3": 2}
        with pytest.raises(ValueError):
            alg.concatenate_field([f, g], [frozenset({"a1"}), frozenset({"a1", "a3"})])

    def test_every_pasting_rejects_a_wrong_count_and_a_non_partition_alike(self):
        alg = MeasureAlgebra.uniform(["a1", "a2"])
        cspace = CondSpace(alg, GroundSpace((1, 2)))
        sigma = StableSigmaAlgebra.discrete(cspace)
        pastings = (
            (alg.paste, "piece"),
            (cspace.concatenate, cspace.top),
            (alg.concatenate_field, Field.constant(alg, Fraction(1))),
            (concatenate_integrands, Integrand.constant(sigma, 1)),
        )
        split = [frozenset({"a1"}), frozenset({"a2"})]
        for paste, piece in pastings:
            with pytest.raises(ValueError, match="^concatenate: one piece per partition block required$"):
                paste([piece], split)
            with pytest.raises(ValueError, match="^concatenate: one piece per partition block required$"):
                paste([piece] * 3, split)
            for events in ([frozenset({"a1"}), frozenset({"a1", "a2"})], [frozenset({"a1"}), frozenset()]):
                with pytest.raises(ValueError, match="^not a partition$"):
                    paste([piece, piece], events)
        # the labels of a sub-algebra come one per block, so only its
        # blocks can fail, and they are checked before they are sorted
        with pytest.raises(ValueError, match="^sub-algebra blocks must partition the atoms$"):
            SubAlgebra(alg, [["a1"], ["a1", "a2"]])


class TestField:
    def test_arithmetic_is_pointwise(self, coin_algebra):
        f = Field(coin_algebra, {"a1": Fraction(1, 2), "a2": Fraction(3)})
        g = Field(coin_algebra, {"a1": Fraction(1, 2), "a2": Fraction(-1)})
        assert (f + g).as_dict() == {"a1": 1, "a2": 2}
        assert (f - g).as_dict() == {"a1": 0, "a2": 4}
        assert (f * g)["a2"] == -3
        assert (2 * f)["a1"] == 1

    def test_restrict_zeroes_off_event(self, coin_algebra):
        f = Field(coin_algebra, {"a1": Fraction(5), "a2": INF})
        r = f.restrict(frozenset({"a2"}))
        assert r["a1"] == 0 and r["a2"] is INF
        assert f.support() == frozenset({"a1", "a2"})
        assert not f.is_finite()

    def test_order_and_extrema(self, coin_algebra):
        f = Field(coin_algebra, {"a1": Fraction(1), "a2": Fraction(2)})
        g = Field(coin_algebra, {"a1": Fraction(1), "a2": INF})
        assert f.le(g) and not g.le(f)
        assert f.map2(g, max)["a2"] is INF
        assert f.map2(g, min).as_dict() == f.as_dict()

    def test_total_sums_atom_values(self, coin_algebra):
        f = Field(coin_algebra, {"a1": Fraction(1), "a2": Fraction(3)})
        assert f.total() == 4
        g = Field(coin_algebra, {"a1": Fraction(1), "a2": INF})
        assert g.total() is INF

    def test_format(self, coin_algebra):
        f = Field(coin_algebra, {"a1": Fraction(1, 3), "a2": INF})
        assert f.format() == "a1=1/3, a2=inf"
