from fractions import Fraction

import pytest

from condmeasure import classical
from condmeasure import (
    CondSpace,
    Field,
    GroundSpace,
    INF,
    Integrand,
    Kernel,
    MeasureAlgebra,
    SetRing,
    StableMeasure,
    StableRing,
    StableSigmaAlgebra,
    SubAlgebra,
    conditional_distribution,
    conditional_expectation,
    field_as_observation,
    kernel_to_measure,
    measure_to_kernel,
)


def mk(space, fibers):
    return space.make(fibers.keys(), fibers)


@pytest.fixture
def coords_setting(coin_algebra):
    space = GroundSpace((0, 1), {0: Fraction(0), 1: Fraction(1)})
    cspace = CondSpace(coin_algebra, space)
    sigma = StableSigmaAlgebra.discrete(cspace)
    mu = StableMeasure.from_point_masses(
        sigma,
        {"a1": {0: Fraction(1, 2), 1: Fraction(1, 2)}, "a2": {0: Fraction(3, 4), 1: Fraction(1, 4)}},
    )
    return cspace, sigma, mu


class TestKernelTranslation:
    def test_round_trip_is_exact(self, coords_setting):
        _, _, mu = coords_setting
        kappa = measure_to_kernel(mu)
        assert kappa.mass("a1", frozenset({0})) == Fraction(1, 2)
        assert kappa.mass("a2", frozenset({1})) == Fraction(1, 4)
        assert kappa.is_probability()
        back = kernel_to_measure(kappa)
        assert back.block_mass == mu.block_mass
        assert measure_to_kernel(back) == kappa

    def test_recovery_needs_coordinates(self, coin_space):
        sigma = StableSigmaAlgebra.discrete(coin_space)
        mu = StableMeasure.from_point_masses(
            sigma, {a: {1: Fraction(1, 2), 2: Fraction(1, 2)} for a in ("a1", "a2")}
        )
        with pytest.raises(ValueError, match="coordinates"):
            measure_to_kernel(mu)

    def test_recovery_needs_probability(self, coords_setting):
        cspace, sigma, _ = coords_setting
        heavy = StableMeasure.from_point_masses(
            sigma, {a: {0: Fraction(2), 1: Fraction(1)} for a in ("a1", "a2")}
        )
        with pytest.raises(ValueError, match="probability"):
            measure_to_kernel(heavy)

    def test_recovery_needs_a_discrete_sigma_algebra(self, coords_setting):
        cspace, _, _ = coords_setting
        trivial = StableSigmaAlgebra.trivial(cspace)
        with pytest.raises(ValueError, match="discrete"):
            measure_to_kernel(StableMeasure.dirac(trivial, {"a1": 0, "a2": 1}))
        ring = StableRing.from_fiber_sets(cspace, {a: [frozenset({0})] for a in cspace.algebra.atoms})
        with pytest.raises(ValueError, match="on a sigma-algebra"):
            measure_to_kernel(StableMeasure(ring, {a: {frozenset({0}): Fraction(1)} for a in cspace.algebra.atoms}))

    def test_distribution_jumps_by_hand(self):
        # coordinates out of point order, a gap of 9 between 1 and 10,
        # and a point without mass: F jumps by 1/4 at -1, by 0 at 1 and
        # by 3/4 at 10
        coords = {"p": Fraction(10), "q": Fraction(-1), "r": Fraction(1)}
        jumps = classical.distribution_jumps(coords, {"p": Fraction(3, 4), "q": Fraction(1, 4), "r": Fraction(0)})
        assert list(jumps.items()) == [("q", Fraction(1, 4)), ("r", Fraction(0)), ("p", Fraction(3, 4))]

    def test_many_points_read_the_measure(self, coin_algebra):
        # 200 points on 2 atoms: the kernel's point masses are the block masses
        points = tuple(range(200))
        space = GroundSpace(points, {p: Fraction(3 * p - 250, 7) for p in points})
        sigma = StableSigmaAlgebra.discrete(CondSpace(coin_algebra, space))
        total = sum(points)
        mu = StableMeasure.from_point_masses(
            sigma,
            {"a1": {p: Fraction(1, 200) for p in points}, "a2": {p: Fraction(p, total) for p in points}},
        )
        kappa = measure_to_kernel(mu)
        assert kappa.block_mass == mu.block_mass
        assert kappa.field == SetRing([frozenset((p,)) for p in points])


class TestKernel:
    """A kernel holds the stable measure it represents."""

    @pytest.fixture
    def triple(self, coin_algebra):
        cspace = CondSpace(coin_algebra, GroundSpace((0, 1, 2)))
        field = SetRing([frozenset({0}), frozenset({1, 2})])
        masses = {
            "a1": {frozenset({0}): Fraction(1, 3), frozenset({1, 2}): Fraction(2, 3)},
            "a2": {frozenset({1, 2}): INF, frozenset({0}): Fraction(0)},
        }
        return cspace, field, masses

    def test_interface_and_repr(self, triple):
        cspace, field, masses = triple
        kappa = Kernel(cspace, field, masses)
        assert repr(kappa) == "Kernel(a1: {0}=1/3, {1,2}=2/3; a2: {0}=0, {1,2}=inf)"
        assert kappa.field == field and kappa.block_mass == masses
        assert kappa.mass("a1", frozenset({0, 1, 2})) == 1 and kappa.mass("a2", frozenset()) == 0
        assert kappa.mass("a2", frozenset({1, 2})) is INF
        assert not kappa.is_probability()
        assert kernel_to_measure(kappa) is kappa.measure
        assert kappa.measure.domain == StableSigmaAlgebra(cspace, {a: field for a in cspace.algebra.atoms})
        assert kappa == Kernel(cspace, field, {a: dict(row) for a, row in masses.items()})
        with pytest.raises(ValueError, match="not measurable"):
            kappa.mass("a1", frozenset({1}))

    def test_validation(self, triple):
        cspace, field, masses = triple
        with pytest.raises(ValueError, match="must be a field"):
            Kernel(cspace, SetRing([frozenset({0}), frozenset({1})]), masses)
        missing = {**masses, "a1": {frozenset({0}): Fraction(1)}}
        extra = {**masses, "a1": {**masses["a1"], frozenset({0, 1, 2}): Fraction(0)}}
        negative = {**masses, "a2": {frozenset({0}): Fraction(-1), frozenset({1, 2}): Fraction(2)}}
        for table in (missing, extra, negative):
            with pytest.raises(ValueError):
                Kernel(cspace, field, table)


class TestSubAlgebra:
    def test_blocks_sort_by_first_atom_and_label(self, dice):
        parity = dice["parity"]
        assert parity.labels == ("a1+a3+a5", "a2+a4+a6")
        assert parity.quotient.weights["a1+a3+a5"] == Fraction(1, 2)

    def test_partition_is_enforced(self, dice):
        with pytest.raises(ValueError):
            SubAlgebra(dice["algebra"], [["a1", "a2"], ["a2", "a3", "a4", "a5", "a6"]])

    def test_spread_to_atoms(self, dice):
        parity = dice["parity"]
        g = Field(parity.quotient, {"a1+a3+a5": Fraction(3), "a2+a4+a6": Fraction(4)})
        spread = parity.spread_to_atoms(g)
        assert spread.as_dict() == {"a1": 3, "a2": 4, "a3": 3, "a4": 4, "a5": 3, "a6": 4}


class TestConditioning:
    def test_dice_conditional_expectation(self, dice):
        got = conditional_expectation(dice["parity"], dice["roll"], dice["space"], dice["face"])
        assert got.as_dict() == {"a1+a3+a5": 3, "a2+a4+a6": 4}

    def test_dice_conditional_distribution_of_odd(self, dice):
        dist = conditional_distribution(dice["parity"], dice["roll"], dice["space"])
        assert dist.is_probability()
        quotient_space = dist.domain.cspace
        odd = mk(quotient_space, {label: {1, 3, 5} for label in dice["parity"].labels})
        assert dist.eval(odd).as_dict() == {"a1+a3+a5": 1, "a2+a4+a6": 0}

    def test_finest_grouping_returns_the_function(self, dice):
        algebra = dice["algebra"]
        fine = SubAlgebra(algebra, [[a] for a in algebra.atoms])
        got = conditional_expectation(fine, dice["roll"], dice["space"], dice["face"])
        assert [got[label] for label in fine.labels] == [1, 2, 3, 4, 5, 6]

    def test_coarsest_grouping_returns_the_mean(self, dice):
        algebra = dice["algebra"]
        trivial = SubAlgebra(algebra, [list(algebra.atoms)])
        got = conditional_expectation(trivial, dice["roll"], dice["space"], dice["face"])
        assert got[trivial.labels[0]] == Fraction(7, 2)

    def test_tower_property(self, dice):
        algebra = dice["algebra"]
        trivial = SubAlgebra(algebra, [list(algebra.atoms)])
        inner = conditional_expectation(dice["parity"], dice["roll"], dice["space"], dice["face"])
        spread = dice["parity"].spread_to_atoms(inner)
        obs_space, obs = field_as_observation(spread)
        fmap = {p: Fraction(p) for p in obs_space.points}
        outer = conditional_expectation(trivial, obs, obs_space, fmap)
        direct = conditional_expectation(trivial, dice["roll"], dice["space"], dice["face"])
        assert outer[trivial.labels[0]] == direct[trivial.labels[0]] == Fraction(7, 2)

    @staticmethod
    def off_ground_observation():
        """Four uniform atoms in two pairs; a2 observes 7, not a ground point."""
        algebra = MeasureAlgebra.uniform(["a1", "a2", "a3", "a4"])
        sub = SubAlgebra(algebra, [["a1", "a2"], ["a3", "a4"]])
        return sub, {"a1": 1, "a2": 7, "a3": 2, "a4": 3}, GroundSpace((1, 2, 3))

    def test_distribution_rejects_an_observation_off_the_ground_points(self):
        sub, xi, space = self.off_ground_observation()
        with pytest.raises(ValueError, match="^observation 7 at atom 'a2' is not a ground point$"):
            conditional_distribution(sub, xi, space)

    def test_expectation_rejects_an_observation_off_the_ground_points(self):
        sub, xi, space = self.off_ground_observation()
        with pytest.raises(ValueError, match="^observation 7 at atom 'a2' is not a ground point$"):
            conditional_expectation(sub, xi, space, {p: Fraction(p) for p in space.points})

    def test_distribution_over_trivial_grouping_is_the_law(self, dice):
        algebra = dice["algebra"]
        trivial = SubAlgebra(algebra, [list(algebra.atoms)])
        dist = conditional_distribution(trivial, dice["roll"], dice["space"])
        law = classical.pushforward(algebra.weights, dice["roll"], dice["space"].points)
        label = trivial.labels[0]
        quotient_space = dist.domain.cspace
        for p in dice["space"].points:
            single = mk(quotient_space, {label: {p}})
            assert dist.eval(single)[label] == law[p] == Fraction(1, 6)


class TestObservationFromField:
    def test_distinct_values_become_points(self, coin_algebra):
        h = Field(coin_algebra, {"a1": Fraction(1, 3), "a2": Fraction(2)})
        space, obs = field_as_observation(h)
        assert set(space.points) == {Fraction(1, 3), Fraction(2)}
        assert space.coords is not None
        assert obs == {"a1": Fraction(1, 3), "a2": Fraction(2)}

    def test_infinite_field_rejected(self, coin_algebra):
        h = Field(coin_algebra, {"a1": Fraction(1), "a2": INF})
        with pytest.raises(ValueError):
            field_as_observation(h)

    def test_lift_function_spreads_over_atoms(self, coin_space):
        sigma = StableSigmaAlgebra.discrete(coin_space)
        f = Integrand.from_point_map(sigma, {1: Fraction(0), 2: Fraction(5)})
        assert f.value("a1", 2) == 5 and f.value("a2", 2) == 5
