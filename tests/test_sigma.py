import random
from fractions import Fraction
from itertools import product

import pytest

from condmeasure import (
    BOTTOM,
    CondSpace,
    ConditionalSet,
    GroundSpace,
    MeasureAlgebra,
    SetRing,
    StableFunction,
    StableRing,
    StableSigmaAlgebra,
    classify,
    cond_intersection,
    cond_preimage,
    cond_union,
    fiberwise_sigma_oracle,
    generate_dynkin,
    generate_sigma,
    is_stable_collection,
    is_stably_measurable,
)
from condmeasure.sigma import generate_sigma_extensional, mix_closure
from condmeasure.verify import Draw, Size


def mk(space, fibers):
    return space.make(fibers.keys(), fibers)


@pytest.fixture
def trio():
    algebra = MeasureAlgebra.uniform(["a1", "a2"])
    return CondSpace(algebra, GroundSpace((1, 2, 3)))


@pytest.fixture
def quad():
    algebra = MeasureAlgebra([("a1", Fraction(1))])
    return CondSpace(algebra, GroundSpace((1, 2, 3, 4)))


class TestSetRing:
    def test_generated_blocks_are_signatures(self):
        ring = SetRing.generated([frozenset({1, 2}), frozenset({2, 3})])
        assert set(ring.blocks) == {frozenset({1}), frozenset({2}), frozenset({3})}
        assert ring.covered == frozenset({1, 2, 3})

    def test_contains_unions_of_blocks_only(self):
        ring = SetRing([frozenset({1, 2}), frozenset({3})])
        assert ring.contains(frozenset({1, 2, 3}))
        assert not ring.contains(frozenset({1}))
        assert not ring.contains(frozenset({4}))

    def test_from_members_validates_closure(self):
        SetRing.from_members([frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})])
        with pytest.raises(ValueError):
            SetRing.from_members([frozenset({1}), frozenset({2})])

    def test_member_count(self):
        ring = SetRing([frozenset({1}), frozenset({2}), frozenset({3})])
        assert ring.member_count() == 8
        assert len(list(ring.members())) == 8


class TestStableFamilies:
    def test_ring_membership_is_atom_local(self, trio):
        ring = StableRing.from_fiber_sets(trio, {"a1": [frozenset({1})], "a2": [frozenset({2, 3})]})
        assert ring.contains(mk(trio, {"a1": {1}}))
        assert ring.contains(mk(trio, {"a1": {1}, "a2": {2, 3}}))
        assert not ring.contains(mk(trio, {"a2": {2}}))
        assert ring.contains(BOTTOM)

    def test_ring_blocks_must_lie_in_the_ground_points(self):
        cspace = CondSpace(MeasureAlgebra([("a1", Fraction(1))]), GroundSpace((1, 2)))
        with pytest.raises(ValueError, match="blocks at atom 'a1' are not inside the ground points"):
            StableRing(cspace, {"a1": SetRing([{1, 99}])})
        StableRing(cspace, {"a1": SetRing([{1}])})

    def test_sigma_must_cover_the_points(self, trio):
        with pytest.raises(ValueError):
            StableSigmaAlgebra.from_blocks(trio, {"a1": [frozenset({1})], "a2": [frozenset({1, 2, 3})]})

    def test_discrete_and_trivial(self, trio):
        disc = StableSigmaAlgebra.discrete(trio)
        triv = StableSigmaAlgebra.trivial(trio)
        assert disc.member_count() == 8 * 8
        assert triv.member_count() == 2 * 2
        assert disc.contains(mk(trio, {"a1": {2}}))
        assert not triv.contains(mk(trio, {"a1": {2}}))


class TestMixes:
    def test_members_in_product_order(self, trio):
        ring = StableRing.from_fiber_sets(trio, {"a1": [frozenset({1}), frozenset({1, 2})], "a2": [frozenset({3})]})
        a1 = ring.ring_at("a1")
        assert list(a1.members()) == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
        # the empty ring member leaves the atom off the support
        want = []
        for f1 in a1.members():
            for f2 in (frozenset(), frozenset({3})):
                fibers = {a: f for a, f in (("a1", f1), ("a2", f2)) if f}
                want.append(ConditionalSet(fibers.keys(), fibers))
        assert list(ring.members()) == want
        assert repr(ring) == "StableRing(a1:SetRing({1}, {2}); a2:SetRing({3}))"
        assert repr(StableSigmaAlgebra.trivial(trio)) == "StableSigmaAlgebra(a1:SetRing({1,2,3}); a2:SetRing({1,2,3}))"

    def test_mix_closure_adds_all_concatenations(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {1}})
        w = mk(trio, {"a1": {2}, "a2": {2}})
        mixes = mix_closure(trio, [v, w])
        assert mixes == frozenset(
            {v, w, mk(trio, {"a1": {1}, "a2": {2}}), mk(trio, {"a1": {2}, "a2": {1}})}
        )

    def test_stability_detects_missing_mix(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {1}})
        w = mk(trio, {"a1": {2}, "a2": {2}})
        assert not is_stable_collection(trio, [v, w])
        assert is_stable_collection(trio, mix_closure(trio, [v, w]))


class TestClassify:
    def test_sigma_label(self, trio):
        assert classify(trio, StableSigmaAlgebra.trivial(trio).members()) == "sigma"

    def test_dynkin_but_not_sigma(self, quad):
        pairs = [{1, 2}, {3, 4}, {1, 3}, {2, 4}, {1, 4}, {2, 3}]
        members = [BOTTOM, quad.top] + [mk(quad, {"a1": s}) for s in pairs]
        assert classify(quad, members) == "dynkin"

    def test_ring_but_not_dynkin(self, quad):
        members = [BOTTOM, mk(quad, {"a1": {1}})]
        assert classify(quad, members) == "ring"

    def test_none(self, quad):
        members = [BOTTOM, mk(quad, {"a1": {1}}), mk(quad, {"a1": {2}})]
        assert classify(quad, members) == "none"


class TestGeneration:
    def test_generated_sigma_matches_oracle_and_closure(self, trio):
        gen = [mk(trio, {"a1": {1}, "a2": {1, 2}})]
        sig = generate_sigma(trio, gen)
        assert sig == fiberwise_sigma_oracle(trio, gen)
        assert frozenset(sig.members()) == generate_sigma_extensional(trio, gen)
        assert set(sig.blocks("a1")) == {frozenset({1}), frozenset({2, 3})}
        assert set(sig.blocks("a2")) == {frozenset({1, 2}), frozenset({3})}
        assert sig.member_count() == 16

    def test_meet_closed_generator_passes_pi_lambda(self, trio):
        gen = [mk(trio, {"a1": {1}, "a2": {1, 2}})]
        assert frozenset(generate_sigma(trio, gen).members()) == generate_dynkin(trio, gen)

    def test_non_meet_closed_generator_can_fail_pi_lambda(self, quad):
        # the two generating sets overlap in {1}, which neither contains alone:
        # the Dynkin closure stops at six members while the sigma-algebra is discrete
        gen = [mk(quad, {"a1": {1, 2}}), mk(quad, {"a1": {1, 3}})]
        assert frozenset(generate_sigma(quad, gen).members()) != generate_dynkin(quad, gen)
        assert len(generate_dynkin(quad, gen)) == 6
        assert generate_sigma(quad, gen).member_count() == 16

    @pytest.mark.parametrize(
        "fibers",
        ({"a1": {1}, "a2": {2, 99}}, {"a1": {1}, "zz": {2}}),
        ids=("point-off-the-ground-space", "atom-off-the-algebra"),
    )
    def test_generator_outside_the_power_set_is_named(self, trio, fibers):
        # the check runs before any point is encoded, so a stray point or
        # atom is never looked up in the encoding
        gen = [mk(trio, {"a1": {1, 2}}), ConditionalSet(fibers.keys(), fibers)]
        with pytest.raises(ValueError, match="^generator member outside the conditional power set$"):
            generate_sigma(trio, gen)


def _concatenations(cspace, family):
    """Every set that takes each atom's part from some member of ``family``."""
    options = [{v.restrict(frozenset((a,))) for v in family} for a in cspace.algebra.atoms]
    return {cond_union(choice) for choice in product(*options)}


def _reference_closure(cspace, seeds, *, disjoint_unions):
    """The member closure on `ConditionalSet`s: complement, (disjoint)
    pairwise union and concatenation until nothing new appears."""
    family = set(seeds) | {cspace.top}
    fresh = set(family)
    while fresh:
        new = {cspace.complement(v) for v in fresh}
        new |= {
            cond_union([v, w])
            for v in fresh
            for w in family
            if not disjoint_unions or cond_intersection([v, w]).is_bottom
        }
        new |= _concatenations(cspace, family | new)
        fresh = new - family
        family |= fresh
    return frozenset(family)


def _reference_classify(cspace, members):
    ms = frozenset(members)
    if not ms or _concatenations(cspace, ms) != ms:
        return "none"
    pairs = [(v, w) for v in ms for w in ms]
    complemented = cspace.top in ms and all(cspace.complement(v) in ms for v in ms)
    unions = all(cond_union([v, w]) in ms for v, w in pairs)
    if complemented and unions:
        return "sigma"
    if complemented and all(cond_union([v, w]) in ms for v, w in pairs if cond_intersection([v, w]).is_bottom):
        return "dynkin"
    # v minus w is the meet of v with the complement of w
    if unions and all(cond_intersection([v, cspace.complement(w)]) in ms for v, w in pairs):
        return "ring"
    return "none"


class TestMaskClosures:
    """The mask-level closures and `classify` against the set-level reference."""

    def check(self, cspace, gen, labels):
        dynkin = generate_dynkin(cspace, gen)
        sigma = generate_sigma_extensional(cspace, gen)
        assert dynkin == _reference_closure(cspace, gen, disjoint_unions=True)
        assert sigma == _reference_closure(cspace, gen, disjoint_unions=False)
        assert sigma == frozenset(generate_sigma(cspace, gen).members())
        for members in (dynkin, sigma, gen, gen + [BOTTOM], mix_closure(cspace, gen)):
            label = classify(cspace, members)
            assert label == _reference_classify(cspace, members), (members, label)
            labels.add(label)
        return dynkin, sigma

    def test_seeded_spaces_match_the_reference(self):
        labels = set()
        for seed in range(40):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 3)))
            gen = [draw.cset(cspace) for _ in range(rng.randint(1, 3))]
            self.check(cspace, gen, labels)
            ring = list(draw.ring(cspace).members())
            label = classify(cspace, ring)
            assert label == _reference_classify(cspace, ring) in ("ring", "sigma"), ring
            labels.add(label)
        assert labels == {"sigma", "ring", "none"}, labels

    def test_dynkin_differs_from_sigma_on_four_points(self):
        # on at most 3 points every stable Dynkin system is a sigma-algebra;
        # these generators are not meet-closed and need a fourth point
        algebra = MeasureAlgebra.uniform(["a1", "a2"])
        cspace = CondSpace(algebra, GroundSpace((1, 2, 3, 4)))
        labels = set()
        for gen in (
            [mk(cspace, {"a1": {1, 2}}), mk(cspace, {"a1": {1, 3}})],
            [mk(cspace, {"a1": {1, 2}, "a2": {1, 2}}), mk(cspace, {"a1": {1, 3}, "a2": {3}})],
            [mk(cspace, {"a1": {1, 2}, "a2": {1, 3}}), mk(cspace, {"a2": {1, 2}})],
        ):
            dynkin, sigma = self.check(cspace, gen, labels)
            assert dynkin < sigma
            assert classify(cspace, dynkin) == "dynkin"
        assert "dynkin" in labels


class TestMeasurability:
    def test_preimage_commutes_with_membership(self, trio):
        f = StableFunction({a: {1: 2, 2: 2, 3: 1} for a in ("a1", "a2")})
        w = mk(trio, {"a1": {2}, "a2": {1}})
        assert cond_preimage(f, w) == mk(trio, {"a1": {1, 2}, "a2": {3}})

    def test_preimage_of_unreached_fiber_drops_atom(self, trio):
        f = StableFunction({a: {1: 1, 2: 1, 3: 1} for a in ("a1", "a2")})
        w = mk(trio, {"a1": {2, 3}, "a2": {1}})
        assert cond_preimage(f, w) == mk(trio, {"a2": {1, 2, 3}})

    def test_measurability_against_generators(self, trio):
        coarse = StableSigmaAlgebra.from_blocks(
            trio, {a: [frozenset({1, 2}), frozenset({3})] for a in ("a1", "a2")}
        )
        keeps = StableFunction({a: {1: 1, 2: 1, 3: 3} for a in ("a1", "a2")})
        splits = StableFunction({a: {1: 1, 2: 3, 3: 3} for a in ("a1", "a2")})
        targets = list(StableSigmaAlgebra.discrete(trio).members())
        assert is_stably_measurable(keeps, coarse, targets)
        assert not is_stably_measurable(splits, coarse, targets)
