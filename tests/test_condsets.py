import random
from fractions import Fraction

import pytest

from condmeasure import (
    BOTTOM,
    CondSpace,
    ConditionalSet,
    GroundSpace,
    MeasureAlgebra,
    cartesian_product,
    cond_difference,
    cond_intersection,
    cond_le,
    cond_union,
    membership_event,
    product_space,
)
from condmeasure.condsets import MaskCodec
from condmeasure.verify import Draw, Size


def mk(space, fibers):
    return space.make(fibers.keys(), fibers)


@pytest.fixture
def trio():
    algebra = MeasureAlgebra.uniform(["a1", "a2"])
    return CondSpace(algebra, GroundSpace((1, 2, 3)))


class TestGroundSpace:
    def test_points_must_be_unique(self):
        with pytest.raises(ValueError):
            GroundSpace((1, 1, 2))

    def test_sort_key_orders_as_points(self):
        points = ("b", 3, (1, "x"), "a", 0)
        space = GroundSpace(points)
        shuffled = list(points)
        random.Random(5).shuffle(shuffled)
        assert tuple(sorted(shuffled, key=space.sort_key())) == points
        assert tuple(sorted(reversed(points), key=space.sort_key())) == points
        twin = GroundSpace(points)
        space.sort_key()
        assert space == twin and hash(space) == hash(twin)
        assert space != GroundSpace(tuple(reversed(points)))
        assert {space: 1}[twin] == 1

    def test_coords_must_be_injective(self):
        with pytest.raises(ValueError):
            GroundSpace((1, 2), {1: Fraction(0), 2: Fraction(0)})

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            GroundSpace(())


class TestConditionalSet:
    def test_fibers_must_match_support(self):
        with pytest.raises(ValueError):
            ConditionalSet(("a1",), {"a1": frozenset({1}), "a2": frozenset({2})})

    def test_empty_fiber_rejected(self):
        with pytest.raises(ValueError):
            ConditionalSet(("a1",), {"a1": frozenset()})

    def test_bottom_is_shared(self):
        assert ConditionalSet((), {}) == BOTTOM
        assert BOTTOM.is_bottom

    def test_restrict_shrinks_support(self, trio):
        v = mk(trio, {"a1": {1, 2}, "a2": {3}})
        assert v.restrict(frozenset({"a2"})) == mk(trio, {"a2": {3}})
        assert v.restrict(frozenset()) == BOTTOM


class TestLattice:
    def test_union_and_intersection_are_fiberwise(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {1, 2}})
        w = mk(trio, {"a1": {2}, "a2": {2, 3}})
        assert cond_union([v, w]) == mk(trio, {"a1": {1, 2}, "a2": {1, 2, 3}})
        # the a1 fibers do not overlap, so a1 leaves the support entirely
        assert cond_intersection([v, w]) == mk(trio, {"a2": {2}})

    def test_empty_intersection_rejected(self):
        with pytest.raises(ValueError):
            cond_intersection([])

    def test_complement_flips_fibers_and_fills_off_support(self, trio):
        v = mk(trio, {"a1": {1, 2}, "a2": {1, 2, 3}})
        assert trio.complement(v) == mk(trio, {"a1": {3}})
        partial = mk(trio, {"a1": {1}})
        assert trio.complement(partial) == mk(trio, {"a1": {2, 3}, "a2": {1, 2, 3}})
        assert trio.complement(BOTTOM) == trio.top
        assert trio.complement(trio.top) == BOTTOM

    def test_difference(self, trio):
        v = mk(trio, {"a1": {1, 2}, "a2": {1}})
        w = mk(trio, {"a1": {2, 3}})
        assert cond_difference(v, w) == mk(trio, {"a1": {1}, "a2": {1}})

    def test_order(self, trio):
        v = mk(trio, {"a1": {1}})
        w = mk(trio, {"a1": {1, 2}, "a2": {3}})
        assert cond_le(v, w) and not cond_le(w, v)
        assert cond_le(BOTTOM, v)

    def test_de_morgan(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {2}})
        w = mk(trio, {"a1": {1, 3}})
        lhs = trio.complement(cond_union([v, w]))
        rhs = cond_intersection([trio.complement(v), trio.complement(w)])
        assert lhs == rhs


class TestStability:
    def test_concatenation_pastes_fibers(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {1}})
        w = mk(trio, {"a1": {2, 3}, "a2": {2}})
        pasted = trio.concatenate([v, w], [frozenset({"a1"}), frozenset({"a2"})])
        assert pasted == mk(trio, {"a1": {1}, "a2": {2}})
        with pytest.raises(ValueError):
            trio.concatenate([v, w], [frozenset({"a1"}), frozenset({"a1", "a2"})])

    def test_membership_event(self, trio):
        v = mk(trio, {"a1": {1, 2}, "a2": {3}})
        x = {"a1": 2, "a2": 1}
        assert membership_event(x, v) == frozenset({"a1"})

    def test_stable_hull_is_join_of_singletons(self, trio):
        x = {"a1": 1, "a2": 2}
        y = {"a1": 3, "a2": 2}
        hull = trio.stable_hull([x, y])
        assert hull == mk(trio, {"a1": {1, 3}, "a2": {2}})

    def test_singleton(self, trio):
        x = {"a1": 2, "a2": 2}
        assert trio.singleton(x) == mk(trio, {"a1": {2}, "a2": {2}})


class TestEnumeration:
    def test_count_matches_enumeration(self, trio):
        sets = list(trio.all_sets())
        assert len(sets) == (2 ** 3) ** 2
        assert len(set(sets)) == len(sets)
        assert BOTTOM in sets and trio.top in sets

    def test_enumerator_is_the_plain_product(self):
        atoms = ("a1", "a2", "a3")
        cspace = CondSpace(MeasureAlgebra.uniform(list(atoms)), GroundSpace((1, 2, 3)))
        codec = MaskCodec(cspace)
        # None leaves the atom off the support, in any position of the list
        options = [[None, frozenset({1})], [frozenset({2}), None, frozenset({1, 2})], [None, frozenset({3})]]
        want = []
        for x in options[0]:
            for y in options[1]:
                for z in options[2]:
                    fibers = {a: f for a, f in zip(atoms, (x, y, z)) if f is not None}
                    want.append(ConditionalSet(fibers.keys(), fibers))
        codes = [codec.at(a, (codec.mask(f or frozenset()) for f in opts)) for a, opts in zip(atoms, options)]
        got = list(codec.mixes(codes))
        assert got == want
        assert [repr(v) for v in got] == [repr(v) for v in want]

    def test_all_sets_in_product_order(self, trio):
        # per atom: off the support, then the nonempty fibers by bitmask
        pts = trio.space.points
        options = [None] + [frozenset(p for i, p in enumerate(pts) if m >> i & 1) for m in range(1, 8)]
        want = []
        for f1 in options:
            for f2 in options:
                fibers = {a: f for a, f in (("a1", f1), ("a2", f2)) if f is not None}
                want.append(ConditionalSet(fibers.keys(), fibers))
        assert list(trio.all_sets()) == want


class TestMaskCodec:
    @pytest.mark.parametrize("n_atoms, n_points", [(2, 3), (3, 2)])
    def test_codes_follow_the_lattice(self, n_atoms, n_points):
        cspace = CondSpace(MeasureAlgebra.uniform([f"a{i}" for i in range(n_atoms)]), GroundSpace(tuple(range(n_points))))
        codec = MaskCodec(cspace)
        sets = list(cspace.all_sets())
        codes = [codec.encode(v) for v in sets]
        assert codec.encode(BOTTOM) == 0
        assert codec.encode(cspace.top) == codec.top
        assert len(set(codes)) == len(sets)
        for v, x in zip(sets, codes):
            assert codec.decode(x) == v
            assert codec.encode(cspace.complement(v)) == codec.top ^ x
            for a, field in zip(cspace.algebra.atoms, codec.fields):
                assert x & field == codec.encode(v.restrict(frozenset((a,))))
            for w, y in zip(sets, codes):
                assert codec.encode(cond_union([v, w])) == x | y
                assert codec.encode(cond_intersection([v, w])) == x & y
                assert codec.encode(cond_difference(v, w)) == x & ~y

    def test_encode_rejects_sets_off_the_space(self, trio):
        codec = MaskCodec(trio)
        with pytest.raises(ValueError, match="off the algebra"):
            codec.encode(ConditionalSet(("a9",), {"a9": frozenset({1})}))
        with pytest.raises(ValueError, match="outside the ground space"):
            codec.encode(ConditionalSet(("a1",), {"a1": frozenset({1, 4})}))


class TestProducts:
    def test_product_space_points_are_pairs(self, trio):
        algebra = trio.algebra
        left = GroundSpace((1, 2))
        right = GroundSpace(("x", "y"))
        prod = product_space(left, right)
        assert set(prod.points) == {(1, "x"), (1, "y"), (2, "x"), (2, "y")}

    def test_cartesian_product_pairs_fiberwise(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {2, 3}})
        w = mk(trio, {"a1": {2}})
        z = cartesian_product(v, w)
        assert z.support == frozenset({"a1"})
        assert z.fibers["a1"] == frozenset({(1, 2)})


def assert_well_formed(v):
    """The validating constructor accepts the set and rebuilds an equal one."""
    rebuilt = ConditionalSet(v.support, v.fibers)
    assert v == rebuilt and hash(v) == hash(rebuilt) and repr(v) == repr(rebuilt)
    assert v.support == frozenset(v.fibers)
    assert all(type(f) is frozenset and f for f in v.fibers.values())


class TestLatticeResults:
    """Lattice results are well-formed sets: the validating constructor
    accepts each one and rebuilds an equal set."""

    def test_disjoint_fibers_drop_their_atom(self, trio):
        v = mk(trio, {"a1": {1}, "a2": {1, 2}})
        w = mk(trio, {"a1": {2}, "a2": {2}})
        meet = cond_intersection([v, w])
        assert meet.support == frozenset({"a2"})
        assert_well_formed(meet)
        assert cond_intersection([mk(trio, {"a1": {1}}), mk(trio, {"a1": {2}})]) == BOTTOM
        assert_well_formed(cond_difference(w, v))
        assert cond_difference(w, cond_union([v, w])) == BOTTOM
        assert trio.complement(trio.top) == BOTTOM

    def test_seeded_results_match_the_validating_constructor(self):
        seen = {"dropped atom": 0, "bottom": 0, "full fiber": 0}
        for seed in range(300):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4)))
            u, v, w = (draw.cset(cspace) for _ in range(3))
            ev = frozenset(a for a in cspace.algebra.atoms if rng.random() < 0.5)
            results = {
                "union": cond_union([v, w]),
                "union3": cond_union([u, v, w]),
                "union0": cond_union([]),
                "meet": cond_intersection([v, w]),
                "meet3": cond_intersection([u, v, w]),
                "meet1": cond_intersection([v]),
                "difference": cond_difference(v, w),
                "restrict": v.restrict(ev),
                "complement": cspace.complement(v),
                "concatenate": cspace.concatenate([v, w], [ev, cspace.algebra.complement_event(ev)]),
            }
            for r in results.values():
                assert_well_formed(r)
            # each result against its atomwise definition
            for a in cspace.algebra.atoms:
                fv, fw = v.fibers.get(a, frozenset()), w.fibers.get(a, frozenset())
                assert results["union"].fibers.get(a, frozenset()) == fv | fw
                assert results["meet"].fibers.get(a, frozenset()) == fv & fw
                assert results["difference"].fibers.get(a, frozenset()) == fv - fw
                assert results["complement"].fibers.get(a, frozenset()) == cspace.space.point_set - fv
                seen["dropped atom"] += a in v.support and a in w.support and not fv & fw
                seen["full fiber"] += fv == cspace.space.point_set
            seen["bottom"] += results["meet"].is_bottom
        assert all(seen.values()), seen
