import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from condmeasure import (
    BOTTOM,
    CondSpace,
    ConditionalSet,
    Field,
    GroundSpace,
    INF,
    MeasureAlgebra,
    OuterMeasure,
    StableMeasure,
    StableRing,
    StableSigmaAlgebra,
    caratheodory_extend,
    check_measure_axioms,
    cond_difference,
    cond_intersection,
    cond_le,
    cond_union,
    generate_sigma,
    is_caratheodory_measurable,
    uniqueness_check,
)
from condmeasure import classical, condsets, measure
from condmeasure.algebra import ext_add, ext_sub, ext_sum
from condmeasure.measure import sample_members
from condmeasure.sigma import SetRing, mix_closure
from condmeasure.verify import FAULTS, Draw, Size, inject_fault

from call_counts import PACKAGE, condmeasure_calls

#: Block masses drawn by the seeded tests: zero, finite positive, infinite.
MASSES = (Fraction(0), Fraction(1, 3), Fraction(2), INF)


def mk(space, fibers):
    return space.make(fibers.keys(), fibers)


def listed_sample(domain, cap, seed=0):
    """`sample_members` drawn from each atom's listed ring members, the
    empty one leaving the atom off the support: the reference that the
    bit-decoding sampler must reproduce."""
    if domain.member_count() <= cap:
        return list(domain.members())
    rng = random.Random(seed)
    atoms = domain.algebra.atoms
    options = [list(domain.ring_at(a).members()) for a in atoms]
    out = {BOTTOM}
    while len(out) < cap:
        choices = [rng.choice(opts) for opts in options]
        out.add(ConditionalSet._of({a: f for a, f in zip(atoms, choices) if f}))
    return sorted(out, key=repr)


class Counting(StableMeasure):
    """Counts its evaluations."""

    __slots__ = ("calls",)

    def eval(self, v):
        self.calls = getattr(self, "calls", 0) + 1
        return super().eval(v)


class LeaksOffSupport(StableMeasure):
    """Puts mass 1/7 off the support of a set supported on one atom."""

    def eval(self, v):
        out = super().eval(v)
        if len(v.support) != 1:
            return out
        return Field(self.algebra, {a: out[a] if a in v.support else Fraction(1, 7) for a in self.algebra.atoms})


class Clamped(StableMeasure):
    """Never reports more than 3."""

    def eval(self, v):
        capped = super().eval(v)
        return capped.map2(capped, lambda x, _: min(x, Fraction(3)))


class DriftsOnRepeat(StableMeasure):
    """Adds 1 on the support the second time it sees the same set."""

    __slots__ = ("seen",)

    def eval(self, v):
        out = super().eval(v)
        self.seen = getattr(self, "seen", {})
        self.seen[v] = self.seen.get(v, 0) + 1
        if self.seen[v] != 2:
            return out
        return Field(self.algebra, {a: out[a] + 1 if a in v.support else out[a] for a in self.algebra.atoms})


class ShiftsTwoPointFibers(StableMeasure):
    """Adds 1/7 at each atom whose fiber has two points.

    The shift is local to each atom, so localization holds and only the
    pair checks see it; its denominator divides no block-mass scale below.
    """

    shift = Fraction(1, 7)

    def eval(self, v):
        out = super().eval(v)
        return Field(
            self.algebra,
            {a: ext_add(out[a], self.shift) if len(v.fibers.get(a, ())) == 2 else out[a] for a in self.algebra.atoms},
        )


class LowersTwoPointFibers(ShiftsTwoPointFibers):
    shift = Fraction(-1, 7)


def field_pair_checks(mu, members, chain_meet=cond_intersection):
    """The pair and chain checks of `check_measure_axioms` on `Field`
    arithmetic.

    The pair checks make one evaluation per distinct set; the chains,
    drawn as the checker draws them, evaluate every set afresh, and the
    decreasing ones are built with ``chain_meet``.  Returns the first
    failing axiom and its witness, or None.
    """
    seen = {}

    def value(v):
        if v not in seen:
            seen[v] = mu.eval(v) if mu.domain.contains(v) else None
        return seen[v]

    for k, v in enumerate(members):
        for w in members[k:]:
            meet = cond_intersection([v, w])
            union, both = value(cond_union([v, w])), value(meet)
            if union is None or both is None:
                continue
            total = value(v) + value(w)
            if meet.is_bottom and union != total:
                return "additivity", f"{v!r} and {w!r}"
            if union + both != total:
                return "modularity", f"{v!r} and {w!r}"
            if not union.le(total):
                return "subadditivity", f"{v!r} and {w!r}"
            for lo, hi in ((v, w), (w, v)):
                if not cond_le(lo, hi):
                    continue
                if not value(lo).le(value(hi)):
                    return "monotonicity", f"{lo!r} inside {hi!r}"
                diff = value(cond_difference(hi, lo))
                if diff is None:
                    continue
                for a in mu.algebra.atoms:
                    if value(lo)[a] is not INF and diff[a] != ext_sub(value(hi)[a], value(lo)[a]):
                        return "subtraction", f"{hi!r} minus {lo!r} at atom {a}"
    rng = random.Random(1)
    for _ in range(min(20, len(members))):
        picks = rng.sample(members, min(len(members), 4))
        for axiom, step in (("continuity-below", cond_union), ("continuity-above", chain_meet)):
            chain = list(accumulate(picks, lambda acc, v: step([acc, v])))
            if not all(mu.domain.contains(c) for c in chain):
                break
            values = [mu.eval(c) for c in chain]
            if axiom == "continuity-above" and not values[0].is_finite():
                break
            pairs = zip(values, values[1:]) if axiom == "continuity-below" else zip(values[1:], values)
            if not all(lo.le(hi) for lo, hi in pairs):
                return axiom, f"chain {chain!r} is not monotone in mass"
            if values[-1] != mu.eval(chain[-1]):
                return axiom, f"chain {chain!r} misses its limit"
    return None


@pytest.fixture
def trio():
    algebra = MeasureAlgebra([("a1", Fraction(2, 3)), ("a2", Fraction(1, 3))])
    return CondSpace(algebra, GroundSpace((1, 2, 3)))


@pytest.fixture
def partial_ring(trio):
    """Covers {1,2} at a1 with an infinite block, only {1,2} at a2; point 3 is
    out of reach everywhere."""
    return StableRing(
        trio,
        {
            "a1": SetRing([frozenset({1}), frozenset({2})]),
            "a2": SetRing([frozenset({1, 2})]),
        },
    )


@pytest.fixture
def premeasure(partial_ring):
    return StableMeasure(
        partial_ring,
        {
            "a1": {frozenset({1}): Fraction(1, 2), frozenset({2}): INF},
            "a2": {frozenset({1, 2}): Fraction(3, 4)},
        },
    )


class TestStableMeasure:
    def test_masses_must_cover_domain_blocks(self, trio):
        sig = StableSigmaAlgebra.trivial(trio)
        with pytest.raises(ValueError):
            StableMeasure(sig, {"a1": {frozenset({1, 2, 3}): Fraction(1)}, "a2": {}})
        with pytest.raises(ValueError):
            StableMeasure(sig, {a: {frozenset({1, 2, 3}): Fraction(-1)} for a in ("a1", "a2")})

    @pytest.mark.parametrize("masses", [{1: -1, 2: 1}, {1: -1, 2: INF}, {1: 2, 2: Fraction(-1)}])
    def test_point_masses_are_checked_for_sign_before_the_sum(self, masses):
        # the trivial algebra sums both points into one block, where the
        # negative mass would cancel or vanish into INF; the discrete
        # algebra keeps it on its own block
        cspace = CondSpace(MeasureAlgebra([("a1", Fraction(1))]), GroundSpace((1, 2)))
        for sig in (StableSigmaAlgebra.trivial(cspace), StableSigmaAlgebra.discrete(cspace)):
            with pytest.raises(ValueError, match="^negative mass -1 at atom 'a1'$"):
                StableMeasure.from_point_masses(sig, {"a1": masses})

    def test_eval_sums_blocks_and_localizes(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 6), 2: Fraction(1, 3), 3: Fraction(1, 2)} for a in ("a1", "a2")}
        )
        got = mu.eval(mk(trio, {"a1": {1, 2}}))
        assert got.as_dict() == {"a1": Fraction(1, 2), "a2": 0}
        assert mu.eval(BOTTOM) == Field.zero(trio.algebra)
        assert mu.is_probability() and mu.is_finite()

    def test_eval_rejects_non_measurable(self, trio):
        sig = StableSigmaAlgebra.trivial(trio)
        mu = StableMeasure(sig, {a: {frozenset({1, 2, 3}): Fraction(1)} for a in ("a1", "a2")})
        with pytest.raises(ValueError, match="not measurable"):
            mu.eval(mk(trio, {"a1": {1}}))

    def test_dirac_is_membership_indicator(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        x = {"a1": 2, "a2": 3}
        delta = StableMeasure.dirac(sig, x)
        v = mk(trio, {"a1": {1, 2}, "a2": {1}})
        assert delta.eval(v).as_dict() == {"a1": 1, "a2": 0}
        assert delta.is_probability()

    def test_dirac_rejects_a_point_off_the_ground_points(self, trio):
        for domain in (StableSigmaAlgebra.discrete(trio), StableRing(trio, {"a1": SetRing([]), "a2": SetRing([])})):
            with pytest.raises(ValueError, match="^dirac point 7 at atom 'a2' is not a ground point$"):
                StableMeasure.dirac(domain, {"a1": 1, "a2": 7})

    def test_scale_and_add(self, trio):
        sig = StableSigmaAlgebra.trivial(trio)
        mu = StableMeasure(sig, {a: {frozenset({1, 2, 3}): Fraction(1)} for a in ("a1", "a2")})
        combo = mu.scale(Fraction(1, 2)).add(mu)
        assert combo.eval(trio.top).as_dict() == {"a1": Fraction(3, 2), "a2": Fraction(3, 2)}

    def test_add_needs_one_domain(self, trio):
        fine = StableMeasure.dirac(StableSigmaAlgebra.discrete(trio), {"a1": 1, "a2": 1})
        coarse = StableMeasure.dirac(StableSigmaAlgebra.trivial(trio), {"a1": 1, "a2": 1})
        for mu, nu in ((fine, coarse), (coarse, fine)):
            with pytest.raises(ValueError, match="different domains"):
                mu.add(nu)

    def test_axioms_hold_for_block_measures(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 4), 2: INF, 3: Fraction(0)} for a in ("a1", "a2")}
        )
        report = check_measure_axioms(mu, cap=80)
        assert report.ok, (report.axiom, report.witness)

    def test_axiom_checker_evaluates_each_set_once(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 4), 2: INF, 3: Fraction(0)} for a in ("a1", "a2")}
        )
        counted = Counting(sig, mu.block_mass)
        assert check_measure_axioms(counted, cap=80).ok
        # 64 members and 2,080 pairs: one evaluation per distinct set fits,
        # one per pair member does not
        assert counted.calls <= 500

    def test_axiom_checker_catches_broken_eval(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1), 2: Fraction(2), 3: Fraction(4)} for a in ("a1", "a2")}
        )
        with inject_fault("measure-eval-max"):
            report = check_measure_axioms(mu, cap=80)
        got = {"measure-eval-max": (report.axiom, report.witness)}
        for broken in (LeaksOffSupport, Clamped, DriftsOnRepeat):
            report = check_measure_axioms(broken(sig, mu.block_mass), cap=80)
            got[broken.__name__] = (report.axiom, report.witness)
        assert got == {
            "measure-eval-max": ("additivity", "ConditionalSet(a2:{1}) and ConditionalSet(a2:{2})"),
            "LeaksOffSupport": ("localization", "ConditionalSet(a2:{1}) restricted to ['a1']"),
            "Clamped": ("additivity", "ConditionalSet(a2:{1}) and ConditionalSet(a2:{3})"),
            "DriftsOnRepeat": ("localization", "ConditionalSet(a2:{1}) restricted to ['a2']"),
        }

    def test_axioms_hold_for_mixed_denominators(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig,
            {
                "a1": {1: Fraction(1, 3), 2: Fraction(1, 4), 3: INF},
                "a2": {1: Fraction(1, 10), 2: INF, 3: Fraction(1, 3)},
            },
        )
        report = check_measure_axioms(mu, cap=80)
        assert report.ok, (report.axiom, report.witness)
        # a genuine measure whose values leave the lattice of mu's block
        # masses (sevenths) is compared exactly and passes too
        sevenths = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 7), 2: Fraction(2, 7), 3: 0} for a in ("a1", "a2")}
        )

        class PlusSevenths(StableMeasure):
            def eval(self, v):
                return super().eval(v) + sevenths.eval(v)

        report = check_measure_axioms(PlusSevenths(sig, mu.block_mass), cap=80)
        assert report.ok, (report.axiom, report.witness)

    def test_axiom_checker_catches_values_off_the_lattice(self, trio):
        one, rest = frozenset({1}), frozenset({2, 3})
        sig = StableSigmaAlgebra.from_blocks(trio, {"a1": [one, rest], "a2": [one, rest]})
        masses = {"a1": {one: Fraction(1, 3), rest: Fraction(1, 4)}, "a2": {one: INF, rest: Fraction(1, 10)}}
        assert check_measure_axioms(StableMeasure(sig, masses), cap=16).ok
        got = {}
        for broken, cap in ((ShiftsTwoPointFibers, 12), (ShiftsTwoPointFibers, 16), (LowersTwoPointFibers, 16)):
            report = check_measure_axioms(broken(sig, masses), cap=cap)
            got[broken.__name__, cap] = (report.axiom, report.witness)
        # the reports that the same checks on `Field` arithmetic give
        assert got == {
            ("ShiftsTwoPointFibers", 12): (
                "subtraction",
                "ConditionalSet(a1:{1,2,3}) minus ConditionalSet(a1:{1}) at atom a1",
            ),
            ("ShiftsTwoPointFibers", 16): ("additivity", "ConditionalSet(a1:{1}) and ConditionalSet(a1:{2,3})"),
            ("LowersTwoPointFibers", 16): ("monotonicity", "ConditionalSet(bottom) inside ConditionalSet(a2:{2,3})"),
        }

    def test_axiom_checker_matches_field_arithmetic(self):
        seen = set()
        # pairs whose union or meet the sample lacks, on domains above the
        # cap that carry an infinite block mass: those go through the
        # checker's table misses
        missed_with_inf = 0
        for seed in range(40):
            rng = random.Random(seed)
            draw = Draw(rng)
            sig = draw.sigma_algebra(draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4))))
            mu = draw.measure_on(sig, allow_inf=seed % 2 == 1)
            has_inf = any(m is INF for row in mu.block_mass.values() for m in row.values())
            for cap in (32, 8):
                members = sample_members(sig, cap)
                sampled = set(members)
                if has_inf and sig.member_count() > cap:
                    missed_with_inf += sum(
                        cond_union([v, w]) not in sampled or cond_intersection([v, w]) not in sampled
                        for v in members
                        for w in members
                    )
                for kind in ("genuine", "measure-eval-max", "off-lattice", "intersection-empty-fiber"):
                    checked = ShiftsTwoPointFibers(sig, mu.block_mass) if kind == "off-lattice" else mu
                    with inject_fault(kind if kind in FAULTS else None):
                        report = check_measure_axioms(checked, cap=cap)
                        # under the fault the checker builds its decreasing chains with the broken meet
                        want = field_pair_checks(checked, members, chain_meet=condsets.cond_intersection)
                    assert (report.axiom, report.witness) == (want or (None, None)), (seed, cap, kind)
                    seen.add((kind, want and want[0]))
        assert missed_with_inf > 0
        assert {("genuine", None), ("measure-eval-max", None), ("measure-eval-max", "additivity"),
                ("measure-eval-max", "subtraction"), ("off-lattice", "additivity"),
                ("off-lattice", "subtraction"), ("intersection-empty-fiber", "continuity-above")} <= seen, seen

    def test_sample_members_is_deterministic(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        assert sample_members(sig, 10, seed=3) == sample_members(sig, 10, seed=3)
        small = StableSigmaAlgebra.trivial(trio)
        assert len(sample_members(small, 100)) == small.member_count()

    def test_sample_members_draws_as_the_option_lists(self):
        for seed in range(120):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 7)))
            domain = rng.choice(
                [draw.sigma_algebra(cspace), draw.ring(cspace), StableSigmaAlgebra.discrete(cspace)]
            )
            cap = rng.choice((8, 20, 64, 200))
            assert sample_members(domain, cap, seed) == listed_sample(domain, cap, seed), seed

    def test_sample_members_of_forty_blocks(self):
        cspace = CondSpace(MeasureAlgebra([("a1", Fraction(1))]), GroundSpace(tuple(range(40))))
        domain = StableSigmaAlgebra.discrete(cspace)
        members = sample_members(domain, 200)
        assert len(members) == len(set(members)) == 200
        assert all(domain.contains(v) for v in members)


class TestOuterMeasure:
    def test_agrees_with_premeasure_on_ring(self, trio, partial_ring, premeasure):
        outer = OuterMeasure(premeasure)
        v = mk(trio, {"a1": {1}})
        assert outer.evaluate(v)["a1"] == Fraction(1, 2)
        assert outer.evaluate(BOTTOM) == Field.zero(trio.algebra)

    def test_cheapest_cover_wins(self, trio, premeasure):
        outer = OuterMeasure(premeasure)
        # {1} at a2 is not a ring member; its only cover is the block {1,2}
        assert outer.evaluate(mk(trio, {"a2": {1}}))["a2"] == Fraction(3, 4)

    def test_uncoverable_region_is_infinite(self, trio, premeasure):
        outer = OuterMeasure(premeasure)
        v = mk(trio, {"a1": {1, 3}, "a2": {1}})
        assert outer.evaluate(v)["a1"] is INF
        assert outer.coverable_event(v) == frozenset({"a2"})

    def test_localization_and_subadditivity(self, trio, premeasure):
        outer = OuterMeasure(premeasure)
        v = mk(trio, {"a1": {1}, "a2": {1, 2}})
        w = mk(trio, {"a1": {2}, "a2": {2}})
        assert outer.evaluate(v.restrict(frozenset({"a1"}))) == outer.evaluate(v).restrict(frozenset({"a1"}))
        union = outer.evaluate(mk(trio, {"a1": {1, 2}, "a2": {1, 2}}))
        assert union.le(outer.evaluate(v) + outer.evaluate(w))

    def test_an_atom_off_the_algebra_is_not_measurable(self, premeasure):
        v = ConditionalSet(("zz",), {"zz": frozenset({1})})
        with pytest.raises(ValueError, match=f"^{re.escape(f'not measurable: {v!r}')}$"):
            OuterMeasure(premeasure).evaluate(v)

    def test_splitting_names_an_atom_off_the_algebra(self, premeasure):
        v = ConditionalSet(("zz",), {"zz": frozenset({1})})
        with pytest.raises(ValueError, match=f"^{re.escape(f'not measurable: {v!r}')}$"):
            is_caratheodory_measurable(OuterMeasure(premeasure), v)

    def test_splitting_detects_non_measurable_set(self, trio, premeasure):
        outer = OuterMeasure(premeasure)
        member = mk(trio, {"a1": {1}})
        half_block = mk(trio, {"a2": {1}})
        assert is_caratheodory_measurable(outer, member)
        assert not is_caratheodory_measurable(outer, half_block)

    def test_local_test_is_the_splitting_definition(self):
        """On 200 seeded pre-measures, the block-local verdict equals
        additive splitting of every conditional set, for every set."""
        rng = random.Random(5)
        seen = {"zero block": 0, "infinite block": 0, "uncovered point": 0, "off support": 0}
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n_atoms, n_points = rng.choice(((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)))
            algebra = MeasureAlgebra.uniform([f"a{i}" for i in range(n_atoms)])
            cspace = CondSpace(algebra, GroundSpace(tuple(range(n_points))))
            per_atom, masses = {}, {}
            for a in algebra.atoms:
                labels = {p: rng.randrange(3) for p in cspace.space.points}
                blocks = [frozenset(p for p in labels if labels[p] == k) for k in (1, 2)]
                per_atom[a] = SetRing([b for b in blocks if b])
                masses[a] = {b: rng.choice(MASSES) for b in per_atom[a].blocks}
                seen["uncovered point"] += 0 in labels.values()
                seen["zero block"] += any(m == 0 for m in masses[a].values())
                seen["infinite block"] += any(m is INF for m in masses[a].values())
            outer = OuterMeasure(StableMeasure(StableRing(cspace, per_atom), masses))
            sets = list(cspace.all_sets())
            value = {w: outer.evaluate(w) for w in sets}
            for v in sets:
                splits = all(
                    value[w] == value[cond_intersection([w, v])] + value[cond_difference(w, v)] for w in sets
                )
                got = is_caratheodory_measurable(outer, v)
                assert got is splits, f"{v!r} under {outer.premeasure!r}"
                verdicts[got] += 1
                seen["off support"] += v.support != frozenset(algebra.atoms)
        assert all(seen.values()) and all(verdicts.values()), (seen, verdicts)


def ring_premeasure(n_points, blocks, masses):
    """A pre-measure on one atom: ``blocks`` over points 0..n_points-1,
    block i weighing ``masses[i]``."""
    cspace = CondSpace(MeasureAlgebra([("a1", Fraction(1))]), GroundSpace(tuple(range(n_points))))
    ring = StableRing(cspace, {"a1": SetRing(blocks)})
    return StableMeasure(ring, {"a1": dict(zip(blocks, masses))})


class TestCoverSearchInsideTheHull:
    """`mass_at` searches only the ring members inside the fiber's hull,
    the union of the blocks the fiber meets."""

    def test_cheapest_cover_is_the_closed_form_on_seeded_rings(self):
        """On 60 seeded pre-measures of 4 to 8 blocks per atom on 1 to 3
        atoms, the outer mass of fibers that meet 1 to 3 blocks equals
        `classical.outer_mass`."""
        rng = random.Random(29)
        seen = {"zero block": 0, "infinite block": 0, "uncovered point": 0, "cut block": 0, "hull below covered": 0}
        for _ in range(60):
            n_blocks = rng.randint(4, 8)
            algebra = MeasureAlgebra.uniform([f"a{i}" for i in range(rng.randint(1, 3))])
            cspace = CondSpace(algebra, GroundSpace(tuple(range(2 * n_blocks + rng.randint(0, 2)))))
            per_atom, masses = {}, {}
            for a in algebra.atoms:
                points = rng.sample(cspace.space.points, len(cspace.space.points))
                blocks = []
                for _ in range(n_blocks):
                    size = rng.randint(1, 2)
                    blocks.append(frozenset(points[:size]))
                    del points[:size]
                per_atom[a] = SetRing(blocks)
                masses[a] = {b: rng.choice(MASSES) for b in blocks}
            outer = OuterMeasure(StableMeasure(StableRing(cspace, per_atom), masses))
            for a, ring in per_atom.items():
                uncovered = sorted(cspace.space.point_set - ring.covered)
                for _ in range(5):
                    met = rng.sample(ring.blocks, rng.randint(1, 3))
                    pool = sorted(frozenset().union(*met))
                    fiber = frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
                    if uncovered and rng.random() < 0.2:
                        fiber |= {rng.choice(uncovered)}
                    want = classical.outer_mass(masses[a], fiber)
                    assert outer.mass_at(a, fiber) == want, (masses[a], fiber)
                    hull = [b for b in ring.blocks if b & fiber]
                    seen["zero block"] += any(masses[a][b] == 0 for b in hull)
                    seen["infinite block"] += any(masses[a][b] is INF for b in hull)
                    seen["uncovered point"] += not fiber <= ring.covered
                    seen["cut block"] += any(not b <= fiber for b in hull)
                    seen["hull below covered"] += len(hull) < len(ring.blocks)
        assert all(seen.values()), seen

    def test_the_search_is_handed_the_members_inside_the_hull(self, monkeypatch):
        """On one atom with 12 blocks, a 3-point fiber that meets 2 blocks
        hands each of its |fiber| search rounds those 2 blocks and their
        union, not the 4,095 members of the ring."""
        blocks = [frozenset({2 * i, 2 * i + 1}) for i in range(12)]
        outer = OuterMeasure(ring_premeasure(24, blocks, [Fraction(i + 1) for i in range(12)]))
        inside = {blocks[0], blocks[2], blocks[0] | blocks[2]}
        rounds = []
        real = measure.combinations

        def recorded(table, k):
            # checked here, so a search over the whole ring fails at once
            assert set(table) == inside
            rounds.append(k)
            return real(table, k)

        monkeypatch.setattr(measure, "combinations", recorded)
        assert outer.mass_at("a1", frozenset({0, 1, 4})) == 1 + 3
        assert rounds == [1, 2, 3]


def extension_call_counts(sizes=(5, 6, 7, 8)):
    """Counted calls of `caratheodory_extend` on one atom with k two-point
    ring blocks over 2k + 1 points, for each k in ``sizes``: the shape of
    the bench's `caratheodory` factory at one atom."""
    counts = []
    for k in sizes:
        rng = random.Random(1)
        points = rng.sample(range(2 * k + 1), 2 * k)
        blocks = [frozenset(points[i : i + 2]) for i in range(0, 2 * k, 2)]
        masses = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in blocks]
        pre = ring_premeasure(2 * k + 1, blocks, masses)
        counts.append(condmeasure_calls(lambda: caratheodory_extend(pre)))
    return counts


class TestExtensionGrowth:
    """`caratheodory_extend` pays for the member table, about 2x per added
    block; each block's outer mass searches only the block itself."""

    def test_counted_calls_grow_at_most_2_5x_per_block(self):
        counts = extension_call_counts()
        assert all(later <= 2.5 * earlier for earlier, later in zip(counts, counts[1:])), counts

    def test_counted_calls_do_not_depend_on_the_hash_seed(self):
        tests_dir = str(Path(__file__).parent)
        code = f"import sys; sys.path[:0] = [{tests_dir!r}]; import test_measure; print(test_measure.extension_call_counts())"
        seen = set()
        for seed in ("0", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(PACKAGE).parent)}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            seen.add(proc.stdout)
        assert seen == {f"{extension_call_counts()}\n"}


class TestCaratheodoryExtension:
    def test_extension_blocks_and_masses(self, trio, premeasure):
        ext = caratheodory_extend(premeasure)
        assert set(ext.domain.blocks("a1")) == {frozenset({1}), frozenset({2}), frozenset({3})}
        assert set(ext.domain.blocks("a2")) == {frozenset({1, 2}), frozenset({3})}
        assert ext.block_mass["a1"][frozenset({1})] == Fraction(1, 2)
        assert ext.block_mass["a1"][frozenset({2})] is INF
        assert ext.block_mass["a1"][frozenset({3})] is INF
        assert ext.block_mass["a2"][frozenset({1, 2})] == Fraction(3, 4)
        assert ext.block_mass["a2"][frozenset({3})] is INF

    def test_extension_restricts_to_premeasure(self, trio, premeasure):
        ext = caratheodory_extend(premeasure)
        v = mk(trio, {"a1": {1, 2}, "a2": {1, 2}})
        assert ext.eval(v) == premeasure.eval(v)

    def test_uncovered_point_fault_reaches_the_extension(self, premeasure):
        # point 3 lies in no ring block: its remainder block is infinite,
        # and the fault on the per-atom outer mass makes it 0
        rest = frozenset({3})
        assert caratheodory_extend(premeasure).block_mass["a2"][rest] is INF
        with inject_fault("outer-ignores-uncovered"):
            assert caratheodory_extend(premeasure).block_mass["a2"][rest] == 0


class TestUniqueness:
    def test_agreement_on_generator_forces_agreement(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        masses = {a: {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)} for a in ("a1", "a2")}
        mu = StableMeasure.from_point_masses(sig, masses)
        generator = sorted(
            mix_closure(trio, [trio.top, mk(trio, {"a1": {1}, "a2": {1}})]), key=repr
        )
        assert uniqueness_check(mu, mu, generator)

    def test_trivial_generator_ignores_finer_disagreement(self, trio):
        # {top} generates only the trivial algebra, where the measures coincide
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)} for a in ("a1", "a2")}
        )
        nu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 4), 2: Fraction(1, 2), 3: Fraction(1, 4)} for a in ("a1", "a2")}
        )
        assert uniqueness_check(mu, nu, [trio.top])

    def test_disagreement_on_generator_is_reported(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)} for a in ("a1", "a2")}
        )
        nu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 4), 2: Fraction(1, 2), 3: Fraction(1, 4)} for a in ("a1", "a2")}
        )
        generator = sorted(
            mix_closure(trio, [trio.top, mk(trio, {"a1": {1}, "a2": {1}})]), key=repr
        )
        assert not uniqueness_check(mu, nu, generator)

    def test_generator_must_be_meet_closed(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)} for a in ("a1", "a2")}
        )
        generator = [trio.top, mk(trio, {"a1": {1, 2}, "a2": {1, 2}}), mk(trio, {"a1": {2, 3}, "a2": {2, 3}})]
        with pytest.raises(ValueError, match="pairwise meets"):
            uniqueness_check(mu, mu, generator)

    def test_generator_must_exhaust_the_space(self, trio):
        sig = StableSigmaAlgebra.discrete(trio)
        mu = StableMeasure.from_point_masses(
            sig, {a: {1: Fraction(1), 2: Fraction(0), 3: Fraction(0)} for a in ("a1", "a2")}
        )
        with pytest.raises(ValueError, match="whole space is missing"):
            uniqueness_check(mu, mu, [mk(trio, {"a1": {1}, "a2": {1}})])

    def test_exhausting_mass_must_be_finite(self, trio):
        sig = StableSigmaAlgebra.trivial(trio)
        mu = StableMeasure(sig, {a: {frozenset({1, 2, 3}): INF} for a in ("a1", "a2")})
        with pytest.raises(ValueError, match="finite mass"):
            uniqueness_check(mu, mu, [trio.top])

    def test_blocks_decide_like_member_enumeration(self):
        """Seeded pairs on a discrete or a coarser domain, with a
        meet-closed chain generator; the domain is often finer than the
        generated sigma-algebra, and mass moved inside one generated
        block must not change the verdict."""
        rng = random.Random(8)
        verdicts = {True: 0, False: 0}
        finer_disagreement = 0
        for _ in range(200):
            n_atoms, n_points = rng.choice(((1, 3), (2, 2), (2, 3), (3, 3)))
            algebra = MeasureAlgebra.uniform([f"a{i}" for i in range(n_atoms)])
            cspace = CondSpace(algebra, GroundSpace(tuple(range(n_points))))
            if rng.random() < 0.5:
                domain = StableSigmaAlgebra.discrete(cspace)
            else:
                # one singleton block and the rest, per atom
                single = {a: frozenset((rng.randrange(n_points),)) for a in algebra.atoms}
                domain = StableSigmaAlgebra.from_blocks(
                    cspace, {a: [s, cspace.space.point_set - s] for a, s in single.items()}
                )
            # a decreasing chain of domain members is closed under meets
            generator, fibers = [cspace.top], {a: list(domain.blocks(a)) for a in algebra.atoms}
            for _ in range(rng.randint(0, 2)):
                fibers = {a: rng.sample(bs, rng.randint(1, len(bs))) for a, bs in fibers.items()}
                fibers = {a: bs for a, bs in fibers.items() if rng.random() < 0.8} or fibers
                generator.append(ConditionalSet(fibers, {a: frozenset().union(*bs) for a, bs in fibers.items()}))
            mu = StableMeasure(domain, {a: {b: rng.choice(MASSES[:3]) for b in domain.blocks(a)} for a in algebra.atoms})
            table = {a: dict(row) for a, row in mu.block_mass.items()}
            sigma = generate_sigma(cspace, generator)
            a = rng.choice(algebra.atoms)
            if rng.random() < 0.5:
                # move mass between two domain blocks of one generated block
                inside = [[b for b in domain.blocks(a) if b <= s] for s in sigma.blocks(a)]
                inside = [bs for bs in inside if len(bs) > 1]
                if inside:
                    b1, b2 = rng.sample(rng.choice(inside), 2)
                    table[a][b1], table[a][b2] = table[a][b2], table[a][b1]
            else:
                b = rng.choice(domain.blocks(a))
                table[a][b] += rng.choice((0, 1))
            nu = StableMeasure(domain, table)
            want = all(mu.eval(v) == nu.eval(v) for v in sigma.members())
            got = uniqueness_check(mu, nu, generator)
            assert got is want, (generator, mu, nu)
            verdicts[got] += 1
            finer_disagreement += got and mu.block_mass != nu.block_mass
        assert all(verdicts.values()) and finer_disagreement, (verdicts, finer_disagreement)

    def test_four_point_counterexample(self):
        """Two different measures that agree on a generator which is not
        closed under meets: the premise check refuses to certify them."""
        algebra = MeasureAlgebra([("a1", Fraction(1))])
        quad = CondSpace(algebra, GroundSpace((1, 2, 3, 4)))
        sig = StableSigmaAlgebra.discrete(quad)
        mu = StableMeasure.from_point_masses(
            sig, {"a1": {p: Fraction(1, 4) for p in (1, 2, 3, 4)}}
        )
        nu = StableMeasure.from_point_masses(
            sig, {"a1": {1: Fraction(1, 2), 2: Fraction(0), 3: Fraction(0), 4: Fraction(1, 2)}}
        )
        twelve = mk(quad, {"a1": {1, 2}})
        thirteen = mk(quad, {"a1": {1, 3}})
        # agreement on the generator, disagreement on the generated algebra
        assert mu.eval(twelve) == nu.eval(twelve)
        assert mu.eval(thirteen) == nu.eval(thirteen)
        assert mu.eval(mk(quad, {"a1": {1}})) != nu.eval(mk(quad, {"a1": {1}}))
        with pytest.raises(ValueError, match="pairwise meets"):
            uniqueness_check(mu, nu, [quad.top, twelve, thirteen])


#: Masses for the block-sum tests: zero as int and Fraction, ints, mixed
#: denominators and infinity.
SUM_MASSES = (0, Fraction(0), 1, 3, Fraction(1, 3), Fraction(5, 6), Fraction(3, 4), Fraction(7, 10), INF)


class TestBlockSum:
    """`eval` is the extended sum of the block masses inside each fiber,
    whatever the masses' types and denominators."""

    def test_seeded_measures_match_the_extended_sum(self):
        seen = {"infinite inside": 0, "zero mass": 0, "int mass": 0, "mixed denominators": 0, "off support": 0,
                "ring": 0, "not measurable": 0}
        for seed in range(300):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4)))
            domain = draw.ring(cspace) if rng.random() < 0.3 else draw.sigma_algebra(cspace)
            seen["ring"] += isinstance(domain, StableRing)
            given = {a: {b: rng.choice(SUM_MASSES) for b in domain.ring_at(a).blocks} for a in cspace.algebra.atoms}
            mu = StableMeasure(domain, given)
            for a, row in given.items():
                for b, m in row.items():
                    if type(m) is int:
                        assert type(mu.block_mass[a][b]) is Fraction
                        seen["int mass"] += 1
            sets = sample_members(domain, 24, seed) + [draw.cset(cspace) for _ in range(8)]
            for v in sets:
                if not domain.contains(v):
                    with pytest.raises(ValueError) as err:
                        mu.eval(v)
                    assert str(err.value) == f"not measurable: {v!r}"
                    seen["not measurable"] += 1
                    continue
                got = mu.eval(v)
                assert Field(cspace.algebra, got.as_dict()) == got
                for a in cspace.algebra.atoms:
                    if a not in v.support:
                        assert got[a] == 0 and type(got[a]) is Fraction
                        seen["off support"] += 1
                        continue
                    inside = [m for b, m in mu.block_mass[a].items() if b <= v.fibers[a]]
                    want = ext_sum(inside)
                    assert got[a] == want and type(got[a]) is type(want), (v, mu)
                    seen["infinite inside"] += INF in inside
                    seen["zero mass"] += any(m == 0 for m in inside)
                    seen["mixed denominators"] += len({Fraction(m).denominator for m in inside if m is not INF}) > 1
        assert all(seen.values()), seen

    def test_field_arithmetic_results_are_well_formed(self):
        for seed in range(100):
            rng = random.Random(seed)
            draw = Draw(rng)
            algebra = draw.algebra(rng.randint(1, 3))
            x = Field(algebra, {a: rng.choice(SUM_MASSES) for a in algebra.atoms})
            y = Field(algebra, {a: rng.choice(SUM_MASSES) for a in algebra.atoms})
            results = [x + y, x * y, x * 2, 3 * y, x * Fraction(1, 3)]
            if y.is_finite():
                results.append(x - y)
            for r in results:
                assert Field(algebra, r.as_dict()) == r
                assert hash(Field(algebra, r.as_dict())) == hash(r)
