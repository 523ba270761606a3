import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import condmeasure
from condmeasure import CondSpace, GroundSpace, MeasureAlgebra
from condmeasure.verify import (
    FAULTS,
    SUITES,
    Draw,
    Size,
    _case_size,
    exhaustive_complement_check,
    inject_fault,
    run_suite,
)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes_clean(self, name):
        result = run_suite(name, seed=11, cases=4)
        assert result.ok, result.failures

    def test_results_are_deterministic(self):
        first = run_suite("lattice", seed=5, cases=6)
        second = run_suite("lattice", seed=5, cases=6)
        assert first == second

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite: no-such-suite"):
            run_suite("no-such-suite", seed=0, cases=1)

    def test_sets_built_do_not_follow_string_hashing(self):
        # a check that stops at its first miss must walk its sets in a
        # fixed order, or the number of sets it builds follows the hash seed
        script = (
            "from condmeasure import condsets, verify\n"
            "built = 0\n"
            "init = condsets.ConditionalSet.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    global built\n"
            "    built += 1\n"
            "    init(self, *args, **kwargs)\n"
            "condsets.ConditionalSet.__init__ = counted\n"
            "assert verify.run_suite('sigma', 1, 40).ok\n"
            "print(built)\n"
        )
        package_root = Path(condmeasure.__file__).resolve().parent.parent
        counts = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": str(package_root), "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert counts[0] == counts[1]


class TestExhaustiveComplement:
    def test_small_space_is_fully_enumerated(self):
        algebra = MeasureAlgebra.uniform(["a1", "a2"])
        cspace = CondSpace(algebra, GroundSpace((1, 2)))
        assert exhaustive_complement_check(cspace) == 16


class TestFaults:
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_paired_suite_catches_the_fault(self, name):
        _, _, paired = FAULTS[name]
        with inject_fault(name):
            broken = run_suite(paired, seed=0, cases=12)
        assert not broken.ok, f"fault {name} went unnoticed by suite {paired}"
        # the patch must restore cleanly
        again = run_suite(paired, seed=0, cases=12)
        assert again.ok, again.failures

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_replaces_every_binding(self, name):
        _, swap, _ = FAULTS[name]
        original = getattr(swap.owner, swap.attr)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "condmeasure" or n.startswith("condmeasure.")) and n != "condmeasure.verify"
        ]

        def bindings(value):
            return {(m.__name__, k) for m in modules for k, v in vars(m).items() if v is value}

        before = bindings(original)
        with inject_fault(name):
            assert getattr(swap.owner, swap.attr) is swap.replacement
            assert bindings(original) == set()
            assert bindings(swap.replacement) == before
        assert getattr(swap.owner, swap.attr) is original
        assert bindings(original) == before
        assert bindings(swap.replacement) == set()

    def test_intersection_fault_reaches_the_importing_modules(self):
        from condmeasure import BOTTOM, StableMeasure, StableSigmaAlgebra, condsets, integral, measure, uniqueness_check

        # a meet-closed generator whose two sets have disjoint fibers at a1:
        # the broken meet keeps a1 with the union, a set outside the generator
        cspace = CondSpace(MeasureAlgebra.uniform(["a1", "a2"]), GroundSpace((1, 2, 3)))
        gen = [cspace.top, cspace.make(["a1"], {"a1": {1}}), cspace.make(["a1"], {"a1": {2}}), BOTTOM]
        mu = StableMeasure.dirac(StableSigmaAlgebra.discrete(cspace), {"a1": 1, "a2": 1})
        original = condsets.cond_intersection
        assert uniqueness_check(mu, mu, gen)
        with inject_fault("intersection-empty-fiber"):
            broken = condsets.cond_intersection
            assert broken is not original
            assert measure.cond_intersection is integral.cond_intersection is broken
            with pytest.raises(ValueError, match="not closed under pairwise meets"):
                uniqueness_check(mu, mu, gen)
        assert measure.cond_intersection is integral.cond_intersection is original
        assert uniqueness_check(mu, mu, gen)

    def test_scaling_fault_reaches_left_scaling(self):
        from condmeasure import Field, Integrand, StableSigmaAlgebra

        algebra = MeasureAlgebra.uniform(["a1", "a2"])
        sigma = StableSigmaAlgebra.discrete(CondSpace(algebra, GroundSpace((1, 2))))
        f = Integrand.constant(sigma, 1)
        r = Field(algebra, {"a1": Fraction(2), "a2": Fraction(3)})
        assert (r * f).values["a2"][1] == 3
        with inject_fault("integrand-scale-first-atom"):
            assert (r * f).values["a2"][1] == 2
            assert (f * r).values["a2"][1] == 2

    def test_shrink_replays_the_failing_case(self):
        # at seed 42 cases 47 and 72 fail only through their own draws;
        # replaying those draws shrinks them.  Case 42 fails at 3 atoms and
        # 2 points, and no ladder size within that fails.
        with inject_fault("measure-eval-max"):
            broken = run_suite("outer", seed=42, cases=100)
        assert [m.partition(":")[0] for m in broken.failures] == ["case 42", "case 47", "case 72"]
        heads = [m.split(": ", 1)[1].partition(")")[0] + ")" for m in broken.failures]
        assert heads == [
            "(not shrunk: 3 atoms, 2 points)",
            "(shrunk to 1 atoms, 2 points)",
            "(shrunk to 1 atoms, 2 points)",
        ], broken.failures

    @pytest.mark.parametrize(
        ("fault", "suite"), [("outer-ignores-uncovered", "outer"), ("caratheodory-rejects-uncovered", "caratheodory")]
    )
    def test_shrunk_witness_is_never_larger_than_the_failure(self, fault, suite):
        # case 4 fails at 3 atoms and 2 points; the ladder sizes within
        # that pass, so it is not shrunk, and never "shrunk" to 4 points
        with inject_fault(fault):
            broken = run_suite(suite, seed=42, cases=100)
        case_4 = [m for m in broken.failures if m.startswith("case 4:")]
        assert case_4 and case_4[0].startswith("case 4: (not shrunk: 3 atoms, 2 points) "), broken.failures
        _, cap = SUITES[suite]
        for m in broken.failures:
            found = re.match(r"case (\d+): \(shrunk to (\d+) atoms, (\d+) points\)", m)
            if found:
                index, atoms, points = map(int, found.groups())
                size = _case_size(random.Random(42 * 1000003 + index), cap)
                assert atoms <= size.atoms and points <= size.points, (m, size)

    def test_uniqueness_decides_meet_closure_from_the_fibers(self):
        # the broken meet builds the generator, so it cannot also judge it
        with inject_fault("intersection-empty-fiber"):
            broken = run_suite("uniqueness", seed=42, cases=100)
        assert [m.partition(":")[0] for m in broken.failures] == ["case 38", "case 73", "case 74"]
        assert all("generator not closed under meets" in m for m in broken.failures), broken.failures

    def test_failures_carry_witnesses(self):
        with inject_fault("complement-support"):
            broken = run_suite("lattice", seed=0, cases=12)
        assert broken.failures
        assert all(isinstance(m, str) and m for m in broken.failures)

    def test_none_is_a_no_op(self):
        with inject_fault(None):
            assert run_suite("daniell", seed=1, cases=2).ok

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with inject_fault("no-such-fault"):
                pass


class TestDraw:
    def test_draws_are_reproducible(self):
        import random

        a = Draw(random.Random(7))
        b = Draw(random.Random(7))
        sa = a.cspace(Size(3, 4))
        sb = b.cspace(Size(3, 4))
        assert sa.algebra == sb.algebra
        assert sa.space.points == sb.space.points
        assert a.cset(sa) == b.cset(sb)

    def test_coordinate_spaces_have_injective_coords(self):
        import random

        for seed in range(30):
            draw = Draw(random.Random(seed))
            space = draw.space(4, coords=True)
            assert space.coords is not None
            assert len(set(space.coords.values())) == len(space.points)
