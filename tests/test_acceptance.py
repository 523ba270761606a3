"""End-to-end acceptance checks.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each.  Every randomized count here is a hard floor and
all comparisons are exact.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from condmeasure import (
    CondSpace,
    ConditionalSet,
    GroundSpace,
    MeasureAlgebra,
    StableMeasure,
    StableSigmaAlgebra,
    SubAlgebra,
    conditional_expectation,
    daniell_stone_finite,
    field_as_observation,
    uniqueness_check,
)
from condmeasure import cli
from condmeasure.scenario import load_scenario, render_text, run_scenario
from condmeasure.verify import FAULTS, Draw, Size, exhaustive_complement_check, run_suite

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "condmeasure" / "scenarios"
GOLDEN_DIR = Path(__file__).parent / "golden"


def suite_ok(name: str, cases: int) -> None:
    result = run_suite(name, seed=42, cases=cases)
    assert result.ok, f"suite {name}: " + "; ".join(result.failures)


def test_criterion_1_boolean_laws_and_exhaustive_complement():
    suite_ok("lattice", 500)
    total = 0
    for n_atoms in (1, 2, 3):
        for n_points in (2, 3):
            algebra = MeasureAlgebra.uniform([f"a{i+1}" for i in range(n_atoms)])
            space = GroundSpace(tuple(range(1, n_points + 1)))
            total += exhaustive_complement_check(CondSpace(algebra, space))
    for i in range(19):
        cspace = Draw(random.Random(100 + i)).cspace(Size(3, 3))
        total += exhaustive_complement_check(cspace)
    assert total >= 10_000, f"only {total} conditional sets enumerated"
    print(f"criterion 1: PASS (500 random lattice cases, {total} sets enumerated exhaustively)")


def test_criterion_2_sigma_generation_routes_agree():
    suite_ok("sigma", 200)
    print("criterion 2: PASS (200 meet-closed generators; fixpoint, Dynkin and fiberwise closures agree)")


def test_criterion_3_measures_extension_and_uniqueness():
    suite_ok("measure", 200)
    suite_ok("outer", 200)
    suite_ok("caratheodory", 200)
    suite_ok("uniqueness", 100)

    # one atom, four points: equal on a non-meet-closed generator yet different
    algebra = MeasureAlgebra([("a1", Fraction(1))])
    cspace = CondSpace(algebra, GroundSpace((1, 2, 3, 4)))
    sig = StableSigmaAlgebra.discrete(cspace)
    quarter = Fraction(1, 4)
    mu = StableMeasure.from_point_masses(sig, {"a1": {p: quarter for p in (1, 2, 3, 4)}})
    nu = StableMeasure.from_point_masses(
        sig, {"a1": {1: Fraction(1, 2), 2: Fraction(0), 3: Fraction(0), 4: Fraction(1, 2)}}
    )
    g1 = ConditionalSet(("a1",), {"a1": frozenset((1, 2))})
    g2 = ConditionalSet(("a1",), {"a1": frozenset((1, 3))})
    for g in (g1, g2, cspace.top):
        assert mu.eval(g) == nu.eval(g)
    singleton = ConditionalSet(("a1",), {"a1": frozenset((1,))})
    assert mu.eval(singleton) != nu.eval(singleton), "extensions are not distinct"
    with pytest.raises(ValueError, match="pairwise meets"):
        uniqueness_check(mu, nu, [g1, g2, cspace.top])
    print("criterion 3: PASS (700 random measure cases; 4-point counterexample yields distinct extensions)")


def test_criterion_4_exact_integration():
    suite_ok("integral", 500)
    print("criterion 4: PASS (500 random integrands; staircases, limits and oracle all agree)")


def test_criterion_5_kernels_and_conditioning(dice):
    suite_ok("kernel", 200)

    ce = conditional_expectation(dice["parity"], dice["roll"], dice["space"], dice["face"])
    assert ce["a1+a3+a5"] == 3
    assert ce["a2+a4+a6"] == 4

    # conditioning the parity average on the trivial grouping gives the mean
    whole = SubAlgebra(dice["algebra"], [frozenset(dice["algebra"].atoms)])
    ospace, oxi = field_as_observation(dice["parity"].spread_to_atoms(ce))
    via_parity = conditional_expectation(whole, oxi, ospace, {p: p for p in ospace.points})
    direct = conditional_expectation(whole, dice["roll"], dice["space"], dice["face"])
    assert via_parity == direct
    assert direct[whole.labels[0]] == Fraction(7, 2)
    print("criterion 5: PASS (200 random kernel cases; dice average by parity is exactly (3, 4))")


def test_criterion_6_products_densities_and_functionals():
    suite_ok("product", 200)
    suite_ok("markov", 200)
    suite_ok("hahn", 200)
    suite_ok("rn", 200)
    suite_ok("daniell", 100)

    algebra = MeasureAlgebra.uniform(["a1", "a2"])
    cspace = CondSpace(algebra, GroundSpace((1, 2)))
    x = {"a1": 1, "a2": 2}
    delta = daniell_stone_finite(cspace, lambda g: g.at(x))
    want = StableMeasure.dirac(StableSigmaAlgebra.discrete(cspace), x)
    assert delta.block_mass == want.block_mass, "evaluation functional is not the point mass"
    print("criterion 6: PASS (900 random product cases; point evaluation recovered as a measure)")


def test_criterion_7_cli_reports_and_fault_detection(capsys):
    for name in ("dice", "density", "fubini", "coverage", "chain"):
        report = run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.json")))
        assert render_text(report) == (GOLDEN_DIR / f"{name}.txt").read_text(), f"report drift: {name}"

    assert cli.main(["verify", "--seed", "42", "--cases", "100"]) == 0
    capsys.readouterr()
    # suites are seeded independently, so the paired suite failing alone
    # is what it does inside a run of all suites
    for fault, (_, _, paired) in FAULTS.items():
        code = cli.main(["verify", "--seed", "42", "--cases", "100", "--suite", paired, "--fault", fault])
        out = capsys.readouterr().out
        assert code == 3, f"fault {fault} was not detected"
        assert f"suite {paired}: FAILED" in out, f"fault {fault} was not caught by suite {paired}"
    print(f"criterion 7: PASS (5 golden reports byte-identical; clean verify exits 0, every fault exits 3: {len(FAULTS)} faults)")
