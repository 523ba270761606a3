"""The exact-value boundary: every validating public constructor reads its
numbers through `algebra.exact`, so what it stores is a `Fraction` or INF.

Each constructor is driven with three kinds of input: values it must
reject with the named error (a float, a whole float, a `bool`, a
string), a valid `int` or `Fraction`, which it stores as a `Fraction`,
and INF, which it takes exactly where an infinite value is allowed.  A
source scan keeps floats out of the package, and seeded metamorphic
relations check that scaling a measure scales what is computed from it.
"""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from condmeasure import (
    CondSpace,
    Field,
    GroundSpace,
    INF,
    Integrand,
    MeasureAlgebra,
    StableMarkovKernel,
    StableMeasure,
    StableSigmaAlgebra,
    integrate,
    radon_nikodym,
)
from condmeasure.algebra import ExactValueError
from condmeasure.measure import sample_members
from condmeasure.verify import Draw, Size

#: Inputs every constructor rejects: a float, a whole float, a bool, a string.
REJECTED = (0.5, 1.0, True, "1/2")

ALGEBRA = MeasureAlgebra([("a1", Fraction(1, 3)), ("a2", Fraction(2, 3))])
CSPACE = CondSpace(ALGEBRA, GroundSpace((1, 2)))
SIGMA = StableSigmaAlgebra.discrete(CSPACE)
BLOCKS = {a: SIGMA.blocks(a) for a in ALGEBRA.atoms}


def _algebra(v):
    return MeasureAlgebra([("a1", v), ("a2", Fraction(2, 3))]).weights["a1"]


def _field(v):
    return Field(ALGEBRA, {"a1": v, "a2": Fraction(0)})["a1"]


def _field_times(v):
    return (Field.constant(ALGEBRA, 1) * v)["a1"]


def _times_field(v):
    return (v * Field.constant(ALGEBRA, 1))["a1"]


def _coords(v):
    return GroundSpace((1, 2), {1: v, 2: Fraction(7, 2)}).coords[1]


def _masses(v):
    return {a: {b: v for b in BLOCKS[a]} for a in ALGEBRA.atoms}


def _measure(v):
    return StableMeasure(SIGMA, _masses(v)).block_mass["a1"][BLOCKS["a1"][0]]


def _point_masses(v):
    mu = StableMeasure.from_point_masses(SIGMA, {a: {1: v, 2: Fraction(1)} for a in ALGEBRA.atoms})
    return mu.block_mass["a1"][frozenset((1,))]


def _scale(v):
    return StableMeasure(SIGMA, _masses(1)).scale(v).block_mass["a1"][BLOCKS["a1"][0]]


def _integrand(v):
    return Integrand(SIGMA, {a: {1: v, 2: Fraction(1)} for a in ALGEBRA.atoms}).values["a1"][1]


def _integrand_constant(v):
    return Integrand.constant(SIGMA, v).values["a1"][1]


def _integrand_times(v):
    return (Integrand.constant(SIGMA, 1) * v).values["a1"][1]


def _times_integrand(v):
    return (v * Integrand.constant(SIGMA, 1)).values["a1"][1]


def _markov_kernel(v):
    rows = {a: {p: {1: v, 2: 0} for p in (1, 2)} for a in ALGEBRA.atoms}
    return StableMarkovKernel(SIGMA, SIGMA, rows).rows["a1"][1][1]


#: (constructor, the place its error names, whether INF is allowed, a valid value)
CONSTRUCTORS = {
    "MeasureAlgebra": (_algebra, "weight of atom 'a1'", False, Fraction(1, 3)),
    "Field": (_field, "field value at atom 'a1'", True, 3),
    "Field * scalar": (_field_times, "field scale factor", True, 2),
    "scalar * Field": (_times_field, "field scale factor", True, Fraction(1, 2)),
    "GroundSpace coords": (_coords, "coordinate of point 1", False, -2),
    "StableMeasure": (_measure, "mass at atom 'a1'", True, 4),
    "StableMeasure.from_point_masses": (_point_masses, "point mass of 1 at atom 'a1'", True, 5),
    "StableMeasure.scale": (_scale, "measure scale factor", True, 6),
    "Integrand": (_integrand, "integrand value at atom 'a1', point 1", False, -7),
    "Integrand.constant": (_integrand_constant, "integrand constant", False, 8),
    "Integrand * scalar": (_integrand_times, "integrand scale factor", False, Fraction(-9, 2)),
    "scalar * Integrand": (_times_integrand, "integrand scale factor", False, 10),
    "StableMarkovKernel": (_markov_kernel, "kernel row at atom 'a1', point 1", False, 1),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
class TestBoundary:
    @pytest.mark.parametrize("bad", REJECTED, ids=repr)
    def test_rejects_with_the_place_and_the_value(self, name, bad):
        build, place, infinite, _ = CONSTRUCTORS[name]
        kinds = "an int, a Fraction or inf" if infinite else "an int or a Fraction"
        with pytest.raises(ValueError) as err:
            build(bad)
        assert isinstance(err.value, ExactValueError)
        assert str(err.value) == f"{place}: expected {kinds}, got {bad!r}"

    def test_stores_a_valid_value_as_a_fraction(self, name):
        build, _, _, valid = CONSTRUCTORS[name]
        got = build(valid)
        assert type(got) is Fraction and got == valid

    def test_takes_inf_exactly_where_allowed(self, name):
        build, place, infinite, _ = CONSTRUCTORS[name]
        if infinite:
            assert build(INF) is INF
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(place)}: expected an int or a Fraction, got inf$"):
                build(INF)


def _exempt_thresholds(tree: ast.AST) -> set[int]:
    """The ids of float literals ``c`` in comparisons ``<x>.rng.random() < c``
    or ``rng.random() < c``."""
    exempt = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Lt)):
            continue
        call, bound = node.left, node.comparators[0]
        if (
            isinstance(call, ast.Call)
            and not call.args
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "random"
            and ast.unparse(call.func.value).split(".")[-1] == "rng"
            and isinstance(bound, ast.Constant)
        ):
            exempt.add(id(bound))
    return exempt


def test_no_floats_in_the_package():
    """No float literal and no `float(` call in `src/condmeasure/`.

    Every value the package computes is an exact `Fraction` or INF.  The
    one exempt shape is ``rng.random() < 0.x`` in the seeded draws: those
    thresholds are probabilities of taking a branch, compared with the
    random module's own float, and never become values.
    """
    package = Path(__file__).resolve().parents[1] / "src" / "condmeasure"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = _exempt_thresholds(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)) and id(node) not in exempt:
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{path.name}:{node.lineno}: float(...) call")
    assert not found, found


#: Scale factors, each given as an int and as the equal Fraction.
FACTORS = (0, 1, 2, 5)


class TestScaling:
    """Scaling a measure by c scales its values, its integrals and the
    density of a numerator measure by c, on seeded `verify.Draw` instances."""

    @staticmethod
    def _factors(rng):
        k = rng.choice(FACTORS)
        d = rng.randint(1, 3)
        return (k, Fraction(k), Fraction(k, d))

    def test_values_and_integrals_scale(self):
        seen = {"infinite": 0, "zero": 0, "int": 0}
        for seed in range(120):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4)))
            sig = draw.sigma_algebra(cspace)
            mu = draw.measure_on(sig, allow_inf=rng.random() < 0.4)
            f = draw.integrand(sig, nonneg=not mu.is_finite())
            members = sample_members(sig, 24, seed)
            for c in self._factors(rng):
                scaled = mu.scale(c)
                for v in members:
                    assert scaled.eval(v) == mu.eval(v) * c, (seed, c, v)
                assert integrate(f, scaled) == integrate(f, mu) * c, (seed, c)
                seen["int"] += type(c) is int
                seen["zero"] += c == 0
            seen["infinite"] += not mu.is_finite()
        assert all(seen.values()), seen

    def test_densities_scale(self):
        for seed in range(80):
            rng = random.Random(seed)
            draw = Draw(rng)
            cspace = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4)))
            sig = draw.sigma_algebra(cspace)
            mu = draw.measure_on(sig, probability=True)
            # a density times mu: absolutely continuous by construction
            nu = StableMeasure(sig, {a: {b: m * draw.value() for b, m in mu.block_mass[a].items()} for a in sig.algebra.atoms})
            density = radon_nikodym(mu, nu)
            for c in self._factors(rng):
                assert radon_nikodym(mu, nu.scale(c)) == density * c, (seed, c)

    @pytest.mark.parametrize("bad", [0.5, True], ids=repr)
    def test_a_float_or_bool_factor_is_named(self, bad):
        mu = StableMeasure(SIGMA, _masses(1))
        with pytest.raises(ValueError, match=f"^measure scale factor: expected an int, a Fraction or inf, got {re.escape(repr(bad))}$"):
            mu.scale(bad)
