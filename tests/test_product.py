import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from condmeasure import (
    BOTTOM,
    CondSpace,
    ConditionalSet,
    Field,
    GroundSpace,
    INF,
    Integrand,
    MeasureAlgebra,
    StableMarkovKernel,
    StableMeasure,
    StableSigmaAlgebra,
    cartesian_product,
    daniell_stone_finite,
    fubini,
    hahn_positive_set,
    indicator,
    integrate,
    markov_product,
    product_measure,
    product_sigma,
    radon_nikodym,
    rn_improvement_step,
    section_at,
    section_mass_integrand,
)
from condmeasure import product, scenario
from condmeasure.condsets import product_space
from condmeasure.integral import concatenate_integrands
from condmeasure.sigma import SetRing
from condmeasure.verify import Draw, Size


def mk(space, fibers):
    return space.make(fibers.keys(), fibers)


@pytest.fixture
def single():
    algebra = MeasureAlgebra([("a1", Fraction(1))])
    left = CondSpace(algebra, GroundSpace((1, 2)))
    right = CondSpace(algebra, GroundSpace((1, 2)))
    sx = StableSigmaAlgebra.discrete(left)
    sy = StableSigmaAlgebra.discrete(right)
    mu = StableMeasure.from_point_masses(sx, {"a1": {1: Fraction(1, 2), 2: Fraction(1, 2)}})
    nu = StableMeasure.from_point_masses(sy, {"a1": {1: Fraction(1, 3), 2: Fraction(2, 3)}})
    return sx, sy, mu, nu


@pytest.fixture
def pair_setting(coin_space, coin_sigma):
    mu = StableMeasure.from_point_masses(
        coin_sigma,
        {"a1": {1: Fraction(1, 2), 2: Fraction(1, 2)}, "a2": {1: Fraction(1, 2), 2: Fraction(1, 2)}},
    )
    nu = StableMeasure.from_point_masses(
        coin_sigma,
        {"a1": {1: Fraction(1, 4), 2: Fraction(3, 4)}, "a2": {1: Fraction(1), 2: Fraction(0)}},
    )
    return coin_sigma, mu, nu


class TestProductStructure:
    def test_product_blocks_are_rectangles(self, single):
        sx, sy, _, _ = single
        psigma = product_sigma(sx, sy)
        assert set(psigma.blocks("a1")) == {
            frozenset({(1, 1)}), frozenset({(1, 2)}), frozenset({(2, 1)}), frozenset({(2, 2)})
        }

    def test_product_measure_multiplies(self, single):
        sx, sy, mu, nu = single
        joint = product_measure(mu, nu)
        masses = joint.block_mass["a1"]
        assert masses[frozenset({(1, 1)})] == Fraction(1, 6)
        assert masses[frozenset({(1, 2)})] == Fraction(1, 3)
        assert masses[frozenset({(2, 1)})] == Fraction(1, 6)
        assert masses[frozenset({(2, 2)})] == Fraction(1, 3)
        assert joint.is_probability()

    def test_sections(self, single):
        sx, sy, _, _ = single
        psigma = product_sigma(sx, sy)
        pspace = psigma.cspace
        z = mk(pspace, {"a1": {(1, 1), (1, 2), (2, 1)}})
        assert section_at(z, {"a1": 1}) == mk(sy.cspace, {"a1": {1, 2}})
        assert section_at(z, {"a1": 2}) == mk(sy.cspace, {"a1": {1}})
        v = mk(sx.cspace, {"a1": {2}})
        w = mk(sy.cspace, {"a1": {1, 2}})
        rect = cartesian_product(v, w)
        assert section_at(rect, {"a1": 1}) == BOTTOM
        assert section_at(rect, {"a1": 2}) == w

    def test_a_section_that_cuts_a_right_block_is_not_measurable(self):
        algebra = MeasureAlgebra([("a1", Fraction(1))])
        sx = StableSigmaAlgebra.discrete(CondSpace(algebra, GroundSpace(("x1", "x2"))))
        sy = StableSigmaAlgebra.trivial(CondSpace(algebra, GroundSpace(("y1", "y2"))))
        nu = StableMeasure(sy, {"a1": {frozenset({"y1", "y2"}): Fraction(1)}})
        with pytest.raises(ValueError, match="not measurable"):
            nu.eval(mk(sy.cspace, {"a1": {"y1"}}))
        z = mk(product_sigma(sx, sy).cspace, {"a1": {("x1", "y1")}})
        with pytest.raises(ValueError, match="not measurable"):
            section_mass_integrand(z, nu, sx)
        whole = mk(product_sigma(sx, sy).cspace, {"a1": {("x1", "y1"), ("x1", "y2")}})
        s = section_mass_integrand(whole, nu, sx)
        assert s.values["a1"] == {"x1": Fraction(1), "x2": Fraction(0)}


class TestFubini:
    def test_product_of_coordinates(self, single):
        sx, sy, mu, nu = single
        psigma = product_sigma(sx, sy)
        f = Integrand(psigma, {"a1": {(p, q): Fraction(p * q) for p in (1, 2) for q in (1, 2)}})
        left, right, joint = fubini(f, mu, nu)
        assert left["a1"] == right["a1"] == joint["a1"] == Fraction(5, 2)

    def test_diagonal_indicator(self, pair_setting, coin_space):
        sigma, mu, _ = pair_setting
        psigma = product_sigma(sigma, sigma)
        diag = {(p, q): Fraction(1 if p == q else 0) for p in (1, 2) for q in (1, 2)}
        f = Integrand.from_point_map(psigma, diag)
        left, right, joint = fubini(f, mu, mu)
        assert left.as_dict() == right.as_dict() == joint.as_dict() == {"a1": Fraction(1, 2), "a2": Fraction(1, 2)}


class TestMarkov:
    def test_joint_law_blocks(self, pair_setting):
        sigma, _, _ = pair_setting
        mu = StableMeasure.from_point_masses(
            sigma,
            {"a1": {1: Fraction(1, 2), 2: Fraction(1, 2)}, "a2": {1: Fraction(1, 4), 2: Fraction(3, 4)}},
        )
        kernel = StableMarkovKernel(
            sigma,
            sigma,
            {
                "a1": {1: {1: Fraction(1, 2), 2: Fraction(1, 2)}, 2: {1: Fraction(0), 2: Fraction(1)}},
                "a2": {1: {1: Fraction(1), 2: Fraction(0)}, 2: {1: Fraction(1, 2), 2: Fraction(1, 2)}},
            },
        )
        joint = markov_product(kernel, mu)
        a1 = joint.block_mass["a1"]
        assert a1[frozenset({(1, 1)})] == Fraction(1, 4)
        assert a1[frozenset({(1, 2)})] == Fraction(1, 4)
        assert a1[frozenset({(2, 1)})] == Fraction(0)
        assert a1[frozenset({(2, 2)})] == Fraction(1, 2)
        a2 = joint.block_mass["a2"]
        assert a2[frozenset({(1, 1)})] == Fraction(1, 4)
        assert a2[frozenset({(2, 2)})] == Fraction(3, 8)
        # first marginal returns the source
        pspace = joint.domain.cspace
        for p in (1, 2):
            strip = mk(pspace, {a: {(p, 1), (p, 2)} for a in ("a1", "a2")})
            col = mk(sigma.cspace, {a: {p} for a in ("a1", "a2")})
            assert joint.eval(strip) == mu.eval(col)

    def test_rows_must_be_probabilities(self, pair_setting):
        sigma, _, _ = pair_setting
        with pytest.raises(ValueError):
            StableMarkovKernel(
                sigma,
                sigma,
                {a: {p: {1: Fraction(1, 2), 2: Fraction(1, 4)} for p in (1, 2)} for a in ("a1", "a2")},
            )


def seeded_factors(seed):
    """A left and a right factor over one algebra, each sigma-algebra
    independently drawn, discrete or trivial, so either side can be the
    coarser one."""
    rng = random.Random(seed)
    draw = Draw(rng)
    left = draw.cspace(Size(rng.randint(1, 3), rng.randint(1, 4)))
    right = CondSpace(left.algebra, draw.space(rng.randint(1, 3)))

    def some_sigma(cspace):
        return rng.choice(
            [draw.sigma_algebra(cspace), StableSigmaAlgebra.discrete(cspace), StableSigmaAlgebra.trivial(cspace)]
        )

    return rng, draw, some_sigma(left), some_sigma(right)


class TestRectangleMass:
    """Both products against routes that do not take the rectangle shortcut."""

    def test_product_measure_is_the_section_integral(self):
        zero_blocks = 0
        for seed in range(200):
            rng, draw, sx, sy = seeded_factors(seed)
            mu = draw.measure_on(sx)
            nu = StableMeasure.zero(sy) if rng.random() < 0.1 else draw.measure_on(sy)
            joint = product_measure(mu, nu)
            for a in sx.algebra.atoms:
                for b in joint.domain.blocks(a):
                    s = section_mass_integrand(ConditionalSet((a,), {a: b}), nu, sx)
                    want = integrate(s, mu)[a]
                    assert joint.block_mass[a][b] == want, f"seed {seed}, atom {a}"
                    zero_blocks += want == 0
        assert zero_blocks > 0

    def test_markov_product_is_the_pointwise_sum(self):
        for seed in range(200):
            rng, draw, sx, sy = seeded_factors(seed)
            rows = {}
            for a in sx.algebra.atoms:
                rows[a] = {}
                for bx in sx.blocks(a):
                    raw = [rng.randint(0, 3) for _ in sy.space.points]
                    if sum(raw) == 0:
                        raw[0] = 1
                    row = {q: Fraction(w, sum(raw)) for q, w in zip(sy.space.points, raw)}
                    rows[a].update({p: row for p in bx})
            pm = draw.point_masses(sx.cspace)
            joint = markov_product(StableMarkovKernel(sx, sy, rows), StableMeasure.from_point_masses(sx, pm))
            for a in sx.algebra.atoms:
                for b in joint.domain.blocks(a):
                    want = sum((pm[a][p] * rows[a][p][q] for (p, q) in b), Fraction(0))
                    assert joint.block_mass[a][b] == want, f"seed {seed}, atom {a}"

    def test_constant_kernel_is_the_product_measure(self):
        for seed in range(100):
            _, draw, sx, sy = seeded_factors(seed)
            discrete = StableSigmaAlgebra.discrete(sy.cspace)
            nu_points = draw.point_masses(sy.cspace, probability=True)
            nu = StableMeasure.from_point_masses(discrete, nu_points)
            rows = {a: {p: nu_points[a] for p in sx.space.points} for a in sx.algebra.atoms}
            mu = draw.measure_on(sx)
            joint = markov_product(StableMarkovKernel(sx, discrete, rows), mu)
            want = product_measure(mu, nu)
            assert joint.domain == want.domain
            assert joint.block_mass == want.block_mass, f"seed {seed}"


def validated_fubini(f, mu, nu):
    """The Fubini triple with every section and iterated integrand built
    by the validating `Integrand(...)`, after the joint integral."""
    sx, sy = mu.domain, nu.domain
    joint = integrate(f, product_measure(mu, nu))
    left_values = {a: {} for a in sx.algebra.atoms}
    for p in sx.space.points:
        values = {a: {q: f.values[a][(p, q)] for q in sy.space.points} for a in sy.algebra.atoms}
        inner = integrate(Integrand(sy, values), nu)
        for a in sx.algebra.atoms:
            left_values[a][p] = inner[a]
    left = integrate(Integrand(sx, left_values), mu)
    right_values = {a: {} for a in sy.algebra.atoms}
    for q in sy.space.points:
        values = {a: {p: f.values[a][(p, q)] for p in sx.space.points} for a in sx.algebra.atoms}
        inner = integrate(Integrand(sx, values), mu)
        for a in sy.algebra.atoms:
            right_values[a][q] = inner[a]
    right = integrate(Integrand(sy, right_values), nu)
    return left, right, joint


def rectangle_integrand(rng, draw, psigma, nonneg):
    """An integrand constant on every block of ``psigma``, measurable
    against ``psigma`` itself or against the discrete product."""
    sigma = psigma if rng.random() < 0.5 else StableSigmaAlgebra.discrete(psigma.cspace)
    values = {}
    for a in psigma.algebra.atoms:
        values[a] = {}
        for b in psigma.blocks(a):
            v = draw.value(nonneg=nonneg)
            values[a].update({pq: v for pq in b})
    return Integrand(sigma, values)


class TestFubiniAgainstValidatedSections:
    """`fubini` builds its sections trusted; the validated route is the reference."""

    def test_equal_triples_on_seeded_instances(self):
        kinds = {"signed": 0, "nonneg": 0, "zero_block": 0}
        for seed in range(200):
            rng, draw, sx, sy = seeded_factors(seed)
            mu = StableMeasure.zero(sx) if rng.random() < 0.1 else draw.measure_on(sx)
            nu = StableMeasure.zero(sy) if rng.random() < 0.1 else draw.measure_on(sy)
            nonneg = rng.random() < 0.5
            f = rectangle_integrand(rng, draw, product_sigma(sx, sy), nonneg)
            got = fubini(f, mu, nu)
            assert got == validated_fubini(f, mu, nu), f"seed {seed}"
            assert all(type(x) is Fraction for field in got for x in field.as_dict().values())
            kinds["nonneg" if nonneg else "signed"] += 1
            kinds["zero_block"] += any(
                m == 0 for measure in (mu, nu) for row in measure.block_mass.values() for m in row.values()
            )
        assert min(kinds.values()) > 0, kinds

    def test_an_integrand_varying_on_a_rectangle_is_rejected_as_before(self):
        rejected = 0
        for seed in range(60):
            rng, draw, sx, sy = seeded_factors(seed)
            psigma = product_sigma(sx, sy)
            a = next((a for a in sx.algebra.atoms if any(len(b) > 1 for b in psigma.blocks(a))), None)
            if a is None:
                continue
            values = {c: {pq: Fraction(0) for pq in psigma.space.points} for c in sx.algebra.atoms}
            block = next(b for b in psigma.blocks(a) if len(b) > 1)
            values[a][min(block)] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            f = Integrand(StableSigmaAlgebra.discrete(psigma.cspace), values)
            mu, nu = draw.measure_on(sx), draw.measure_on(sy)
            with pytest.raises(ValueError) as reference:
                validated_fubini(f, mu, nu)
            with pytest.raises(ValueError) as trusted:
                fubini(f, mu, nu)
            assert str(trusted.value) == str(reference.value), f"seed {seed}"
            assert str(trusted.value).startswith("not measurable: "), f"seed {seed}"
            rejected += 1
        assert rejected >= 20


class TestFubiniWork:
    def test_the_shipped_fubini_query_builds_one_product_algebra_and_integrates_once(self, monkeypatch):
        calls = {"product_sigma": 0, "integrate": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        sigma_counter = counted("product_sigma", product.product_sigma)
        monkeypatch.setattr(product, "product_sigma", sigma_counter)
        monkeypatch.setattr(scenario, "product_sigma", sigma_counter)
        monkeypatch.setattr(product, "integrate", counted("integrate", product.integrate))
        path = Path(scenario.__file__).parent / "scenarios" / "fubini.json"
        report = scenario.run_scenario(scenario.load_scenario(str(path)))
        assert [r.op for r in report.results] == ["fubini"]
        assert report.verified
        assert calls == {"product_sigma": 1, "integrate": 1}


def validated_product_sigma(sx, sy):
    """The rectangle algebra built through the validating constructors."""
    pspace = CondSpace(sx.algebra, product_space(sx.space, sy.space))
    rings = {
        a: SetRing([frozenset((p, q) for p in bx for q in by) for bx in sx.blocks(a) for by in sy.blocks(a)])
        for a in sx.algebra.atoms
    }
    return StableSigmaAlgebra(pspace, rings)


class TestTrustedProductSigma:
    """`product_sigma` builds its rings trusted; the validated build is the reference."""

    @staticmethod
    def assert_same_algebra(sx, sy):
        trusted, validated = product_sigma(sx, sy), validated_product_sigma(sx, sy)
        assert type(trusted) is StableSigmaAlgebra
        assert trusted == validated
        assert trusted.space == validated.space
        for a in sx.algebra.atoms:
            assert type(trusted.ring_at(a)) is SetRing
            assert trusted.blocks(a) == validated.blocks(a)
            assert trusted.ring_at(a).covered == validated.ring_at(a).covered
        return trusted

    def test_seeded_factor_pairs(self):
        for seed in range(200):
            _, _, sx, sy = seeded_factors(seed)
            self.assert_same_algebra(sx, sy)

    def test_block_order_is_the_str_order_of_the_product_points(self):
        # str(("a b", 1)) sorts before str(("a", 1)), and str((p, 1)) before
        # str((p, 10)), so this order is not the order of the factors
        algebra = MeasureAlgebra.uniform(["a1", "a2"])
        left = CondSpace(algebra, GroundSpace(("a", "a b")))
        right = CondSpace(algebra, GroundSpace((1, 10)))
        discrete = self.assert_same_algebra(StableSigmaAlgebra.discrete(left), StableSigmaAlgebra.discrete(right))
        firsts = [next(iter(b)) for b in discrete.blocks("a1")]
        assert firsts == [("a b", 1), ("a b", 10), ("a", 1), ("a", 10)]
        columns = self.assert_same_algebra(StableSigmaAlgebra.trivial(left), StableSigmaAlgebra.discrete(right))
        assert [sorted(b) for b in columns.blocks("a2")] == [[("a", 1), ("a b", 1)], [("a", 10), ("a b", 10)]]
        mixed = StableSigmaAlgebra.from_blocks(left, {"a1": [{"a"}, {"a b"}], "a2": [{"a", "a b"}]})
        self.assert_same_algebra(mixed, StableSigmaAlgebra.discrete(right))
        self.assert_same_algebra(StableSigmaAlgebra.discrete(right), mixed)


class TestHahn:
    def test_largest_dominated_region(self, pair_setting, coin_space):
        _, mu, nu = pair_setting
        pos = hahn_positive_set(mu, nu)
        assert pos == mk(coin_space, {"a1": {2}, "a2": {1}})

    def test_total_dominance_gives_top(self, pair_setting, coin_space):
        _, mu, _ = pair_setting
        assert hahn_positive_set(mu, mu.scale(Fraction(2))) == coin_space.top

    def test_no_dominance_gives_bottom(self, pair_setting):
        _, mu, _ = pair_setting
        zero = mu.scale(Fraction(0))
        assert hahn_positive_set(mu, zero) == BOTTOM

    def test_infinite_measures_are_rejected(self, pair_setting):
        sigma, mu, _ = pair_setting
        heavy = StableMeasure.from_point_masses(sigma, {a: {1: INF, 2: Fraction(1)} for a in ("a1", "a2")})
        for pair in ((mu, heavy), (heavy, mu)):
            with pytest.raises(ValueError, match="needs finite measures"):
                hahn_positive_set(*pair)


class TestRadonNikodym:
    def test_frozen_densities(self, pair_setting):
        _, mu, nu = pair_setting
        density = radon_nikodym(mu, nu)
        assert density.values["a1"] == {1: Fraction(1, 2), 2: Fraction(3, 2)}
        assert density.values["a2"] == {1: Fraction(2), 2: Fraction(0)}

    def test_density_reproduces_by_integration(self, pair_setting, coin_space):
        sigma, mu, nu = pair_setting
        density = radon_nikodym(mu, nu)
        for v in sigma.members():
            assert integrate(density * indicator(v, sigma), mu) == nu.eval(v)

    def test_violation_names_a_witness(self, coin_space, coin_sigma):
        mu = StableMeasure.from_point_masses(
            coin_sigma,
            {"a1": {1: Fraction(0), 2: Fraction(1)}, "a2": {1: Fraction(1, 2), 2: Fraction(1, 2)}},
        )
        nu = StableMeasure.from_point_masses(
            coin_sigma,
            {"a1": {1: Fraction(1, 2), 2: Fraction(1, 2)}, "a2": {1: Fraction(1), 2: Fraction(0)}},
        )
        with pytest.raises(ValueError, match="not absolutely continuous"):
            radon_nikodym(mu, nu)

    def test_certificate_above_the_member_cap(self):
        # 2 atoms with 8 points each: 256**2 = 65,536 members, so the
        # density is certified per atom on ring members, not by enumeration
        algebra = MeasureAlgebra.uniform(["a1", "a2"])
        sigma = StableSigmaAlgebra.discrete(CondSpace(algebra, GroundSpace(tuple(range(1, 9)))))
        assert sigma.member_count() == 65536
        mu = StableMeasure.from_point_masses(
            sigma,
            {"a1": {p: Fraction(p, 36) for p in range(1, 9)}, "a2": {p: Fraction(1, 7) if p < 8 else Fraction(0) for p in range(1, 9)}},
        )
        nu_a2 = {p: Fraction(p, 3) if p < 8 else Fraction(0) for p in range(1, 9)}
        nu = StableMeasure.from_point_masses(sigma, {"a1": {p: Fraction(1, 2) for p in range(1, 9)}, "a2": nu_a2})
        density = radon_nikodym(mu, nu)
        assert density.values["a1"] == {p: Fraction(18, p) for p in range(1, 9)}
        assert density.values["a2"] == {p: Fraction(7 * p, 3) if p < 8 else Fraction(0) for p in range(1, 9)}
        # mass on the mu-null point 8 at a2 is named as the witness
        not_ac = StableMeasure.from_point_masses(sigma, {"a1": {p: Fraction(1) for p in range(1, 9)}, "a2": {**nu_a2, 8: Fraction(1)}})
        with pytest.raises(ValueError, match=r"not absolutely continuous: witness ConditionalSet\(a2:\{8\}\)"):
            radon_nikodym(mu, not_ac)

    def test_improvement_step_climbs(self, pair_setting):
        sigma, mu, nu = pair_setting
        zero = Integrand.constant(sigma, Fraction(0))
        better = rn_improvement_step(zero, mu, mu)
        assert integrate(zero, mu).as_dict() == {"a1": 0, "a2": 0}
        assert integrate(better, mu).as_dict() == {"a1": Fraction(1, 2), "a2": Fraction(1, 2)}
        # still below the target on every measurable set
        for v in sigma.members():
            assert integrate(better * indicator(v, sigma), mu).le(mu.eval(v))

    def test_improvement_is_a_fixed_point_at_the_density(self, pair_setting):
        sigma, mu, nu = pair_setting
        density = radon_nikodym(mu, nu)
        assert rn_improvement_step(density, mu, nu) == density

    def test_improvement_step_names_an_infinite_measure(self, pair_setting):
        sigma, mu, nu = pair_setting
        zero = Integrand.constant(sigma, 0)
        infinite = nu.scale(INF)
        with pytest.raises(ValueError, match="^density search needs a finite numerator measure$"):
            rn_improvement_step(zero, mu, infinite)
        with pytest.raises(ValueError, match="^density search needs a finite base measure$"):
            rn_improvement_step(zero, infinite, nu)


def seeded_density_instance(seed):
    """A probability mu and a measure nu with density on a `Draw` sigma-algebra,
    as the ``rn`` suite draws them: 1-3 atoms, 2-4 points."""
    rng = random.Random(seed)
    draw = Draw(rng)
    sigma = draw.sigma_algebra(draw.cspace(Size(rng.randint(1, 3), rng.randint(2, 4))))
    mu = draw.measure_on(sigma, probability=True)
    f = draw.integrand(sigma, nonneg=True)
    nu = StableMeasure(
        sigma,
        {a: {b: f.values[a][next(iter(b))] * mu.block_mass[a][b] for b in sigma.blocks(a)} for a in sigma.algebra.atoms},
    )
    return sigma, mu, nu


class TestDensityCertificate:
    """Below the member cap `radon_nikodym` integrates the density restricted
    to each member, one `integrate` per member, from rows built per ring member."""

    def test_one_integral_per_member_and_no_indicator_products(self, pair_setting, monkeypatch):
        sigma, mu, nu = pair_setting
        calls = {"integrate": 0, "indicator": 0, "mul": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(product, "integrate", counted("integrate", product.integrate))
        monkeypatch.setattr(product, "indicator", counted("indicator", product.indicator))
        monkeypatch.setattr(Integrand, "__mul__", counted("mul", Integrand.__mul__))
        radon_nikodym(mu, nu)
        assert sigma.member_count() == 16
        assert calls == {"integrate": 16, "indicator": 0, "mul": 0}

    def test_each_integrand_is_the_density_times_the_indicator(self, monkeypatch):
        real_integrate = product.integrate
        handed = []

        def recording(f, mu):
            handed.append(f)
            return real_integrate(f, mu)

        monkeypatch.setattr(product, "integrate", recording)
        kinds = {"members": 0, "wide_block": 0, "null_block": 0}
        for seed in range(40):
            sigma, mu, nu = seeded_density_instance(seed)
            handed.clear()
            density = radon_nikodym(mu, nu)
            expected = [density * indicator(v, sigma) for v in sigma.members()]
            assert handed == expected, f"seed {seed}"
            assert all(type(x) is Fraction for f in handed for row in f.values.values() for x in row.values())
            kinds["members"] += len(expected)
            kinds["wide_block"] += any(len(b) > 1 for a in sigma.algebra.atoms for b in sigma.blocks(a))
            kinds["null_block"] += any(m == 0 for row in mu.block_mass.values() for m in row.values())
        assert kinds["members"] > 1000 and kinds["wide_block"] > 0 and kinds["null_block"] > 0, kinds

    @pytest.mark.parametrize("k", [0, 5, 15])
    def test_a_wrong_integral_names_its_member(self, pair_setting, monkeypatch, k):
        sigma, mu, nu = pair_setting
        real_integrate = product.integrate
        calls = []

        def perturbed(f, measure):
            got = real_integrate(f, measure)
            calls.append(f)
            return got + Field.constant(got.algebra, Fraction(1)) if len(calls) == k + 1 else got

        monkeypatch.setattr(product, "integrate", perturbed)
        member = list(sigma.members())[k]
        with pytest.raises(ValueError, match=f"^{re.escape(f'density certificate failed on {member!r}')}$"):
            radon_nikodym(mu, nu)
        assert len(calls) == k + 1


class TestDaniellStone:
    def test_recovers_the_integrating_measure(self, pair_setting, coin_space):
        _, mu, nu = pair_setting
        got = daniell_stone_finite(coin_space, lambda g: integrate(g, nu))
        assert got.block_mass == nu.block_mass

    def test_recovers_a_point_evaluation(self, coin_space):
        x = {"a1": 2, "a2": 1}
        got = daniell_stone_finite(coin_space, lambda g: g.at(x))
        delta = StableMeasure.dirac(StableSigmaAlgebra.discrete(coin_space), x)
        assert got.block_mass == delta.block_mass

    def test_nonlinear_functional_rejected(self, coin_space, coin_sigma):
        mu = StableMeasure.from_point_masses(
            coin_sigma, {a: {1: Fraction(1, 2), 2: Fraction(1, 2)} for a in ("a1", "a2")}
        )

        def shifted(g):
            from condmeasure import Field

            return integrate(g, mu) + Field.constant(coin_sigma.algebra, Fraction(1))

        with pytest.raises(ValueError, match="linearity"):
            daniell_stone_finite(coin_space, shifted)

    def test_negative_functional_rejected(self, coin_space, coin_sigma):
        mu = StableMeasure.from_point_masses(
            coin_sigma, {a: {1: Fraction(1, 2), 2: Fraction(1, 2)} for a in ("a1", "a2")}
        )
        with pytest.raises(ValueError, match="positivity"):
            daniell_stone_finite(coin_space, lambda g: integrate(g, mu) * Fraction(-1))

    @staticmethod
    def hidden_measure(atoms):
        """A measure on ``atoms`` atoms over 3 points, distinct masses per atom."""
        algebra = MeasureAlgebra.uniform([f"a{i}" for i in range(atoms)])
        cspace = CondSpace(algebra, GroundSpace((1, 2, 3)))
        masses = {a: {p: Fraction(i + p, 3) for p in (1, 2, 3)} for i, a in enumerate(algebra.atoms)}
        return cspace, StableMeasure.from_point_masses(StableSigmaAlgebra.discrete(cspace), masses)

    def test_functional_calls_do_not_grow_with_the_atoms(self):
        # per probe one call for positivity, one each for f1 and f2, one
        # for linearity and one for stability; then one per point (3) and
        # one per identity probe, whatever the atom count
        counts = []
        for atoms in (2, 6):
            cspace, hidden = self.hidden_measure(atoms)
            calls = []

            def functional(g):
                calls.append(g)
                return integrate(g, hidden)

            assert daniell_stone_finite(cspace, functional).block_mass == hidden.block_mass
            counts.append(len(calls))
        assert counts == [8 * 5 + 3 + 8] * 2, counts

    def test_every_stability_probe_splits_the_atoms(self, monkeypatch):
        # a split with an empty side tests nothing about concatenation
        splits = []

        def recording(fs, partition):
            splits.append(list(partition))
            return concatenate_integrands(fs, partition)

        monkeypatch.setattr(product, "concatenate_integrands", recording)
        for atoms in (2, 3, 4):
            cspace, hidden = self.hidden_measure(atoms)
            daniell_stone_finite(cspace, lambda g: integrate(g, hidden))
            assert len(splits) == 8
            for ev, rest in splits:
                assert ev and rest and ev | rest == frozenset(cspace.algebra.atoms), (atoms, ev, rest)
            splits.clear()
