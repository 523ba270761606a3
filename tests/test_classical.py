import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

from condmeasure import INF, CondSpace, ConditionalSet, GroundSpace, MeasureAlgebra, StableMeasure
from condmeasure import classical
from condmeasure.measure import caratheodory_extend
from condmeasure.sigma import SetRing, StableRing, generate_sigma

F = Fraction


class TestOuterMass:
    masses = {frozenset({1, 2}): F(1, 2), frozenset({3}): F(3, 4), frozenset({4, 5}): INF}

    def test_empty_target_has_no_mass(self):
        assert classical.outer_mass(self.masses, frozenset()) == 0

    def test_uncovered_point_costs_infinity(self):
        assert classical.outer_mass(self.masses, frozenset({3, 6})) is INF

    def test_meeting_an_infinite_block_costs_infinity(self):
        assert classical.outer_mass(self.masses, frozenset({3, 4})) is INF

    def test_cut_blocks_are_paid_in_full(self):
        assert classical.outer_mass(self.masses, frozenset({2, 3})) == F(5, 4)
        assert classical.outer_mass(self.masses, frozenset({1})) == F(1, 2)

    def test_extension_adds_an_infinite_remainder(self):
        got = classical.caratheodory_blocks(frozenset(range(1, 8)), self.masses)
        assert got == {**self.masses, frozenset({6, 7}): INF}


def _random_premeasure(rng: random.Random) -> StableMeasure:
    """1-3 atoms on 2-4 points; per atom a partition of a random part of
    the points into blocks, about one in six of mass INF."""
    algebra = MeasureAlgebra.uniform([f"a{i}" for i in range(1, rng.randint(1, 3) + 1)])
    cspace = CondSpace(algebra, GroundSpace(tuple(range(1, rng.randint(2, 4) + 1))))
    rings, masses = {}, {}
    for a in algebra.atoms:
        labels = {p: rng.randrange(4) for p in cspace.space.points if rng.random() < 0.8}
        parts: dict[int, set] = {}
        for p, label in labels.items():
            parts.setdefault(label, set()).add(p)
        rings[a] = SetRing(parts.values())
        masses[a] = {b: INF if rng.random() < 0.15 else F(rng.randint(0, 5), rng.randint(1, 4)) for b in rings[a].blocks}
    return StableMeasure(StableRing(cspace, rings), masses)


def test_extension_matches_the_closed_form():
    rng = random.Random(2024)
    seen_inf = seen_uncovered = seen_empty = seen_covered = 0
    for _ in range(300):
        pre = _random_premeasure(rng)
        ext = caratheodory_extend(pre)
        # the domain is the sigma-algebra the single-atom ring blocks generate
        ring = pre.domain
        generator = [ConditionalSet((a,), {a: b}) for a in pre.algebra.atoms for b in ring.ring_at(a).blocks]
        assert ext.domain == generate_sigma(ring.cspace, generator), pre
        universe = ring.space.point_set
        for a in pre.algebra.atoms:
            want = classical.caratheodory_blocks(universe, pre.block_mass[a])
            assert set(ext.domain.ring_at(a).blocks) == set(want)
            for b, mass in want.items():
                assert ext.eval(ConditionalSet((a,), {a: b}))[a] == mass, (pre, a, b)
            covered = ring.ring_at(a).covered
            seen_inf += INF in pre.block_mass[a].values()
            seen_uncovered += covered != universe
            seen_empty += not covered
            seen_covered += covered == universe
    assert seen_inf and seen_uncovered and seen_empty and seen_covered


def test_oracle_imports_only_the_standard_library_and_algebra():
    source = Path(classical.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module == "algebra", ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [n.name for n in node.names]
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, ast.unparse(node)
