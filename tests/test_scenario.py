import copy
import json
from pathlib import Path

import pytest

from condmeasure.scenario import (
    ScenarioError,
    build_scenario,
    load_scenario,
    render_json,
    render_text,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "condmeasure" / "scenarios"
GOLDEN_DIR = Path(__file__).parent / "golden"

SHIPPED = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


def run_shipped(name: str):
    return run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.json")))


class TestGoldenReports:
    def test_every_shipped_scenario_has_both_goldens(self):
        assert SHIPPED
        for name in SHIPPED:
            assert (GOLDEN_DIR / f"{name}.txt").is_file(), name
            assert (GOLDEN_DIR / f"{name}.json").is_file(), name

    @pytest.mark.parametrize("name", SHIPPED)
    def test_text_report_matches_golden(self, name):
        report = run_shipped(name)
        assert report.verified
        assert render_text(report) == (GOLDEN_DIR / f"{name}.txt").read_text()

    @pytest.mark.parametrize("name", SHIPPED)
    def test_json_report_matches_golden(self, name):
        report = run_shipped(name)
        assert render_json(report) == (GOLDEN_DIR / f"{name}.json").read_text()

    def test_reports_are_deterministic(self):
        assert render_text(run_shipped("density")) == render_text(run_shipped("density"))

    def test_json_reports_parse_back(self):
        doc = json.loads(render_json(run_shipped("dice")))
        assert doc["verified"] is True
        assert len(doc["queries"]) == 2


@pytest.fixture
def doc():
    with open(SCENARIO_DIR / "density.json") as fh:
        return json.load(fh)


class TestValidation:
    def test_missing_atoms(self, doc):
        del doc["atoms"]
        with pytest.raises(ScenarioError, match="missing required key 'atoms'"):
            build_scenario(doc)

    def test_weights_must_sum_to_one(self, doc):
        doc["atoms"] = [["a1", "1/2"], ["a2", "1/3"]]
        with pytest.raises(ScenarioError, match="atoms:"):
            build_scenario(doc)

    def test_unknown_op_lists_known_ops(self, doc):
        doc["queries"][0]["op"] = "frobnicate"
        with pytest.raises(ScenarioError, match="unknown op 'frobnicate' \\(known: .*measure-of"):
            build_scenario(doc)

    def test_unknown_point_in_query_set(self, doc):
        doc["queries"][0]["set"]["a1"] = [9]
        scn = build_scenario(doc)
        with pytest.raises(ScenarioError, match="unknown point 9"):
            run_scenario(scn)

    def test_unknown_measure_name(self, doc):
        doc["queries"][0]["measure"] = "ghost"
        scn = build_scenario(doc)
        with pytest.raises(ScenarioError, match="unknown measure 'ghost'"):
            run_scenario(scn)

    def test_function_must_cover_all_points(self, doc):
        doc["functions"]["double-or-nothing"]["values"] = [[1, "1"]]
        scn = build_scenario(doc)
        with pytest.raises(ScenarioError, match="function misses points"):
            run_scenario(scn)

    def test_block_masses_must_name_actual_blocks(self):
        with open(SCENARIO_DIR / "coverage.json") as fh:
            doc = json.load(fh)
        bad = copy.deepcopy(doc)
        bad["measures"]["rho"]["blocks"]["a1"][0][0] = [1, 2]
        with pytest.raises(ScenarioError, match="not a block of the domain"):
            build_scenario(bad)

    def test_two_points_may_not_share_a_name(self, doc):
        doc["ground"] = [1, "1", 2]
        with pytest.raises(ScenarioError, match="^ground: points 1 and '1' share the name '1'$"):
            build_scenario(doc)
        with open(SCENARIO_DIR / "fubini.json") as fh:
            doc2 = json.load(fh)
        doc2["ground2"] = [1, 2, "2"]
        with pytest.raises(ScenarioError, match="^ground2: points 2 and '2' share the name '2'$"):
            build_scenario(doc2)

    def test_queries_are_required(self, doc):
        doc["queries"] = []
        with pytest.raises(ScenarioError, match="nonempty 'queries' list"):
            build_scenario(doc)

    def test_not_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes("{}".encode("utf-16"))
        assert p.read_bytes().startswith(b"\xff\xfe")
        with pytest.raises(ScenarioError, match="not valid JSON: 'utf-8' codec can't decode"):
            load_scenario(str(p))

    def test_document_must_be_an_object(self):
        with pytest.raises(ScenarioError, match="scenario must be a JSON object"):
            build_scenario([1])

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (
                ("measures", "rho", "blocks", "a1", 0, 0, 0),
                {"zz": 1},
                'measures.rho.blocks.a1: expected a point, got {"zz": 1}',
            ),
            (("measures", "rho", "ring"), [1], "measures.rho.ring: expected a string, got [1]"),
            (("queries", 0, "set", "a1"), "x", 'queries[0].set.a1: expected a list, got "x"'),
        ],
    )
    def test_wrong_json_type_names_its_location(self, path, value, message):
        doc = json.loads((SCENARIO_DIR / "coverage.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError) as caught:
            run_scenario(build_scenario(doc))
        assert str(caught.value) == message


#: What each node of a shipped scenario is replaced by in the mutation walk.
REPLACEMENTS = [5, [1], "x", {}, None, [[1, 2, 3]], {"zz": 1}]
_DELETE = object()


def _node_paths(node, path=()):
    """The path of every node below the root, parents before children."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _mutants(doc):
    """Each single-node mutation: delete the node, or replace it by each of `REPLACEMENTS`."""
    for path in _node_paths(doc):
        for value in [_DELETE] + REPLACEMENTS:
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
            yield path, value, mutant


class TestMutations:
    def test_every_single_node_mutation_renders_or_is_a_scenario_error(self):
        crashes = []
        count = 0
        for name in SHIPPED:
            doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
            for path, value, mutant in _mutants(doc):
                count += 1
                try:
                    report = run_scenario(build_scenario(mutant))
                    render_text(report)
                    render_json(report)
                except ScenarioError:
                    pass
                except Exception as exc:  # anything but a ScenarioError is a crash
                    shown = "delete" if value is _DELETE else json.dumps(value)
                    crashes.append(f"{name} {list(path)} <- {shown}: {type(exc).__name__}: {exc}")
        assert count >= 2560  # the five scenarios shipped with this test give 2,560
        assert not crashes, f"{len(crashes)} of {count} mutants crash:\n" + "\n".join(crashes[:20])


class TestReportShape:
    def test_failed_query_flips_the_verdict(self, doc):
        scn = build_scenario(doc)
        report = run_scenario(scn)
        assert report.verified
        report.results[0].ok = False
        assert not report.verified
        assert "FAILED verification" in render_text(report)


class TestProductSpaces:
    """Pair queries build the product of their factors' own spaces."""

    def test_fubini_left_factor_may_live_on_the_second_ground_space(self):
        doc = json.loads((SCENARIO_DIR / "fubini.json").read_text())
        doc["ground2"] = [1, 2, 3]
        third = {str(p): "1/3" for p in (1, 2, 3)}
        doc["measures"]["nu"]["point_masses"] = {"a1": third, "a2": dict(third)}
        doc["functions"]["diagonal"]["values"] += [[[3, 1], "0"], [[3, 2], "0"]]
        doc["queries"] = [{"op": "fubini", "left": "nu", "right": "mu", "function": "diagonal"}]
        report = run_scenario(build_scenario(doc))
        assert "  joint: a1=1/3, a2=1/3\n  oracle: agree\n" in render_text(report)
        assert report.verified

    def test_markov_source_may_live_on_the_second_ground_space(self):
        doc = json.loads((SCENARIO_DIR / "chain.json").read_text())
        doc["ground2"] = [1, 2, 3]
        doc["sigma_algebras"]["F"]["on"] = "ground2"
        doc["measures"]["mu"]["point_masses"] = {a: {"1": "1/2", "2": "1/2", "3": "0"} for a in ("a1", "a2")}
        stay = {str(p): {str(q): "1" if p == q else "0" for q in (1, 2, 3)} for p in (1, 2, 3)}
        doc["kernels"]["step"]["rows"] = {"a1": stay, "a2": stay}
        report = run_scenario(build_scenario(doc))
        assert "  a1: {(1,1)}=1/2, {(1,2)}=0, {(1,3)}=0, {(2,1)}=0, {(2,2)}=1/2," in render_text(report)
        assert report.verified

    def test_fubini_needs_no_second_ground_space(self):
        doc = {
            "atoms": [["a1", "1/2"], ["a2", "1/2"]],
            "ground": [1, 2],
            "sigma_algebras": {"F": {"blocks": "discrete", "on": "ground"}},
            "measures": {
                "mu": {"sigma": "F", "point_masses": {"a1": {"1": "1/2", "2": "1/2"}, "a2": {"1": "1/3", "2": "2/3"}}},
                "nu": {"sigma": "F", "point_masses": {"a1": {"1": "1/4", "2": "3/4"}, "a2": {"1": "1/2", "2": "1/2"}}},
            },
            "functions": {"diagonal": {"values": [[[1, 1], "1"], [[1, 2], "0"], [[2, 1], "0"], [[2, 2], "1"]]}},
            "queries": [{"op": "fubini", "left": "mu", "right": "nu", "function": "diagonal"}],
        }
        report = run_scenario(build_scenario(doc))
        assert "  joint: a1=1/2, a2=1/2\n  oracle: agree\n" in render_text(report)
        assert report.verified
