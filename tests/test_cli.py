import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import condmeasure
from condmeasure import cli, verify

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "condmeasure" / "scenarios"
GOLDEN_DIR = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def scenario(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.json")


def subprocess_env() -> dict:
    """The environment for a child Python that imports the same
    `condmeasure` as this process, however pytest was started."""
    package_root = Path(condmeasure.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(package_root)}


class TestRun:
    def test_text_report_to_stdout(self, capsys):
        assert cli.main(["run", scenario("dice")]) == 0
        out = capsys.readouterr()
        assert out.out == (GOLDEN_DIR / "dice.txt").read_text()
        assert out.err == ""

    def test_json_format(self, capsys):
        assert cli.main(["run", scenario("chain"), "--format", "json"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "chain.json").read_text()

    def test_missing_file(self, capsys):
        assert cli.main(["run", "no/such/file.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario")

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2")
        assert cli.main(["run", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value, location",
        [
            ("rings", {"R": [1]}, "rings.R"),
            ("measures", {"rho": 5}, "measures.rho"),
            ("sigma_algebras", [1], "sigma_algebras"),
            ("observations", {"seen": 1}, "observations.seen"),
            ("functions", {"f": 1}, "functions.f"),
            ("subalgebras", {"groups": 1}, "subalgebras.groups"),
            ("kernels", {"step": 1}, "kernels.step"),
            ("atoms", [["a", 1, 2]], "atoms[0]"),
            # a wrong JSON type below the entries, and in a query argument
            ("rings", {"R": {"blocks": {"a1": 5, "a2": [[1, 2]]}}}, "rings.R.blocks.a1"),
            ("measures", {"rho": {"ring": "R", "blocks": {"a1": 5, "a2": [[[1, 2], "3/4"]]}}}, "measures.rho.blocks.a1"),
            ("measures", {"rho": {"ring": "R", "blocks": 5}}, "measures.rho.blocks"),
            ("subalgebras", {"parity": [1]}, "subalgebras.parity[0]"),
            ("functions", {"face": {"values": 5}}, "functions.face.values"),
            ("queries", [{"op": "caratheodory", "premeasure": ["rho"]}], "queries[0].premeasure"),
        ],
    )
    def test_misshapen_section_is_a_named_error(self, tmp_path, section, value, location):
        doc = json.loads(Path(scenario("coverage")).read_text())
        doc[section] = value
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "condmeasure.cli", "run", str(path)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {location}: expected ")

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize(
        "name, written, location",
        [
            ("coverage", '"inf"', "measures.rho.blocks.a1"),
            ("density", '"3/4"', "measures.nu.point_masses.a1.2"),
        ],
        ids=["block-mass", "point-mass"],
    )
    def test_a_non_finite_json_number_is_a_named_error(self, tmp_path, literal, name, written, location):
        text = Path(scenario(name)).read_text()
        assert text.count(written) == 1
        path = tmp_path / "non-finite.json"
        path.write_text(text.replace(written, literal))
        proc = subprocess.run(
            [sys.executable, "-m", "condmeasure.cli", "run", str(path)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        read_as = repr(float(literal))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {location}: not a finite JSON number (read as {read_as})\n"

    @pytest.mark.parametrize("blocks", [[[1, 2]], [[1], [2]]], ids=["one-block", "discrete"])
    def test_negative_point_masses_are_a_named_error(self, tmp_path, blocks):
        doc = {
            "atoms": [["a1", "1"]],
            "ground": [1, 2],
            "sigma_algebras": {"F": {"blocks": {"a1": blocks}}},
            "measures": {"m": {"sigma": "F", "point_masses": {"a1": {"1": -1, "2": 1}}}},
        }
        path = tmp_path / "cancelling.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "condmeasure.cli", "run", str(path)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: measures.m: negative mass -1 at atom 'a1'\n"

    @pytest.mark.parametrize(
        "parity, message",
        [
            ([["a1", "a2", "a3", "a4", "a5", "a6"], []], "sub-algebra blocks must be nonempty"),
            ([["a1", "a3", "a5"], ["a2", "a4", "a6", "zz"]], "unknown atoms in event: ['zz']"),
        ],
        ids=["empty-block", "unknown-atom"],
    )
    def test_malformed_grouping_is_a_named_error(self, tmp_path, parity, message):
        doc = json.loads(Path(scenario("dice")).read_text())
        doc["subalgebras"]["parity"] = parity
        path = tmp_path / "grouping.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "condmeasure.cli", "run", str(path)],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: subalgebras.parity: {message}\n"

    def test_broken_implementation_fails_verification(self, capsys):
        # a query whose oracle disagrees must flip the exit code, not crash
        with verify.inject_fault("cond-expect-unnormalized"):
            code = cli.main(["run", scenario("dice")])
        assert code == 3
        out = capsys.readouterr().out
        assert "oracle: DISAGREE" in out
        assert "FAILED verification" in out


class TestVerify:
    def test_small_clean_run(self, capsys):
        assert cli.main(["verify", "--cases", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed 4, 2 cases per suite\n")
        assert f"all {len(verify.SUITES)} suites passed" in out

    def test_default_run_lists_every_suite(self, capsys):
        assert cli.main(["verify", "--cases", "2", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("suite ")] == [
            f"suite {name}: ok (2 cases)" for name in verify.SUITES
        ]

    def test_suite_selection(self, capsys):
        assert cli.main(["verify", "--cases", "3", "--suite", "lattice", "--suite", "hahn"]) == 0
        out = capsys.readouterr().out
        assert "suite lattice: ok (3 cases)" in out
        assert "suite hahn: ok (3 cases)" in out
        assert "all 2 suites passed" in out

    @pytest.mark.parametrize("fault", sorted(verify.FAULTS))
    def test_each_fault_is_caught(self, fault, capsys):
        _, _, paired = verify.FAULTS[fault]
        code = cli.main(["verify", "--cases", "12", "--fault", fault, "--suite", paired])
        out = capsys.readouterr().out
        assert code == 3
        assert f"fault injected: {fault}" in out
        assert f"suite {paired}: FAILED" in out
        assert "1 of 1 suites FAILED" in out

    @pytest.mark.parametrize(
        "golden, extra",
        [("verify_seed42_cases25.txt", []), ("verify_seed42_cases25_complement-support.txt", ["--fault", "complement-support"])],
    )
    def test_transcript_is_golden(self, golden, extra, capsys):
        # the faulted run prints witnesses, so it also pins the order of the draws
        cli.main(["verify", "--seed", "42", "--cases", "25"] + extra)
        assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()

    def test_caratheodory_fault_is_caught_at_the_acceptance_seed(self, capsys):
        args = ["verify", "--suite", "caratheodory", "--seed", "42", "--cases", "100"]
        assert cli.main(args + ["--fault", "caratheodory-rejects-uncovered"]) == 3
        assert "suite caratheodory: FAILED" in capsys.readouterr().out

    def test_seed_from_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("CMS_SEED", "9")
        assert cli.main(["verify", "--cases", "1", "--suite", "lattice"]) == 0
        assert capsys.readouterr().out.startswith("seed 9, 1 cases per suite\n")

    def test_flag_overrides_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("CMS_SEED", "9")
        assert cli.main(["verify", "--cases", "1", "--seed", "2", "--suite", "lattice"]) == 0
        assert capsys.readouterr().out.startswith("seed 2, 1 cases per suite\n")

    def test_garbage_environment_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("CMS_SEED", "pi")
        assert cli.main(["verify", "--cases", "1"]) == 1
        assert "CMS_SEED must be an integer" in capsys.readouterr().err

    def test_reader_closing_early_gets_no_traceback(self):
        # unbuffered, so each line is written when printed; the suite
        # runs for about a second before the next line meets the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "condmeasure.cli", "verify", "--seed", "42", "--cases", "20", "--suite", "measure"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**subprocess_env(), "PYTHONUNBUFFERED": "1"},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert first == b"seed 42, 20 cases per suite\n"
        assert "Traceback" not in err, err

    def test_timings_go_to_stderr(self, capsys):
        assert cli.main(["verify", "--cases", "1", "--suite", "sigma", "--timings"]) == 0
        out = capsys.readouterr()
        assert "timing sigma:" in out.err
        assert "timing" not in out.out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert cli.main(["verify", "--suite", "no-such-suite"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("cases", ["0", "-3", "two"])
    def test_cases_must_be_a_positive_integer(self, cases, capsys):
        assert cli.main(["verify", "--cases", cases, "--suite", "rn"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "usage error" in out.err and "--cases" in out.err

    def test_zero_cases_cannot_pass_an_injected_fault(self, capsys):
        assert cli.main(["verify", "--fault", "measure-eval-max", "--cases", "0"]) == 1
        assert "--cases" in capsys.readouterr().err


class TestExplain:
    def test_lists_topics(self, capsys):
        assert cli.main(["explain"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("topics:")
        for name in cli.EXPLAIN_TOPICS:
            assert f"  {name}\n" in out

    @pytest.mark.parametrize("topic", sorted(cli.EXPLAIN_TOPICS))
    def test_every_topic_renders(self, topic, capsys):
        assert cli.main(["explain", topic]) == 0
        assert capsys.readouterr().out.strip()

    def test_verify_topic_lists_suites_and_faults(self, capsys):
        cli.main(["explain", "verify"])
        out = capsys.readouterr().out
        for name in verify.SUITES:
            assert f"  {name}" in out
        for name in verify.FAULTS:
            assert name in out

    def test_unknown_topic(self, capsys):
        assert cli.main(["explain", "entropy"]) == 1
        assert "unknown topic 'entropy'" in capsys.readouterr().err


class TestEntry:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "usage: cms" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_console_script_is_installed(self, tmp_path):
        # Runs the launcher an installer writes for the declared console
        # script, so the declaration itself is checked without needing an
        # installed `cms` on PATH.
        tomllib = pytest.importorskip("tomllib")
        target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["cms"]
        form = re.fullmatch(r"(\w+(?:\.\w+)*):(\w+)", target)
        assert form, f"cms entry point {target!r} is not of the form module:attr"
        module, attr = form.groups()
        launcher = tmp_path / "cms"
        launcher.write_text(
            "import re\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({attr}())\n"
        )
        proc = subprocess.run(
            [sys.executable, str(launcher), "run", str(Path(scenario("density")).resolve())],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN_DIR / "density.txt").read_text()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "condmeasure.cli", "explain", "stability"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert "concatenation" in proc.stdout
