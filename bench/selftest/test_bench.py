"""Self-tests of the benchmark: generators, workload shapes, tracing, gates.

Not part of the repository's test suite; run them with
``python -m pytest -s bench/selftest`` from the repository root
(``-s`` shows the share of ops on each expensive path).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import frontier
import run
import scenarios
import tracing
import workloads
from condmeasure import condsets, measure, sigma
from condmeasure.scenario import QUERY_OPS, build_scenario
from condmeasure.verify import SUITES, _case_size

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = tuple(workloads.WORKLOADS)

#: Workloads on which each traced function must be called, following the
#: layer table in bench/README.md; functions outside the table are listed
#: under the workload that exercises them.
PREDICTED = {
    "condsets.ConditionalSet.__init__": ("verify-suites", "scenario-typical"),
    "condsets.cond_intersection": ("verify-suites", "scenario-typical"),
    "condsets.cond_union": ("verify-suites", "scenario-typical"),
    "condsets.*": ("verify-suites",),
    "sigma.SetRing.from_members": ("api-frontier",),
    "sigma.generate_sigma": ("api-frontier",),
    "sigma.*": ("api-frontier",),
    "measure.StableMeasure.eval": ("verify-suites",),
    "measure.check_measure_axioms": ("verify-suites", "api-frontier"),
    "measure.*": ("api-frontier",),
    "integral.integrate_via_dyadic": ("api-frontier",),
    "integral.*": ("scenario-typical",),
    "kernels.measure_to_kernel": ("verify-suites",),
    "kernels.*": ("scenario-typical",),
    "product.radon_nikodym": ("api-frontier", "scenario-typical"),
    "product.daniell_stone_finite": ("api-frontier",),
    "product.*": ("scenario-typical",),
    "classical.*": ("scenario-typical", "verify-suites"),
    "algebra.*": WORKLOADS,
    "scenario.*": ("scenario-typical",),
}


def predicted(key: str) -> tuple[str, ...]:
    module, _, name = key.partition(".")
    return PREDICTED.get(key) or PREDICTED[f"{module}.*"]


def one_per_label(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.label, op)
    return list(seen.values())


def small_pass(workload: str, seed: int):
    """A build of the workload with one op of each kind."""
    prepared = workloads.build(workload, seed, ROOT)
    return prepared, one_per_label(prepared.trace_ops)


def traced_calls(workload: str, seed: int) -> dict[str, int]:
    with tracing.Tracer() as tracer:
        _, ops = small_pass(workload, seed)
        for op in ops:
            op.check(op.call())
    return tracer.stats.calls


# ---------------------------------------------------------------------------
# generators


def test_same_seed_same_scenario_documents():
    a = [scenarios.generate_document(random.Random(7), i) for i in range(3)]
    b = [scenarios.generate_document(random.Random(7), i) for i in range(3)]
    assert json.dumps(a) == json.dumps(b)
    assert a != [scenarios.generate_document(random.Random(8), i) for i in range(3)]


def test_every_generated_document_builds_and_stays_small():
    rng = random.Random(3)
    for i in range(workloads.SCENARIO_DOCUMENTS):
        doc = scenarios.generate_document(rng, i)
        scn = build_scenario(doc)
        ops = {q["op"] for q in doc["queries"]}
        assert ops <= set(QUERY_OPS)
        if "radon-nikodym" in ops:
            assert scenarios.rn_member_count(doc) <= scenarios.MAX_RN_MEMBERS
            assert scn.measures["p"].domain.member_count() == scenarios.rn_member_count(doc)
        assert 2 <= len(scn.algebra.atoms) <= 6 and 3 <= len(scn.spaces["ground"].points) <= 8
        assert all(len(scn.sigmas["F"].blocks(a)) <= 4 for a in scn.algebra.atoms)
        assert all(len(scn.rings["ring"].ring_at(a).blocks) <= 3 for a in scn.algebra.atoms)


def test_same_seed_same_frontier_inputs():
    first, second = workloads.build("api-frontier", 5, ROOT), workloads.build("api-frontier", 5, ROOT)
    assert [op.label for op in first.ops] == [op.label for op in second.ops]
    cheap = [i for i, op in enumerate(first.ops) if op.label == "outer_evaluate"][:10]
    for i in cheap:
        assert first.ops[i].check(first.ops[i].call()) == second.ops[i].check(second.ops[i].call())


def test_same_seed_same_verify_cases():
    assert workloads.verify_cases(9, 20) == workloads.verify_cases(9, 20)
    assert workloads.verify_cases(9, 20) != workloads.verify_cases(10, 20)


def test_verify_cases_are_run_suite_cases_with_equal_size_quotas():
    chosen = workloads.verify_cases(4, workloads.VERIFY_CASES)
    for name, (_, cap) in SUITES.items():
        indices = [i for suite, i in chosen if suite == name]
        assert len(indices) == workloads.VERIFY_CASES
        sizes = Counter()
        for i in indices:
            size = _case_size(random.Random(4 * 1000003 + i), cap)
            sizes[size.atoms, size.points] += 1
        assert len(sizes) == cap.atoms * (cap.points - 1)
        assert max(sizes.values()) - min(sizes.values()) <= 1


# ---------------------------------------------------------------------------
# workload shapes


def test_each_workload_covers_its_paths_and_prints_shares():
    want = {
        "scenario-typical": set(QUERY_OPS),
        "api-frontier": {
            "outer_evaluate", "caratheodory_measurable", "caratheodory_extend", "generate_sigma",
            "radon_nikodym", "check_measure_axioms", "uniqueness_check", "generate_dynkin",
            "integrate_via_dyadic", "daniell_stone_finite",
        },
        "verify-suites": set(SUITES),
    }
    for name in WORKLOADS:
        ops = workloads.build(name, 1, ROOT).ops
        counts = Counter(op.label for op in ops)
        assert set(counts) == want[name]
        assert len(ops) >= 100
        print(f"\n{name}: {len(ops)} ops per pass")
        for label, n in sorted(counts.items()):
            print(f"  {label}: {n / len(ops):.1%} of ops")


def test_frontier_densities_take_the_enumeration_certificate():
    """Every density domain is below the 20000-member cap: the certificate
    integrates once per member."""
    rng = random.Random(2)
    for factory, args, _ in workloads.FRONTIER_SCHEDULE:
        if factory is not frontier.density:
            continue
        op = frontier.density(rng, *args)
        with tracing.Tracer() as tracer:
            op.check(op.call())
        calls = tracer.stats.edge_calls("product.radon_nikodym", "integral.integrate")
        assert calls == 2 ** args[0] < 20000


def test_timed_out_op_is_counted_as_failed():
    def spin():
        while True:
            pass

    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    seconds, result, error = run.timed(frontier.Op("spin", spin, str), 0.05)
    assert error == "timeout" and result is None and 0.05 <= seconds < 1.0
    # Past the run's deadline an op is cut off at once and counted as failed.
    tally = run.Tally(deadline=time.perf_counter())
    tally.run_pass([frontier.Op("spin", spin, str)], frontier.CheckFailed)
    assert tally.failures == ["spin: timeout"] and len(tally.times) == 1 and tally.times[0] < 1.0


def test_speedometer_scales_to_the_reference_speed():
    meter = run.Speedometer()
    for _ in range(5):
        meter.sample()
    now = time.perf_counter()
    assert meter.scale(now, now) == pytest.approx(run.REFERENCE_S / meter.mean_s())
    # Far from every timing, the window widens to the nearest three.
    assert meter.scale(now + 60, now + 61) > 0


def test_wrong_result_is_counted_as_failed():
    def check(_):
        raise frontier.CheckFailed("no")

    tally = run.Tally()
    tally.run_pass([frontier.Op("bad", lambda: 1, check)], frontier.CheckFailed)
    assert tally.failures == ["bad: wrong result: no"]


# ---------------------------------------------------------------------------
# tracing


def test_tracer_replaces_every_binding_and_restores_them():
    original = condsets.cond_intersection
    evaluate = measure.OuterMeasure.__dict__["evaluate"]
    from_members = sigma.SetRing.__dict__["from_members"]
    with tracing.Tracer():
        assert sigma.cond_intersection is condsets.cond_intersection is measure.cond_intersection
        assert condsets.cond_intersection is not original
        assert measure.OuterMeasure.__dict__["evaluate"] is not evaluate
    assert sigma.cond_intersection is original and measure.cond_intersection is original
    assert measure.OuterMeasure.__dict__["evaluate"] is evaluate
    assert sigma.SetRing.__dict__["from_members"] is from_members


@pytest.mark.parametrize("workload", WORKLOADS)
def test_listed_functions_are_called_where_the_table_predicts(workload):
    calls = traced_calls(workload, 3)
    missing = [key for key, n in calls.items() if workload in predicted(key) and n == 0]
    assert not missing


HELPER = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}, {selftest!r}]
from test_bench import traced_calls
print(json.dumps(traced_calls({workload!r}, 3)))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_call_counts_repeat_across_processes(workload):
    """Counts do not depend on string hashing, which differs per process."""
    code = HELPER.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"),
                         selftest=str(Path(__file__).parent), workload=workload)
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=170)
        assert out.returncode == 0, out.stderr
        counts.append(json.loads(out.stdout))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


# ---------------------------------------------------------------------------
# the benchmark's contract


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == run.per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names and len(names) == 6
    assert max(m["bound"] for m in spec["end_to_end"]) == next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "api-frontier", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and time.monotonic() - started < 180
    assert '"correct"' not in out.stdout
