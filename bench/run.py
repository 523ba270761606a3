"""Benchmark of condmeasure: one closed-loop caller, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  The workload's inputs come from ``--seed``.  With
``--trace 0`` the ops of one pass are repeated, untraced, in whole passes
for about ``--seconds`` seconds, and the end-to-end metrics are printed;
times are taken to a reference machine speed, measured along the run
with ``reference_work``, and an op's time is its median over the
passes.  With ``--trace 1`` one fixed pass
runs untraced and traced, twice each, the size ladder runs on
``api-frontier``, and the per-layer metrics are printed.
Every op's result is checked; the last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 2, with no result line, when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: An op still running after this long is stopped and counted as failed.
OP_CEILING_S = 20.0
#: Ops are cut off once the run has lasted this long, so that a run whose
#: ops all crawl still ends, with every op it could not finish failed.
RUN_BUDGET_S = 150.0
#: Modules dropped before each set-up, so that every set-up imports afresh.
_FRESH = ("condmeasure", "workloads", "frontier", "scenarios", "ladder")
#: ``reference_work`` runs between ops at most this often ...
REFERENCE_EVERY_S = 0.02
#: ... and its timings within this many seconds of an interval give the
#: machine's speed during it.
REFERENCE_WINDOW_S = 0.1
#: ``reference_work`` timings before and after each set-up or ladder step.
REFERENCE_BURST = 40
#: Time of ``reference_work`` at the speed untraced times are expressed
#: at: about its time in the fast state of the machine the bounds were
#: set on (0.23-0.25 ms; 0.45 ms in its slow state).
REFERENCE_S = 2.5e-4


def reference_work() -> None:
    """A fixed loop of Fraction additions on the standard library only.

    It never calls condmeasure, so no change to the program moves its
    time, which follows the speed the machine gives the process at the
    moment.
    """
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i % 5 + 1)


class Speedometer:
    """Timings of ``reference_work`` taken along a run."""

    def __init__(self):
        self.at: list[float] = []
        self._sums = [0.0]

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        self.at.append(started)
        self._sums.append(self._sums[-1] + time.perf_counter() - started)

    def mean_s(self) -> float:
        return self._sums[-1] / len(self.at)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= REFERENCE_EVERY_S

    def bracket(self, fn) -> tuple[float, float, object]:
        """Call ``fn`` between two bursts of reference timings; return its
        time scaled to the reference speed, its time, and its result."""
        for _ in range(REFERENCE_BURST):
            self.sample()
        started = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - started
        for _ in range(REFERENCE_BURST):
            self.sample()
        return seconds * self.scale(started, started + seconds), seconds, value

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean reference time around [start, end]:
        the factor that takes a time measured then to the reference speed.
        The window widens until it holds at least three timings."""
        i = bisect.bisect_left(self.at, start - REFERENCE_WINDOW_S)
        j = bisect.bisect_right(self.at, end + REFERENCE_WINDOW_S)
        while j - i < min(3, len(self.at)):
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        return REFERENCE_S * (j - i) / (self._sums[j] - self._sums[i])


class OpTimeout(BaseException):
    """Raised in an op that hits its ceiling; a BaseException, so that
    no ``except Exception`` inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def timed(op, ceiling: float) -> tuple[float, object, str | None]:
    """Call ``op`` under a ceiling; return (seconds, result, error)."""
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, ceiling)
        try:
            result, error = op.call(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        result, error = None, "timeout"
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, result, error


def fresh_import():
    """Import condmeasure, and the workloads built on it, afresh."""
    for name in [n for n in sys.modules if n.split(".")[0] in _FRESH]:
        del sys.modules[name]
    condmeasure = importlib.import_module("condmeasure")
    if not Path(condmeasure.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"condmeasure was imported from {condmeasure.__file__}, not from {ROOT / 'src'}")
    return importlib.import_module("workloads")


class Tally:
    """Times, failures and the output digest of the ops run so far."""

    def __init__(self, deadline: float = float("inf"), meter: Speedometer | None = None):
        self.deadline = deadline
        self.meter = meter
        self.starts: list[float] = []
        self.times: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.digests: list[str] = []

    def run_pass(self, ops, check_failed) -> float:
        digest = hashlib.sha256()
        started = time.perf_counter()
        for op in ops:
            if self.meter is not None and self.meter.due():
                self.meter.sample()
            now = time.perf_counter()
            seconds, result, error = timed(op, min(OP_CEILING_S, max(self.deadline - now, 1e-3)))
            self.starts.append(now)
            self.times.append(seconds)
            self.labels.append(op.label)
            if error is None:
                try:
                    digest.update(op.check(result).encode())
                    continue
                except check_failed as exc:
                    error = f"wrong result: {exc}"
            self.failures.append(f"{op.label}: {error}")
            digest.update(b"FAILED\n")
        self.digests.append(digest.hexdigest())
        return time.perf_counter() - started

    def fastest(self, n: int) -> list[float]:
        """Each op's fastest time over the passes of ``n`` ops run so far."""
        return [min(self.times[i::n]) for i in range(n)]

    def by_label(self, times: list[float] | None = None) -> dict[str, list[float]]:
        out = defaultdict(list)
        for label, seconds in zip(self.labels, self.times if times is None else times):
            out[label].append(seconds)
        return out


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[Tally, dict, list[str], list[str]]:
    meter = Speedometer()
    tally = Tally(deadline, meter)
    setup_scaled, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        scaled_s, raw_s, prepared = meter.bracket(lambda: fresh_import().build(workload, seed, ROOT))
        setup_scaled.append(scaled_s)
        setup_raw.append(raw_s)
    check_failed = sys.modules["frontier"].CheckFailed
    elapsed = 0.0
    # Whole passes only, so that every run times the same mix of ops.
    while True:
        elapsed += tally.run_pass(prepared.ops, check_failed)
        if elapsed * (len(tally.digests) + 1) / len(tally.digests) > seconds:
            break
    # The machine's speed moves by up to half within seconds and for
    # minutes at a time, with the load of its neighbours, and moves the
    # reference loop in step with the ops (see bench/README.md, "Noise").
    # Each time is taken to the reference speed with the reference
    # timings around it; an op's time is then its median over the passes.
    n = len(prepared.ops)
    scaled = [s * meter.scale(t, t + s) for t, s in zip(tally.starts, tally.times)]
    per_op = [statistics.median(scaled[i::n]) for i in range(n)]
    raw = [statistics.median(tally.times[i::n]) for i in range(n)]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (n / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ops_ok_ratio": ((len(tally.times) - len(tally.failures)) / len(tally.times), "ratio"),
    }
    notes = [
        f"passes {len(tally.digests)} of {n} ops; reference_work took {meter.mean_s() * 1e3:.4f} ms on average "
        f"over {len(meter.at)} timings, against {REFERENCE_S * 1e3:g} ms",
        f"unscaled: setup_s {statistics.median(setup_raw):.4f} s, ops_per_s {n / sum(raw):.4f} 1/s, "
        f"op_p50_ms {statistics.median(raw) * 1e3:.4f} ms, op_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.4f} ms",
    ]
    problems = _gates(prepared)
    if len(set(tally.digests)) > 1:
        problems.append("passes over the same inputs produced different outputs")
    return tally, metrics, notes, problems


def _gates(prepared) -> list[str]:
    return [message for gate in prepared.gates if (message := gate()) is not None]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    import ladder
    import tracing
    from condmeasure.scenario import QUERY_OPS
    from condmeasure.verify import SUITES

    spec = []
    for module, name, span in tracing.TRACED:
        spec.append((f"{module}.{name}.calls", "count", "lower"))
        if span:
            spec.append((f"{module}.{name}.self_s", "s", "lower"))
    spec += [(f"scenario.op.{op}.p50_ms", "ms", "lower") for op in sorted(QUERY_OPS)]
    spec += [(f"verify.suite.{suite}.cases_per_s", "1/s", "higher") for suite in SUITES]
    spec += [
        ("classical.self_share", "ratio", "lower"),
        ("product.radon_nikodym.integrate_calls", "count", "lower"),
        ("measure.caratheodory_extend.evaluate_calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    for op in ladder.RUNGS:
        spec += [(f"ladder.{op}.max_size", "count", "higher"), (f"ladder.{op}.stop_s", "s", "lower")]
    return spec


def traced(workload: str, seed: int, deadline: float) -> tuple[Tally, dict, list[str], list[str]]:
    """The fixed pass untraced, then traced, twice over; then the ladder.

    Per-op times and the overhead ratio take the faster of the two passes
    of each kind, and the layer numbers come from the faster traced pass;
    these are unscaled.  Ladder step times are scaled to the reference
    speed, as end-to-end times are.
    A metric that the workload does not exercise reads 0.
    """
    workloads = fresh_import()
    import ladder
    import tracing

    check_failed = sys.modules["frontier"].CheckFailed
    tally, traced_tally = Tally(deadline), Tally(deadline)
    plain_walls, tracers = [], []
    for _ in range(2):
        started = time.perf_counter()
        prepared = workloads.build(workload, seed, ROOT)
        tally.run_pass(prepared.trace_ops, check_failed)
        plain_walls.append(time.perf_counter() - started)
        with tracing.Tracer() as tracer:
            prepared = workloads.build(workload, seed, ROOT)
            traced_tally.run_pass(prepared.trace_ops, check_failed)
        tracers.append(tracer)
    stats = min((t.stats for t in tracers), key=lambda st: st.wall_s)
    plain_wall = min(plain_walls)

    values: dict[str, float] = {}
    for key, count in stats.calls.items():
        values[f"{key}.calls"] = count
    for key, seconds in stats.self_s.items():
        values[f"{key}.self_s"] = seconds
    groups = tally.by_label(tally.fastest(len(prepared.trace_ops)))
    if workload == "scenario-typical":
        for op, times in groups.items():
            values[f"scenario.op.{op}.p50_ms"] = statistics.median(times) * 1e3
    if workload == "verify-suites":
        for suite, times in groups.items():
            values[f"verify.suite.{suite}.cases_per_s"] = len(times) / sum(times)
    classical_s = sum(s for k, s in stats.self_s.items() if k.startswith("classical."))
    values["classical.self_share"] = classical_s / stats.wall_s
    values["product.radon_nikodym.integrate_calls"] = stats.edge_calls("product.radon_nikodym", "integral.integrate")
    values["measure.caratheodory_extend.evaluate_calls"] = stats.edge_calls(
        "measure.caratheodory_extend", "measure.OuterMeasure.evaluate"
    )
    values["trace.overhead_ratio"] = stats.wall_s / plain_wall
    notes = [
        f"traced pass of {len(prepared.trace_ops)} ops: untraced {[round(w, 3) for w in plain_walls]} s, "
        f"traced {[round(t.stats.wall_s, 3) for t in tracers]} s"
    ]
    problems = _gates(prepared)
    if len(set(tally.digests + traced_tally.digests)) > 1:
        problems.append("outputs differ between the untraced and the traced passes")
    if tracers[0].stats.calls != tracers[1].stats.calls:
        problems.append("call counts differ between the two traced passes")
    tally.times += traced_tally.times
    tally.labels += traced_tally.labels
    tally.failures += traced_tally.failures

    if workload == "api-frontier":
        meter = Speedometer()

        def scaled_timed(op, ceiling):
            scaled, _, (_, result, error) = meter.bracket(lambda: timed(op, ceiling))
            return scaled, result, error

        for op in ladder.RUNGS:
            try:
                rung = ladder.climb(op, seed, scaled_timed)
            except (check_failed, RuntimeError) as exc:
                problems.append(f"ladder {op}: {exc}")
                continue
            values[f"ladder.{op}.max_size"] = rung.max_size
            values[f"ladder.{op}.stop_s"] = rung.stop_s
            cut = " (cut off)" if rung.cut_off else ""
            notes.append(
                f"ladder {op}: max_size {rung.max_size}; stopped at size {rung.stop_size} {rung.stop_dims} "
                f"after {rung.stop_s:.3f} s{cut}, budget {ladder.STEP_BUDGET_S} s per step"
            )
    metrics = {name: (values.get(name, 0), unit) for name, unit, _ in per_layer_spec()}
    return tally, metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scenario-typical", "api-frontier", "verify-suites"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.trace:
            tally, metrics, notes, problems = traced(args.workload, args.seed, deadline)
        else:
            tally, metrics, notes, problems = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except ImportError as exc:
        print(f"error: cannot import condmeasure from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    total = sum(tally.times)
    for label, times in sorted(tally.by_label().items()):
        print(f"share {label}: {len(times)} ops ({len(times) / len(tally.times):.1%}), {sum(times) / total:.1%} of op time")
    print(f"digest {tally.digests[0]}")
    for message in tally.failures[:10]:
        print(f"failed op {message}")
    for message in problems:
        print(f"failed gate: {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    result = {
        "correct": not tally.failures and not problems,
        "attempted": len(tally.times),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
