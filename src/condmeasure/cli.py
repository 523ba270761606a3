"""Command line front end.

Three commands: run a scenario file and report every query with its
oracle verdict, self-verify the library against randomized suites with
optional fault injection, and explain the concepts in plain terms.
Reports go to stdout and are byte-identical across runs; timings, when
asked for, go to stderr so they never disturb the report.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .scenario import QUERY_OPS, ScenarioError, load_scenario, render_json, render_text, run_scenario
from .verify import FAULTS, SUITES, inject_fault, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNVERIFIED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


EXPLAIN_TOPICS: dict[str, str] = {
    "conditional-sets": """\
A conditional set picks, for each atom of the measure algebra it lives
on, a nonempty set of ground points; the atoms it covers form its
support.  There is a single empty object, bottom, shared by every
support.  Unions and intersections act fiber by fiber; an atom where an
intersection comes out empty is dropped from the support instead of
holding an empty fiber.  The complement flips each supported fiber and
is full on every atom outside the support, so complementing bottom
gives the whole space.""",
    "stability": """\
Stability means closure under concatenation: given a partition of the
atoms into events and one conditional set per event, the set that takes
its fibers from the matching piece must again belong to the collection.
Every construction here (sigma-algebras, measures, integrands, kernels)
respects concatenation, and the verification suites check it directly.""",
    "sigma-algebras": """\
A stable sigma-algebra stores, per atom, a partition of the ground
points into blocks; its members are the conditional sets whose fibers
are unions of blocks, on any support.  Generating from a family of
conditional sets works atom by atom on the fibers the family can
exhibit there, and agrees with the closure that alternates
complements, countable unions and concatenations.""",
    "measures": """\
A stable measure assigns each block of its sigma-algebra a nonnegative
mass, possibly infinite, and evaluates a measurable conditional set
atom by atom as the sum of the blocks inside its fiber; off the support
the value is zero.  Scenario files write masses as exact fractions like
'3/4', or 'inf'.""",
    "outer-measure": """\
Starting from masses on a stable ring, the outer value of an arbitrary
conditional set is the cheapest cover by ring members, computed
exactly; where no cover exists the value is infinite.  Sets that split
every test set additively are measurable, they form a sigma-algebra,
and restricting the outer value to it extends the original masses.""",
    "integral": """\
Integration is exact.  A measurable integrand is constant on each block
of the measure's sigma-algebra, so its integral is the sum over blocks
of value times block mass, with zero times infinity counted as zero.
The supremum of the staircase functions below the integrand, on its own
level sets or on dyadic levels, is the definition; the suites check the
block sum against it.  Signed integrands split into positive and
negative parts; if both have infinite integral the function is not
integrable and the call fails.""",
    "conditioning": """\
Grouping atoms into blocks coarsens the algebra; each block becomes one
atom of a quotient.  The conditional distribution of an observation
renormalizes the joint masses within each block, and the conditional
expectation integrates a function against it.  Conditioning on the
finest grouping gives the function back; on the coarsest, its overall
mean.""",
    "kernels": """\
A probability on the points of a coordinate space can be read as a
kernel: per atom, a classical distribution whose point masses are the
measure's own masses at that atom, and the translation is reversible.
The suites check that reading against the jumps of each atom's
distribution function.  A transition rule attaches a
probability row on the second space to every point of the first; its
joint law with a source measure integrates row masses over sections.""",
    "products": """\
The product of two stable sigma-algebras is blocked by rectangles of
blocks.  Sections of a product set at an observation are measurable,
and a function on pairs can be integrated in either order or against
the joint measure; all three values agree, and the suites check the
equality case by case.""",
    "density": """\
Comparing two finite measures on one sigma-algebra yields the largest
region where the second dominates the first.  When the second vanishes
wherever a probability base does, an exact density recovers it by
integration; the witness of a failed domination is reported, and an
approximation from below can always be improved while staying
dominated.""",
    "scenarios": """\
A scenario is a JSON object with 'atoms', 'ground' (and optionally
'ground2' for pair constructions), named 'sigma_algebras', 'rings',
'measures', 'observations', 'subalgebras', 'functions' and 'kernels',
plus a list of 'queries'.  Masses and values are exact rationals,
strings like '5/6' or 'inf' or JSON numbers.  A missing key or a value
of the wrong JSON type is an error that names its location.  Every
query is recomputed through a classical per-atom oracle and the report
carries the verdict.""",
    "verify": "",
}


def _verify_topic() -> str:
    lines = ["Randomized self-check suites (run with 'cms verify'):"]
    for name in SUITES:
        lines.append(f"  {name}")
    lines.append("")
    lines.append("Injectable faults ('cms verify --fault NAME'), each caught by a suite:")
    for name, (description, _, suite) in FAULTS.items():
        lines.append(f"  {name}: {description} (caught by '{suite}')")
    lines.append("")
    lines.append("Scenario query operations ('cms run FILE'):")
    for op in sorted(QUERY_OPS):
        lines.append(f"  {op}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.file)
        report = run_scenario(scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    rendered = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(rendered)
    return EXIT_OK if report.verified else EXIT_UNVERIFIED


def _cmd_verify(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get("CMS_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            print(f"error: CMS_SEED must be an integer, got {raw!r}", file=sys.stderr)
            return EXIT_USAGE
    print(f"seed {seed}, {args.cases} cases per suite")
    if args.fault:
        description = FAULTS[args.fault][0]
        print(f"fault injected: {args.fault} ({description})")
    names = args.suite or list(SUITES)
    results = []
    with inject_fault(args.fault):
        for name in names:
            started = time.perf_counter()
            result = run_suite(name, seed, args.cases)
            if args.timings:
                print(f"timing {name}: {time.perf_counter() - started:.2f}s", file=sys.stderr)
            results.append(result)
    failed = 0
    for result in results:
        if result.ok:
            print(f"suite {result.name}: ok ({result.cases} cases)")
        else:
            failed += 1
            print(f"suite {result.name}: FAILED ({result.cases} cases)")
            for message in result.failures:
                print(f"  {message}")
    total = len(results)
    if failed:
        print(f"{failed} of {total} suites FAILED")
        return EXIT_UNVERIFIED
    print(f"all {total} suites passed")
    return EXIT_OK


def _cmd_explain(args) -> int:
    if not args.topic:
        print("topics:")
        for name in EXPLAIN_TOPICS:
            print(f"  {name}")
        print("\nuse 'cms explain TOPIC' for details")
        return EXIT_OK
    topic = args.topic
    if topic not in EXPLAIN_TOPICS:
        known = ", ".join(EXPLAIN_TOPICS)
        print(f"error: unknown topic {topic!r} (known: {known})", file=sys.stderr)
        return EXIT_USAGE
    text = _verify_topic() if topic == "verify" else EXPLAIN_TOPICS[topic]
    print(text)
    return EXIT_OK


COMMANDS = {"run": _cmd_run, "verify": _cmd_verify, "explain": _cmd_explain}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cms", description="exact conditional measure theory, with built-in verification")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario file and report with oracle verdicts")
    run_p.add_argument("file", help="path to a scenario JSON file")
    run_p.add_argument("--format", choices=("text", "json"), default="text", help="report format")

    verify_p = sub.add_parser("verify", help="run the randomized self-check suites")
    verify_p.add_argument("--seed", type=int, default=None, help="base seed (default: CMS_SEED or 0)")
    verify_p.add_argument("--cases", type=_positive_int, default=25, help="cases per suite (default 25)")
    verify_p.add_argument("--suite", action="append", choices=list(SUITES), help="run only this suite (repeatable)")
    verify_p.add_argument("--fault", choices=list(FAULTS), default=None, help="inject a known bug; the paired suite must catch it")
    verify_p.add_argument("--timings", action="store_true", help="print elapsed times to stderr")

    explain_p = sub.add_parser("explain", help="describe a concept or list topics")
    explain_p.add_argument("topic", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    command = COMMANDS.get(args.command)
    if command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        code = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`cms verify | head -1`).  Point
        # stdout at devnull so the flush at exit cannot fail again, and
        # exit 1 as Python does on EPIPE (see "Note on SIGPIPE" in the
        # `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
