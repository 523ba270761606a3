"""Scenario files: declarative JSON inputs for the command-line runner.

A scenario declares one measure algebra, one or two ground spaces, and
named sigma-algebras, rings, measures, observations, groupings of
atoms, scalar functions and transition kernels.  A list of queries then
asks for computed results; every query is recomputed through the
classical fiberwise oracle and the report carries the verdict.  Reports
render deterministically, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import classical
from .algebra import ExtValue, Field, MeasureAlgebra, ext_mul, format_value, parse_value
from .condsets import CondSpace, ConditionalSet, GroundSpace, cartesian_product, product_space
from .integral import Integrand, integrate
from .kernels import SubAlgebra, conditional_distribution, conditional_expectation
from .measure import StableMeasure, caratheodory_extend
from .product import (
    StableMarkovKernel,
    fubini,
    hahn_positive_set,
    markov_product,
    product_sigma,
    radon_nikodym,
)
from .sigma import SetRing, StableRing, StableSigmaAlgebra


class ScenarioError(Exception):
    """A scenario file failed validation; the message names the spot."""


# ---------------------------------------------------------------------------
# reading the document: every value goes through `_get` or `_checked`

_REQUIRED = object()

#: How an error names the JSON type it expected.
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _checked(value, where: str, expected, what: str | None = None):
    """``value``, found at ``where``, checked to be of the JSON type ``expected``
    (a type or a tuple of types); ``what`` overrides the name in the error."""
    if isinstance(value, expected):
        return value
    if what is None:
        kinds = expected if isinstance(expected, tuple) else (expected,)
        what = " or ".join(_JSON_NAMES[t] for t in kinds)
    raise ScenarioError(f"{where}: expected {what}, got {json.dumps(value)}")


def _get(node: dict, key: str, where: str, expected=object, default=_REQUIRED, what: str | None = None):
    """``node[key]``, checked by `_checked`; ``where`` locates ``node`` and is
    empty at the top of the document.  A missing key is an error unless a
    ``default`` is given."""
    if key not in node:
        if default is _REQUIRED:
            raise ScenarioError(f"{where or 'scenario'}: missing required key {key!r}")
        return default
    return _checked(node[key], f"{where}.{key}" if where else key, expected, what)


class _located:
    """A context that reports a library ``ValueError`` or ``KeyError`` as a
    `ScenarioError` at ``where``.  A class, not a generator: it wraps every
    parsed mass, and loading would pay for the generator machinery."""

    __slots__ = ("where",)

    def __init__(self, where: str):
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, (ValueError, KeyError)):
            raise ScenarioError(f"{self.where}: {exc}") from None


def _ref(node: dict, key: str, where: str, table: Mapping, kind: str, default=_REQUIRED):
    """The entry of ``table`` that the name at ``node[key]`` refers to."""
    name = _get(node, key, where, str, default)
    if name not in table:
        raise ScenarioError(f"{where}: unknown {kind} {name!r}")
    return table[name]


def _section(doc: dict, section: str, expected) -> list[tuple[str, object]]:
    """The ``(name, entry)`` pairs of a named section, each entry of the JSON type ``expected``."""
    entries = _get(doc, section, "", dict, default={}, what="an object of named entries")
    return [(name, _checked(entry, f"{section}.{name}", expected)) for name, entry in entries.items()]


def _pair(raw, where: str, shape: str) -> list:
    """A ``[key, value]`` table entry; ``shape`` names its two items in the error."""
    if not isinstance(raw, list) or len(raw) != 2:
        raise ScenarioError(f"{where}: each entry must be {shape}")
    return raw


def _point(raw, where: str) -> object:
    """A ground point: a JSON scalar, or a list of points read as a tuple."""
    if isinstance(raw, list):
        return tuple(_point(x, where) for x in raw)
    if isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected a point, got {json.dumps(raw)}")
    return raw


def _known_point(raw, space: GroundSpace, where: str) -> object:
    p = _point(raw, where)
    if p not in space.point_set:
        raise ScenarioError(f"{where}: unknown point {p!r}")
    return p


def _resolve_points(raw, space: GroundSpace, where: str) -> frozenset:
    out = frozenset(_known_point(p, space, where) for p in _checked(raw, where, list))
    if not out:
        raise ScenarioError(f"{where}: empty point set")
    return out


def _by_point(raw: dict, points, where: str, kind: str = "point") -> dict:
    """An object keyed by point names, re-keyed by the points themselves."""
    key = {str(p): p for p in points}
    out = {}
    for k, v in raw.items():
        if k not in key:
            raise ScenarioError(f"{where}: unknown {kind} {k!r}")
        out[key[k]] = v
    return out


def _ext(raw, where: str) -> ExtValue:
    # json reads 1e400 and Infinity as float inf and NaN as float nan;
    # only the string "inf" is infinite.
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ScenarioError(f"{where}: not a finite JSON number (read as {raw!r})")
    with _located(where):
        return parse_value(str(raw))


def _finite(raw, where: str) -> Fraction:
    v = _ext(raw, where)
    if not isinstance(v, Fraction):
        raise ScenarioError(f"{where}: must be a finite rational, got {raw!r}")
    return v


def _format_point(p) -> str:
    if isinstance(p, tuple):
        return "(" + ",".join(_format_point(x) for x in p) + ")"
    return str(p)


def _format_fiber(fiber, space: GroundSpace) -> str:
    order = space.sort_key()
    return "{" + ",".join(_format_point(p) for p in sorted(fiber, key=order)) + "}"


def _format_condset(v: ConditionalSet, algebra: MeasureAlgebra, space: GroundSpace) -> str:
    if v.is_bottom:
        return "bottom"
    parts = [f"{a}:{_format_fiber(v.fibers[a], space)}" for a in algebra.atoms if a in v.support]
    return "; ".join(parts)


@dataclass
class Scenario:
    title: str
    algebra: MeasureAlgebra
    spaces: dict[str, GroundSpace]
    cspaces: dict[str, CondSpace]
    sigmas: dict[str, StableSigmaAlgebra]
    rings: dict[str, StableRing]
    measures: dict[str, StableMeasure]
    measure_points: dict[str, dict | None]
    observations: dict[str, dict]
    subalgebras: dict[str, SubAlgebra]
    functions: dict[str, dict]
    kernels: dict[str, StableMarkovKernel]
    queries: list[dict]


@dataclass
class QueryResult:
    op: str
    heading: str
    lines: list[str]
    payload: dict
    ok: bool


@dataclass
class ScenarioReport:
    title: str
    atom_items: list[tuple[str, Fraction]]
    results: list[QueryResult] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(r.ok for r in self.results)


# ---------------------------------------------------------------------------
# loading and validation


def _load_algebra(doc: dict) -> MeasureAlgebra:
    raw = _get(doc, "atoms", "", (dict, list), what="an object or a list of [name, weight] pairs")
    if isinstance(raw, dict):
        items = list(raw.items())
    else:
        items = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ScenarioError(f"atoms[{i}]: expected a [name, weight] pair, got {json.dumps(entry)}")
            items.append((str(entry[0]), entry[1]))
    weights = [(a, _finite(w, f"atoms.{a}")) for a, w in items]
    with _located("atoms"):
        return MeasureAlgebra(weights)


def _load_space(doc: dict, key: str) -> GroundSpace:
    raw = _get(doc, key, "", (list, dict), what="a point list or an object with 'points'")
    listed = raw if isinstance(raw, list) else _get(raw, "points", key, list)
    points = tuple(_point(p, key) for p in listed)
    # tables and reports key points by `str`, so two points may not share a name
    named: dict[str, object] = {}
    for p in points:
        name = str(p)
        if name in named and named[name] != p:
            raise ScenarioError(f"{key}: points {named[name]!r} and {p!r} share the name {name!r}")
        named[name] = p
    coords = None
    if isinstance(raw, dict) and "coords" in raw:
        given = _by_point(_get(raw, "coords", key, dict), points, f"{key}.coords")
        coords = {p: _finite(v, f"{key}.coords.{p}") for p, v in given.items()}
    with _located(key):
        return GroundSpace(points, coords)


def _load_blocks(raw, algebra: MeasureAlgebra, space: GroundSpace, where: str) -> dict[str, list[frozenset]]:
    if raw == "discrete":
        return {a: [frozenset((p,)) for p in space.points] for a in algebra.atoms}
    if raw == "trivial":
        return {a: [space.point_set] for a in algebra.atoms}
    _checked(raw, where, dict, what="'discrete', 'trivial' or per-atom block lists")
    out = {a: [_resolve_points(b, space, f"{where}.{a}") for b in _get(raw, a, where, list)] for a in algebra.atoms}
    extra = set(raw) - set(algebra.atoms)
    if extra:
        raise ScenarioError(f"{where}: unknown atoms {sorted(extra)}")
    return out


def _load_family(raw, where: str, algebra: MeasureAlgebra, cspaces: dict) -> tuple[CondSpace, dict]:
    """The space and per-atom blocks of a sigma-algebra or ring entry; a bare
    string gives the blocks of a family on the ground space."""
    if isinstance(raw, str):
        return cspaces["ground"], _load_blocks(raw, algebra, cspaces["ground"].space, where)
    cspace = _ref(raw, "on", where, cspaces, "space", default="ground")
    return cspace, _load_blocks(_get(raw, "blocks", where), algebra, cspace.space, f"{where}.blocks")


def _load_point_masses(raw: dict, domain, where: str) -> dict:
    space = domain.space
    out = {}
    for a in domain.algebra.atoms:
        row = _by_point(_get(raw, a, where, dict), space.points, f"{where}.{a}")
        missing = space.point_set - set(row)
        if missing:
            raise ScenarioError(f"{where}.{a}: missing masses for {sorted(map(str, missing))}")
        out[a] = {p: _ext(v, f"{where}.{a}.{p}") for p, v in row.items()}
    return out


def _load_block_masses(raw: dict, domain, where: str) -> dict:
    out = {}
    for a in domain.algebra.atoms:
        awhere = f"{where}.{a}"
        blocks = set(domain.ring_at(a).blocks)
        parsed: dict[frozenset, ExtValue] = {}
        for entry in _get(raw, a, where, list):
            points, mass = _pair(entry, awhere, "[points, mass]")
            pts = frozenset(_point(p, awhere) for p in _checked(points, awhere, list))
            if pts not in blocks:
                raise ScenarioError(f"{awhere}: {sorted(map(str, pts))} is not a block of the domain")
            parsed[pts] = _ext(mass, awhere)
        if blocks - set(parsed):
            raise ScenarioError(f"{awhere}: missing masses for some blocks")
        out[a] = parsed
    return out


def _load_kernel_rows(raw: dict, sx: StableSigmaAlgebra, sy: StableSigmaAlgebra, where: str) -> dict:
    rows = {}
    for a in sx.algebra.atoms:
        awhere = f"{where}.{a}"
        rows[a] = {}
        for p, row in _by_point(_get(raw, a, where, dict), sx.space.points, awhere, "left point").items():
            right = _by_point(_checked(row, f"{awhere}.{p}", dict), sy.space.points, awhere, "right point")
            rows[a][p] = {q: _finite(v, awhere) for q, v in right.items()}
    return rows


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    return build_scenario(doc)


def build_scenario(doc: Mapping) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    algebra = _load_algebra(doc)
    spaces = {"ground": _load_space(doc, "ground")}
    if "ground2" in doc:
        spaces["ground2"] = _load_space(doc, "ground2")
        spaces["product"] = product_space(spaces["ground"], spaces["ground2"])
    cspaces = {name: CondSpace(algebra, sp) for name, sp in spaces.items()}

    sigmas: dict[str, StableSigmaAlgebra] = {}
    for name, raw in _section(doc, "sigma_algebras", (dict, str)):
        where = f"sigma_algebras.{name}"
        cspace, blocks = _load_family(raw, where, algebra, cspaces)
        with _located(where):
            sigmas[name] = StableSigmaAlgebra.from_blocks(cspace, blocks)

    rings: dict[str, StableRing] = {}
    for name, raw in _section(doc, "rings", dict):
        where = f"rings.{name}"
        cspace, blocks = _load_family(raw, where, algebra, cspaces)
        with _located(where):
            rings[name] = StableRing(cspace, {a: SetRing(bs) for a, bs in blocks.items()})

    measures: dict[str, StableMeasure] = {}
    measure_points: dict[str, dict | None] = {}
    for name, raw in _section(doc, "measures", dict):
        where = f"measures.{name}"
        if "sigma" in raw:
            domain = _ref(raw, "sigma", where, sigmas, "sigma-algebra")
        elif "ring" in raw:
            domain = _ref(raw, "ring", where, rings, "ring")
        else:
            raise ScenarioError(f"{where}: needs 'sigma' or 'ring'")
        pm = None
        if "point_masses" in raw:
            pm = _load_point_masses(_get(raw, "point_masses", where, dict), domain, f"{where}.point_masses")
        elif "blocks" in raw:
            bm = _load_block_masses(_get(raw, "blocks", where, dict), domain, f"{where}.blocks")
        else:
            raise ScenarioError(f"{where}: needs 'point_masses' or 'blocks'")
        with _located(where):
            measures[name] = StableMeasure(domain, bm) if pm is None else StableMeasure.from_point_masses(domain, pm)
        measure_points[name] = pm

    observations: dict[str, dict] = {}
    for name, raw in _section(doc, "observations", dict):
        where = f"observations.{name}"
        observations[name] = {
            a: _known_point(_get(raw, a, where), spaces["ground"], f"{where}.{a}") for a in algebra.atoms
        }

    subalgebras: dict[str, SubAlgebra] = {}
    for name, raw in _section(doc, "subalgebras", list):
        where = f"subalgebras.{name}"
        blocks = [frozenset(_checked(a, f"{where}[{i}]", str) for a in _checked(b, f"{where}[{i}]", list))
                  for i, b in enumerate(raw)]
        with _located(where):
            subalgebras[name] = SubAlgebra(algebra, blocks)

    functions: dict[str, dict] = {}
    for name, raw in _section(doc, "functions", dict):
        where = f"functions.{name}"
        table = {}
        for entry in _get(raw, "values", where, list):
            point, value = _pair(entry, where, "[point, value]")
            table[_point(point, where)] = _finite(value, where)
        functions[name] = table

    kernels_: dict[str, StableMarkovKernel] = {}
    for name, raw in _section(doc, "kernels", dict):
        where = f"kernels.{name}"
        sx = _ref(raw, "left", where, sigmas, "sigma-algebra")
        if "ground2" not in spaces:
            raise ScenarioError(f"{where}: kernels need a second ground space")
        sy = StableSigmaAlgebra.discrete(cspaces["ground2"])
        rows = _load_kernel_rows(_get(raw, "rows", where, dict), sx, sy, f"{where}.rows")
        with _located(where):
            kernels_[name] = StableMarkovKernel(sx, sy, rows)

    queries = _get(doc, "queries", "", list, default=[])
    if not queries:
        raise ScenarioError("scenario needs a nonempty 'queries' list")
    for i, q in enumerate(queries):
        where = f"queries[{i}]"
        if not isinstance(q, dict) or "op" not in q:
            raise ScenarioError(f"{where}: each query needs an 'op'")
        if _get(q, "op", where, str) not in QUERY_OPS:
            known = ", ".join(sorted(QUERY_OPS))
            raise ScenarioError(f"{where}: unknown op {q['op']!r} (known: {known})")

    return Scenario(
        title=str(doc.get("title", "untitled scenario")),
        algebra=algebra,
        spaces=spaces,
        cspaces=cspaces,
        sigmas=sigmas,
        rings=rings,
        measures=measures,
        measure_points=measure_points,
        observations=observations,
        subalgebras=subalgebras,
        functions=functions,
        kernels=kernels_,
        queries=list(queries),
    )


# ---------------------------------------------------------------------------
# query execution; each handler produces a QueryResult with an oracle verdict

#: The declared table, and the word an error uses for its entries, that
#: each query argument names.
_ARGUMENTS = {
    **dict.fromkeys(
        ("measure", "base", "target", "left", "right", "first", "second", "premeasure", "source"),
        ("measures", "measure"),
    ),
    "function": ("functions", "function"),
    "given": ("subalgebras", "grouping"),
    "observe": ("observations", "observation"),
    "kernel": ("kernels", "kernel"),
}


def _arg(scn: Scenario, q: dict, key: str, where: str):
    """The declared object that the query argument ``key`` names."""
    table, kind = _ARGUMENTS[key]
    return _ref(q, key, where, getattr(scn, table), kind)


def _function_over(scn: Scenario, q: dict, space: GroundSpace, where: str) -> dict:
    """The query's function, which must have a value at every point of ``space``."""
    fmap = _arg(scn, q, "function", where)
    missing = space.point_set - set(fmap)
    if missing:
        raise ScenarioError(f"{where}: function misses points {sorted(map(str, missing))}")
    return fmap


def _parse_condset(scn: Scenario, raw: dict, space: GroundSpace, where: str) -> ConditionalSet:
    fibers = {}
    for a, pts in raw.items():
        if a not in scn.algebra.atoms:
            raise ScenarioError(f"{where}: unknown atom {a!r}")
        fibers[a] = _resolve_points(pts, space, f"{where}.{a}")
    return ConditionalSet(fibers.keys(), fibers)


def _classical_eval(scn: Scenario, name: str, v: ConditionalSet) -> Field:
    """Oracle evaluation: per atom, a plain sum of the oracle's point
    masses over the fiber."""
    pm = _rep_point_masses(scn, name)
    values = {a: classical.mass_of(pm[a], v.fibers[a]) if a in v.support else Fraction(0) for a in scn.algebra.atoms}
    return Field(scn.algebra, values)


def _rep_point_masses(scn: Scenario, name: str) -> dict:
    """Point masses for the oracle: the raw ones, or block mass on one
    representative point per block when only block masses were given."""
    pm = scn.measure_points[name]
    if pm is not None:
        return pm
    mu = scn.measures[name]
    space = mu.domain.space
    out = {}
    for a in scn.algebra.atoms:
        row = {p: Fraction(0) for p in space.points}
        for b, m in mu.block_mass[a].items():
            row[min(b, key=space.sort_key())] = m
        out[a] = row
    return out


def _field_payload(f: Field) -> dict:
    return {a: format_value(f[a]) for a in f.algebra.atoms}


def _block_table(mu: StableMeasure, space: GroundSpace, point_name) -> tuple[list[str], dict[str, list]]:
    """Each block of ``mu``'s domain with its mass: one line per atom, and
    the payload lists the block's points named by ``point_name``.  Each
    point is named once per table, both ways."""
    order = space.sort_key()
    shown = {p: _format_point(p) for p in space.points}
    named = {p: point_name(p) for p in space.points}
    lines = []
    payload: dict[str, list] = {}
    for a in mu.domain.algebra.atoms:
        cells = [(b, format_value(mu.block_mass[a][b])) for b in mu.domain.blocks(a)]
        text = ", ".join("{" + ",".join(shown[p] for p in sorted(b, key=order)) + "}=" + mass for b, mass in cells)
        lines.append(f"{a}: {text}")
        payload[a] = [[sorted(named[p] for p in b), mass] for b, mass in cells]
    return lines, payload


def _oracle_line(agree: bool) -> str:
    return "oracle: agree" if agree else "oracle: DISAGREE"


def _q_measure_of(scn: Scenario, q: dict, where: str) -> QueryResult:
    mu = _arg(scn, q, "measure", where)
    space = mu.domain.space
    raw = _get(q, "set", where, dict, what="an object mapping atoms to point lists")
    v = _parse_condset(scn, raw, space, f"{where}.set")
    with _located(where):
        got = mu.eval(v)
    agree = got == _classical_eval(scn, q["measure"], v)
    lines = [f"set: {_format_condset(v, scn.algebra, space)}", f"mass: {got.format()}", _oracle_line(agree)]
    return QueryResult("measure-of", f"mass under '{q['measure']}'", lines, {"mass": _field_payload(got)}, agree)


def _q_integral(scn: Scenario, q: dict, where: str) -> QueryResult:
    mu = _arg(scn, q, "measure", where)
    if not isinstance(mu.domain, StableSigmaAlgebra):
        raise ScenarioError(f"{where}: integrals need a measure on a sigma-algebra")
    space = mu.domain.space
    fmap = _function_over(scn, q, space, where)
    with _located(where):
        got = integrate(Integrand.from_point_map(mu.domain, fmap), mu)
    pm = _rep_point_masses(scn, q["measure"])
    agree = all(got[a] == classical.integral(pm[a], {p: fmap[p] for p in space.points}) for a in scn.algebra.atoms)
    fname, mname = q["function"], q["measure"]
    lines = [f"integral of '{fname}': {got.format()}", _oracle_line(agree)]
    return QueryResult("integral", f"integral of '{fname}' against '{mname}'", lines, {"integral": _field_payload(got)}, agree)


def _q_cond_expectation(scn: Scenario, q: dict, where: str) -> QueryResult:
    sub = _arg(scn, q, "given", where)
    xi = _arg(scn, q, "observe", where)
    space = scn.spaces["ground"]
    fmap = _function_over(scn, q, space, where)
    got = conditional_expectation(sub, xi, space, fmap)
    want = classical.conditional_expectation(scn.algebra.weights, xi, list(sub.blocks), fmap)
    spread = sub.spread_to_atoms(got)
    agree = all(spread[a] == want[a] for a in scn.algebra.atoms)
    lines = [f"{label} = {format_value(got[label])}" for label in sub.labels]
    lines.append(_oracle_line(agree))
    payload = {label: format_value(got[label]) for label in sub.labels}
    return QueryResult(
        "conditional-expectation",
        f"conditional expectation of '{q['function']}' given '{q['given']}'",
        lines,
        {"expectation": payload},
        agree,
    )


def _q_cond_distribution(scn: Scenario, q: dict, where: str) -> QueryResult:
    sub = _arg(scn, q, "given", where)
    xi = _arg(scn, q, "observe", where)
    space = scn.spaces["ground"]
    pts = _resolve_points(_get(q, "points", where), space, f"{where}.points")
    dist = conditional_distribution(sub, xi, space)
    target = ConditionalSet(sub.labels, {label: pts for label in sub.labels})
    got = dist.eval(target)
    want = {}
    for label, block in zip(sub.labels, sub.blocks):
        total = sum((scn.algebra.weights[a] for a in block), Fraction(0))
        want[label] = sum((scn.algebra.weights[a] for a in block if xi[a] in pts), Fraction(0)) / total
    agree = all(got[label] == want[label] for label in sub.labels)
    lines = [f"{label} = {format_value(got[label])}" for label in sub.labels]
    lines.append(_oracle_line(agree))
    payload = {label: format_value(got[label]) for label in sub.labels}
    return QueryResult(
        "conditional-distribution",
        f"conditional probability of {_format_fiber(pts, space)} given '{q['given']}'",
        lines,
        {"probability": payload},
        agree,
    )


def _q_radon_nikodym(scn: Scenario, q: dict, where: str) -> QueryResult:
    mu = _arg(scn, q, "base", where)
    nu = _arg(scn, q, "target", where)
    bname, tname = q["base"], q["target"]
    space = mu.domain.space
    try:
        density = radon_nikodym(mu, nu)
    except ValueError as exc:
        message = str(exc)
        if not message.startswith("not absolutely continuous"):
            raise ScenarioError(f"{where}: {message}") from None
        oracle_fails = False
        try:
            for a in scn.algebra.atoms:
                classical.radon_nikodym_density(
                    mu.domain.blocks(a), mu.block_mass[a], nu.block_mass[a]
                )
        except ValueError:
            oracle_fails = True
        lines = [message, _oracle_line(oracle_fails)]
        return QueryResult("radon-nikodym", f"density of '{tname}' against '{bname}'", lines,
                           {"density": None, "reason": message}, oracle_fails)
    agree = True
    for a in scn.algebra.atoms:
        want = classical.radon_nikodym_density(mu.domain.blocks(a), mu.block_mass[a], nu.block_mass[a])
        if any(density.values[a][p] != want[p] for p in space.points):
            agree = False
    order = space.sort_key()
    lines = []
    payload: dict[str, dict] = {}
    for a in scn.algebra.atoms:
        row = ", ".join(f"{_format_point(p)}->{format_value(density.values[a][p])}" for p in sorted(space.points, key=order))
        lines.append(f"{a}: {row}")
        payload[a] = {str(p): format_value(density.values[a][p]) for p in space.points}
    lines.append(_oracle_line(agree))
    return QueryResult("radon-nikodym", f"density of '{tname}' against '{bname}'", lines, {"density": payload}, agree)


def _q_fubini(scn: Scenario, q: dict, where: str) -> QueryResult:
    mu = _arg(scn, q, "left", where)
    nu = _arg(scn, q, "right", where)
    if not isinstance(mu.domain, StableSigmaAlgebra) or not isinstance(nu.domain, StableSigmaAlgebra):
        raise ScenarioError(f"{where}: both factors need sigma-algebra domains")
    psigma = product_sigma(mu.domain, nu.domain)
    pspace = psigma.space
    fmap = _function_over(scn, q, pspace, where)
    with _located(where):
        f = Integrand.from_point_map(psigma, fmap)
        left, right, joint = fubini(f, mu, nu)
    pml = _rep_point_masses(scn, q["left"])
    pmr = _rep_point_masses(scn, q["right"])
    agree = left == right == joint
    for a in scn.algebra.atoms:
        classic = classical.product_point_masses(pml[a], pmr[a])
        if joint[a] != classical.integral(classic, {p: fmap[p] for p in pspace.points}):
            agree = False
    lines = [
        f"iterated (left first): {left.format()}",
        f"iterated (right first): {right.format()}",
        f"joint: {joint.format()}",
        _oracle_line(agree),
    ]
    payload = {"left": _field_payload(left), "right": _field_payload(right), "joint": _field_payload(joint)}
    return QueryResult("fubini", f"iterated integrals of '{q['function']}'", lines, payload, agree)


def _q_caratheodory(scn: Scenario, q: dict, where: str) -> QueryResult:
    pre = _arg(scn, q, "premeasure", where)
    if not isinstance(pre.domain, StableRing):
        raise ScenarioError(f"{where}: the extension starts from a measure on a ring")
    space = pre.domain.space
    with _located(where):
        ext = caratheodory_extend(pre)
    agree = all(
        ext.block_mass[a] == classical.caratheodory_blocks(space.point_set, pre.block_mass[a])
        for a in scn.algebra.atoms
    )
    lines, payload = _block_table(ext, space, str)
    lines.append(_oracle_line(agree))
    return QueryResult("caratheodory", f"extension of '{q['premeasure']}' to the generated sigma-algebra", lines,
                       {"blocks": payload}, agree)


def _q_markov_product(scn: Scenario, q: dict, where: str) -> QueryResult:
    kernel = _arg(scn, q, "kernel", where)
    mu = _arg(scn, q, "source", where)
    kname, mname = q["kernel"], q["source"]
    with _located(where):
        joint = markov_product(kernel, mu)
    pm = _rep_point_masses(scn, mname)
    agree = True
    for a in scn.algebra.atoms:
        classic = {(p, y): ext_mul(pm[a][p], kernel.rows[a][p][y]) for p in pm[a] for y in kernel.sy.space.points}
        for b in joint.domain.blocks(a):
            if joint.block_mass[a][b] != classical.mass_of(classic, b):
                agree = False
    top_left = mu.domain.cspace.top
    marginal_ok = joint.eval(cartesian_product(top_left, kernel.sy.cspace.top)) == mu.eval(top_left)
    lines, payload = _block_table(joint, joint.domain.space, _format_point)
    lines.append(f"marginal matches the source: {'yes' if marginal_ok else 'NO'}")
    lines.append(_oracle_line(agree))
    return QueryResult("markov-product", f"joint law of '{mname}' and kernel '{kname}'", lines,
                       {"blocks": payload, "marginal": marginal_ok}, agree and marginal_ok)


def _q_hahn(scn: Scenario, q: dict, where: str) -> QueryResult:
    mu1 = _arg(scn, q, "first", where)
    mu2 = _arg(scn, q, "second", where)
    n1, n2 = q["first"], q["second"]
    with _located(where):
        pos = hahn_positive_set(mu1, mu2)
    agree = True
    for a in scn.algebra.atoms:
        diffs = {b: mu2.block_mass[a][b] - mu1.block_mass[a][b] for b in mu1.domain.blocks(a)}
        if pos.fibers.get(a, frozenset()) != classical.hahn_positive(mu1.domain.blocks(a), diffs):
            agree = False
    space = mu1.domain.space
    lines = [f"largest region where '{n2}' dominates: {_format_condset(pos, scn.algebra, space)}", _oracle_line(agree)]
    payload = {
        "positive_set": None if pos.is_bottom else {
            a: sorted((_format_point(p) for p in pos.fibers[a]), key=str) for a in scn.algebra.atoms if a in pos.support
        }
    }
    return QueryResult("hahn", f"positive region of '{n2}' minus '{n1}'", lines, payload, agree)


QUERY_OPS = {
    "measure-of": _q_measure_of,
    "integral": _q_integral,
    "conditional-expectation": _q_cond_expectation,
    "conditional-distribution": _q_cond_distribution,
    "radon-nikodym": _q_radon_nikodym,
    "fubini": _q_fubini,
    "caratheodory": _q_caratheodory,
    "markov-product": _q_markov_product,
    "hahn": _q_hahn,
}


def run_scenario(scn: Scenario) -> ScenarioReport:
    report = ScenarioReport(scn.title, [(a, scn.algebra.weights[a]) for a in scn.algebra.atoms])
    for i, q in enumerate(scn.queries):
        handler = QUERY_OPS[q["op"]]
        report.results.append(handler(scn, q, f"queries[{i}]"))
    return report


# ---------------------------------------------------------------------------
# rendering (deterministic, byte-identical across runs)


def render_text(report: ScenarioReport) -> str:
    out = [f"scenario: {report.title}"]
    out.append("atoms: " + ", ".join(f"{a}={format_value(w)}" for a, w in report.atom_items))
    for i, r in enumerate(report.results, start=1):
        out.append(f"query {i}: {r.heading}")
        out.extend(f"  {line}" for line in r.lines)
    n = len(report.results)
    if report.verified:
        out.append(f"verdict: {n} {'query' if n == 1 else 'queries'}, all verified")
    else:
        bad = sum(1 for r in report.results if not r.ok)
        out.append(f"verdict: {bad} of {n} queries FAILED verification")
    return "\n".join(out) + "\n"


def render_json(report: ScenarioReport) -> str:
    doc = {
        "title": report.title,
        "atoms": {a: format_value(w) for a, w in report.atom_items},
        "queries": [
            {"op": r.op, "heading": r.heading, "result": r.payload, "oracle": "agree" if r.ok else "disagree"}
            for r in report.results
        ],
        "verified": report.verified,
    }
    return json.dumps(doc, indent=2) + "\n"
