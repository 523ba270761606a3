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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from . import classical
from .algebra import ExtValue, Field, MeasureAlgebra, ext_mul, ext_sum, format_value, parse_value
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


def _require(mapping: Mapping, key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _parse_point(raw) -> object:
    if isinstance(raw, list):
        return tuple(_parse_point(x) for x in raw)
    return raw


def _ext(raw, where: str) -> ExtValue:
    try:
        return parse_value(str(raw))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _finite(raw, where: str) -> Fraction:
    v = _ext(raw, where)
    if not isinstance(v, Fraction):
        raise ScenarioError(f"{where}: must be a finite rational, got {raw!r}")
    return v


def _point_key(space: GroundSpace) -> dict[str, object]:
    return {str(p): p for p in space.points}


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
    sigma_space: dict[str, str]
    rings: dict[str, StableRing]
    ring_space: dict[str, str]
    measures: dict[str, StableMeasure]
    measure_points: dict[str, dict | None]
    observations: dict[str, dict]
    subalgebras: dict[str, SubAlgebra]
    functions: dict[str, dict]
    kernels: dict[str, StableMarkovKernel]
    queries: list[dict]

    def space_of_sigma(self, name: str) -> GroundSpace:
        return self.spaces[self.sigma_space[name]]


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

#: Each named section is an object of entries; the JSON type of an entry.
_ENTRY_SHAPES: dict[str, tuple[Any, str]] = {
    "sigma_algebras": ((Mapping, str), "an object or a string"),
    "rings": (Mapping, "an object"),
    "measures": (Mapping, "an object"),
    "observations": (Mapping, "an object"),
    "subalgebras": (list, "a list"),
    "functions": (Mapping, "an object"),
    "kernels": (Mapping, "an object"),
}


def _check_shapes(doc: Mapping) -> None:
    """Check the JSON type of each section and entry before the loaders index into them."""
    atoms = _require(doc, "atoms", "scenario")
    if not isinstance(atoms, (Mapping, list)):
        raise ScenarioError("atoms: expected an object or a list of [name, weight] pairs")
    for i, entry in enumerate(atoms if isinstance(atoms, list) else ()):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ScenarioError(f"atoms[{i}]: expected a [name, weight] pair, got {json.dumps(entry)}")
    for section, (types, expected) in _ENTRY_SHAPES.items():
        entries = doc.get(section, {})
        if not isinstance(entries, Mapping):
            raise ScenarioError(f"{section}: expected an object of named entries, got {json.dumps(entries)}")
        for name, entry in entries.items():
            if not isinstance(entry, types):
                raise ScenarioError(f"{section}.{name}: expected {expected}, got {json.dumps(entry)}")


def _load_algebra(doc: Mapping) -> MeasureAlgebra:
    raw = doc["atoms"]
    items = list(raw.items()) if isinstance(raw, Mapping) else [(str(a), w) for a, w in raw]
    try:
        return MeasureAlgebra([(a, _finite(w, f"atoms.{a}")) for a, w in items])
    except ValueError as exc:
        raise ScenarioError(f"atoms: {exc}") from None


def _load_space(raw, where: str) -> GroundSpace:
    if isinstance(raw, list):
        points = tuple(_parse_point(p) for p in raw)
        coords = None
    elif isinstance(raw, Mapping):
        points = tuple(_parse_point(p) for p in _require(raw, "points", where))
        coords = None
        if "coords" in raw:
            key = {str(p): p for p in points}
            coords = {}
            for k, v in raw["coords"].items():
                if k not in key:
                    raise ScenarioError(f"{where}.coords: unknown point {k!r}")
                coords[key[k]] = _finite(v, f"{where}.coords.{k}")
    else:
        raise ScenarioError(f"{where}: expected a point list or an object with 'points'")
    try:
        return GroundSpace(points, coords)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _resolve_points(raw_list, space: GroundSpace, where: str) -> frozenset:
    out = set()
    for raw in raw_list:
        p = _parse_point(raw)
        if p not in space.point_set:
            raise ScenarioError(f"{where}: unknown point {p!r}")
        out.add(p)
    if not out:
        raise ScenarioError(f"{where}: empty point set")
    return frozenset(out)


def _load_blocks(raw, algebra: MeasureAlgebra, space: GroundSpace, where: str) -> dict[str, list[frozenset]]:
    if raw == "discrete":
        return {a: [frozenset((p,)) for p in space.points] for a in algebra.atoms}
    if raw == "trivial":
        return {a: [space.point_set] for a in algebra.atoms}
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected 'discrete', 'trivial' or per-atom block lists")
    out = {}
    for a in algebra.atoms:
        rows = _require(raw, a, where)
        out[a] = [_resolve_points(b, space, f"{where}.{a}") for b in rows]
    extra = set(raw) - set(algebra.atoms)
    if extra:
        raise ScenarioError(f"{where}: unknown atoms {sorted(extra)}")
    return out


def _load_point_masses(raw, algebra: MeasureAlgebra, space: GroundSpace, where: str) -> dict:
    key = _point_key(space)
    out = {}
    for a in algebra.atoms:
        row = _require(raw, a, where)
        parsed = {}
        for k, v in row.items():
            if k not in key:
                raise ScenarioError(f"{where}.{a}: unknown point {k!r}")
            parsed[key[k]] = _ext(v, f"{where}.{a}.{k}")
        missing = space.point_set - set(parsed)
        if missing:
            raise ScenarioError(f"{where}.{a}: missing masses for {sorted(map(str, missing))}")
        out[a] = parsed
    return out


def _load_block_masses(raw, domain, where: str) -> dict:
    out = {}
    for a in domain.algebra.atoms:
        entries = _require(raw, a, where)
        lookup = {b: b for b in domain.ring_at(a).blocks}
        parsed: dict[frozenset, ExtValue] = {}
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ScenarioError(f"{where}.{a}: each entry must be [points, mass]")
            pts = frozenset(_parse_point(p) for p in entry[0])
            if pts not in lookup:
                raise ScenarioError(f"{where}.{a}: {sorted(map(str, pts))} is not a block of the domain")
            parsed[pts] = _ext(entry[1], f"{where}.{a}")
        missing = set(lookup) - set(parsed)
        if missing:
            raise ScenarioError(f"{where}.{a}: missing masses for some blocks")
        out[a] = parsed
    return out


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    return build_scenario(doc)


def build_scenario(doc: Mapping) -> Scenario:
    _check_shapes(doc)
    algebra = _load_algebra(doc)
    spaces = {"ground": _load_space(_require(doc, "ground", "scenario"), "ground")}
    if "ground2" in doc:
        spaces["ground2"] = _load_space(doc["ground2"], "ground2")
        spaces["product"] = product_space(spaces["ground"], spaces["ground2"])
    cspaces = {name: CondSpace(algebra, sp) for name, sp in spaces.items()}

    sigmas: dict[str, StableSigmaAlgebra] = {}
    sigma_space: dict[str, str] = {}
    for name, raw in doc.get("sigma_algebras", {}).items():
        where = f"sigma_algebras.{name}"
        on = raw.get("on", "ground") if isinstance(raw, Mapping) else "ground"
        if on not in spaces:
            raise ScenarioError(f"{where}: unknown space {on!r}")
        blocks_raw = _require(raw, "blocks", where) if isinstance(raw, Mapping) else raw
        blocks = _load_blocks(blocks_raw, algebra, spaces[on], where)
        try:
            sigmas[name] = StableSigmaAlgebra.from_blocks(cspaces[on], blocks)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        sigma_space[name] = on

    rings: dict[str, StableRing] = {}
    ring_space: dict[str, str] = {}
    for name, raw in doc.get("rings", {}).items():
        where = f"rings.{name}"
        on = raw.get("on", "ground")
        if on not in spaces:
            raise ScenarioError(f"{where}: unknown space {on!r}")
        blocks = _load_blocks(_require(raw, "blocks", where), algebra, spaces[on], where)
        try:
            rings[name] = StableRing(cspaces[on], {a: SetRing(bs) for a, bs in blocks.items()})
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        ring_space[name] = on

    measures: dict[str, StableMeasure] = {}
    measure_points: dict[str, dict | None] = {}
    for name, raw in doc.get("measures", {}).items():
        where = f"measures.{name}"
        if "sigma" in raw:
            dom_name = raw["sigma"]
            if dom_name not in sigmas:
                raise ScenarioError(f"{where}: unknown sigma-algebra {dom_name!r}")
            domain = sigmas[dom_name]
            dspace = spaces[sigma_space[dom_name]]
        elif "ring" in raw:
            dom_name = raw["ring"]
            if dom_name not in rings:
                raise ScenarioError(f"{where}: unknown ring {dom_name!r}")
            domain = rings[dom_name]
            dspace = spaces[ring_space[dom_name]]
        else:
            raise ScenarioError(f"{where}: needs 'sigma' or 'ring'")
        try:
            if "point_masses" in raw:
                pm = _load_point_masses(raw["point_masses"], algebra, dspace, f"{where}.point_masses")
                measures[name] = StableMeasure.from_point_masses(domain, pm)
                measure_points[name] = pm
            elif "blocks" in raw:
                bm = _load_block_masses(raw["blocks"], domain, f"{where}.blocks")
                measures[name] = StableMeasure(domain, bm)
                measure_points[name] = None
            else:
                raise ScenarioError(f"{where}: needs 'point_masses' or 'blocks'")
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    observations: dict[str, dict] = {}
    for name, raw in doc.get("observations", {}).items():
        where = f"observations.{name}"
        xi = {}
        for a in algebra.atoms:
            p = _parse_point(_require(raw, a, where))
            if p not in spaces["ground"].point_set:
                raise ScenarioError(f"{where}.{a}: unknown point {p!r}")
            xi[a] = p
        observations[name] = xi

    subalgebras: dict[str, SubAlgebra] = {}
    for name, raw in doc.get("subalgebras", {}).items():
        where = f"subalgebras.{name}"
        try:
            subalgebras[name] = SubAlgebra(algebra, [frozenset(b) for b in raw])
        except (ValueError, KeyError) as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    functions: dict[str, dict] = {}
    for name, raw in doc.get("functions", {}).items():
        where = f"functions.{name}"
        entries = _require(raw, "values", where)
        table = {}
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ScenarioError(f"{where}: each entry must be [point, value]")
            table[_parse_point(entry[0])] = _finite(entry[1], where)
        functions[name] = table

    kernels_: dict[str, StableMarkovKernel] = {}
    for name, raw in doc.get("kernels", {}).items():
        where = f"kernels.{name}"
        left_name = _require(raw, "left", where)
        if left_name not in sigmas:
            raise ScenarioError(f"{where}: unknown sigma-algebra {left_name!r}")
        if "ground2" not in spaces:
            raise ScenarioError(f"{where}: kernels need a second ground space")
        sx = sigmas[left_name]
        sy = StableSigmaAlgebra.discrete(cspaces["ground2"])
        lkey = _point_key(spaces[sigma_space[left_name]])
        rkey = _point_key(spaces["ground2"])
        rows_raw = _require(raw, "rows", where)
        rows: dict[str, dict] = {}
        for a in algebra.atoms:
            arow = _require(rows_raw, a, where)
            rows[a] = {}
            for pk, row in arow.items():
                if pk not in lkey:
                    raise ScenarioError(f"{where}.{a}: unknown left point {pk!r}")
                parsed = {}
                for qk, v in row.items():
                    if qk not in rkey:
                        raise ScenarioError(f"{where}.{a}: unknown right point {qk!r}")
                    parsed[rkey[qk]] = _finite(v, f"{where}.{a}")
                rows[a][lkey[pk]] = parsed
        try:
            kernels_[name] = StableMarkovKernel(sx, sy, rows)
        except (ValueError, KeyError) as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    queries = doc.get("queries", [])
    if not isinstance(queries, list) or not queries:
        raise ScenarioError("scenario needs a nonempty 'queries' list")
    for i, q in enumerate(queries):
        if not isinstance(q, Mapping) or "op" not in q:
            raise ScenarioError(f"queries[{i}]: each query needs an 'op'")
        if q["op"] not in QUERY_OPS:
            known = ", ".join(sorted(QUERY_OPS))
            raise ScenarioError(f"queries[{i}]: unknown op {q['op']!r} (known: {known})")

    return Scenario(
        title=str(doc.get("title", "untitled scenario")),
        algebra=algebra,
        spaces=spaces,
        cspaces=cspaces,
        sigmas=sigmas,
        sigma_space=sigma_space,
        rings=rings,
        ring_space=ring_space,
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


def _named(table: Mapping, key: str, kind: str, where: str):
    if key not in table:
        raise ScenarioError(f"{where}: unknown {kind} {key!r}")
    return table[key]


def _measure_space(scn: Scenario, name: str) -> GroundSpace:
    mu = scn.measures[name]
    for sig_name, sig in scn.sigmas.items():
        if sig is mu.domain:
            return scn.space_of_sigma(sig_name)
    for ring_name, ring in scn.rings.items():
        if ring is mu.domain:
            return scn.spaces[scn.ring_space[ring_name]]
    raise ScenarioError(f"measure {name!r} has an unregistered domain")


def _parse_condset(scn: Scenario, raw, space: GroundSpace, where: str) -> ConditionalSet:
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where}: expected an object mapping atoms to point lists")
    fibers = {}
    for a, pts in raw.items():
        if a not in scn.algebra.atoms:
            raise ScenarioError(f"{where}: unknown atom {a!r}")
        fibers[a] = _resolve_points(pts, space, f"{where}.{a}")
    return ConditionalSet(fibers.keys(), fibers)


def _classical_eval(scn: Scenario, name: str, v: ConditionalSet) -> Field:
    """Oracle evaluation: per atom, a plain sum over the raw declaration."""
    mu = scn.measures[name]
    pm = scn.measure_points[name]
    values: dict[str, ExtValue] = {}
    for a in scn.algebra.atoms:
        if a not in v.support:
            values[a] = Fraction(0)
        elif pm is not None:
            values[a] = classical.mass_of(pm[a], v.fibers[a])
        else:
            values[a] = ext_sum(m for b, m in mu.block_mass[a].items() if b <= v.fibers[a])
    return Field(scn.algebra, values)


def _rep_point_masses(scn: Scenario, name: str) -> dict:
    """Point masses for the oracle: the raw ones, or block mass on one
    representative point per block when only block masses were given."""
    pm = scn.measure_points[name]
    if pm is not None:
        return pm
    mu = scn.measures[name]
    space = _measure_space(scn, name)
    out = {}
    for a in scn.algebra.atoms:
        row = {p: Fraction(0) for p in space.points}
        for b, m in mu.block_mass[a].items():
            row[min(b, key=space.sort_key())] = m
        out[a] = row
    return out


def _field_payload(f: Field) -> dict:
    return {a: format_value(f[a]) for a in f.algebra.atoms}


def _oracle_line(agree: bool) -> str:
    return "oracle: agree" if agree else "oracle: DISAGREE"


def _q_measure_of(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    name = _require(q, "measure", where)
    mu = _named(scn.measures, name, "measure", where)
    space = _measure_space(scn, name)
    v = _parse_condset(scn, _require(q, "set", where), space, f"{where}.set")
    try:
        got = mu.eval(v)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    want = _classical_eval(scn, name, v)
    agree = got == want
    lines = [f"set: {_format_condset(v, scn.algebra, space)}", f"mass: {got.format()}", _oracle_line(agree)]
    return QueryResult("measure-of", f"mass under '{name}'", lines, {"mass": _field_payload(got)}, agree)


def _q_integral(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    mname = _require(q, "measure", where)
    fname = _require(q, "function", where)
    mu = _named(scn.measures, mname, "measure", where)
    fmap = _named(scn.functions, fname, "function", where)
    if not isinstance(mu.domain, StableSigmaAlgebra):
        raise ScenarioError(f"{where}: integrals need a measure on a sigma-algebra")
    space = _measure_space(scn, mname)
    missing = space.point_set - set(fmap)
    if missing:
        raise ScenarioError(f"{where}: function misses points {sorted(map(str, missing))}")
    try:
        got = integrate(Integrand.from_point_map(mu.domain, fmap), mu)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    pm = _rep_point_masses(scn, mname)
    agree = all(got[a] == classical.integral(pm[a], {p: fmap[p] for p in space.points}) for a in scn.algebra.atoms)
    lines = [f"integral of '{fname}': {got.format()}", _oracle_line(agree)]
    return QueryResult("integral", f"integral of '{fname}' against '{mname}'", lines, {"integral": _field_payload(got)}, agree)


def _q_cond_expectation(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    sub = _named(scn.subalgebras, _require(q, "given", where), "grouping", where)
    xi = _named(scn.observations, _require(q, "observe", where), "observation", where)
    fmap = _named(scn.functions, _require(q, "function", where), "function", where)
    space = scn.spaces["ground"]
    missing = space.point_set - set(fmap)
    if missing:
        raise ScenarioError(f"{where}: function misses points {sorted(map(str, missing))}")
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


def _q_cond_distribution(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    sub = _named(scn.subalgebras, _require(q, "given", where), "grouping", where)
    xi = _named(scn.observations, _require(q, "observe", where), "observation", where)
    space = scn.spaces["ground"]
    pts = _resolve_points(_require(q, "points", where), space, f"{where}.points")
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


def _q_radon_nikodym(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    bname = _require(q, "base", where)
    tname = _require(q, "target", where)
    mu = _named(scn.measures, bname, "measure", where)
    nu = _named(scn.measures, tname, "measure", where)
    space = _measure_space(scn, bname)
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


def _q_fubini(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    lname = _require(q, "left", where)
    rname = _require(q, "right", where)
    fname = _require(q, "function", where)
    mu = _named(scn.measures, lname, "measure", where)
    nu = _named(scn.measures, rname, "measure", where)
    fmap = _named(scn.functions, fname, "function", where)
    if "product" not in scn.spaces:
        raise ScenarioError(f"{where}: iterated integrals need a second ground space")
    pspace = scn.spaces["product"]
    missing = pspace.point_set - set(fmap)
    if missing:
        raise ScenarioError(f"{where}: function misses points {sorted(map(str, missing))}")
    if not isinstance(mu.domain, StableSigmaAlgebra) or not isinstance(nu.domain, StableSigmaAlgebra):
        raise ScenarioError(f"{where}: both factors need sigma-algebra domains")
    psigma = product_sigma(mu.domain, nu.domain)
    try:
        f = Integrand.from_point_map(psigma, fmap)
        left, right, joint = fubini(f, mu, nu)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    pml = _rep_point_masses(scn, lname)
    pmr = _rep_point_masses(scn, rname)
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
    return QueryResult("fubini", f"iterated integrals of '{fname}'", lines, payload, agree)


def _q_caratheodory(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    name = _require(q, "premeasure", where)
    pre = _named(scn.measures, name, "measure", where)
    if not isinstance(pre.domain, StableRing):
        raise ScenarioError(f"{where}: the extension starts from a measure on a ring")
    space = _measure_space(scn, name)
    try:
        ext = caratheodory_extend(pre)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    agree = True
    for a in scn.algebra.atoms:
        ring = pre.domain.ring_at(a)
        ring_masses = {}
        for m in ring.members():
            if m:
                ring_masses[m] = ext_sum(pre.block_mass[a][b] for b in ring.blocks if b <= m)
        if not ring_masses:
            continue
        want = classical.caratheodory_blocks(space.point_set, ring_masses)
        for b, mass in want.items():
            if ext.eval(ConditionalSet((a,), {a: b}))[a] != mass:
                agree = False
    lines = []
    payload: dict[str, list] = {}
    for a in scn.algebra.atoms:
        parts = []
        payload[a] = []
        for b in ext.domain.blocks(a):
            mass = ext.block_mass[a][b]
            parts.append(f"{_format_fiber(b, space)}={format_value(mass)}")
            payload[a].append([sorted((str(p) for p in b), key=str), format_value(mass)])
        lines.append(f"{a}: " + ", ".join(parts))
    lines.append(_oracle_line(agree))
    return QueryResult("caratheodory", f"extension of '{name}' to the generated sigma-algebra", lines,
                       {"blocks": payload}, agree)


def _q_markov_product(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    kname = _require(q, "kernel", where)
    mname = _require(q, "source", where)
    kernel = _named(scn.kernels, kname, "kernel", where)
    mu = _named(scn.measures, mname, "measure", where)
    try:
        joint = markov_product(kernel, mu)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    pspace = scn.spaces["product"]
    pm = _rep_point_masses(scn, mname)
    agree = True
    for a in scn.algebra.atoms:
        classic = {(p, y): ext_mul(pm[a][p], kernel.rows[a][p][y]) for p in pm[a] for y in kernel.sy.space.points}
        for b in joint.domain.blocks(a):
            if joint.block_mass[a][b] != classical.mass_of(classic, b):
                agree = False
    spy = kernel.sy.space
    full_y = ConditionalSet(scn.algebra.atoms, {a: spy.point_set for a in scn.algebra.atoms})
    top_left = ConditionalSet(scn.algebra.atoms, {a: _measure_space(scn, mname).point_set for a in scn.algebra.atoms})
    marginal_ok = joint.eval(cartesian_product(top_left, full_y)) == mu.eval(top_left)
    lines = []
    payload: dict[str, list] = {}
    for a in scn.algebra.atoms:
        parts = []
        payload[a] = []
        for b in joint.domain.blocks(a):
            mass = joint.block_mass[a][b]
            parts.append(f"{_format_fiber(b, pspace)}={format_value(mass)}")
            payload[a].append([sorted((_format_point(p) for p in b), key=str), format_value(mass)])
        lines.append(f"{a}: " + ", ".join(parts))
    lines.append(f"marginal matches the source: {'yes' if marginal_ok else 'NO'}")
    lines.append(_oracle_line(agree))
    return QueryResult("markov-product", f"joint law of '{mname}' and kernel '{kname}'", lines,
                       {"blocks": payload, "marginal": marginal_ok}, agree and marginal_ok)


def _q_hahn(scn: Scenario, q: Mapping, where: str) -> QueryResult:
    n1 = _require(q, "first", where)
    n2 = _require(q, "second", where)
    mu1 = _named(scn.measures, n1, "measure", where)
    mu2 = _named(scn.measures, n2, "measure", where)
    space = _measure_space(scn, n1)
    try:
        pos = hahn_positive_set(mu1, mu2)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    agree = True
    for a in scn.algebra.atoms:
        diffs = {
            b: Fraction(mu2.block_mass[a][b]) - Fraction(mu1.block_mass[a][b]) for b in mu1.domain.blocks(a)
        }
        if pos.fibers.get(a, frozenset()) != classical.hahn_positive(mu1.domain.blocks(a), diffs):
            agree = False
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
