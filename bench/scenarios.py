"""Seeded scenario documents for the ``scenario-typical`` workload.

Each document is a plain JSON-shaped dict, as ``cms run`` would read
from a file.  It asks each of the nine query ops once, plus a second
``measure-of``; the density query only on documents of up to 3 atoms.  Sizes stay in the range of the shipped
scenarios: 2-6 atoms, 3-8 ground points, at most 4 sigma blocks and 3
ring blocks per atom, and a density domain of at most 256 members.
Every query is built so that it succeeds and its oracle agrees.
"""

from __future__ import annotations

import random
from fractions import Fraction

#: Largest member count of the domain a generated density query certifies.
MAX_RN_MEMBERS = 256


def _partition(rng: random.Random, points: list, k: int) -> list[list]:
    """A random partition of ``points`` into exactly ``k`` blocks."""
    shuffled = points[:]
    rng.shuffle(shuffled)
    blocks = [[p] for p in shuffled[:k]]
    for p in shuffled[k:]:
        rng.choice(blocks).append(p)
    return [sorted(b) for b in blocks]


def _coarsen(rng: random.Random, blocks: list[list]) -> list[list]:
    if len(blocks) < 2:
        return blocks
    i, j = sorted(rng.sample(range(len(blocks)), 2))
    merged = sorted(blocks[i] + blocks[j])
    return [b for n, b in enumerate(blocks) if n not in (i, j)] + [merged]


def _components(points: list, partitions: list[list[list]]) -> list[list]:
    """Classes of the finest partition that every given partition refines."""
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for blocks in partitions:
        for b in blocks:
            for p in b[1:]:
                parent[find(p)] = find(b[0])
    classes: dict = {}
    for p in points:
        classes.setdefault(find(p), []).append(p)
    return list(classes.values())


def _probability(rng: random.Random, n: int, allow_zero: bool = True) -> list[Fraction]:
    raw = [rng.randint(0 if allow_zero else 1, 5) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def _value(rng: random.Random, lo: int = 0) -> Fraction:
    return Fraction(rng.randint(lo, 5), rng.randint(1, 4))


def generate_document(rng: random.Random, index: int) -> dict:
    """Document ``index``; its sizes follow ``index`` and cycle every 120
    documents, so that runs at different seeds do the same amount of work."""
    n_atoms = 2 + index % 5
    atoms = [f"a{i + 1}" for i in range(n_atoms)]
    weights = _probability(rng, n_atoms, allow_zero=False)
    ground = list(range(1, 3 + (index // 5) % 6 + 1))
    ground2 = list(range(1, 2 + index % 2 + 1))

    # F: one base partition, coarsened on some atoms.
    base = _partition(rng, ground, 1 + (index // 30) % 4)
    f_blocks = {a: (_coarsen(rng, base) if rng.random() < 0.3 else base) for a in atoms}
    # R, the density domain: one block per atom, two on a few atoms.  Its
    # 2**(blocks) members are each certified, so density queries are only
    # asked on documents of at most 3 atoms, which keeps them cheap.
    r_total = min(MAX_RN_MEMBERS.bit_length() - 1, n_atoms + index % 3)
    r_blocks = {a: _partition(rng, ground, 2 if i < r_total - n_atoms else 1) for i, a in enumerate(atoms)}
    # A ring of 1-3 disjoint blocks per atom, possibly leaving points uncovered.
    ring_blocks = {}
    for a in atoms:
        covered = sorted(rng.sample(ground, rng.randint(1, len(ground))))
        ring_blocks[a] = _partition(rng, covered, rng.randint(1, min(3, len(covered))))

    def point_masses(probability: bool) -> dict:
        out = {}
        for a in atoms:
            masses = _probability(rng, len(ground)) if probability else [_value(rng) for _ in ground]
            out[a] = {str(p): str(m) for p, m in zip(ground, masses)}
        return out

    def block_probability(blocks: dict) -> dict:
        out = {}
        for a in atoms:
            masses = _probability(rng, len(blocks[a]))
            out[a] = {}
            for b, m in zip(blocks[a], masses):
                share = _probability(rng, len(b), allow_zero=False)
                out[a].update({str(p): str(m * s) for p, s in zip(b, share)})
        return out

    mu = point_masses(probability=True)
    # nu vanishes wherever mu does, so the density exists.
    nu = {a: {p: str(Fraction(m) * _value(rng)) for p, m in row.items()} for a, row in mu.items()}
    p_base = block_probability(r_blocks)
    q_target = {a: {p: str(Fraction(m) * rng.randint(0, 4)) for p, m in row.items()} for a, row in p_base.items()}
    rho = {
        a: [[b, "inf" if rng.random() < 0.1 else str(_value(rng))] for b in ring_blocks[a]]
        for a in atoms
    }
    right = {a: {str(q): str(m) for q, m in zip(ground2, _probability(rng, len(ground2)))} for a in atoms}

    classes = _components(ground, list(f_blocks.values()))
    f_values = {}
    for c in classes:
        v = _value(rng, lo=-3)
        f_values.update({p: v for p in c})
    g2 = []
    for c in classes:
        for q in ground2:
            v = _value(rng)
            g2.extend([[p, q], str(v)] for p in c)
    rows = {}
    for a in atoms:
        rows[a] = {}
        for b in f_blocks[a]:
            row = {str(q): str(m) for q, m in zip(ground2, _probability(rng, len(ground2)))}
            rows[a].update({str(p): row for p in b})

    groups = _partition(rng, atoms, rng.randint(1, 3))

    def measurable_set(blocks: dict) -> dict:
        out = {}
        for a in atoms:
            if rng.random() < 0.8:
                chosen = [b for b in blocks[a] if rng.random() < 0.5] or [rng.choice(blocks[a])]
                out[a] = sorted(p for b in chosen for p in b)
        return out or {atoms[0]: blocks[atoms[0]][0]}

    queries = [
        {"op": "measure-of", "measure": "mu", "set": measurable_set(f_blocks)},
        {"op": "measure-of", "measure": "rho", "set": measurable_set(ring_blocks)},
        {"op": "integral", "measure": "nu", "function": "f"},
        {"op": "conditional-expectation", "given": "groups", "observe": "obs", "function": "f"},
        {"op": "conditional-distribution", "given": "groups", "observe": "obs",
         "points": sorted(rng.sample(ground, rng.randint(1, len(ground))))},
        {"op": "fubini", "left": "mu", "right": "right", "function": "g2"},
        {"op": "caratheodory", "premeasure": "rho"},
        {"op": "markov-product", "kernel": "step", "source": "nu"},
        {"op": "hahn", "first": "mu", "second": "nu"},
    ]
    if n_atoms <= 3:
        queries.append({"op": "radon-nikodym", "base": "p", "target": "q"})
    return {
        "title": f"generated scenario {index}",
        "atoms": [[a, str(w)] for a, w in zip(atoms, weights)],
        "ground": ground,
        "ground2": ground2,
        "sigma_algebras": {
            "F": {"blocks": f_blocks},
            "R": {"blocks": r_blocks},
            "G": {"blocks": "discrete", "on": "ground2"},
        },
        "rings": {"ring": {"blocks": ring_blocks}},
        "measures": {
            "mu": {"sigma": "F", "point_masses": mu},
            "nu": {"sigma": "F", "point_masses": nu},
            "p": {"sigma": "R", "point_masses": p_base},
            "q": {"sigma": "R", "point_masses": q_target},
            "rho": {"ring": "ring", "blocks": rho},
            "right": {"sigma": "G", "point_masses": right},
        },
        "observations": {"obs": {a: rng.choice(ground) for a in atoms}},
        "subalgebras": {"groups": groups},
        "functions": {
            "f": {"values": [[p, str(f_values[p])] for p in ground]},
            "g2": {"values": g2},
        },
        "kernels": {"step": {"left": "F", "rows": rows}},
        "queries": queries,
    }


def rn_member_count(doc: dict) -> int:
    """Members of the density domain ``R`` of a generated document."""
    blocks = doc["sigma_algebras"]["R"]["blocks"]
    return 1 << sum(len(bs) for bs in blocks.values())
