"""The benchmark's inputs: matroid specs and the fixed operation lists.

Two workloads are cold: every operation is a fresh ``python -m chowmat.cli``
process.  The third, ``three-routes``, is a warm library session whose
configuration lives here too.  All random choices derive from the run seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import matroids as mx

CASES = json.loads((Path(__file__).with_name("cases.json")).read_text())
KNOWN_DEFECTS = {case["op"] for case in CASES["known_defects"]}

#: (Boolean size, truncation steps) of the seeded random truncations in
#: ``verify-small``; fixed so that every seed costs about the same.
RANDOM_TRUNCATION_SLOTS = ((5, 1), (5, 2), (6, 3))


@dataclass(frozen=True)
class Spec:
    """A matroid spec file plus what the oracle knows about it from outside."""

    name: str
    doc: dict
    uniform: tuple[int, int] | None = None
    complete_graph: int | None = None

    @property
    def filename(self) -> str:
        return "".join(c if c.isalnum() else "_" for c in self.name) + ".json"


def uniform_spec(r: int, n: int) -> Spec:
    return Spec(f"U({r},{n})", {"type": "uniform", "r": r, "n": n}, uniform=(r, n))


def graphic_spec(name: str, vertices: int, edges, complete: bool = False) -> Spec:
    doc = {"type": "graphic", "vertices": vertices, "edges": [list(e) for e in edges]}
    return Spec(name, doc, complete_graph=vertices if complete else None)


def bases_spec(name: str, n: int, bases: list[int]) -> Spec:
    return Spec(name, {"type": "bases", "ground": n, "bases": [mx.members(b) for b in bases]})


K4 = graphic_spec("M(K4)", 4, mx.complete_graph_edges(4), complete=True)
K5 = graphic_spec("M(K5)", 5, mx.complete_graph_edges(5), complete=True)
K6_TRI = graphic_spec("K6-tri", 6, mx.k6_minus_triangle_edges())
FANO = bases_spec("Fano", 7, mx.fano_bases())


@dataclass(frozen=True)
class ColdOp:
    """One CLI invocation: ``chowmat <command> SPEC <extra...>``."""

    spec: Spec
    command: str
    extra: tuple[str, ...] = ()
    suite: str | None = None
    #: For ``degree``: the flats, as lists of elements.
    flats: tuple[tuple[int, ...], ...] = ()

    @property
    def id(self) -> str:
        head = f"{self.command}-{self.suite}" if self.suite else self.command
        return f"{head}:{self.spec.name}"

    @property
    def known_defect(self) -> bool:
        return self.id in KNOWN_DEFECTS

    def argv(self, spec_path: str, seed: int) -> list[str]:
        args = [self.command, spec_path, *self.extra]
        if self.suite:
            args += ["--suite", self.suite, "--seed", str(seed)]
        if self.flats:
            args += ["--flats", ";".join(",".join(map(str, f)) for f in self.flats)]
        return args


def verify(spec: Spec, *suites: str) -> list[ColdOp]:
    return [ColdOp(spec, "verify", suite=s) for s in suites]


ALL_SUITES = ("poincare", "lorentzian", "kahler", "nested", "balance")


def random_truncations(seed: int) -> list[Spec]:
    rng = random.Random(seed)
    out = []
    for i, (n, steps) in enumerate(RANDOM_TRUNCATION_SLOTS):
        m = mx.random_truncation(rng, n, steps)
        out.append(bases_spec(f"R{i}", n, m.bases))
    return out


def verify_small(seed: int) -> list[ColdOp]:
    """The main research path: cold ``verify`` runs on small matroids."""
    ops = verify(uniform_spec(4, 6), *ALL_SUITES)
    ops += verify(K4, "all") + verify(FANO, "all")
    for spec in random_truncations(seed):
        ops += verify(spec, "all")
    ops += verify(uniform_spec(5, 6), "poincare", "lorentzian", "nested", "balance")
    ops += verify(K5, "poincare")
    ops += verify(uniform_spec(3, 10), "lorentzian", "kahler")
    ops += verify(uniform_spec(4, 8), "lorentzian") + verify(uniform_spec(3, 12), "lorentzian")
    return ops


def _commands(spec: Spec, live: tuple[tuple[int, ...], ...], *suites: str) -> list[ColdOp]:
    return [
        ColdOp(spec, "info"),
        ColdOp(spec, "charpoly"),
        ColdOp(spec, "volume"),
        ColdOp(spec, "nested", ("--corank", "1")),
        ColdOp(spec, "degree", flats=live),
        *verify(spec, *suites),
    ]


def commands_large(seed: int) -> list[ColdOp]:
    """Every command on ground sets of 10 to 16 elements."""
    # Edges of K5 are numbered in lexicographic order: 0=01 1=02 2=03 3=04
    # 4=12 5=13 6=14 7=23 8=24 9=34.  {01,23}, triangle 012 and triangle 034
    # satisfy the DHR condition, so the product has degree 1.
    ops = _commands(K5, ((0, 7), (0, 1, 4), (2, 3, 9)), "nested", "balance")
    ops += _commands(uniform_spec(3, 12), ((0, 1), (2, 3)), "balance")
    for spec in (uniform_spec(4, 12), K6_TRI):
        ops += [ColdOp(spec, "info"), *verify(spec, "balance")]
    ops.append(ColdOp(uniform_spec(3, 14), "info", ("--max-ground", "14")))
    ops.append(ColdOp(uniform_spec(2, 16), "info", ("--max-ground", "16")))
    return ops


COLD_WORKLOADS = {"verify-small": verify_small, "commands-large": commands_large}

#: The three-routes session: rings built in set-up, scans, and the matroids
#: the query stream draws from.
THREE_ROUTES = {
    "matroids": {
        "U(6,6)": uniform_spec(6, 6).doc,
        "U(4,7)": uniform_spec(4, 7).doc,
        "U(4,8)": uniform_spec(4, 8).doc,
        "M(K5)": K5.doc,
        "U(4,6)": uniform_spec(4, 6).doc,
        "Fano": FANO.doc,
    },
    # U(6,6) takes the batched n <= 6 scan, the others the plain path.
    "scans": ["U(6,6)", "U(4,7)", "M(K5)"],
    # Queries visit the matroids in a fixed cycle, so every seed has the same
    # mix.  U(4,8), the one past 63 rank >= 2 flats, comes twice: the median
    # query then falls inside its latency mode, not in a gap between modes.
    "query_cycle": ["Fano", "U(4,6)", "U(4,7)", "U(4,8)", "U(4,8)", "M(K5)", "U(6,6)"],
    "query_cycles": 430,
}
