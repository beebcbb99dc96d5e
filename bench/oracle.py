"""Correctness checks for every cold operation.

Expected results come from outside the program where possible: every
``verify`` suite is a theorem and must pass; uniform matroids and complete
graphs have closed-form flat counts, characteristic polynomials and Bergman
fans; DHR indicators are recomputed by the benchmark's own rank tables.
Commands other than ``verify`` are also pinned to the stdout digests recorded
in ``expected_digests.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import matroids as mx
from workloads import ColdOp

DIGESTS_FILE = Path(__file__).with_name("expected_digests.json")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def exit_class(returncode: int | None, stdout: bytes) -> str:
    """0 ok, 1 verdict, 2 input error; anything else, or exit 1 without a
    JSON document (an uncaught exception), is a crash."""
    if returncode is None:
        return "timeout"
    if returncode == 0:
        return "ok"
    if returncode == 2:
        return "input-error"
    if returncode == 1 and _parse(stdout) is not None:
        return "verdict"
    return "crash"


def _parse(stdout: bytes) -> dict | None:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def _palindromic(seq: list[int]) -> bool:
    return seq == seq[::-1] and seq[0] == 1


def check(op: ColdOp, returncode: int | None, stdout: bytes, digests: dict[str, str]) -> list[str]:
    """Problems with one operation's outcome; empty when it is correct."""
    kind = exit_class(returncode, stdout)
    if kind != "ok":
        return [f"exit {returncode} ({kind})"]
    doc = _parse(stdout)
    if doc is None or doc.get("command") != op.command:
        return ["stdout is not the command's JSON document"]
    problems = []
    summary = doc["matroid"]
    if op.spec.uniform:
        r, n = op.spec.uniform
        if summary["flats_by_rank"] != mx.uniform_flats_by_rank(r, n):
            problems.append(f"flats_by_rank {summary['flats_by_rank']} is not that of U({r},{n})")
    # Degree-one nested monomials are the h_F with rk F >= 2.
    generators = sum(summary["flats_by_rank"][2:])
    result = doc["result"]
    problems += _CHECKS[op.command](op, result, summary, generators)
    if op.command != "verify":
        expected = digests.get(op.id)
        if expected is None:
            problems.append("no recorded stdout digest")
        elif digest(stdout) != expected:
            problems.append("stdout differs from the recorded digest")
    return problems


def _check_info(op, result, summary, generators) -> list[str]:
    hilbert = result["hilbert"]
    if not _palindromic(hilbert):
        return [f"Hilbert function {hilbert} is not palindromic"]
    if len(hilbert) > 1 and hilbert[1] != generators:
        return [f"dim A^1 = {hilbert[1]}, expected {generators} rank>=2 flats"]
    return []


def _check_charpoly(op, result, summary, generators) -> list[str]:
    problems = []
    if not (result["routes_agree"] and result["log_concave"]):
        problems.append("mu routes disagree or are not log-concave")
    expected = None
    if op.spec.uniform:
        expected = mx.uniform_mu(*op.spec.uniform)
    elif op.spec.complete_graph:
        expected = mx.complete_graph_mu(op.spec.complete_graph)
    if expected is not None and result["mu_moebius"] != expected:
        problems.append(f"mu {result['mu_moebius']}, expected {expected}")
    return problems


def _check_volume(op, result, summary, generators) -> list[str]:
    if result["degree"] != summary["rank"] - 1:
        return [f"volume degree {result['degree']}"]
    ground = list(range(summary["ground"]))
    top = [t["coeff"] for t in result["terms"] if all(f == ground for f in t["flats"])]
    if top != [1]:
        return [f"coefficient of t_E^d is {top}, expected [1]"]
    return []


def _check_nested(op, result, summary, generators) -> list[str]:
    if not result["distinct"]:
        return ["quotients of nested monomials are not distinct"]
    if result["corank"] == 1 and result["count"] != generators:
        return [f"{result['count']} degree-1 nested monomials, expected {generators}"]
    return []


@functools.lru_cache(maxsize=None)
def _expected_dhr(spec_json: str, flats: tuple[tuple[int, ...], ...]) -> int:
    return mx.from_spec(json.loads(spec_json)).dhr([mx.mask(f) for f in flats])


def _check_degree(op, result, summary, generators) -> list[str]:
    expected = _expected_dhr(json.dumps(op.spec.doc), op.flats)
    values = (result["dhr"], result["groebner"], result["chain"])
    if not result["agree"] or values != (expected,) * 3:
        return [f"dhr/groebner/chain = {values}, expected {expected}"]
    return []


def _check_verify(op, result, summary, generators) -> list[str]:
    suites = result["suites"]
    wanted = ("poincare", "lorentzian", "kahler", "nested", "balance") if op.suite == "all" else (op.suite,)
    problems = [f"suite {s} did not pass" for s in wanted if not suites.get(s, {}).get("passed")]
    if not result["passed"]:
        problems.append("verify did not pass")
    if problems:
        return problems
    if "poincare" in suites and not _palindromic(suites["poincare"]["hilbert"]):
        problems.append("Hilbert function is not palindromic")
    if "kahler" in suites:
        for sig in suites["kahler"].get("q1_signatures", []):
            if sig != [1, generators - 1, 0]:
                problems.append(f"Q1 signature {sig}, expected [1, {generators - 1}, 0]")
    if "balance" in suites and op.spec.uniform:
        cones = mx.uniform_bergman_cones(*op.spec.uniform)
        if suites["balance"]["cones"] != cones:
            problems.append(f"{suites['balance']['cones']} Bergman cones, expected {cones}")
    return problems


_CHECKS = {
    "info": _check_info,
    "charpoly": _check_charpoly,
    "volume": _check_volume,
    "nested": _check_nested,
    "degree": _check_degree,
    "verify": _check_verify,
}
