"""Command-line surface: matroid ingestion, computations, verification suites.

All output is JSON with deterministic key order and no floating point;
rationals appear as {"num": ..., "den": ...}.  Exit codes: 0 ok, 1
verification failure, 2 input error, 3 internal error.  Errors go to stderr
as {"error": <exception type>, "message": ...}; an internal error is an
``InvariantViolation`` (a failed consistency check of a result) or any
exception other than a ``ChowmatError`` raised while computing, so a crash
never reads as a verdict, and its document also carries the traceback.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from fractions import Fraction

import click

from . import _linalg, bergman, hodge, quotients
from .chow import ring_for
from .errors import ChowmatError, InvariantViolation, NotAFlat, ParseError
from .matroid import Matroid, bits, graphic, mask_of, matroid_from_bases, uniform

DEFAULT_MAX_GROUND = 12
KAHLER_SAMPLES = 25


def rational_json(q: Fraction) -> object:
    """Serialize an exact rational: plain int when integral, else num/den."""
    if q.denominator == 1:
        return int(q)
    return {"num": q.numerator, "den": q.denominator}


def _subset(mask: int) -> list[int]:
    return sorted(bits(mask))


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer: a bool, float or string is an input
    error, not a number to coerce."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r:.40}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r:.40}")
    return value


def _basis(value, ground: int) -> int:
    """The mask of a basis: distinct integers in 0 .. ground - 1, checked before
    any bit is set, so that no element can ask for a huge mask."""
    for e in _list(value, "a basis"):
        if not 0 <= _integer(e, "a basis element") < ground:
            raise ParseError(f"basis element {e} outside 0..{ground - 1}")
    if len(set(value)) < len(value):
        raise ParseError(f"basis {value} repeats an element")
    return mask_of(value)


def _edge(value) -> tuple[int, int]:
    if len(_list(value, "an edge")) != 2:
        raise ParseError(f"an edge must have two endpoints, got {value!r:.40}")
    return _integer(value[0], "an edge endpoint"), _integer(value[1], "an edge endpoint")


def load_matroid(path: str, max_ground: int) -> Matroid:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer literal too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError('spec must be an object with a "type" field')
    kind = doc["type"]
    if kind not in ("uniform", "bases", "graphic"):
        raise ParseError(f"unknown matroid type {kind!r}")
    try:
        # The declared size meets the cap before anything is built.
        if kind == "graphic":
            size = len(_list(doc["edges"], '"edges"'))
        else:
            field = "n" if kind == "uniform" else "ground"
            size = _integer(doc[field], f'"{field}"')
        if size > max_ground:
            raise ParseError(
                f"ground set of size {size} exceeds the cap {max_ground} "
                "(raise with --max-ground or CHOWMAT_MAX_GROUND)"
            )
        if kind == "uniform":
            return uniform(_integer(doc["r"], '"r"'), size)
        if kind == "bases":
            return matroid_from_bases(size, [_basis(b, size) for b in _list(doc["bases"], '"bases"')])
        return graphic(_integer(doc["vertices"], '"vertices"'), [_edge(e) for e in doc["edges"]])
    except KeyError as exc:
        raise ParseError(f"missing field {exc} for type {kind!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid spec: {exc}") from exc


def matroid_summary(m: Matroid) -> dict:
    lattice = m.lattice()
    return {
        "ground": m.n_elements,
        "rank": m.rank_full,
        "flats_by_rank": [len(lattice.by_rank[r]) for r in range(m.rank_full + 1)],
        "loopless": m.is_loopless(),
    }


#: Stands in the document for each value that is written separately.
_HOLE = "\x00"


def emit(doc: dict, pretty: bool, items=None) -> None:
    """Write ``doc`` as JSON, compact or indented by 2.

    With ``items``, the list ``[_HOLE]`` in ``doc`` is written a block at a
    time, so that no string holds the whole document: ``items(dumps)`` yields
    the blocks as lists of encoded items.  ``dumps(value, pad)`` encodes a
    value that starts on a line indented by ``pad``, by default an item's."""

    def dumps(value, pad: str = "") -> str:
        if pretty:
            return json.dumps(value, indent=2).replace("\n", "\n" + pad)
        return json.dumps(value, separators=(",", ":"))

    text = dumps(doc)
    if items is None:
        click.echo(text)
        return
    head, tail = text.split(dumps(_HOLE))
    sep = "," + head[len(head.rstrip()) :]  # a comma, then the line break and indent of an item
    click.echo(head, nl=False)
    for i, block in enumerate(items(lambda value, pad=sep[2:]: dumps(value, pad))):
        click.echo((sep if i else "") + sep.join(block), nl=False)
    click.echo(tail)


def _max_ground_option(f):
    f = click.option(
        "--max-ground",
        type=int,
        default=None,
        help=f"Ground-set size cap (default {DEFAULT_MAX_GROUND}, env CHOWMAT_MAX_GROUND).",
    )(f)
    f = click.option("--pretty", is_flag=True, help="Indent the JSON output.")(f)
    return f


def _resolve_cap(max_ground: int | None) -> int:
    if max_ground is not None:
        return max_ground
    env = os.environ.get("CHOWMAT_MAX_GROUND")
    try:
        return int(env) if env else DEFAULT_MAX_GROUND
    except ValueError as exc:
        raise ParseError(f"CHOWMAT_MAX_GROUND must be an integer, got {env!r}") from exc


def _run(command: str, spec_file: str, max_ground: int | None, pretty: bool, worker) -> None:
    try:
        m = load_matroid(spec_file, _resolve_cap(max_ground))
    except ChowmatError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True)
        sys.exit(2)
    try:
        payload, ok, *items = worker(m)
    except Exception as exc:
        # Free the failed work that the frames of the exception chain hold; exit 3 (or 2) even if
        # the report cannot be built.
        chained = exc
        while chained is not None:
            traceback.clear_frames(chained.__traceback__)
            chained = chained.__context__
        internal = isinstance(exc, InvariantViolation) or not isinstance(exc, ChowmatError)
        try:
            report = {"error": type(exc).__name__, "message": str(exc)}
            if internal:
                report["traceback"] = traceback.format_exception(exc)
            click.echo(json.dumps(report), err=True)
        finally:
            sys.exit(3 if internal else 2)
    doc = {"command": command, "matroid": matroid_summary(m), "result": payload}
    emit(doc, pretty, *items)
    sys.exit(0 if ok else 1)


@click.group()
def main() -> None:
    """Exact Chow-ring computations for matroids."""


@main.command()
@click.argument("spec_file")
@_max_ground_option
def info(spec_file: str, pretty: bool, max_ground: int | None) -> None:
    """Ground set, rank, flats by rank, looplessness, Hilbert function."""

    def worker(m: Matroid):
        payload = {}
        if m.is_loopless():
            payload["hilbert"] = ring_for(m).hilbert_function()
        else:
            payload["hilbert"] = None
        return payload, True

    _run("info", spec_file, max_ground, pretty, worker)


@main.command()
@click.argument("spec_file")
@click.option("--flats", "flats_arg", required=True, help='Semicolon-separated subsets, e.g. "0,1;0,2".')
@_max_ground_option
def degree(spec_file: str, flats_arg: str, pretty: bool, max_ground: int | None) -> None:
    """DHR degree of a product of simplicial generators, plus the Groebner value."""

    def worker(m: Matroid):
        try:
            parts = [[int(x) for x in part.split(",")] for part in flats_arg.split(";")]
        except ValueError as exc:
            raise ParseError(f"cannot parse --flats: {exc}") from exc
        for part in parts:  # every element is checked before it is shifted into a mask
            if not all(0 <= e < m.n_elements for e in part) or not m.is_flat(mask_of(part)):
                raise NotAFlat(f"{sorted(set(part))} is not a flat")
        masks = [mask_of(part) for part in parts]
        dhr = hodge.dhr_degree(m, masks)
        ring = ring_for(m)
        groebner = int(ring.h_monomial_degree(masks))
        chain = 1 if hodge.chain_terminates_loopless(m, masks) else 0
        agree = dhr == groebner == chain
        payload = {
            "flats": [_subset(f) for f in masks],
            "dhr": dhr,
            "groebner": groebner,
            "chain": chain,
            "agree": agree,
        }
        return payload, agree

    _run("degree", spec_file, max_ground, pretty, worker)


@main.command()
@click.argument("spec_file")
@_max_ground_option
def volume(spec_file: str, pretty: bool, max_ground: int | None) -> None:
    """The volume polynomial as a sorted multinomial term list, written a block of terms at a time."""

    def worker(m: Matroid):
        import numpy as np

        flats, rows, coeffs = hodge.volume_arrays(m)
        # The terms in the order of their tuples of flat masks (positions in mask order).
        order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
        names = [_subset(f) for f in flats]

        def items(dumps):
            term = dumps({"flats": [_HOLE] * rows.shape[1], "coeff": _HOLE})
            hole = dumps(_HOLE)
            before = term.split(hole)[0]
            pad = before[len(before.rstrip(" ")) :]  # the line indent of a flat
            flat = np.array([dumps(name, pad) for name in names], dtype=object)
            form = term.replace("{", "{{").replace("}", "}}").replace(hole, "{}")
            for lo in range(0, len(order), hodge._BLOCK):
                x = order[lo : lo + hodge._BLOCK]
                yield [form.format(*f, c) for f, c in zip(flat[rows[x]].tolist(), coeffs[x].tolist())]

        return {"degree": rows.shape[1], "terms": [_HOLE]}, True, items

    _run("volume", spec_file, max_ground, pretty, worker)


@main.command()
@click.argument("spec_file")
@_max_ground_option
def charpoly(spec_file: str, pretty: bool, max_ground: int | None) -> None:
    """Reduced characteristic polynomial; mu vector via both routes."""

    def worker(m: Matroid):
        cp = hodge.char_poly(m)
        via_chow = hodge.mu_via_degrees(m)
        concave = hodge.log_concavity_report(cp.mu)
        agree = cp.mu == via_chow
        payload = {
            "reduced_coeffs": cp.reduced_coeffs,
            "mu_moebius": cp.mu,
            "mu_chow": via_chow,
            "routes_agree": agree,
            "log_concave": concave,
        }
        return payload, agree and concave

    _run("charpoly", spec_file, max_ground, pretty, worker)


@main.command()
@click.argument("spec_file")
@click.option("--corank", type=int, required=True)
@_max_ground_option
def nested(spec_file: str, corank: int, pretty: bool, max_ground: int | None) -> None:
    """Nested-basis monomials of one degree, paired with their quotients."""

    def worker(m: Matroid):
        chains = quotients.nested_exponent_chains(m, corank)
        pairs = []
        for chain in chains:
            quotient = quotients.apply_exponent_chain(m, chain)
            pairs.append(
                {
                    "monomial": [{"flat": _subset(f), "power": a} for f, a in chain],
                    "quotient_bases": sorted(_subset(b) for b in quotient.bases),
                }
            )
        distinct = len({tuple(map(tuple, p["quotient_bases"])) for p in pairs}) == len(pairs)
        return {"corank": corank, "count": len(pairs), "pairs": pairs, "distinct": distinct}, distinct

    _run("nested", spec_file, max_ground, pretty, worker)


SUITES = ("poincare", "lorentzian", "kahler", "nested", "balance", "all")


@main.command()
@click.argument("spec_file")
@click.option("--suite", type=click.Choice(SUITES), default="all")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="Seed for the randomized Kähler sweep.")
@_max_ground_option
def verify(spec_file: str, suite: str, seed: int, pretty: bool, max_ground: int | None) -> None:
    """Run the verification suites; nonzero exit on any failure."""

    def worker(m: Matroid):
        wanted = SUITES[:-1] if suite == "all" else (suite,)
        results = {}
        ok = True
        for name in wanted:
            outcome = _SUITE_RUNNERS[name](m, seed)
            results[name] = outcome
            ok = ok and outcome["passed"]
        return {"suites": results, "passed": ok}, ok

    _run("verify", spec_file, max_ground, pretty, worker)


def _suite_balance(m: Matroid, seed: int) -> dict:
    weight = bergman.bergman_class(m)
    balanced = bergman.check_balanced(weight)
    return {"passed": balanced, "cones": len(weight.weights)}


def _suite_poincare(m: Matroid, seed: int) -> dict:
    ring = ring_for(m)
    hilbert = ring.hilbert_function()
    palindromic = hilbert == hilbert[::-1]
    full = True
    for k in range(ring.d + 1):
        if not _linalg.is_full_rank(ring.pairing(k)):
            full = False
            break
    return {"passed": palindromic and full, "hilbert": hilbert, "palindromic": palindromic, "pairings_full_rank": full}


def _suite_lorentzian(m: Matroid, seed: int) -> dict:
    report = hodge.lorentzian_check(m, seed=seed)
    return {
        "passed": report.ok,
        "mconvex": report.mconvex,
        "mconvex_mode": report.mconvex_mode,
        "support": report.support_size,
        "hessians": report.hessians_checked,
    }


def _suite_kahler(m: Matroid, seed: int) -> dict:
    ring = ring_for(m)
    samples = [ring.ample_x_form()] + hodge.sample_nabla_cone(m, KAHLER_SAMPLES, seed)
    reports = [hodge.kahler_check(m, ell) for ell in samples]
    top = rational_json(reports[0].top_power)
    out = {"passed": all(r.ok for r in reports), "samples": len(samples), "ample_top_power": top}
    if ring.d < 2:
        out["note"] = "vacuous degree 1"
    else:
        out["q1_signatures"] = [list(s) for s in sorted({r.q1_signature for r in reports})]
    return out


def _suite_nested(m: Matroid, seed: int) -> dict:
    ring = ring_for(m)
    counts_ok = True
    bijection_ok = True
    for c, monomials in enumerate(ring.nested):
        seen = set()
        for chain in monomials:
            q = quotients.apply_exponent_chain(m, chain)
            # The bijection counts the loopless quotients of rank r - c.
            if not q.is_loopless() or q.rank_full != m.rank_full - c:
                counts_ok = False
            seen.add(q.bases)
            witness = quotients.is_quotient(q, m)
            if witness is None or not quotients.is_relative_nested(witness):
                bijection_ok = False
        if len(seen) != len(monomials):
            bijection_ok = False
    passed = counts_ok and bijection_ok
    return {"passed": passed, "counts_match": counts_ok, "quotients_nested_and_distinct": bijection_ok}


_SUITE_RUNNERS = {
    "balance": _suite_balance,
    "poincare": _suite_poincare,
    "lorentzian": _suite_lorentzian,
    "kahler": _suite_kahler,
    "nested": _suite_nested,
}


if __name__ == "__main__":
    main()
