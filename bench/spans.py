"""Span and counter recorder for traced benchmark runs.

:func:`install` wraps the public functions and class methods of each chowmat
module, including names other modules imported by value, so that every call
into a layer opens a span.  A span's self time is its duration minus the
durations of the spans opened inside it.  Spans are folded into per-name
totals (count, total time, self time) as they close, because some layers
close millions of spans in one operation; the totals stay in memory and are
written out once, at exit.

A call that re-enters the span already open on top of the stack (recursion,
or one function of a layer calling another under the same span name) is
folded into that span.
"""

from __future__ import annotations

import functools
import json
import time

_clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, start, child_s]
        self._cells: dict[str, list[int]] = {}  # call counts of counting wrappers
        self.ring_for = None  # the unwrapped lru-cached chow.ring_for

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, fn, name: str, observe=None):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - frame[1]
                stack.pop()
                stat = spans.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(self, args, result)
            return result

        traced.span = name
        return traced

    def counting(self, fn, name: str):
        """A wrapper that only counts calls, for oracles called millions of times."""
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        for name, cell in self._cells.items():
            counters[name] = counters.get(name, 0) + cell[0]
        if self.ring_for is not None:
            info = self.ring_for.cache_info()
            counters["chow.ring_for.hits"] = info.hits
            counters["chow.ring_for.misses"] = info.misses
        return {"spans": self.spans, "counters": counters}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


# -- what gets wrapped ------------------------------------------------------------

def _observe_ring(rec, args, result):
    rec.add("chow.nested_monomials", sum(len(level) for level in args[0].nested))


def _observe_imatmul(rec, args, result):
    if result.dtype == object:
        rec.add("chow.imatmul.object")


def _observe_lorentzian(rec, args, report):
    rec.add("hodge.mconvex_support_points", report.support_size)
    if report.mconvex_mode == "sampled":
        rec.add("hodge.mconvex_sampled_ops")


def _observe_scan(rec, args, report):
    rec.add("hodge.triple.total", report.total_multisets)
    rec.add("hodge.triple.verified", report.verified_nodes)
    rec.add("hodge.triple.live", report.live_leaves)


#: (module, function, span name, observer) for module-level functions.
FUNCTIONS = [
    ("matroid", "matroid_from_bases", "matroid.from_bases", None),
    ("quotients", "truncate_by_subset", "quotients.truncate", None),
    ("quotients", "principal_truncation", "quotients.truncate", None),
    ("quotients", "is_quotient", "quotients.is_quotient", None),
    ("quotients", "nested_exponent_chains", "quotients.nested_chains",
     lambda rec, args, result: rec.add("quotients.nested_chains", len(result))),
    ("bergman", "bergman_class", "bergman", lambda rec, args, result: rec.add("bergman.cones", len(result.weights))),
    ("bergman", "check_balanced", "bergman", None),
    ("bergman", "cap_with_h", "bergman", None),
    ("bergman", "cap_weight_with_monomial", "bergman", None),
    ("bergman", "degree_of_point", "bergman", None),
    ("bergman", "weight_vector", "bergman", None),
    ("bergman", "bergman_weight_space_dimension", "bergman", None),
    ("chow", "imatmul", "chow.imatmul", _observe_imatmul),
    ("hodge", "lorentzian_check", "hodge.lorentzian", _observe_lorentzian),
    ("hodge", "truncation_hessian", "hodge.truncation_hessian", None),
    ("hodge", "kahler_check", "hodge.kahler", None),
    ("hodge", "hr_form", "hodge.hr_form", None),
    ("hodge", "volume_polynomial", "hodge.volume",
     lambda rec, args, result: rec.add("hodge.volume_terms", len(result.terms))),
    ("hodge", "char_poly", "hodge.char_poly", None),
    ("hodge", "mu_via_degrees", "hodge.mu_via_degrees", None),
    ("hodge", "dhr_triple_report", "hodge.triple_scan", _observe_scan),
    ("hodge", "dhr_degree", "hodge.dhr_degree", None),
    ("hodge", "chain_terminates_loopless", "hodge.chain", None),
    ("_linalg", "signature", "linalg.signature",
     lambda rec, args, result: rec.add("linalg.signature_entries", len(args[0]) ** 2)),
    ("_linalg", "rank_mod_p", "linalg.rank", None),
    ("_linalg", "rank_exact_fraction", "linalg.rank", None),
    ("_linalg", "rank_int", "linalg.rank", None),
    ("_linalg", "nullity_int", "linalg.rank", None),
    ("_linalg", "is_full_rank", "linalg.rank", None),
    ("cli", "load_matroid", "cli.load", None),
    ("cli", "emit", "cli.emit", None),
]

#: (module, class, method, span name, observer).
METHODS = [
    ("matroid", "Matroid", "__init__", "matroid.from_bases", None),
    ("matroid", "FlatLattice", "__init__", "matroid.lattice", None),
    ("chow", "ChowRing", "__init__", "chow.ring_build", _observe_ring),
    ("chow", "ChowRing", "z_matrix", "chow.z_matrix", None),
    ("chow", "ChowRing", "t_matrix", "chow.t_matrix", None),
    ("chow", "ChowRing", "tinv_matrix", "chow.tinv_matrix", None),
    ("chow", "ChowRing", "poincare_pairing", "chow.poincare_pairing", None),
    ("chow", "ChowRing", "h_monomial_degree", "chow.h_monomial_degree", None),
]

#: Names bound by ``from ... import`` in another module; :func:`install`
#: replaces every binding of a wrapped object, and these must be among them.
BY_VALUE = ("hodge.ring_for", "hodge.imatmul", "hodge.truncate_by_subset", "cli.ring_for", "bergman.principal_truncation")

MODULES = ("matroid", "quotients", "bergman", "chow", "hodge", "_linalg", "cli")


def install(rec: Recorder) -> list[str]:
    """Wrap every target in every chowmat module that binds it.

    Returns the targets that no longer exist, so a later refactor of the
    program degrades the trace instead of breaking the run.
    """
    import importlib

    import chowmat

    modules = {name: importlib.import_module(f"chowmat.{name}") for name in MODULES}
    namespaces = [chowmat, *modules.values()]
    missing = []

    def rebind(original, wrapped) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)

    for mod, attr, name, observe in FUNCTIONS:
        original = getattr(modules[mod], attr, None)
        if original is None:
            missing.append(f"{mod}.{attr}")
            continue
        rebind(original, rec.wrap(original, name, observe))
    ring_for = getattr(modules["chow"], "ring_for", None)
    if ring_for is not None:
        rec.ring_for = ring_for
        rebind(ring_for, rec.wrap(ring_for, "chow.ring_for"))
    for mod, cls_name, attr, name, observe in METHODS:
        cls = getattr(modules[mod], cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, rec.wrap(vars(cls)[attr], name, observe))
    matroid_cls = getattr(modules["matroid"], "Matroid", None)
    if matroid_cls is not None and "rank" in vars(matroid_cls):
        matroid_cls.rank = rec.counting(vars(matroid_cls)["rank"], "matroid.rank_calls")
    return missing


# -- layer metrics from the totals ----------------------------------------------------


def merge(into: dict, snap: dict, scale: float = 1.0) -> dict:
    """Add one process's totals, with span times multiplied by ``scale``."""
    for name, (count, total, self_s) in snap["spans"].items():
        stat = into["spans"].setdefault(name, [0, 0.0, 0.0])
        stat[0] += count
        stat[1] += total * scale
        stat[2] += self_s * scale
    for name, value in snap["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    return into


def empty() -> dict:
    return {"spans": {}, "counters": {}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    spans, counters = agg["spans"], agg["counters"]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def count(name):
        return counters.get(name, 0)

    hits, misses = count("chow.ring_for.hits"), count("chow.ring_for.misses")
    total = count("hodge.triple.total")
    out = {
        "matroid.lattice_s": (self_s("matroid.lattice"), "s"),
        "matroid.lattices_built": (calls("matroid.lattice"), "count"),
        "matroid.rank_calls": (count("matroid.rank_calls"), "count"),
        "matroid.from_bases_s": (self_s("matroid.from_bases"), "s"),
        "quotients.truncations": (calls("quotients.truncate"), "count"),
        "quotients.truncate_s": (self_s("quotients.truncate"), "s"),
        "quotients.is_quotient_s": (self_s("quotients.is_quotient"), "s"),
        "quotients.nested_chains": (count("quotients.nested_chains"), "count"),
        "bergman.self_s": (self_s("bergman"), "s"),
        "bergman.cones": (count("bergman.cones"), "count"),
        "chow.ring_build_s": (self_s("chow.ring_build"), "s"),
        "chow.rings_built": (calls("chow.ring_build"), "count"),
        "chow.ring_cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "chow.nested_monomials": (count("chow.nested_monomials"), "count"),
        "chow.z_matrix_s": (self_s("chow.z_matrix"), "s"),
        "chow.t_matrix_s": (self_s("chow.t_matrix"), "s"),
        "chow.tinv_matrix_s": (self_s("chow.tinv_matrix"), "s"),
        "chow.poincare_pairing_s": (self_s("chow.poincare_pairing"), "s"),
        "chow.h_monomial_degree_s": (self_s("chow.h_monomial_degree"), "s"),
        "chow.imatmul_calls": (calls("chow.imatmul"), "count"),
        "chow.imatmul_s": (self_s("chow.imatmul"), "s"),
        "chow.imatmul_object_ratio": (_ratio(count("chow.imatmul.object"), calls("chow.imatmul")), "ratio"),
        "hodge.lorentzian_self_s": (self_s("hodge.lorentzian"), "s"),
        "hodge.mconvex_support_points": (count("hodge.mconvex_support_points"), "count"),
        "hodge.mconvex_sampled_ops": (count("hodge.mconvex_sampled_ops"), "count"),
        "hodge.truncation_hessian_s": (self_s("hodge.truncation_hessian"), "s"),
        "hodge.hessians": (calls("hodge.truncation_hessian"), "count"),
        "hodge.kahler_self_s": (self_s("hodge.kahler"), "s"),
        "hodge.hr_form_s": (self_s("hodge.hr_form"), "s"),
        "hodge.volume_s": (self_s("hodge.volume"), "s"),
        "hodge.volume_terms": (count("hodge.volume_terms"), "count"),
        "hodge.char_poly_s": (self_s("hodge.char_poly"), "s"),
        "hodge.mu_via_degrees_s": (self_s("hodge.mu_via_degrees"), "s"),
        "hodge.triple_scan_s": (self_s("hodge.triple_scan"), "s"),
        "hodge.triple_nodes_ratio": (_ratio(count("hodge.triple.verified"), total), "ratio"),
        "hodge.triple_live_ratio": (_ratio(count("hodge.triple.live"), total), "ratio"),
        "hodge.dhr_degree_s": (self_s("hodge.dhr_degree"), "s"),
        "hodge.chain_s": (self_s("hodge.chain"), "s"),
        "linalg.signature_s": (self_s("linalg.signature"), "s"),
        "linalg.signature_calls": (calls("linalg.signature"), "count"),
        "linalg.signature_entries": (count("linalg.signature_entries"), "count"),
        "linalg.rank_s": (self_s("linalg.rank"), "s"),
        "linalg.rank_calls": (calls("linalg.rank"), "count"),
        "cli.load_s": (self_s("cli.load"), "s"),
        "cli.emit_s": (self_s("cli.emit"), "s"),
    }
    return out
