"""The three-routes workload: one warm chowmat library session.

    python bench/session.py CONFIG.json

Set-up imports chowmat and builds the matroids, their lattices and their
Chow rings.  Mode ``setup`` stops there; ``once`` runs one pass; ``run``
runs a warm-up pass, which is checked but not reported (the first U(6,6)
scan pays for faulting in its arrays), then timed passes while another one
fits in the configured seconds.  A pass runs the exhaustive triple-route
scans and a seeded stream of degree-d multisets of rank >= 2 flats through
the three routes (DHR rank scan, Groebner degree, chain of intersections).

The session's own outputs go to stdout, so a traced and an untraced session
can be compared byte for byte.  Timings and problems go to the config's
``out`` file, each timed interval as perf_counter readings, with a speed
reading (``speed.py``) after each.  The benchmark's independent DHR oracle
runs outside every timed call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

import matroids as mx
import speed

clock = time.perf_counter


def build(chowmat, doc: dict):
    if doc["type"] == "uniform":
        return chowmat.uniform(doc["r"], doc["n"])
    if doc["type"] == "graphic":
        return chowmat.graphic(doc["vertices"], [tuple(e) for e in doc["edges"]])
    return chowmat.matroid_from_bases(doc["ground"], doc["bases"])


def main() -> None:
    config = json.loads(Path(sys.argv[1]).read_text())
    start = clock()
    rec = None
    if config.get("spans"):
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    import chowmat
    from chowmat import hodge

    matroids = {name: build(chowmat, doc) for name, doc in config["matroids"].items()}
    rings = {name: chowmat.ring_for(m) for name, m in matroids.items()}
    result = {"setup": [start, clock()], "passes": [], "problems": [], "attempted": 0, "failed": 0}
    result["readings"] = [speed.reading()]

    if config["mode"] != "setup":
        oracle = {name: mx.from_spec(doc) for name, doc in config["matroids"].items()}
        flats = {name: bm.flats_rank2() for name, bm in oracle.items()}
        rng = random.Random(config["seed"])
        begin = clock()
        if config["mode"] == "run":
            run_pass(config, hodge, matroids, rings, oracle, flats, rng, result)
        while True:
            p = run_pass(config, hodge, matroids, rings, oracle, flats, rng, result)
            result["passes"].append(p)
            # Stop when a further pass would end more than half a pass late.
            if config["mode"] == "once" or clock() - begin + p["wall_s"] / 2 > config["seconds"]:
                break
    if rec is not None:
        rec.dump(config["spans"])
    Path(config["out"]).write_text(json.dumps(result))


def run_pass(config, hodge, matroids, rings, oracle, flats, rng, result) -> dict:
    def fail(message: str) -> None:
        result["failed"] += 1
        if len(result["problems"]) < 20:
            result["problems"].append(message)

    scans = []
    readings = result["readings"]
    for name in config["scans"]:
        t = clock()
        report = hodge.dhr_triple_report(matroids[name])
        interval = [t, clock()]
        readings.append(speed.reading())
        d = oracle[name].rank_full - 1
        expected = math.comb(len(flats[name]) + d - 1, d)
        if not report.ok or report.total_multisets != expected:
            fail(f"scan {name}: ok={report.ok} total={report.total_multisets}, expected {expected}")
        counts = [report.total_multisets, report.live_leaves, report.dead_counted,
                  report.verified_nodes, report.boundary_checked]
        print(json.dumps({"scan": name, "counts": [int(c) for c in counts], "agree": bool(report.agree)}))
        scans.append({"name": name, "interval": interval, "total": int(report.total_multisets)})

    latencies, values = [], []
    begin = clock()
    for name in config["query_cycle"] * config["query_cycles"]:
        m, ring, bm = matroids[name], rings[name], oracle[name]
        multiset = sorted(rng.choice(flats[name]) for _ in range(bm.rank_full - 1))
        t = clock()
        dhr = hodge.dhr_degree(m, multiset)
        groebner = ring.h_monomial_degree(multiset)
        chain = hodge.chain_terminates_loopless(m, multiset)
        latencies.append(clock() - t)
        expected = bm.dhr(multiset)
        if not dhr == groebner == int(chain) == expected:
            fail(f"query {name} {multiset}: {dhr}/{groebner}/{chain}, expected {expected}")
        values.append(dhr)
    queries = [begin, clock()]
    readings.append(speed.reading())
    print(json.dumps({
        "queries": len(values), "live": sum(values),
        "digest": hashlib.sha256(bytes(values)).hexdigest(),
    }))
    result["attempted"] += len(scans) + len(latencies)
    wall = sum(b - a for a, b in (s["interval"] for s in scans)) + sum(latencies)
    return {"wall_s": wall, "scans": scans, "queries": queries, "query_s": latencies}


if __name__ == "__main__":
    main()
