"""Self-test of the benchmark on tiny slices of each workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pick(ops, *ids):
    chosen = [op for op in ops if op.id in ids]
    assert len(chosen) == len(ids)
    return chosen


@pytest.fixture()
def tiny(monkeypatch):
    """Shrink every workload to a slice that runs in a few seconds."""
    small, large = workloads.verify_small, workloads.commands_large
    monkeypatch.setitem(
        workloads.COLD_WORKLOADS, "verify-small",
        lambda seed: _pick(small(seed), "verify-all:M(K4)", "verify-balance:U(4,6)", "verify-lorentzian:U(3,12)"),
    )
    monkeypatch.setitem(
        workloads.COLD_WORKLOADS, "commands-large",
        lambda seed: _pick(large(seed), "info:M(K5)", "degree:M(K5)"),
    )
    monkeypatch.setattr(workloads, "THREE_ROUTES", {
        "matroids": {"Fano": workloads.FANO.doc, "U(4,6)": workloads.uniform_spec(4, 6).doc},
        "scans": ["Fano", "U(4,6)"],
        "query_cycle": ["Fano", "U(4,6)"],
        "query_cycles": 20,
    })


def _expected(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, workload, trace):
    result = run.execute(workload, seed=5, seconds=0, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_metrics_follow_the_work(tiny):
    verify = run.execute("verify-small", seed=5, seconds=0, trace=True)["metrics"]
    routes = run.execute("three-routes", seed=5, seconds=0, trace=True)["metrics"]
    assert verify["linalg.rank_calls"]["value"] > 0
    assert verify["oracle.known_defects_open"]["value"] == 1
    assert routes["linalg.signature_calls"]["value"] == 0
    assert routes["hodge.triple_scan_s"]["value"] > 0
    assert routes["hodge.dhr_degree_s"]["value"] > 0


def test_tampered_digest_is_reported_as_a_failure(tiny, monkeypatch):
    digests = dict(oracle.load_digests(), **{"info:M(K5)": "0" * 64})
    monkeypatch.setattr(oracle, "load_digests", lambda: digests)
    result = run.execute("commands-large", seed=5, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1


def test_tampered_theorem_value_is_reported_as_a_failure(tiny, monkeypatch):
    import matroids

    monkeypatch.setattr(matroids, "uniform_bergman_cones", lambda r, n: 119)
    result = run.execute("verify-small", seed=5, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1


def test_exit_codes_are_classified():
    doc = b'{"command": "verify"}'
    assert oracle.exit_class(0, doc) == "ok"
    assert oracle.exit_class(1, doc) == "verdict"
    assert oracle.exit_class(1, b"Traceback ...") == "crash"
    assert oracle.exit_class(2, b"") == "input-error"
    assert oracle.exit_class(-9, b"") == "crash"
    assert oracle.exit_class(None, b"") == "timeout"


def test_tracer_rebinds_names_imported_by_value():
    probe = (
        "import importlib, spans\n"
        "assert spans.install(spans.Recorder()) == []\n"
        "for dotted in spans.BY_VALUE:\n"
        "    module, name = dotted.split('.')\n"
        "    target = getattr(importlib.import_module('chowmat.' + module), name)\n"
        "    assert hasattr(target, 'span'), dotted\n"
    )
    outcome = run.run_process([run.PYTHON, "-c", f"import sys; sys.path.insert(0, {str(BENCH)!r})\n{probe}"], 60)
    assert outcome.returncode == 0, outcome.stderr.decode()
