"""The chowmat command line: JSON contracts, determinism, exit codes."""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

import chowmat
from chowmat import chow, cli, hodge, quotients
from chowmat.matroid import Matroid, bits, uniform

from conftest import full_corpus, non_representable, run_cli_child, run_cli_unwritable, truncated_booleans


@pytest.fixture()
def runner():
    return CliRunner()


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def u34_spec(tmp_path):
    return write_spec(tmp_path, "u34.json", {"type": "uniform", "r": 3, "n": 4})


@pytest.fixture()
def u33_spec(tmp_path):
    return write_spec(tmp_path, "u33.json", {"type": "uniform", "r": 3, "n": 3})


def invoke(runner, args):
    return runner.invoke(cli.main, args, catch_exceptions=False)


def test_info_uniform(runner, u34_spec):
    result = invoke(runner, ["info", u34_spec])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["matroid"]["rank"] == 3
    assert doc["matroid"]["flats_by_rank"] == [1, 4, 6, 1]
    assert doc["result"]["hilbert"] == [1, 7, 1]


def test_info_graphic_k3(runner, tmp_path):
    spec = write_spec(
        tmp_path, "k3.json", {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    )
    result = invoke(runner, ["info", spec])
    doc = json.loads(result.output)
    assert doc["matroid"]["rank"] == 2
    assert sum(doc["matroid"]["flats_by_rank"]) == 5


def test_info_loopy(runner, tmp_path):
    spec = write_spec(tmp_path, "loopy.json", {"type": "uniform", "r": 0, "n": 2})
    result = invoke(runner, ["info", spec])
    doc = json.loads(result.output)
    assert doc["matroid"]["loopless"] is False
    assert doc["result"]["hilbert"] is None


def test_malformed_json_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "uniform", "r": 3\n  "n": 4}')
    result = runner.invoke(cli.main, ["info", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "ParseError"
    assert "line" in err["message"]


def test_unknown_type_exits_2(runner, tmp_path):
    spec = write_spec(tmp_path, "odd.json", {"type": "oriented"})
    result = runner.invoke(cli.main, ["info", spec])
    assert result.exit_code == 2


def test_ground_cap(runner, tmp_path, monkeypatch):
    spec = write_spec(tmp_path, "wide.json", {"type": "uniform", "r": 2, "n": 13})
    result = runner.invoke(cli.main, ["info", spec])
    assert result.exit_code == 2
    result = runner.invoke(cli.main, ["info", spec, "--max-ground", "13"])
    assert result.exit_code == 0
    monkeypatch.setenv("CHOWMAT_MAX_GROUND", "13")
    result = runner.invoke(cli.main, ["info", spec])
    assert result.exit_code == 0


def test_bad_ground_cap_in_the_environment_exits_2(runner, u34_spec, monkeypatch):
    """An unreadable cap is an input error, not a failed verification."""
    monkeypatch.setenv("CHOWMAT_MAX_GROUND", "abc")
    result = runner.invoke(cli.main, ["info", u34_spec])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "ParseError"
    assert "CHOWMAT_MAX_GROUND" in err["message"]
    # The option overrides the environment, so it is never read.
    assert runner.invoke(cli.main, ["info", u34_spec, "--max-ground", "12"]).exit_code == 0


@pytest.mark.parametrize(
    "vertices, edges",
    [(3, [[0, 5]]), (-2, [[0, 5]]), (-2, [[0, 1]]), (3, [[-1, 0], [0, 1]])],
)
def test_graphic_endpoints_outside_the_vertices_exit_2(runner, tmp_path, vertices, edges):
    """A bad endpoint is an input error: no traceback, and no wrap-around of negative ints."""
    spec = write_spec(tmp_path, "bad.json", {"type": "graphic", "vertices": vertices, "edges": edges})
    result = runner.invoke(cli.main, ["info", spec])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "InvalidEdge"


def test_graphic_vertex_count_only_bounds_the_endpoints(runner, tmp_path):
    """The forests run over the endpoints that occur, so a huge vertex count costs nothing."""
    triangle = [[0, 1], [1, 2], [0, 2]]
    spec = write_spec(tmp_path, "k3.json", {"type": "graphic", "vertices": 2**70, "edges": triangle})
    result = invoke(runner, ["info", spec])
    assert result.exit_code == 0
    assert json.loads(result.output)["matroid"]["flats_by_rank"] == [1, 3, 1]


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        ({"type": "uniform", "r": 3, "n": 200}, [], "exceeds the cap 12"),
        ({"type": "uniform", "r": 20, "n": 40}, ["--max-ground", "40"], "outside 1..16"),
        ({"type": "bases", "ground": 10**9, "bases": [[0]]}, [], "exceeds the cap 12"),
        ({"type": "bases", "ground": 4, "bases": [[0, 10**12]]}, [], "outside 0..3"),
        ({"type": "bases", "ground": 4, "bases": [[0, 10**8]]}, [], "outside 0..3"),
    ],
)
def test_ground_size_is_checked_before_the_matroid_is_built(tmp_path, doc, argv, message):
    """Oversized specs, and elements that would ask for a huge mask, exit 2 at
    once, inside a memory limit and a timeout that enumerating their bases or
    building their masks would break."""
    spec = write_spec(tmp_path, "wide.json", doc)
    proc = run_in_a_small_child(["info", spec, *argv])
    assert proc.returncode == 2, proc.stderr.decode()[-2000:]
    assert len(proc.stderr) < 1000
    assert message in json.loads(proc.stderr)["message"]


def run_in_a_small_child(argv):
    """The CLI in a child process under a 512 MB address-space limit."""
    src = os.path.dirname(os.path.dirname(chowmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run(
        [sys.executable, "-m", "chowmat.cli", *argv],
        capture_output=True, env=env, timeout=60, preexec_fn=limit_memory,
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "uniform", "r": 2.9, "n": 4.5},
        {"type": "uniform", "r": "2", "n": "4"},
        {"type": "uniform", "r": True, "n": 4},
        {"type": "bases", "ground": 3, "bases": [[0, 1.7], [True, 2]]},
        {"type": "bases", "ground": 3.0, "bases": [[0, 1]]},
        {"type": "bases", "ground": 3, "bases": [[0, 0, 1]]},
        {"type": "bases", "ground": 3, "bases": [[0, 3]]},
        {"type": "bases", "ground": 3, "bases": ["01"]},
        {"type": "graphic", "vertices": 3.2, "edges": [[0, 1], [1, 2]]},
        {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2.9]]},
    ],
)
def test_spec_numbers_are_json_integers_in_range(runner, tmp_path, doc):
    """A bool, float or string where an integer belongs, an element outside the
    ground set and a repeated element are input errors, not coerced."""
    spec = write_spec(tmp_path, "bad.json", doc)
    result = runner.invoke(cli.main, ["info", spec])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "ParseError"


@pytest.mark.parametrize(
    "text", [b'{"type": "uniform", "r": 2, "n": ' + b"1" * 5000 + b"}", b'{"type": "unif\xffrm", "r": 2, "n": 3}']
)
def test_json_that_cannot_be_decoded_is_an_input_error(runner, tmp_path, text):
    """An integer literal past Python's conversion limit, and bytes that are not
    UTF-8, raise plain ValueErrors inside the JSON reader."""
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    result = runner.invoke(cli.main, ["info", str(path)])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "ParseError"


@pytest.mark.parametrize("head, tail", [("", ""), ('{"type": "uniform", "n": 4, "r": ', "}")], ids=["document", "field"])
def test_deeply_nested_json_is_an_input_error(runner, tmp_path, head, tail):
    """100,000 nested arrays, as the whole document or as a field's value, take
    the JSON reader past the recursion limit: exit 2 with a ParseError, no traceback."""
    path = tmp_path / "deep.json"
    path.write_text(head + "[" * 100_000 + "]" * 100_000 + tail)
    result = runner.invoke(cli.main, ["info", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "ParseError" and "traceback" not in err


def test_degree_examples(runner, u33_spec):
    result = invoke(runner, ["degree", u33_spec, "--flats", "0,1;0,2"])
    doc = json.loads(result.output)
    assert doc["result"] == {
        "flats": [[0, 1], [0, 2]],
        "dhr": 1,
        "groebner": 1,
        "chain": 1,
        "agree": True,
    }
    assert result.exit_code == 0
    result = invoke(runner, ["degree", u33_spec, "--flats", "0,1;0,1"])
    doc = json.loads(result.output)
    assert doc["result"]["dhr"] == 0 and doc["result"]["agree"] is True
    assert result.exit_code == 0


def test_degree_rejects_non_flat(runner, u34_spec):
    result = runner.invoke(cli.main, ["degree", u34_spec, "--flats", "0,1,2;0,1"])
    assert result.exit_code == 2
    # An element outside the ground set is an input error, not a crash.
    result = runner.invoke(cli.main, ["degree", u34_spec, "--flats", "0,1;0,7"])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "NotAFlat"


def test_degree_checks_elements_before_building_masks(tmp_path):
    spec = write_spec(tmp_path, "u23.json", {"type": "uniform", "r": 2, "n": 3})
    proc = run_in_a_small_child(["degree", spec, "--flats", "0;1000000000000"])
    assert proc.returncode == 2, proc.stderr.decode()[-2000:]
    assert json.loads(proc.stderr)["error"] == "NotAFlat"


def test_degree_wrong_arity(runner, u33_spec):
    result = runner.invoke(cli.main, ["degree", u33_spec, "--flats", "0,1"])
    assert result.exit_code == 2


def test_volume_u33(runner, u33_spec):
    result = invoke(runner, ["volume", u33_spec])
    doc = json.loads(result.output)
    assert doc["result"]["degree"] == 2
    assert len(doc["result"]["terms"]) == 7
    by_flats = {tuple(map(tuple, t["flats"])): t["coeff"] for t in doc["result"]["terms"]}
    assert by_flats[((0, 1, 2), (0, 1, 2))] == 1
    assert by_flats[((0, 1), (0, 1, 2))] == 2


def test_volume_rank_one_constant(runner, tmp_path):
    spec = write_spec(tmp_path, "u13.json", {"type": "uniform", "r": 1, "n": 3})
    result = invoke(runner, ["volume", spec])
    doc = json.loads(result.output)
    assert doc["result"]["terms"] == [{"flats": [], "coeff": 1}]


def volume_document(m: Matroid, pretty: bool) -> bytes:
    """The ``volume`` document rendered whole from ``volume_polynomial``'s
    terms dict: the reference for the CLI, which writes it a block at a time."""
    vp = hodge.volume_polynomial(m)
    names = {f: sorted(bits(f)) for f in m.lattice().flats}
    terms = [{"flats": [names[f] for f in mono], "coeff": coeff} for mono, coeff in sorted(vp.terms.items())]
    doc = {"command": "volume", "matroid": cli.matroid_summary(m), "result": {"degree": vp.degree, "terms": terms}}
    text = json.dumps(doc, indent=2) if pretty else json.dumps(doc, separators=(",", ":"))
    return (text + "\n").encode()


def assert_volume_bytes(spec: str) -> None:
    m = cli.load_matroid(spec, 16)
    runner = CliRunner()
    for flag in ([], ["--pretty"]):
        result = invoke(runner, ["volume", spec, *flag])
        assert result.exit_code == 0
        assert result.stdout_bytes == volume_document(m, bool(flag)), (spec, flag)


def bases_spec(tmp_path, name: str, m: Matroid) -> str:
    bases = [sorted(bits(b)) for b in m.bases]
    return write_spec(tmp_path, name, {"type": "bases", "ground": m.n_elements, "bases": bases})


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 3), (4, 8)])
def test_volume_bytes_match_the_whole_document(tmp_path, r, n):
    """U(1,3) has degree 0 (``"flats": []``), U(2,3) a single flat per term;
    U(4,8) writes 45 blocks of terms."""
    assert_volume_bytes(write_spec(tmp_path, "u.json", {"type": "uniform", "r": r, "n": n}))


def test_volume_bytes_match_the_whole_document_on_the_corpus(tmp_path):
    """Up to 57,182 terms (V8); the whole documents of U(5,6) (283,326 terms)
    and U(6,6) (4,614,021) are left to the cold digests."""
    for name, m in full_corpus() + non_representable():
        if m.is_loopless() and name not in ("U(5,6)", "U(6,6)"):
            assert_volume_bytes(bases_spec(tmp_path, f"{name}.json", m))


@settings(max_examples=25, deadline=None)
@given(truncated_booleans())
def test_volume_bytes_match_the_whole_document_on_truncations(m):
    with tempfile.TemporaryDirectory() as tmp:
        assert_volume_bytes(bases_spec(Path(tmp), "m.json", m))


def test_volume_out_of_memory_writes_nothing(runner, u34_spec, monkeypatch):
    """A failure while the terms are built exits 3 before any byte of the document."""

    def no_memory(m):
        raise MemoryError

    monkeypatch.setattr(cli.hodge, "volume_arrays", no_memory)
    result = runner.invoke(cli.main, ["volume", u34_spec])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "MemoryError"


def test_volume_of_a_loopy_matroid_writes_nothing(runner, tmp_path):
    spec = write_spec(tmp_path, "loopy.json", {"type": "bases", "ground": 3, "bases": [[0, 1]]})
    result = runner.invoke(cli.main, ["volume", spec])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "LoopyMatroid"


def test_volume_u410_memory(tmp_path):
    """Cold U(4,10) ``volume`` writes 34 MB of JSON from its support arrays:
    about 63 MB at the peak, where building the document whole took 407 MB."""
    spec = write_spec(tmp_path, "u410.json", {"type": "uniform", "r": 4, "n": 10})
    run = run_cli_child(["volume", spec], timeout=300)
    assert run.code == 0, run.stderr[-2000:]
    assert (run.sha256, run.size) == ("f6eaa9606708d6a18c713483f2a884c6fcaa569a1db82442d696ca535aee3396", 34288342)
    assert run.peak_mb < 150, f"peak RSS {run.peak_mb:.0f} MB"


@pytest.mark.slow
@pytest.mark.parametrize(
    "r,n,digest,size",
    [
        (4, 12, "8bde66b1d8c12237946bbe3431189a62f5062890e136f84adba1d6a3a10526b5", 183083206),
        (6, 6, "390fb04ad85e791f64574c0b1e718bddda3311904a08e52472b5127f284bec74", 311258482),
    ],
)
def test_volume_digest(tmp_path, r, n, digest, size):
    """The bytes of the whole-document writer, which took 31 s and 1.8 GB on
    cold U(4,12) and 49 s and 2.4 GB on U(6,6), in under 400 MB."""
    spec = write_spec(tmp_path, "u.json", {"type": "uniform", "r": r, "n": n})
    run = run_cli_child(["volume", spec], timeout=600)
    assert run.code == 0, run.stderr[-2000:]
    assert (run.sha256, run.size) == (digest, size)
    assert run.peak_mb < 400, f"peak RSS {run.peak_mb:.0f} MB"


def test_charpoly(runner, u34_spec, tmp_path):
    result = invoke(runner, ["charpoly", u34_spec])
    doc = json.loads(result.output)
    assert doc["result"]["mu_moebius"] == [1, 3, 3]
    assert doc["result"]["mu_chow"] == [1, 3, 3]
    assert doc["result"]["log_concave"] is True
    assert result.exit_code == 0
    spec23 = write_spec(tmp_path, "u23.json", {"type": "uniform", "r": 2, "n": 3})
    doc = json.loads(invoke(runner, ["charpoly", spec23]).output)
    assert doc["result"]["mu_moebius"] == [1, 2]


def test_charpoly_route_disagreement_exits_1(runner, u34_spec, monkeypatch):
    monkeypatch.setattr(cli.hodge, "mu_via_degrees", lambda m: [1, 3, 4])
    result = runner.invoke(cli.main, ["charpoly", u34_spec])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["result"]["routes_agree"] is False


def test_nested_pairs(runner, u34_spec):
    result = invoke(runner, ["nested", u34_spec, "--corank", "1"])
    doc = json.loads(result.output)
    assert doc["result"]["count"] == 7
    assert doc["result"]["distinct"] is True
    result = invoke(runner, ["nested", u34_spec, "--corank", "0"])
    doc = json.loads(result.output)
    assert doc["result"]["pairs"] == [
        {"monomial": [], "quotient_bases": [sorted(b) for b in [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]]}
    ]
    result = invoke(runner, ["nested", u34_spec, "--corank", "2"])
    doc = json.loads(result.output)
    assert doc["result"]["count"] == 1
    assert doc["result"]["pairs"][0]["quotient_bases"] == [[0], [1], [2], [3]]


def test_verify_all_passes(runner, u34_spec):
    result = invoke(runner, ["verify", u34_spec, "--suite", "all"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["result"]["passed"] is True
    assert set(doc["result"]["suites"]) == {
        "poincare",
        "lorentzian",
        "kahler",
        "nested",
        "balance",
    }


def test_verify_balance_k4(runner, tmp_path):
    spec = write_spec(
        tmp_path,
        "k4.json",
        {
            "type": "graphic",
            "vertices": 4,
            "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        },
    )
    result = invoke(runner, ["verify", spec, "--suite", "balance"])
    assert result.exit_code == 0


def test_verify_kahler_rank2_vacuous(runner, tmp_path):
    spec = write_spec(tmp_path, "u24.json", {"type": "uniform", "r": 2, "n": 4})
    result = invoke(runner, ["verify", spec, "--suite", "kahler"])
    doc = json.loads(result.output)
    assert doc["result"]["suites"]["kahler"]["note"] == "vacuous degree 1"
    assert result.exit_code == 0


def test_verify_failure_exits_1(runner, u34_spec, monkeypatch):
    monkeypatch.setattr(cli.bergman, "check_balanced", lambda w: False)
    result = runner.invoke(cli.main, ["verify", u34_spec, "--suite", "balance"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["result"]["passed"] is False


def test_internal_error_exits_3(runner, u34_spec, monkeypatch):
    def crash(m, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "balance", crash)
    result = runner.invoke(cli.main, ["verify", u34_spec, "--suite", "balance"])
    assert result.exit_code == 3
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert (err["error"], err["message"]) == ("RuntimeError", "boom")
    assert "crash" in "".join(err["traceback"])


def test_internal_error_exits_3_when_its_report_fails(runner, u34_spec, monkeypatch):
    """Out of memory, even building the report can raise MemoryError; the exit code stays 3."""
    def crash(m, seed):
        raise RuntimeError("boom")

    def no_memory(exc):
        raise MemoryError

    monkeypatch.setitem(cli._SUITE_RUNNERS, "balance", crash)
    monkeypatch.setattr(cli.traceback, "format_exception", no_memory)
    result = runner.invoke(cli.main, ["verify", u34_spec, "--suite", "balance"])
    assert result.exit_code == 3
    assert result.stdout == ""


_EVERY_COMMAND = {
    "info": [],
    "charpoly": [],
    "volume": [],
    "nested": ["--corank", "1"],
    "degree": ["--flats", "0,1;0,2"],
    "verify": ["--suite", "nested"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "-O"])
@pytest.mark.parametrize("stdout", ["full", "closed"])
@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_unwritable_stdout_exits_3(u34_spec, command, stdout, optimize):
    """A document that cannot be written, to a full device or a closed pipe, is
    an internal error with a JSON report, not a failed verification (exit 1)."""
    code, err = run_cli_unwritable([command, u34_spec, *_EVERY_COMMAND[command]], stdout, optimize)
    assert code == 3, err[-2000:]
    report = json.loads(err)
    expected = ("OSError", "No space left on device") if stdout == "full" else ("BrokenPipeError", "Broken pipe")
    assert report["error"] == expected[0] and expected[1] in report["message"]
    assert "emit" in "".join(report["traceback"])


def test_out_of_memory_exits_3_with_a_report(tmp_path):
    """U(8,16) has 26.1 M nested monomials: ``info`` runs out of an 800 MB address
    space while it lists them, in a child process, and must still exit 3 with a
    JSON report, not 1 with a lost traceback."""
    spec = write_spec(tmp_path, "u816.json", {"type": "uniform", "r": 8, "n": 16})
    src = os.path.dirname(os.path.dirname(chowmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "chowmat.cli", "info", spec, "--max-ground", "16"],
        capture_output=True, env=env, timeout=120, preexec_fn=limit_memory,
    )
    assert proc.returncode == 3, proc.stderr.decode()[-2000:]
    assert proc.stdout == b""
    assert json.loads(proc.stderr.decode().splitlines()[-1])["error"] == "MemoryError"


def drop_top_nested(chain_levels):
    """Break the nested exponent chains in the top degree, which the ring's
    degree normalization check must catch."""

    def broken(m, depth):
        levels, parents = chain_levels(m, depth)
        levels[-1] = []
        return levels, parents

    return broken


def test_invariant_violation_exits_3(runner, u34_spec, monkeypatch):
    broken = drop_top_nested(quotients._nested_chain_levels)
    monkeypatch.setattr(quotients, "_nested_chain_levels", broken)
    chow.ring_for.cache_clear()
    try:
        result = runner.invoke(cli.main, ["info", u34_spec])
    finally:
        chow.ring_for.cache_clear()
    assert result.exit_code == 3
    assert result.stdout == ""
    err = json.loads(result.stderr)
    assert (err["error"], err["message"]) == (
        "InvariantViolation",
        "top nested basis is not the power of z_E",
    )
    assert "_check_degree_normalization" in "".join(err["traceback"])


@pytest.mark.parametrize("breakage", ["loopy", "wrong corank"])
def test_nested_counts_match_fails_off_the_counted_set(runner, u34_spec, monkeypatch, breakage):
    """A chain image that is loopy or of the wrong rank is not among the
    quotients the bijection counts, so counts_match fails and the exit is 1."""
    original = quotients.apply_exponent_chain

    def broken(m, chain):
        if breakage == "wrong corank":
            return m
        # Element 0 becomes a loop; the rank stays r - c.
        rank = original(m, chain).rank_full
        return Matroid(m.n_elements, [b << 1 for b in uniform(rank, m.n_elements - 1).bases])

    monkeypatch.setattr(quotients, "apply_exponent_chain", broken)
    result = runner.invoke(cli.main, ["verify", u34_spec, "--suite", "nested"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["result"]["suites"]["nested"]["counts_match"] is False


def zero_hessian(truncation_hessian):
    """Break the truncated-matroid Hessian, which the Lorentzian cross-check
    against the gathered Hessians must catch."""

    def broken(current):
        gens, hess = truncation_hessian(current)
        return gens, 0 * hess

    return broken


def test_invariant_check_survives_python_O(u34_spec):
    """Invariant checks raise, so ``python -O``, which strips asserts, keeps them."""
    src = os.path.dirname(os.path.dirname(chowmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    breakages = [
        ("quotients._nested_chain_levels = drop_top_nested(quotients._nested_chain_levels)", ["info"]),
        ("hodge.truncation_hessian = zero_hessian(hodge.truncation_hessian)", ["verify", "--suite", "lorentzian"]),
    ]
    for patch, argv in breakages:
        code = (
            "import sys\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit(99)\n"
            "from chowmat import cli, hodge, quotients\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_cli import drop_top_nested, zero_hessian\n"
            f"{patch}\n"
            "cli.main(sys.argv[1:])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, argv[0], u34_spec, *argv[1:]],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr.decode()
        assert json.loads(proc.stderr)["error"] == "InvariantViolation"


def test_verify_seed_changes_nothing_on_valid_input(runner, u33_spec):
    a = invoke(runner, ["verify", u33_spec, "--suite", "kahler", "--seed", "0"]).output
    b = invoke(runner, ["verify", u33_spec, "--suite", "kahler", "--seed", "1"]).output
    assert json.loads(a)["result"]["passed"] and json.loads(b)["result"]["passed"]


@pytest.mark.parametrize("r, n, suite", [(5, 6, "lorentzian"), (3, 5, "all")])
def test_a_negative_seed_is_an_input_error(runner, tmp_path, r, n, suite):
    spec = write_spec(tmp_path, "u.json", {"type": "uniform", "r": r, "n": n})
    result = runner.invoke(cli.main, ["verify", spec, "--suite", suite, "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.stderr


def test_byte_identical_across_processes(tmp_path):
    spec = tmp_path / "u34.json"
    spec.write_text(json.dumps({"type": "uniform", "r": 3, "n": 4}))
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-m", "chowmat.cli", "verify", str(spec), "--suite", "all"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    for command in (["info"], ["volume"], ["nested", "--corank", "1"]):
        runs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "chowmat.cli", command[0], str(spec), *command[1:]],
                capture_output=True,
                env=env,
                check=True,
            )
            runs.append(proc.stdout)
        assert runs[0] == runs[1]


def test_pretty_flag(runner, u34_spec):
    plain = invoke(runner, ["info", u34_spec]).output
    pretty = invoke(runner, ["info", u34_spec, "--pretty"]).output
    assert json.loads(plain) == json.loads(pretty)
    assert "\n" in pretty.strip()


@pytest.mark.slow
def test_verify_kahler_u58_in_a_child_process(tmp_path):
    """26 Hodge-Riemann forms of size 155, cold, on the certified signatures."""
    spec = tmp_path / "u58.json"
    spec.write_text(json.dumps({"type": "uniform", "r": 5, "n": 8}))
    src = os.path.dirname(os.path.dirname(chowmat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chowmat.cli", "verify", str(spec), "--suite", "kahler"],
        capture_output=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    kahler = json.loads(proc.stdout)["result"]["suites"]["kahler"]
    assert kahler["q1_signatures"] == [[1, 154, 0]]
