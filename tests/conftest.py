"""Shared corpus and helpers for the test suite."""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

import chowmat
from chowmat import Matroid, graphic, matroid_from_bases, uniform
from chowmat.quotients import principal_truncation

FANO_LINES = [
    {0, 1, 2},
    {0, 3, 4},
    {0, 5, 6},
    {1, 3, 5},
    {1, 4, 6},
    {2, 3, 6},
    {2, 4, 5},
]


@lru_cache(maxsize=None)
def fano() -> Matroid:
    bases = [
        set(c)
        for c in itertools.combinations(range(7), 3)
        if set(c) not in FANO_LINES
    ]
    return matroid_from_bases(7, bases)


@lru_cache(maxsize=None)
def k4() -> Matroid:
    return graphic(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def k4_edges() -> list[tuple[int, int]]:
    return [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


VAMOS_PAIRS = [{0, 1}, {2, 3}, {4, 5}, {6, 7}]

# The Pappus configuration without its ninth line {6, 7, 8}.
NON_PAPPUS_LINES = [
    {0, 1, 2},
    {3, 4, 5},
    {0, 4, 6},
    {1, 3, 6},
    {0, 5, 7},
    {2, 3, 7},
    {1, 5, 8},
    {2, 4, 8},
]


@lru_cache(maxsize=None)
def vamos() -> Matroid:
    """The Vámos matroid V8 (Oxley, Matroid Theory, 2nd ed.): rank 4 on four
    pairs, whose non-bases are the unions of two pairs other than {4, 5, 6, 7}.
    No field represents it."""
    nonbases = [a | b for a, b in itertools.combinations(VAMOS_PAIRS, 2) if a | b != {4, 5, 6, 7}]
    return matroid_from_bases(8, [set(c) for c in itertools.combinations(range(8), 4) if set(c) not in nonbases])


@lru_cache(maxsize=None)
def non_pappus() -> Matroid:
    """The non-Pappus matroid: rank 3 on 9 elements, whose non-bases are the
    eight lines of :data:`NON_PAPPUS_LINES`.  No field represents it."""
    triples = (set(c) for c in itertools.combinations(range(9), 3))
    return matroid_from_bases(9, [c for c in triples if c not in NON_PAPPUS_LINES])


def non_representable() -> list[tuple[str, Matroid]]:
    return [("V8", vamos()), ("non-Pappus", non_pappus())]


@lru_cache(maxsize=None)
def random_truncation_corpus(count: int = 20, seed: int = 0) -> tuple[Matroid, ...]:
    """Seeded loopless matroids built as iterated principal truncations of Booleans."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        m = uniform(n, n)
        steps = rng.randint(1, n - 2)
        for _ in range(steps):
            flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
            m = principal_truncation(m, rng.choice(flats))
        assert m.is_loopless()
        out.append(m)
    return tuple(out)


@st.composite
def truncated_booleans(draw, largest=5):
    """Iterated principal truncations of a Boolean matroid, as in the test corpus."""
    n = draw(st.integers(3, largest))
    m = uniform(n, n)
    for _ in range(draw(st.integers(0, n - 2))):
        flats = [f for f in m.lattice().flats if m.rank(f) >= 2]
        m = principal_truncation(m, draw(st.sampled_from(flats)))
    return m


def uniform_corpus(max_n: int = 6) -> list[tuple[str, Matroid]]:
    return [
        (f"U({r},{n})", uniform(r, n))
        for n in range(1, max_n + 1)
        for r in range(1, n + 1)
    ]


def full_corpus() -> list[tuple[str, Matroid]]:
    """The acceptance corpus: uniforms, M(K4), Fano, seeded random truncations."""
    items = uniform_corpus()
    items.append(("M(K4)", k4()))
    items.append(("Fano", fano()))
    items.extend((f"R{i:02d}", m) for i, m in enumerate(random_truncation_corpus()))
    return items


def small_corpus(max_elements: int = 5) -> list[tuple[str, Matroid]]:
    return [(name, m) for name, m in full_corpus() if m.n_elements <= max_elements]


_PEAK_KB = """
def _peak_kb():
    try:
        with open('/proc/self/status') as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))
    except (OSError, StopIteration):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""

_PEAK_PROBE = _PEAK_KB + """
import sys
print(_peak_kb(), file=sys.stderr)
"""

# Runs the CLI on its arguments and writes its peak to stderr after the CLI's own lines.
_CLI_PROBE = _PEAK_KB + """
import sys
from chowmat import cli
try:
    cli.main(sys.argv[1:])
finally:
    print('peak_kb', _peak_kb(), file=sys.stderr)
"""


def _child_env() -> dict[str, str]:
    src = str(Path(chowmat.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _limit_memory():  # a regression fails here instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def child_peak_mb(probe: str, timeout: float) -> tuple[str, float]:
    """Run ``probe`` in a fresh interpreter under a 3 GB address-space limit,
    and return its stdout and its peak RSS in MB.

    The peak is the child's VmHWM, the high-water mark of the address space
    the interpreter was exec'd into.  Its ``ru_maxrss`` would not do: Linux
    keeps the peak of the process it was forked from across exec, so it reads
    at least the RSS of the test session itself.
    """
    done = subprocess.run(
        [sys.executable, "-c", probe + _PEAK_PROBE],
        capture_output=True,
        env=_child_env(),
        timeout=timeout,
        preexec_fn=_limit_memory,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    return done.stdout.decode(), int(done.stderr.decode().split()[-1]) / 1024


@dataclass
class ChildRun:
    """What :func:`run_cli_child` saw of one CLI run."""

    code: int
    sha256: str  # of stdout
    size: int  # stdout bytes
    peak_mb: float | None  # VmHWM (:func:`child_peak_mb`); None if the child died before reading it
    stderr: str  # without the peak line


def run_cli_child(args: list[str], timeout: float) -> ChildRun:
    """Run the CLI on ``args`` in a fresh interpreter under a 3 GB
    address-space limit.  Stdout is hashed as it is read, so that a large
    document is never held in the test process."""
    digest, size = hashlib.sha256(), 0
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _CLI_PROBE, *args],
            stdout=subprocess.PIPE,
            stderr=err,
            env=_child_env(),
            preexec_fn=_limit_memory,
        )
        timer = threading.Timer(timeout, proc.kill)  # a child past its time reads as killed
        timer.start()
        try:
            with proc.stdout:
                while chunk := proc.stdout.read(1 << 20):
                    digest.update(chunk)
                    size += len(chunk)
            code = proc.wait()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
        err.seek(0)
        lines = err.read().decode().splitlines()
    peaks = [i for i, line in enumerate(lines) if line.startswith("peak_kb ")]
    peak_mb = int(lines.pop(peaks[-1]).split()[1]) / 1024 if peaks else None
    return ChildRun(code, digest.hexdigest(), size, peak_mb, "\n".join(lines))


def run_cli_unwritable(args: list[str], stdout: str, optimize: bool = False, timeout: float = 120) -> tuple[int, str]:
    """Run the CLI on ``args`` in a fresh interpreter (with ``-O`` if
    ``optimize``) whose stdout cannot be written: ``"full"`` points it at
    /dev/full, ``"closed"`` at a pipe whose read end is already closed.
    Returns the exit code and stderr."""
    if stdout == "full":
        fd = os.open("/dev/full", os.O_WRONLY)
    else:
        read, fd = os.pipe()
        os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, *(["-O"] if optimize else []), "-m", "chowmat.cli", *args],
            stdout=fd,
            stderr=subprocess.PIPE,
            env=_child_env(),
            timeout=timeout,
            preexec_fn=_limit_memory,
        )
    finally:
        os.close(fd)
    return done.returncode, done.stderr.decode()


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Matroid]]:
    return full_corpus()
