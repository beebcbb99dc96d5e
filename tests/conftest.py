"""Shared corpus and helpers for the test suite."""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
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


_PEAK_PROBE = """
import resource, sys
try:
    with open('/proc/self/status') as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))
except (OSError, StopIteration):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak_kb, file=sys.stderr)
"""


def child_peak_mb(probe: str, timeout: float) -> tuple[str, float]:
    """Run ``probe`` in a fresh interpreter under a 3 GB address-space limit,
    and return its stdout and its peak RSS in MB.

    The peak is the child's VmHWM, the high-water mark of the address space
    the interpreter was exec'd into.  Its ``ru_maxrss`` would not do: Linux
    keeps the peak of the process it was forked from across exec, so it reads
    at least the RSS of the test session itself.
    """
    src = str(Path(chowmat.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}

    def limit_memory():  # a regression fails here instead of exhausting the host
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    done = subprocess.run(
        [sys.executable, "-c", probe + _PEAK_PROBE],
        capture_output=True,
        env=env,
        timeout=timeout,
        preexec_fn=limit_memory,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    return done.stdout.decode(), int(done.stderr.decode().split()[-1]) / 1024


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
