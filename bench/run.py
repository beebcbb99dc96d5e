"""The chowmat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/chowmat``.
One client drives a closed loop and runs one worker process at a time.
Workloads (see ``workloads.py``):

* ``verify-small``: cold ``verify`` processes on small matroids;
* ``commands-large``: cold ``info``/``charpoly``/``volume``/``nested``/
  ``degree``/``verify`` processes on ground sets of 10 to 16 elements;
* ``three-routes``: one warm library session (``session.py``).

With ``--trace 0`` the run measures set-up, then repeats passes over the
workload's fixed operation list while another pass fits in ``--seconds``
(at least one), and prints the end-to-end metrics.  With ``--trace 1`` it
makes one untraced and one traced pass, checks that their outputs are byte
identical, and prints the per-layer metrics.  Every operation is checked by
``oracle.py``; the last stdout line is the JSON result.

Times are reported at a reference machine speed, calibrated between
operations by ``speed.py``; the raw times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import oracle
import spans
import workloads
from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable
WORKLOADS = ("verify-small", "commands-large", "three-routes")

#: A cold operation that has not finished by then is killed and failed.
OP_DEADLINE_S = 60.0
#: No operation starts after this much of a run, so the run ends within 180 s.
RUN_BUDGET_S = 110.0
SESSION_DEADLINE_S = 150.0
SETUP_REPEATS = 7
#: Seconds charged to the latency metrics for a failed operation.
FAILED_CHARGE_S = OP_DEADLINE_S


def child_env() -> dict[str, str]:
    """Pinned environment for every worker: sources from src/, a fixed hash
    seed, single-threaded BLAS, and the CLI's default ground-set cap."""
    env = dict(os.environ)
    env.pop("CHOWMAT_MAX_GROUND", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


@dataclass
class Outcome:
    returncode: int | None  # None: killed at the deadline, or never started
    stdout: bytes
    stderr: bytes
    start: float
    end: float


def run_process(cmd: list[str], deadline: float) -> Outcome:
    """Run one worker; kill it at the deadline, or if the client is stopped."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = b"", b""
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        pass
    finally:
        killed = proc.returncode is None
        if killed:
            proc.kill()
            out, err = proc.communicate()
    return Outcome(None if killed else proc.returncode, out, err, start, time.perf_counter())


class Run:
    """State of one benchmark run: seed, deadlines, work directory, results."""

    def __init__(self, seed: int, seconds: float, work: Path, digests: dict[str, str]):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.digests = digests
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.speed = Speed()

    def launch(self, cmd: list[str], deadline: float) -> Outcome:
        """Run one worker, with a speed reading before it."""
        self.speed.sample()
        return run_process(cmd, deadline)

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def spec_path(self, spec: workloads.Spec) -> str:
        path = self.work / spec.filename
        if not path.exists():
            path.write_text(json.dumps(spec.doc))
        return str(path)


def another_pass_overshoots(elapsed: float, last: float, seconds: float) -> bool:
    """Whether a pass as long as the last one would end more than half a pass
    after the measuring window; the rule keeps the pass count stable when
    pass times drift."""
    return elapsed + last / 2 > seconds


def peak_rss_mb() -> float:
    """Largest resident set of any process this run has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- cold workloads ---------------------------------------------------------------


@dataclass
class OpResult:
    op: workloads.ColdOp
    outcome: Outcome
    problems: list[str]
    spans: dict | None = None

    def latency(self, speed: Speed) -> float:
        """Failed operations are charged the deadline; known defects are not
        failures (they are reported on their own)."""
        if self.problems and not self.op.known_defect:
            return FAILED_CHARGE_S
        return speed.seconds(self.outcome.start, self.outcome.end)


def setup_cold(run: Run) -> list[Outcome]:
    outcomes = []
    for i in range(SETUP_REPEATS):
        outcome = run.launch([PYTHON, "-m", "chowmat.cli", "--help"], OP_DEADLINE_S)
        ok = outcome.returncode == 0 and outcome.stdout.startswith(b"Usage:")
        run.record(f"setup {i}", [] if ok else [f"--help exit {outcome.returncode}"])
        outcomes.append(outcome)
    return outcomes


def cold_pass(run: Run, ops: list[workloads.ColdOp], traced: bool = False) -> list[OpResult]:
    """Run every operation once, in order, each in a fresh process."""
    results = []
    for i, op in enumerate(ops):
        argv = op.argv(run.spec_path(op.spec), run.seed)
        snapshot = None
        if run.over_budget():
            now = time.perf_counter()
            outcome = Outcome(None, b"", b"", now, now)
            problems = ["not started: run budget exhausted"]
        else:
            span_file = run.work / f"spans-{i}.json"
            if traced:
                cmd = [PYTHON, str(BENCH / "traced_cli.py"), str(span_file), *argv]
            else:
                cmd = [PYTHON, "-m", "chowmat.cli", *argv]
            outcome = run.launch(cmd, OP_DEADLINE_S)
            problems = oracle.check(op, outcome.returncode, outcome.stdout, run.digests)
            if traced and span_file.exists():
                snapshot = json.loads(span_file.read_text())
        if op.known_defect:
            status = "still fails" if problems else "now passes"
            run.notes.append(f"known defect {op.id}: {status} ({'; '.join(problems) or 'ok'})")
        else:
            run.record(op.id, problems)
        results.append(OpResult(op, outcome, problems, snapshot))
    return results


def run_cold(run: Run, name: str, trace: bool) -> dict:
    ops = workloads.COLD_WORKLOADS[name](run.seed)
    if trace:
        plain = cold_pass(run, ops)
        traced = cold_pass(run, ops, traced=True)
    else:
        setups = setup_cold(run)
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(cold_pass(run, ops))
            last = passes[-1][-1].outcome.end - passes[-1][0].outcome.start
            if another_pass_overshoots(time.perf_counter() - begin, last, run.seconds) or run.over_budget():
                break
    run.speed.sample()
    speed = run.speed
    if trace:
        for a, b in zip(plain, traced):
            if a.outcome.stdout != b.outcome.stdout:
                run.record(f"trace {a.op.id}", ["traced stdout differs from untraced stdout"])
        agg = spans.empty()
        for r in traced:
            if r.spans is not None:
                spans.merge(agg, r.spans, speed.factor(r.outcome.start, r.outcome.end))
        metrics = dict(spans.layer_metrics(agg))
        wall = [sum(r.latency(speed) for r in p) for p in (plain, traced)]
        metrics["trace.overhead_ratio"] = (wall[1] / wall[0], "ratio")
        metrics["oracle.known_defects_open"] = (sum(1 for r in plain if r.op.known_defect and r.problems), "count")
        metrics["cli.stdout_bytes"] = (sum(len(r.outcome.stdout) for r in traced), "bytes")
        return metrics
    per_op = [median([p[i].latency(speed) for p in passes]) for i in range(len(ops))]
    raw = [median([p[i].outcome.end - p[i].outcome.start for p in passes]) for i in range(len(ops))]
    for op, latency, seconds in zip(ops, per_op, raw):
        run.notes.append(f"op {op.id}: {latency:.3f} s ({seconds:.3f} s raw), {len(passes)} passes")
    return {
        "setup_s": (median([speed.seconds(o.start, o.end) for o in setups]), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (median([r.latency(speed) for p in passes for r in p]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# -- the warm workload ----------------------------------------------------------------


def session(run: Run, mode: str, traced: bool = False, tag: str = "") -> tuple[dict, bytes]:
    """One three-routes worker (mode: see session.py); returns its result
    record and its stdout."""
    out = run.work / f"session{tag}.json"
    config = dict(
        workloads.THREE_ROUTES,
        mode=mode, seed=run.seed, seconds=run.seconds, out=str(out),
        spans=str(run.work / f"session{tag}-spans.json") if traced else None,
    )
    config_path = run.work / f"session{tag}-config.json"
    config_path.write_text(json.dumps(config))
    outcome = run.launch([PYTHON, str(BENCH / "session.py"), str(config_path)], SESSION_DEADLINE_S)
    if outcome.returncode != 0 or not out.exists():
        tail = outcome.stderr.decode(errors="replace").strip().splitlines()[-1:]
        run.record(f"session {mode}{tag}", [f"exit {outcome.returncode} {tail}"])
        return {"setup": [outcome.start, outcome.end], "passes": []}, outcome.stdout
    result = json.loads(out.read_text())
    run.speed.add(result["readings"])
    run.attempted += result["attempted"] + 1
    run.failed += result["failed"]
    run.problems += result["problems"]
    return result, outcome.stdout


def pass_seconds(speed: Speed, p: dict) -> tuple[float, list[float]]:
    """A session pass at the reference speed: its wall time and query latencies."""
    factor = speed.factor(*p["queries"])
    queries = [q * factor for q in p["query_s"]]
    return sum(speed.seconds(*s["interval"]) for s in p["scans"]) + sum(queries), queries


def run_three_routes(run: Run, trace: bool) -> dict:
    if trace:
        plain, plain_out = session(run, "once", tag="-plain")
        traced, traced_out = session(run, "once", traced=True, tag="-traced")
    else:
        setups = [session(run, "setup", tag=f"-setup{i}")[0]["setup"] for i in range(SETUP_REPEATS - 1)]
        result, _ = session(run, "run")
    run.speed.sample()
    speed = run.speed
    if trace:
        if plain_out != traced_out:
            run.record("trace three-routes", ["traced stdout differs from untraced stdout"])
        span_file = run.work / "session-traced-spans.json"
        if not (plain["passes"] and traced["passes"] and span_file.exists()):
            return {}
        factor = speed.factor(traced["setup"][0], traced["passes"][-1]["queries"][1])
        metrics = dict(spans.layer_metrics(spans.merge(spans.empty(), json.loads(span_file.read_text()), factor)))
        walls = [pass_seconds(speed, s["passes"][0])[0] for s in (plain, traced)]
        metrics["trace.overhead_ratio"] = (walls[1] / walls[0], "ratio")
        metrics["oracle.known_defects_open"] = (0, "count")
        metrics["cli.stdout_bytes"] = (0, "bytes")
        return metrics
    if not result["passes"]:
        return {}
    setups.append(result["setup"])
    walls, queries = [], []
    for p in result["passes"]:
        wall, latencies = pass_seconds(speed, p)
        walls.append(wall)
        queries += latencies
        scans = ", ".join(f"{s['name']} {s['interval'][1] - s['interval'][0]:.3f} s" for s in p["scans"])
        run.notes.append(f"pass {wall:.3f} s: raw scans {scans}; {len(latencies)} queries")
    return {
        "setup_s": (median([speed.seconds(*s) for s in setups]), "s"),
        "wall_s": (median(walls), "s"),
        "op_p50_s": (median(queries), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# -- driver ---------------------------------------------------------------------------


def provenance() -> dict:
    def read(path) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    sha = None
    head = read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        sha = read(ROOT / ".git" / head[5:]).strip() or None
    elif head:
        sha = head
    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.machine(),
    )
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
    }


@contextlib.contextmanager
def work_dir():
    """A fresh directory under bench/_work for spec files and span totals."""
    work_root = BENCH / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


def execute(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (the last stdout line)."""
    with work_dir() as work:
        run = Run(seed, seconds, work, oracle.load_digests())
        if workload == "three-routes":
            metrics = run_three_routes(run, trace)
        else:
            metrics = run_cold(run, workload, trace)
    for note in dict.fromkeys(run.notes):
        print(note)
    for problem in run.problems:
        print(f"FAILED {problem}")
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stopped client still kills its worker and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "chowmat" / "cli.py").is_file():
        print(f"no chowmat sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps(execute(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
