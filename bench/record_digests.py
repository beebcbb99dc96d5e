"""Record the stdout digests the oracle pins non-``verify`` commands to.

    python3 bench/record_digests.py

Runs each such command of the cold workloads once and rewrites
``expected_digests.json``.  The semantic checks still apply, so a wrong
output is refused rather than recorded.  Run it only when a change is meant
to alter CLI output.
"""

import json
import sys

import oracle
import run
import workloads


def main() -> int:
    digests = {}
    with run.work_dir() as work:
        state = run.Run(seed=0, seconds=0, work=work, digests={})
        for make_ops in workloads.COLD_WORKLOADS.values():
            for op in make_ops(0):
                if op.command == "verify" or op.id in digests:
                    continue
                outcome = run.run_process([run.PYTHON, "-m", "chowmat.cli", *op.argv(state.spec_path(op.spec), 0)], run.OP_DEADLINE_S)
                problems = [p for p in oracle.check(op, outcome.returncode, outcome.stdout, {}) if p != "no recorded stdout digest"]
                if problems:
                    print(f"{op.id}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                digests[op.id] = oracle.digest(outcome.stdout)
    oracle.DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
