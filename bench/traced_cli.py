"""Run one chowmat CLI command with the benchmark's span recorder installed.

    python bench/traced_cli.py SPANS.json COMMAND SPEC [OPTIONS...]

Stdout and the exit code are the command's own; the span totals are written
to SPANS.json when the process exits, whatever the exit path.
"""

import atexit
import sys

import spans


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    atexit.register(rec.dump, out)
    from chowmat import cli

    cli.main(args=args, prog_name="python -m chowmat.cli")


if __name__ == "__main__":
    main()
