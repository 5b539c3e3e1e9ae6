"""Run the nucshift CLI once under the span tracer.

Usage: python3 perfbench/traced_cli.py SUMMARY.json -- NUCSHIFT-ARGS...

Exits with the CLI's exit code after writing the span summary to SUMMARY.json.
"""

from __future__ import annotations

import json
import sys

import nucshift.cli

from tracer import Tracer


def main(argv: list[str]) -> int:
    summary_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY.json -- NUCSHIFT-ARGS...")
    tracer = Tracer()
    tracer.install()
    code = nucshift.cli.main(cli_args)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
