"""One `groupcodes rd|capacity FILE --json` computation, each layer timed.

    python3 perfbench/cli_child.py rd|capacity FILE [--untraced]

Makes the library calls of the CLI command in the same order (load, selector
enumeration, coset terms, weight optimisation, emit) in a fresh process, so
the selector caches start cold as they do for the CLI.  Prints one JSON
object: the bytes the CLI writes to stdout, and busy seconds and counts per
layer (none with --untraced, which makes the same calls without timing them).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import Trace, traced_cli  # noqa: E402


def main(argv: list[str]) -> int:
    kind, path, *flags = argv
    trace = Trace("--untraced" not in flags)
    stdout = traced_cli(kind, path, trace)
    doc = {"stdout": stdout, "busy": trace.busy, "counts": trace.counts}
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
