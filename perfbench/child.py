"""Traced child: run one program entry point under benchmark spans.

    python3 perfbench/child.py OUT.json REQUEST_ID {rank|serve} ARGS...

installs the wrappers from :mod:`tracing`, runs ``repro-rank ARGS``
(``rank``) or ``repro-serve ARGS`` (``serve``) in this process under a
root span, and writes the spans, the wrapper counts and the program's
own counters to ``OUT.json``. The program's stdout passes through
unchanged so the caller can verify it.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install, program_counters


def main(argv: list[str]) -> int:
    out, request_id, entry, args = argv[0], argv[1], argv[2], argv[3:]
    rec = Recorder(request_id)
    tracers = install(rec)
    if entry == "rank":
        from repro.cli import main as entry_main
    else:
        from repro.serve.cli import main as entry_main
    with rec.span("root"):
        code = entry_main(args)
    sys.stdout.flush()
    rec.dump(out, program_counters=program_counters(tracers))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
