"""Run one loopcoh CLI job in this process with every layer wrapped.

    python3 traced_job.py TRACE_OUT CLI_ARG...

The CLI arguments are passed to ``loopcoh.cli.main`` unchanged, so the
job writes the same ``--json`` report as an untraced run.  The spans go
to TRACE_OUT as JSON after the job ends.  The root span ``cli.job``
starts before loopcoh is imported, so the self times of all spans add up
to nearly the whole process lifetime.
"""
import time

_T0 = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, install  # noqa: E402


def main(argv):
    trace_out, cli_args = argv[0], argv[1:]
    tr = Tracer()
    root = tr.open("cli.job", start=_T0)
    try:
        import loopcoh.cli
        install(tr)
        code = loopcoh.cli.main(cli_args)
        sys.stdout.flush()
    finally:
        tr.close(root)
        tmp = trace_out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh, separators=(",", ":"))
        os.replace(tmp, trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
