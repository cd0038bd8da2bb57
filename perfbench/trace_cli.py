"""Run one command line request in this process with spans installed.

    python perfbench/trace_cli.py SUMMARY.json ARG...

Equivalent to ``python -m hdbsm ARG...``, except that the span summary is
written to SUMMARY.json before the process exits with the command's code.
"""

import json
import sys

import spans

if __name__ == "__main__":
    import hdbsm.cli

    tracer = spans.Tracer()
    tracer.install()
    code = hdbsm.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.summary(), fh)
    sys.exit(code)
