"""Run the `vrlasim` command with span tracing installed.

Usage: python traced_cli.py [--setup-only] TRACE_DIR <vrlasim arguments...>

Pool workers are forked from this process, so they inherit the
wrappers; each writes its records to TRACE_DIR after every task, and
this process writes its own when the command returns.  With
--setup-only, only the calls that time the command's set-up are
wrapped (tracing.SETUP_ONLY).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import vrlasim.cli  # noqa: E402

if __name__ == "__main__":
    args = sys.argv[1:]
    setup_only = args[0] == "--setup-only"
    if setup_only:
        args = args[1:]
    tracer = tracing.Tracer(args[0])
    tracing.install(tracer, only=tracing.SETUP_ONLY if setup_only else None)
    try:
        code = vrlasim.cli.main(args[1:])
    finally:
        tracer.dump_to_dir("main")
    sys.exit(code)
