"""The process entry of `python -m bunchent` and of the `bunchent` script: `run` imports the
CLI with the cyclic GC off and its modules frozen, runs `cli.main`, and once stdout and stderr are
flushed ends the process with `os._exit`, so no module teardown follows the output."""

import gc
import os
import sys


def run() -> int:
    """Run the CLI and end the process with its exit code; if a flush raises (a reader closed the
    pipe, say), return the code, and Python's shutdown reports the error as it did before."""
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: its descriptor was closed when Python started
                stream.flush()
    except (OSError, ValueError):  # ValueError: a stream closed since
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
