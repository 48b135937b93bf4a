"""The process entry of `python -m bunchent` and of the `bunchent` script: `run` imports the
CLI with the cyclic GC off and its modules frozen, runs `cli.main`, and once stdout and stderr are
flushed ends the process with `os._exit`, so no module teardown follows the output."""

import gc
import os
import sys
from contextlib import suppress


def run() -> int:
    """Run the CLI and end the process with its exit code. `main` flushes stdout and reports a failed
    write, so a flush that fails here again (a reader closed the pipe, say) is not reported twice."""
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    code = main()
    with suppress(OSError, ValueError):  # ValueError: a stream closed since
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: its descriptor was closed when Python started
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
