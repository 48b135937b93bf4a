"""The process entry of `python -m bunchent` and of the `bunchent` script: `run` turns the cyclic
GC off for the life of the process, runs `cli.main`, and ends the process with `os._exit`, so no
collection and no module teardown follows the output."""

import gc
import os


def run() -> None:
    """Run the CLI and end the process with its exit code. A survey leaves no cycles to collect,
    and `main` flushes stdout on both of its paths, so nothing is left for the interpreter's exit."""
    gc.disable()
    from .cli import main
    os._exit(main())


if __name__ == "__main__":
    run()
