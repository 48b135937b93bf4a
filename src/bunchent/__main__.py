import gc


def run() -> int:
    """Entry of `python -m bunchent` and the `bunchent` script: the modules loaded here live until
    exit, so no collection runs while they load, nor walks them later (the one at exit included)."""
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
