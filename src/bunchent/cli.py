"""Command line interface: build, reduce, eof, survey, check.

This module is not a script. Its two launchers, the `bunchent` script and
`python -m bunchent`, both run `main` through `bunchent.__main__.run`.

The parser is the one table: each subparser carries its handler, `run` for a
command and `make` for a build kind. A handler writes its output or raises, and
`main` maps the exception to an exit code by `_EXIT_CODES`: 0 success, 2 usage
or parameter error, 3 capacity exceeded, 4 invariant violation, 5 file I/O or
format problem; one `error: ...` line on stderr. Argparse's own usage errors
print its usage line and an `error: ...` line, and exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from itertools import combinations

from .bunching import BunchPartition, bunch_reduce, reduction_report
from .errors import CapacityError, FileFormatError, InvariantError
from .measures import eof_bunches, format_float, report_json_dict, survey, survey_csv, survey_json
from .states import (
    DensityMatrix,
    StateVector,
    _check_cap,
    _state_text,
    bell_w_state,
    embedded_bell,
    entanglement_molecule,
    ghz,
    ket_basis,
    load_state,
    read_state_file,
    state_defects,
)

def _parse_labels(text: str, flag: str, sep: str = ",") -> tuple[int, ...]:
    parts = text.split(sep)
    if not all(part.isascii() and part.isdigit() for part in parts):  # int() also reads "1_0", "+2", " 1", "١"
        raise ValueError(f"{flag} expects {'comma' if sep == ',' else 'dash'}-separated integers, got {text!r}")
    return tuple(map(int, parts))


def _split(args: argparse.Namespace) -> tuple[StateVector | DensityMatrix, BunchPartition]:
    """The state and bunch pair of `reduce` and `eof`: labels parsed, pair checked, file loaded."""
    pair = BunchPartition(_parse_labels(args.a, "--a"), _parse_labels(args.b, "--b"))
    return load_state(args.state), pair


@contextmanager
def _output(path: str):
    """Yield the writer of a command's output: stdout for "-", else one that replaces the file
    at `path`. That file is opened for appending first, which creates a missing one and keeps an
    existing one's bytes, so an unwritable path fails before the command computes; a file
    created here is removed if the block raises."""
    if path == "-":
        yield sys.stdout.write
        return

    def write(text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    created = not os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield write
    except BaseException:
        if created:
            with suppress(OSError):
                os.remove(path)
        raise


def _cmd_build(args: argparse.Namespace) -> None:
    with _output(args.out) as write:
        write(_state_text(args.make(args)))


def _basis(args: argparse.Namespace) -> StateVector:
    if not args.bits or args.bits.strip("01"):
        raise ValueError(f"--bits expects a 0/1 string, got {args.bits!r}")
    return ket_basis(len(args.bits), [int(c) for c in args.bits])


def _molecule(args: argparse.Namespace) -> DensityMatrix:
    if args.uniform:  # the cap and the size rule come before the C(m, n) subsets are listed
        _check_cap("mixed", args.m)
        if not 2 <= args.n <= args.m:
            raise ValueError(f"--n must satisfy 2 <= n <= {args.m}, got {args.n}")
        subsets = list(combinations(range(1, args.m + 1), args.n))
        return entanglement_molecule(args.m, args.n, args.w, dict.fromkeys(subsets, 1.0 / len(subsets)))
    try:
        raw = json.loads(args.weights)
    except (ValueError, RecursionError):  # a JSONDecodeError is a ValueError
        raise ValueError("--weights is not valid JSON") from None
    if not isinstance(raw, dict):
        raise ValueError("--weights must be a JSON object")
    if any(type(val) not in (int, float) for val in raw.values()):  # bool is no weight
        raise ValueError("--weights values must be JSON numbers")
    weights = {_parse_labels(key, "--weights key", "-"): float(val) for key, val in raw.items()}
    return entanglement_molecule(args.m, args.n, args.w, weights)


def _cmd_reduce(args: argparse.Namespace) -> None:
    with _output(args.out) as write:
        write(json.dumps(reduction_report(bunch_reduce(*_split(args))), indent=2) + "\n")


def _cmd_eof(args: argparse.Namespace) -> None:
    report = eof_bunches(*_split(args))
    sys.stdout.write(f"concurrence {report.concurrence:.12f}\n")
    sys.stdout.write(f"eof {report.eof:.12f}\n")
    if args.out != "-":  # after the two lines, as README documents
        with _output(args.out) as write:
            write(json.dumps(report_json_dict(report), indent=2) + "\n")


def _cmd_survey(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    with _output(args.out) as write:
        reports = survey(load_state(args.state), args.max_bunch, args.full_cover)
        write(survey_csv(reports) if args.format == "csv" else survey_json(reports))


def _cmd_check(args: argparse.Namespace) -> None:
    kind, _, array = read_state_file(args.state)
    rows = [(f"{name} {format_float(defect)}", holds)
            for name, defect, holds, _ in state_defects(kind, array)]
    sys.stdout.write("".join(line + "\n" for line, _ in rows))
    failed = [line for line, holds in rows if not holds]
    if failed:
        raise InvariantError("; ".join(failed))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bunchent",
        description="Bunch-to-bunch entanglement of multiqubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="write a named state to a JSON file")
    build.set_defaults(run=_cmd_build)
    kinds = build.add_subparsers(dest="kind", required=True)
    ghz_p = kinds.add_parser("ghz")
    ghz_p.set_defaults(make=lambda args: ghz(args.n))
    ghz_p.add_argument("--n", type=int, required=True, help="number of qubits")
    bellw_p = kinds.add_parser("bellw")
    bellw_p.set_defaults(make=lambda args: bell_w_state(args.n, args.w))
    bellw_p.add_argument("--n", type=int, required=True)
    bellw_p.add_argument("--w", type=int, required=True, help="leading zeros in the first branch")
    emb_p = kinds.add_parser("embedded")
    emb_p.set_defaults(make=lambda args: embedded_bell(args.m, _parse_labels(args.subset, "--subset"), args.w))
    emb_p.add_argument("--m", type=int, required=True, help="total qubit count")
    emb_p.add_argument("--subset", required=True, help="ascending labels, e.g. 2,4")
    emb_p.add_argument("--w", type=int, required=True)
    mol_p = kinds.add_parser("molecule")
    mol_p.set_defaults(make=_molecule)
    mol_p.add_argument("--m", type=int, required=True)
    mol_p.add_argument("--n", type=int, required=True, help="subset size")
    mol_p.add_argument("--w", type=int, required=True)
    weighting = mol_p.add_mutually_exclusive_group(required=True)
    weighting.add_argument("--uniform", action="store_true", help="uniform weights over all subsets")
    weighting.add_argument("--weights", help='JSON object, e.g. {"1-2-3": 0.5, "2-3-4": 0.5}')
    basis_p = kinds.add_parser("basis")
    basis_p.set_defaults(make=_basis)
    basis_p.add_argument("--bits", required=True, help="bit string, qubit 1 first")
    for kp in (ghz_p, bellw_p, emb_p, mol_p, basis_p):
        kp.add_argument("--out", default="-", help="output path, - for stdout")

    reduce_p = sub.add_parser("reduce", help="reduce a state onto a bunch pair")
    reduce_p.set_defaults(run=_cmd_reduce)
    eof_p = sub.add_parser("eof", help="concurrence and entanglement of formation of a bunch pair")
    eof_p.set_defaults(run=_cmd_eof)
    survey_p = sub.add_parser("survey", help="measure every bunch pair of a state")
    survey_p.set_defaults(run=_cmd_survey)
    check_p = sub.add_parser("check", help="report invariant defects of a state file")
    check_p.set_defaults(run=_cmd_check)
    for sp in (reduce_p, eof_p, survey_p, check_p):
        sp.add_argument("state", help="state file path")
    for sp in (reduce_p, eof_p):
        sp.add_argument("--a", required=True, help="bunch A labels, anchor first, e.g. 1")
        sp.add_argument("--b", required=True, help="bunch B labels, anchor first, e.g. 2,3")
    reduce_p.add_argument("--out", default="-")
    eof_p.add_argument("--out", default="-", help="also write the report JSON here")
    survey_p.add_argument("--full-cover", action="store_true", help="only pairs covering every qubit")
    survey_p.add_argument("--max-bunch", type=int, default=None)
    survey_p.add_argument("--format", default="csv", choices=["csv", "json"])
    survey_p.add_argument("--jobs", type=int, default=1,
                          help="kept for compatibility; the survey runs in one process")
    survey_p.add_argument("--out", default="-")
    return parser


# no class here subclasses another, so an exception matches exactly one row
_EXIT_CODES = {CapacityError: 3, InvariantError: 4, FileFormatError: 5, OSError: 5, ValueError: 2}

def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0
