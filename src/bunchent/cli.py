"""Command line interface.

Subcommands: build, reduce, eof, survey, check. Exit codes: 0 success,
2 usage or parameter error, 3 capacity exceeded, 4 invariant violation,
5 file I/O or format problem. Errors print a single `error: ...` line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from .bunching import BunchPartition, bunch_reduce, reduction_report
from .errors import CapacityError, FileFormatError, InvariantError
from .measures import eof_bunches, format_float, report_json_dict, survey, survey_csv, survey_json
from .states import (
    DensityMatrix,
    StateVector,
    bell_w_state,
    embedded_bell,
    entanglement_molecule,
    ghz,
    ket_basis,
    load_state,
    read_state_file,
    state_defects,
    state_payload,
)

def _parse_labels(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _bunch_labels(args: argparse.Namespace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _parse_labels(args.a, "--a"), _parse_labels(args.b, "--b")


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None or output_path == "-":
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_build(args: argparse.Namespace) -> int:
    if args.kind == "ghz":
        state: StateVector | DensityMatrix = ghz(args.n)
    elif args.kind == "bellw":
        state = bell_w_state(args.n, args.w)
    elif args.kind == "embedded":
        state = embedded_bell(args.m, _parse_labels(args.subset, "--subset"), args.w)
    elif args.kind == "basis":
        bits = [int(c) for c in args.bits if c in "01"]
        if len(bits) != len(args.bits):
            raise ValueError(f"--bits expects a 0/1 string, got {args.bits!r}")
        state = ket_basis(len(bits), bits)
    elif args.kind == "molecule":
        if args.uniform:
            subsets = list(combinations(range(1, args.m + 1), args.n))
            weights = {s: 1.0 / len(subsets) for s in subsets}
        else:
            if args.weights is None:
                raise ValueError("molecule needs --uniform or --weights")
            try:
                raw = json.loads(args.weights)
            except json.JSONDecodeError:
                raise ValueError("--weights is not valid JSON") from None
            if not isinstance(raw, dict):
                raise ValueError("--weights must be a JSON object")
            try:
                weights = {
                    _parse_labels(key.replace("-", ","), "--weights key"): float(val)
                    for key, val in raw.items()
                }
            except TypeError:
                raise ValueError("--weights values must be numbers") from None
        state = entanglement_molecule(args.m, args.n, args.w, weights)
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown build kind {args.kind!r}")
    _emit(json.dumps(state_payload(state)) + "\n", args.out)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    bunch_a, bunch_b = _bunch_labels(args)
    reduction = bunch_reduce(load_state(args.state), BunchPartition(bunch_a, bunch_b))
    _emit(json.dumps(reduction_report(reduction), indent=2) + "\n", args.out)
    return 0


def _cmd_eof(args: argparse.Namespace) -> int:
    bunch_a, bunch_b = _bunch_labels(args)
    report = eof_bunches(load_state(args.state), BunchPartition(bunch_a, bunch_b))
    sys.stdout.write(f"concurrence {report.concurrence:.12f}\n")
    sys.stdout.write(f"eof {report.eof:.12f}\n")
    if args.out is not None and args.out != "-":
        _emit(json.dumps(report_json_dict(report), indent=2) + "\n", args.out)
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    reports = survey(load_state(args.state), args.max_bunch, args.full_cover)
    _emit(survey_csv(reports) if args.format == "csv" else survey_json(reports), args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    kind, _, array = read_state_file(args.state)
    rows = [(f"{name} {format_float(defect)}", holds)
            for name, defect, holds, _ in state_defects(kind, array)]
    sys.stdout.write("".join(line + "\n" for line, _ in rows))
    failed = [line for line, holds in rows if not holds]
    if failed:
        raise InvariantError("; ".join(failed))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bunchent",
        description="Bunch-to-bunch entanglement of multiqubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="write a named state to a JSON file")
    kinds = build.add_subparsers(dest="kind", required=True)
    ghz_p = kinds.add_parser("ghz")
    ghz_p.add_argument("--n", type=int, required=True, help="number of qubits")
    bellw_p = kinds.add_parser("bellw")
    bellw_p.add_argument("--n", type=int, required=True)
    bellw_p.add_argument("--w", type=int, required=True, help="leading zeros in the first branch")
    emb_p = kinds.add_parser("embedded")
    emb_p.add_argument("--m", type=int, required=True, help="total qubit count")
    emb_p.add_argument("--subset", required=True, help="ascending labels, e.g. 2,4")
    emb_p.add_argument("--w", type=int, required=True)
    mol_p = kinds.add_parser("molecule")
    mol_p.add_argument("--m", type=int, required=True)
    mol_p.add_argument("--n", type=int, required=True, help="subset size")
    mol_p.add_argument("--w", type=int, required=True)
    mol_p.add_argument("--uniform", action="store_true", help="uniform weights over all subsets")
    mol_p.add_argument("--weights", help='JSON object, e.g. {"1-2-3": 0.5, "2-3-4": 0.5}')
    basis_p = kinds.add_parser("basis")
    basis_p.add_argument("--bits", required=True, help="bit string, qubit 1 first")
    for kp in (ghz_p, bellw_p, emb_p, mol_p, basis_p):
        kp.add_argument("--out", default="-", help="output path, - for stdout")

    reduce_p = sub.add_parser("reduce", help="reduce a state onto a bunch pair")
    eof_p = sub.add_parser("eof", help="concurrence and entanglement of formation of a bunch pair")
    survey_p = sub.add_parser("survey", help="measure every bunch pair of a state")
    check_p = sub.add_parser("check", help="report invariant defects of a state file")
    for sp in (reduce_p, eof_p, survey_p, check_p):
        sp.add_argument("state", help="state file path")
    for sp in (reduce_p, eof_p):
        sp.add_argument("--a", required=True, help="bunch A labels, anchor first, e.g. 1")
        sp.add_argument("--b", required=True, help="bunch B labels, anchor first, e.g. 2,3")
    reduce_p.add_argument("--out", default="-")
    eof_p.add_argument("--out", default=None, help="also write the report JSON here")
    survey_p.add_argument("--full-cover", action="store_true", help="only pairs covering every qubit")
    survey_p.add_argument("--max-bunch", type=int, default=None)
    survey_p.add_argument("--format", default="csv", choices=["csv", "json"])
    survey_p.add_argument("--jobs", type=int, default=1,
                          help="kept for compatibility; the survey runs in one process")
    survey_p.add_argument("--out", default="-")
    return parser


_COMMANDS = {
    "build": _cmd_build,
    "reduce": _cmd_reduce,
    "eof": _cmd_eof,
    "survey": _cmd_survey,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
