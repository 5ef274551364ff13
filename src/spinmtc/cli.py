"""Command-line interface.

Subcommands mirror the library: validate, smatrix, classify, sphere, torus,
minimal, minimal-scan, singvec, builtin.  Category arguments accept a file
path or a builtin key (a real file with the same name wins).  Exit codes:
0 success, 1 failed checks or inconsistent data, 2 malformed input or flags.
Every error is a ``ValueError``: the status is the exception's ``exit_code``,
2 when it sets none (``fusion.InconsistentDataError`` and ``verma.VermaError``
set 1).

``main`` returns the status and leaves the process alone, for tests and
library callers that run it in-process.  ``run`` is the process entry, of
both ``python -m spinmtc.cli`` and the ``spinmtc`` script: it flushes
stdout, freezes the garbage collector so that the collections at interpreter
exit have no object to traverse, and raises ``SystemExit`` with the status,
so that ``atexit`` handlers and wrappers such as ``runpy`` still run.  When
the reader of stdout closes it early (``| head``), ``run`` exits 1 with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from typing import Callable, Iterator, NoReturn, Sequence

from . import (
    BUILTIN_KEYS,
    _emit,
    _fraction_str,
    _grid,
    _grid_lines,
    _lazy,
    _write_blocks,
    _write_json_last,
    parse_fraction,
)

minimal = _lazy("minimal")
verma = _lazy("verma")
# the category commands' modules: registered here too, so that importing
# this module puts every module a command may run in sys.modules, where a
# caller can patch it before any command runs
category_cli = _lazy("category_cli")
clifford = _lazy("clifford")
cyclotomic = _lazy("cyclotomic")
exactnum = _lazy("exactnum")
fusion = _lazy("fusion")
spinfunctor = _lazy("spinfunctor")

__all__ = ["main", "run", "build_parser"]

DEFAULT_MAX_DEGREE = 16
MAX_PQ = 100_000  # bounds p*q for minimal and minimal-scan; output grows with it
MAX_DIGITS = 17  # a float holds about 17 significant digits


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the exit code


def _category_command(args: argparse.Namespace) -> int:
    """Run a category command's handler, from ``category_cli``."""
    return getattr(category_cli, f"_cmd_{args.command}")(args)


def _require_model(p: int, q: int) -> minimal.MinimalModelSpec:
    try:
        return minimal.MinimalModelSpec(p, q)
    except ValueError as exc:
        raise ValueError(f"not a minimal model: {exc}") from None


def _cmd_minimal(args: argparse.Namespace) -> int:
    spec = _require_model(args.p, args.q)
    if spec.p * spec.q > MAX_PQ:
        raise ValueError(f"p*q = {spec.p * spec.q} exceeds the limit {MAX_PQ}")
    labels = minimal.enumerate_labels(spec)
    c = minimal.central_charge(spec)
    # only the requested form is built: at the cap each holds every label
    if args.format == "json":
        obj = minimal.model_to_dict(spec, labels)
        if args.numeric:
            obj["numeric"] = {
                "digits": args.numeric,
                "note": "floating-point annotations; not authoritative",
                "c": f"{float(c):.{args.numeric}g}",
            }
        _emit(obj, "", args.format)
        return 0
    rows = [["sector", "(r,s)", "h", "split"]]
    for lab in labels:
        split = "" if lab.split is None else str(lab.split).lower()
        rows.append([lab.sector, f"({lab.r},{lab.s})", str(lab.h), split])
    _emit({}, f"minimal model ({spec.p},{spec.q}): c = {c}\n" + _grid(rows), args.format)
    return 0


def _scan_row(spec: minimal.MinimalModelSpec) -> tuple[int, int, Fraction, int, int, bool]:
    """p, q, c, the NS and R label counts, and whether R labels split."""
    ns, rr = minimal.sector_counts(spec)
    split = ((spec.p - 1) * (spec.q - 1)) % 2 == 0
    return spec.p, spec.q, minimal.central_charge(spec), ns, rr, split


# one model of minimal-scan's JSON "models" list, as json.dumps(..., indent=2) writes it
_SCAN_JSON_ROW = """    {{
      "p": {},
      "q": {},
      "c": "{}",
      "ns_count": {},
      "r_count": {},
      "split": {}
    }}"""


def _cmd_minimal_scan(args: argparse.Namespace) -> int:
    if args.max_pq < 4:
        raise ValueError("--max-pq must be at least 4")
    if args.max_pq > MAX_PQ:
        raise ValueError(f"--max-pq {args.max_pq} exceeds the limit {MAX_PQ}")
    # the models are generated and formatted as they are written, never all held
    if args.format == "json":
        obj = {"max_pq": args.max_pq, "count": minimal.count_pairs(args.max_pq)}
        if not obj["count"]:
            _emit({**obj, "models": []}, "", "json")
        else:
            _write_json_last(obj, "models", "[]", (
                _SCAN_JSON_ROW.format(p, q, _fraction_str(c), ns, rr, str(split).lower())
                for p, q, c, ns, rr, split in map(_scan_row, minimal.valid_pairs(args.max_pq))))
        return 0

    def cells() -> Iterator[list[str]]:
        yield ["p", "q", "c", "NS", "R", "split"]
        for row in map(_scan_row, minimal.valid_pairs(args.max_pq)):
            yield [*map(str, row[:5]), str(row[5]).lower()]

    widths = [0] * 6
    count = -1  # the header is no model
    for row in cells():
        widths = list(map(max, widths, map(len, row)))
        count += 1
    sys.stdout.write(f"{count} models with p*q <= {args.max_pq}\n")
    _write_blocks(_grid_lines(cells(), widths), "\n")
    sys.stdout.write("\n")
    return 0


def _cmd_singvec(args: argparse.Namespace) -> int:
    by_pq = args.p is not None or args.q is not None
    by_ch = args.c is not None or args.h is not None or args.degree is not None
    if by_pq == by_ch:
        raise ValueError("give either --p/--q or --c/--h/--degree")
    if by_pq:
        if args.p is None or args.q is None:
            raise ValueError("--p and --q go together")
        spec = _require_model(args.p, args.q)
        c = minimal.central_charge(spec)
        h = Fraction(0)
        degree = Fraction((args.p - 1) * (args.q - 1), 2)
    else:
        if args.c is None or args.h is None or args.degree is None:
            raise ValueError("--c, --h and --degree go together")
        c = parse_fraction(args.c)
        h = parse_fraction(args.h)
        degree = parse_fraction(args.degree)
        if degree <= 0 or degree.denominator > 2:
            raise ValueError(f"--degree must be a positive integer or half-integer, got {degree}")

    cap = DEFAULT_MAX_DEGREE
    env = os.environ.get("SPINMTC_MAX_DEGREE")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"SPINMTC_MAX_DEGREE must be an integer, got {env!r}") from None
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the limit {cap}; "
                         "raise SPINMTC_MAX_DEGREE to allow it")

    rep = verma.singular_vectors(c, h, degree)
    obj = rep.to_dict()
    if args.numeric and rep.lambda_coeff is not None:
        obj["numeric"] = {
            "digits": args.numeric,
            "note": "floating-point annotations; not authoritative",
            "lambda": f"{float(rep.lambda_coeff):.{args.numeric}g}",
        }
    lines = [
        f"c = {c}, h = {h}, degree = {degree}",
        f"  singular space: dim {rep.full_space_dim} in the full module, "
        f"dim {rep.space_dim} in the quotient",
    ]
    if rep.vector is not None:
        lines.append("  vector (quotient basis, unit leading coefficient):")
        for item in rep.vector.to_json_list():
            lines.append(f"    {item['coeff']:>8s}  *  {item['monomial']}")
        lines.append(f"  leading monomial: {rep.leading_monomial}")
        if rep.lambda_coeff is not None:
            lines.append(f"  lambda = {rep.lambda_coeff}")
        lines.append(f"  shape as predicted: {rep.shape_ok}")
    _emit(obj, "\n".join(lines), args.format)
    if by_pq and (rep.space_dim != 1 or not rep.shape_ok):
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmtc",
        description="Exact fermionic fusion-category checks, minimal-model tables, "
        "and Verma-module singular vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table",
                        help="output format (default table)")
    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--numeric", type=int, choices=range(MAX_DIGITS + 1), metavar="DIGITS",
                         default=0, help=f"add floating-point annotations to 0-{MAX_DIGITS} "
                         "significant digits (never authoritative)")

    def cat_cmd(name: str, help_text: str, *extra: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *extra], help=help_text)
        p.add_argument("category", help="category file or builtin key")
        return p

    cat_cmd("validate", "check the fusion-ring axioms")
    cat_cmd("smatrix", "exact s-matrix and its square", numeric)

    p = cat_cmd("classify", "NS/R label partition and block checks")
    p.add_argument("--vminus", help="odd generator to use when several qualify")

    p = cat_cmd("sphere", "spin sphere state-space dimensions")
    p.add_argument(
        "--labels",
        required=True,
        help="comma-separated puncture labels; commas inside parentheses stay in the label",
    )
    p.add_argument("--vminus", help="odd generator to use when several qualify")

    p = cat_cmd("torus", "spin torus state-space dimensions")
    p.add_argument("--vminus", help="odd generator to use when several qualify")

    p = sub.add_parser("minimal", parents=[common, numeric], help="one minimal-model label table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("minimal-scan", parents=[common], help="all models with p*q bounded")
    p.add_argument("--max-pq", type=int, required=True, metavar="M")

    p = sub.add_parser("singvec", parents=[common, numeric], help="singular vectors in an NS Verma module")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--c", help="central charge as a/b")
    p.add_argument("--h", help="highest weight as a/b")
    p.add_argument("--degree", help="degree as a/b or integer")

    # builtin always writes the file format, which is JSON; it takes --format as
    # every other command does, so that a caller may append "--format json" to any
    p = sub.add_parser("builtin", parents=[common], help="emit a builtin category file")
    p.add_argument("key", choices=BUILTIN_KEYS)

    return parser


_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "validate": _category_command,
    "smatrix": _category_command,
    "classify": _category_command,
    "sphere": _category_command,
    "torus": _category_command,
    "minimal": _cmd_minimal,
    "minimal-scan": _cmd_minimal_scan,
    "singvec": _cmd_singvec,
    "builtin": _category_command,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        # the code is read from the exception, so that no other command's module executes
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def run() -> NoReturn:
    """Run ``main`` on ``sys.argv`` as the whole process, and exit with its status."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's own flush at exit would
        # fail again, so what is left in the buffer goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # every object still alive lives until the process ends; frozen, the
    # exit-time collections skip them
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
