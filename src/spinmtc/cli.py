"""Command-line interface.

Subcommands mirror the library: validate, smatrix, classify, sphere, torus,
minimal, minimal-scan, singvec, builtin.  Category arguments accept a file
path or a builtin key (a real file with the same name wins).  Exit codes:
0 success, 1 failed checks or inconsistent data, 2 malformed input or flags.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .catalog import BUILTIN_KEYS, builtin
from .clifford import (
    classify_labels,
    clifford_structure,
    find_vminus,
    verify_block_structure,
)
from .exactnum import embed_numeric, parse_fraction, _fraction_str
from .fusion import (
    FormatError,
    FusionData,
    InconsistentDataError,
    check_s_squared,
    compute_smatrix,
    dump_fusion,
    load_fusion,
    validate,
)
from .minimal import (
    MinimalModelSpec,
    central_charge,
    model_to_dict,
    sector_counts,
    valid_pairs,
    validate_pq,
)
from .spinfunctor import SpinSphereSpec, sphere_report, torus_dims
from .verma import VermaError, singular_vectors

__all__ = ["main", "build_parser"]

DEFAULT_MAX_DEGREE = 16
MAX_PUNCTURES = 20  # the epsilon table has 2^n rows
MAX_PQ = 100_000  # bounds p*q for minimal and minimal-scan; output grows with it
ROWS_PER_WRITE = 4096  # sphere writes its rows in blocks of this many
MAX_DIGITS = 17  # a float holds about 17 significant digits


class CliError(Exception):
    """Error with a chosen process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_category(arg: str) -> FusionData:
    """A path, or a builtin key when no such file exists."""
    path = Path(arg)
    if path.exists():
        return load_fusion(path)
    if arg in BUILTIN_KEYS:
        return builtin(arg)
    raise FormatError(f"no such file or builtin: {arg!r}")


def _load_known_category(arg: str) -> FusionData:
    """As ``_load_category``, but fusion rules naming unknown labels,
    ``dual``, ``twist`` or ``qdim`` maps missing a label, repeated labels, a
    unit that is not a label and ``dual`` values that are not labels are
    format errors.

    ``validate`` reports these as violations; the other commands cannot
    compute with them.
    """
    data = _load_category(arg)
    unknown = {lab for key in data.fusion for lab in key} - set(data.labels)
    if unknown:
        names = ", ".join(map(repr, sorted(unknown)))
        raise FormatError(f"fusion rules of {data.name!r} name unknown label {names}")
    for name in ("dual", "twist", "qdim"):
        missing = [lab for lab in data.labels if lab not in getattr(data, name)]
        if missing:
            names = ", ".join(map(repr, missing))
            raise FormatError(f"{name} of {data.name!r} has no entry for label {names}")
    repeated = sorted(lab for lab, n in Counter(data.labels).items() if n > 1)
    if repeated:
        names = ", ".join(map(repr, repeated))
        raise FormatError(f"labels of {data.name!r} repeat label {names}")
    if data.unit not in data.labels:
        raise FormatError(f"unit {data.unit!r} of {data.name!r} is not a label")
    unknown = sorted({data.dual[lab] for lab in data.labels} - set(data.labels))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise FormatError(f"dual of {data.name!r} maps to unknown label {names}")
    return data


def _resolve_vminus(data: FusionData, requested: str | None) -> str:
    candidates = find_vminus(data)
    if requested is not None:
        if requested not in candidates:
            raise CliError(
                2,
                f"--vminus {requested!r} is not an admissible odd generator; "
                f"candidates: {candidates or 'none'}",
            )
        return requested
    if not candidates:
        raise CliError(1, f"{data.name!r} has no admissible odd generator; not fermionic data")
    if len(candidates) > 1:
        raise CliError(
            1,
            f"{data.name!r} has several admissible odd generators {candidates}; "
            f"choose one with --vminus",
        )
    return candidates[0]


def _emit(obj: dict, table: str, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        sys.stdout.write(table if table.endswith("\n") else table + "\n")


def _fmt_complex(z: complex, digits: int) -> str:
    re = f"{z.real:.{digits}g}"
    im = abs(z.imag)
    if f"{im:.{digits}g}" == "0":
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.{digits}g}j"


def _grid(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the exit code


def _cmd_validate(args: argparse.Namespace) -> int:
    data = _load_category(args.category)
    violations = validate(data)
    obj = {
        "category": data.name,
        "valid": not violations,
        "violations": [v.to_dict() for v in violations],
    }
    if violations:
        lines = [f"{data.name}: INVALID"]
        lines += [f"  {v.check} at {v.witness}: {v.detail}" for v in violations]
        table = "\n".join(lines)
    else:
        table = f"{data.name}: valid ({data.rank} labels)"
    _emit(obj, table, args.format)
    return 0 if not violations else 1


def _cmd_smatrix(args: argparse.Namespace) -> int:
    data = _load_known_category(args.category)
    s = compute_smatrix(data)
    holds, alpha = check_s_squared(s, data)
    obj = {
        "category": data.name,
        "labels": list(data.labels),
        "conductor": s.data.conductor,
        "entries": [[x.to_dict() for x in row] for row in s.data],
        "squares_to_conjugation": holds,
        "scalar": alpha.to_dict() if alpha is not None else None,
    }
    grid = [[""] + list(data.labels)]
    for lab, row in zip(data.labels, s.data):
        grid.append([lab] + [str(x) for x in row])
    lines = [_grid(grid)]
    if args.numeric:
        digits = args.numeric
        numeric = [[_fmt_complex(embed_numeric(x, digits), digits) for x in row] for row in s.data]
        obj["numeric"] = {
            "digits": digits,
            "note": "floating-point annotations; not authoritative",
            "entries": numeric,
        }
        ngrid = [[""] + list(data.labels)]
        for lab, row in zip(data.labels, numeric):
            ngrid.append([lab] + [f"~{x}" for x in row])
        lines += ["", "numeric (not authoritative):", _grid(ngrid)]
    if holds:
        lines.append(f"s^2 = alpha * conjugation with alpha = {alpha}")
    else:
        lines.append("s^2 is NOT a scalar multiple of the conjugation permutation")
    _emit(obj, "\n".join(lines), args.format)
    return 0 if holds else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    data = _load_known_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    st = clifford_structure(data, vminus)
    if not st.is_clifford:
        obj = {
            "category": data.name,
            "vminus": vminus,
            "sigma_vv": st.sigma_vv,
            "structure": "square-root",
            "note": "self-braiding +1: no block theory; nothing further computed",
        }
        _emit(obj, f"{data.name}: square-root structure at {vminus} (sigma_vv = +1); "
                   "no block theory applies", args.format)
        return 0
    cls = classify_labels(data, vminus)
    s = compute_smatrix(data)
    report = verify_block_structure(data, cls, s)
    obj = {
        "category": data.name,
        "vminus": vminus,
        "sigma_vv": st.sigma_vv,
        "structure": "clifford",
        "zeta": {lab: st.zeta[lab] for lab in data.labels},
        "classification": cls.to_dict(),
        "blocks": report.to_dict()["blocks"],
        "checks": {k: v.to_dict() for k, v in report.checks.items()},
        "all_pass": report.all_pass,
    }
    lines = [f"{data.name}: clifford structure at {vminus}"]
    for name, group in cls.to_dict().items():
        lines.append(f"  {name:8s} {group}")
    for name, res in report.checks.items():
        mark = "PASS" if res.ok else f"FAIL at {res.witness}"
        lines.append(f"  check {name:24s} {mark}")
    lines.append(f"  all checks pass: {report.all_pass}")
    _emit(obj, "\n".join(lines), args.format)
    return 0 if report.all_pass else 1


def _split_labels(text: str) -> tuple[str, ...]:
    """Comma-separated labels, split only outside parentheses, so that
    product labels such as ``(1,psi)`` stay whole; empty pieces are dropped."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CliError(2, f"unbalanced ')' at position {i} of --labels {text!r}")
        elif ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    if depth:
        raise CliError(2, f"unbalanced '(' in --labels {text!r}")
    pieces.append(text[start:])
    return tuple(x for x in pieces if x)


def _write_blocks(parts: Iterator[str], sep: str) -> None:
    """Write ``sep.join(parts)`` to stdout, a block of parts at a time."""
    lead = ""
    while block := list(itertools.islice(parts, ROWS_PER_WRITE)):
        sys.stdout.write(lead + sep.join(block))
        lead = sep


def _cmd_sphere(args: argparse.Namespace) -> int:
    labels = _split_labels(args.labels)
    if len(labels) > MAX_PUNCTURES:
        raise CliError(2, f"{len(labels)} punctures exceed the limit {MAX_PUNCTURES}")
    data = _load_known_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    rep = sphere_report(SpinSphereSpec(data, vminus, labels))
    rows = rep.epsilon_table.rows()
    if args.format == "json":
        obj = {
            "category": data.name,
            "vminus": vminus,
            "boundary_labels": list(labels),
            **rep.to_dict(table=False),
        }
        # as json.dumps(obj, indent=2) with the table, its last key, spliced in
        sys.stdout.write(json.dumps(obj, indent=2)[:-2] + ',\n  "epsilon_table": {\n')
        _write_blocks((f'    "{bits}": {val}' for bits, val in rows), ",\n")
        sys.stdout.write("\n  }\n}\n")
        return 0
    lines = [
        f"{data.name}: sphere with punctures {list(labels)}",
        f"  total dimension      {rep.total_dim}",
        f"  component dimension  {rep.component_dim}",
        f"  odd punctures        {rep.lambda_rank} "
        f"(clifford algebra on {rep.lambda_class.generators} generators, "
        f"parity {rep.lambda_class.parity})",
        "  epsilon table:\n",
    ]
    sys.stdout.write("\n".join(lines))
    _write_blocks((f"    {bits}  {val}" for bits, val in rows), "\n")
    sys.stdout.write("\n")
    return 0


def _cmd_torus(args: argparse.Namespace) -> int:
    data = _load_known_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    rep = torus_dims(data, vminus)
    obj = {"category": data.name, "vminus": vminus, **rep.to_dict()}
    lines = [f"{data.name}: torus state spaces"]
    for key in ("AA", "AP", "PA", "PP"):
        lines.append(f"  {key}  {rep.dims[key]}")
    _emit(obj, "\n".join(lines), args.format)
    return 0


def _require_model(p: int, q: int) -> MinimalModelSpec:
    reason = validate_pq(p, q)
    if reason is not None:
        raise CliError(2, f"not a minimal model: {reason}")
    return MinimalModelSpec(p, q)


def _cmd_minimal(args: argparse.Namespace) -> int:
    spec = _require_model(args.p, args.q)
    if spec.p * spec.q > MAX_PQ:
        raise CliError(2, f"p*q = {spec.p * spec.q} exceeds the limit {MAX_PQ}")
    obj = model_to_dict(spec)
    c = central_charge(spec)
    if args.numeric:
        obj["numeric"] = {
            "digits": args.numeric,
            "note": "floating-point annotations; not authoritative",
            "c": f"{float(c):.{args.numeric}g}",
        }
    rows = [["sector", "(r,s)", "h", "split"]]
    for sector, key in (("NS", "ns"), ("R", "r")):
        for lab in obj[key]:
            split = str(lab.get("split", "")).lower()
            rows.append([sector, f"({lab['r']},{lab['s']})", str(parse_fraction(lab["h"])), split])
    table = f"minimal model ({spec.p},{spec.q}): c = {c}\n" + _grid(rows)
    _emit(obj, table, args.format)
    return 0


def _scan_row(spec: MinimalModelSpec) -> dict:
    ns, rr = sector_counts(spec)
    split = ((spec.p - 1) * (spec.q - 1)) % 2 == 0
    return {
        "p": spec.p,
        "q": spec.q,
        "c": _fraction_str(central_charge(spec)),
        "ns_count": ns,
        "r_count": rr,
        "split": split,
    }


def _cmd_minimal_scan(args: argparse.Namespace) -> int:
    if args.max_pq < 4:
        raise CliError(2, "--max-pq must be at least 4")
    if args.max_pq > MAX_PQ:
        raise CliError(2, f"--max-pq {args.max_pq} exceeds the limit {MAX_PQ}")
    models = list(map(_scan_row, valid_pairs(args.max_pq)))
    obj = {"max_pq": args.max_pq, "count": len(models), "models": models}
    rows = [["p", "q", "c", "NS", "R", "split"]]
    for m in models:
        rows.append([str(m["p"]), str(m["q"]), str(parse_fraction(m["c"])), str(m["ns_count"]),
                     str(m["r_count"]), str(m["split"]).lower()])
    _emit(obj, f"{len(models)} models with p*q <= {args.max_pq}\n" + _grid(rows), args.format)
    return 0


def _cmd_singvec(args: argparse.Namespace) -> int:
    by_pq = args.p is not None or args.q is not None
    by_ch = args.c is not None or args.h is not None or args.degree is not None
    if by_pq == by_ch:
        raise CliError(2, "give either --p/--q or --c/--h/--degree")
    if by_pq:
        if args.p is None or args.q is None:
            raise CliError(2, "--p and --q go together")
        spec = _require_model(args.p, args.q)
        c = central_charge(spec)
        h = Fraction(0)
        degree = Fraction((args.p - 1) * (args.q - 1), 2)
    else:
        if args.c is None or args.h is None or args.degree is None:
            raise CliError(2, "--c, --h and --degree go together")
        try:
            c = parse_fraction(args.c)
            h = parse_fraction(args.h)
            degree = parse_fraction(args.degree)
        except ValueError as exc:
            raise CliError(2, str(exc)) from exc
        if degree <= 0 or degree.denominator > 2:
            raise CliError(2, f"--degree must be a positive integer or half-integer, got {degree}")

    cap = DEFAULT_MAX_DEGREE
    env = os.environ.get("SPINMTC_MAX_DEGREE")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise CliError(2, f"SPINMTC_MAX_DEGREE must be an integer, got {env!r}") from None
    if degree > cap:
        raise CliError(
            2,
            f"degree {degree} exceeds the limit {cap}; raise SPINMTC_MAX_DEGREE to allow it",
        )

    rep = singular_vectors(c, h, degree)
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


def _cmd_builtin(args: argparse.Namespace) -> int:
    sys.stdout.write(dump_fusion(builtin(args.key)))
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
    common.add_argument("--numeric", type=int, choices=range(MAX_DIGITS + 1), metavar="DIGITS",
                        default=0, help=f"add floating-point annotations to 0-{MAX_DIGITS} "
                        "significant digits (never authoritative)")

    def cat_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("category", help="category file or builtin key")
        return p

    cat_cmd("validate", "check the fusion-ring axioms")
    cat_cmd("smatrix", "exact s-matrix and its square")

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

    p = sub.add_parser("minimal", parents=[common], help="one minimal-model label table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("minimal-scan", parents=[common], help="all models with p*q bounded")
    p.add_argument("--max-pq", type=int, required=True, metavar="M")

    p = sub.add_parser("singvec", parents=[common], help="singular vectors in an NS Verma module")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--c", help="central charge as a/b")
    p.add_argument("--h", help="highest weight as a/b")
    p.add_argument("--degree", help="degree as a/b or integer")

    p = sub.add_parser("builtin", parents=[common], help="emit a builtin category file")
    p.add_argument("key", choices=BUILTIN_KEYS)

    return parser


_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "validate": _cmd_validate,
    "smatrix": _cmd_smatrix,
    "classify": _cmd_classify,
    "sphere": _cmd_sphere,
    "torus": _cmd_torus,
    "minimal": _cmd_minimal,
    "minimal-scan": _cmd_minimal_scan,
    "singvec": _cmd_singvec,
    "builtin": _cmd_builtin,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistentDataError, VermaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
