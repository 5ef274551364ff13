"""The CLI's model commands: minimal, minimal-scan and singvec.

``spinmtc.cli`` executes this module only when one of them runs, so that
the category commands neither compile nor execute it.  It does not import
``spinmtc.cli``: under ``python -m spinmtc.cli`` that module runs as
``__main__``, and an import would compile and execute it a second time.
Each handler returns the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Iterator

from . import _emit, _fraction_str, _grid, _grid_lines, _lazy, _write_blocks, _write_json_last, parse_fraction

minimal = _lazy("minimal")
verma = _lazy("verma")

DEFAULT_MAX_DEGREE = 16
MAX_PQ = 100_000  # bounds p*q for minimal and minimal-scan; output grows with it


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the exit code


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
