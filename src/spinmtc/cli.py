"""Command-line interface.

Subcommands mirror the library: validate, smatrix, classify, sphere, torus,
minimal, minimal-scan, singvec, builtin.  Category arguments accept a file
path or a builtin key (a real file with the same name wins).  Exit codes:
0 success, 1 failed checks or inconsistent data, 2 malformed input or flags.
Every error is a ``ValueError``: the status is the exception's ``exit_code``,
2 when it sets none (``fusion.InconsistentDataError`` and ``verma.VermaError``
set 1).
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable, Iterator, Sequence

from . import _fraction_str, parse_fraction
from .catalog import BUILTIN_KEYS, builtin


def _lazy(name: str) -> ModuleType:
    """The submodule ``spinmtc.<name>``, executed on its first attribute read.

    Each command then runs only the modules it uses.  The module sits in
    ``sys.modules`` from the start, so code that looks it up there (or
    patches its attributes) sees the one object the handlers read at call
    time.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


clifford = _lazy("clifford")
exactnum = _lazy("exactnum")
fusion = _lazy("fusion")
minimal = _lazy("minimal")
spinfunctor = _lazy("spinfunctor")
verma = _lazy("verma")

__all__ = ["main", "build_parser"]

DEFAULT_MAX_DEGREE = 16
MAX_PUNCTURES = 20  # the epsilon table has 2^n rows
MAX_PQ = 100_000  # bounds p*q for minimal and minimal-scan; output grows with it
ROWS_PER_WRITE = 4096  # sphere writes its rows in blocks of this many
MAX_DIGITS = 17  # a float holds about 17 significant digits


def _load_category(arg: str) -> fusion.FusionData:
    """A path, or a builtin key when no such file exists."""
    path = Path(arg)
    if path.exists():
        return fusion.load_fusion(path)
    if arg in BUILTIN_KEYS:
        return builtin(arg)
    raise fusion.FormatError(f"no such file or builtin: {arg!r}")


def _load_known_category(arg: str) -> fusion.FusionData:
    """As ``_load_category``, but data with a structure violation (see
    ``fusion.structure_violations``) is a format error naming the first one
    as ``validate`` prints it; the other commands cannot compute with it."""
    data = _load_category(arg)
    if violations := fusion.structure_violations(data):
        raise fusion.FormatError(f"{data.name!r} fails validate: {violations[0]}")
    return data


def _load_valid_category(arg: str) -> fusion.FusionData:
    """As ``_load_known_category``; data failing validate's axioms is inconsistent."""
    data = _load_category(arg)
    if violations := fusion.validate(data):
        error = fusion.FormatError if fusion.structure_violations(data) else fusion.InconsistentDataError
        raise error(f"{data.name!r} fails validate: {violations[0]}")
    return data


def _resolve_vminus(data: fusion.FusionData, requested: str | None) -> str:
    candidates = clifford.find_vminus(data)
    if requested is not None:
        if requested not in candidates:
            raise ValueError(f"--vminus {requested!r} is not an admissible odd generator; "
                             f"candidates: {candidates or 'none'}")
        return requested
    if not candidates:
        raise fusion.InconsistentDataError(
            f"{data.name!r} has no admissible odd generator; not fermionic data")
    if len(candidates) > 1:
        raise fusion.InconsistentDataError(
            f"{data.name!r} has several admissible odd generators {candidates}; "
            f"choose one with --vminus")
    return candidates[0]


def _emit(obj: dict, table: str, fmt: str) -> None:
    if fmt == "json":
        _write_blocks(_json_parts(obj), "")
        sys.stdout.write("\n")
    else:
        sys.stdout.write(table if table.endswith("\n") else table + "\n")


def _json_parts(value: object, pad: str = "") -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in parts, nested at indent ``pad``: dicts
    (string keys) are walked, a ``CycMatrix`` writes itself (found by its method,
    so that commands without one never execute exactnum), json does the rest."""
    if hasattr(value, "json_parts"):
        yield from value.json_parts(pad)
    elif isinstance(value, dict) and value:
        sep = "{\n"
        for key, item in value.items():
            yield f"{sep}{pad}  {json.dumps(key)}: "
            yield from _json_parts(item, pad + "  ")
            sep = ",\n"
        yield f"\n{pad}}}"
    else:
        for chunk in json.JSONEncoder(indent=2).iterencode(value):
            yield chunk.replace("\n", "\n" + pad)


def _fmt_complex(z: complex, digits: int) -> str:
    re = f"{z.real:.{digits}g}"
    im = abs(z.imag)
    if f"{im:.{digits}g}" == "0":
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.{digits}g}j"


def _grid_lines(rows: Iterable[Sequence[str]], widths: Sequence[int]) -> Iterator[str]:
    """Each row's cells left-justified to the column widths, two spaces apart."""
    return ("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows)


def _grid(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(_grid_lines(rows, widths))


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the exit code


def _cmd_validate(args: argparse.Namespace) -> int:
    data = _load_category(args.category)
    violations = fusion.validate(data)
    obj = {
        "category": data.name,
        "valid": not violations,
        "violations": [v.to_dict() for v in violations],
    }
    if violations:
        table = "\n".join([f"{data.name}: INVALID"] + [f"  {v}" for v in violations])
    else:
        table = f"{data.name}: valid ({data.rank} labels)"
    _emit(obj, table, args.format)
    return 0 if not violations else 1


def _cmd_smatrix(args: argparse.Namespace) -> int:
    data = _load_known_category(args.category)
    s = fusion.compute_smatrix(data)
    holds, alpha = fusion.check_s_squared(s, data)
    digits = args.numeric
    numeric = digits and [[_fmt_complex(exactnum.embed_numeric(x, digits), digits) for x in row]
                          for row in s.data]
    # only the requested form is built
    if args.format == "json":
        obj = {
            "category": data.name,
            "labels": list(data.labels),
            "conductor": s.data.conductor,
            "entries": s.data,
            "squares_to_conjugation": holds,
            "scalar": alpha.to_dict() if alpha is not None else None,
        }
        if numeric:
            obj["numeric"] = {
                "digits": digits,
                "note": "floating-point annotations; not authoritative",
                "entries": numeric,
            }
        _emit(obj, "", args.format)
        return 0 if holds else 1
    grid = [[""] + list(data.labels)]
    for lab, row in zip(data.labels, s.data):
        grid.append([lab] + [str(x) for x in row])
    lines = [_grid(grid)]
    if numeric:
        ngrid = [[""] + list(data.labels)]
        for lab, row in zip(data.labels, numeric):
            ngrid.append([lab] + [f"~{x}" for x in row])
        lines += ["", "numeric (not authoritative):", _grid(ngrid)]
    if holds:
        lines.append(f"s^2 = alpha * conjugation with alpha = {alpha}")
    else:
        lines.append("s^2 is NOT a scalar multiple of the conjugation permutation")
    _emit({}, "\n".join(lines), args.format)
    return 0 if holds else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    data = _load_valid_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    st = clifford.clifford_structure(data, vminus)
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
    cls = clifford.classify_labels(data, vminus)
    s = fusion.compute_smatrix(data)
    report = clifford.verify_block_structure(data, cls, s)
    obj = {
        "category": data.name,
        "vminus": vminus,
        "sigma_vv": st.sigma_vv,
        "structure": "clifford",
        "zeta": {lab: st.zeta[lab] for lab in data.labels},
        "classification": cls.to_dict(),
        **report.to_dict(),
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
                raise ValueError(f"unbalanced ')' at position {i} of --labels {text!r}")
        elif ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced '(' in --labels {text!r}")
    pieces.append(text[start:])
    return tuple(x for x in pieces if x)


def _write_blocks(parts: Iterator[str], sep: str) -> None:
    """Write ``sep.join(parts)`` to stdout, a block of parts at a time."""
    lead = ""
    while block := list(itertools.islice(parts, ROWS_PER_WRITE)):
        sys.stdout.write(lead + sep.join(block))
        lead = sep


def _write_json_last(obj: dict, key: str, brackets: str, items: Iterator[str]) -> None:
    """Write ``json.dumps({**obj, key: value}, indent=2)`` and a newline, for a
    nonempty ``obj`` and a nonempty list or dict ``value`` (as ``brackets``
    says) given as its items, each already encoded at the value's indent."""
    sys.stdout.write(json.dumps(obj, indent=2)[:-2] + f',\n  "{key}": {brackets[0]}\n')
    _write_blocks(items, ",\n")
    sys.stdout.write(f"\n  {brackets[1]}\n}}\n")


def _cmd_sphere(args: argparse.Namespace) -> int:
    labels = _split_labels(args.labels)
    if len(labels) > MAX_PUNCTURES:
        raise ValueError(f"{len(labels)} punctures exceed the limit {MAX_PUNCTURES}")
    data = _load_valid_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    rep = spinfunctor.sphere_report(spinfunctor.SpinSphereSpec(data, vminus, labels))
    rows = rep.epsilon_table.rows()
    if args.format == "json":
        obj = {
            "category": data.name,
            "vminus": vminus,
            "boundary_labels": list(labels),
            **rep.to_dict(table=False),
        }
        _write_json_last(obj, "epsilon_table", "{}", (f'    "{bits}": {val}' for bits, val in rows))
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
    data = _load_valid_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    rep = spinfunctor.torus_dims(data, vminus)
    obj = {"category": data.name, "vminus": vminus, **rep.to_dict()}
    lines = [f"{data.name}: torus state spaces"]
    for key in ("AA", "AP", "PA", "PP"):
        lines.append(f"  {key}  {rep.dims[key]}")
    _emit(obj, "\n".join(lines), args.format)
    return 0


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
    specs = list(minimal.valid_pairs(args.max_pq))
    # rows are formatted as they are written, never all held
    if args.format == "json":
        obj = {"max_pq": args.max_pq, "count": len(specs)}
        if not specs:
            _emit({**obj, "models": []}, "", "json")
        else:
            _write_json_last(obj, "models", "[]", (
                _SCAN_JSON_ROW.format(p, q, _fraction_str(c), ns, rr, str(split).lower())
                for p, q, c, ns, rr, split in map(_scan_row, specs)))
        return 0

    def cells() -> Iterator[list[str]]:
        yield ["p", "q", "c", "NS", "R", "split"]
        for row in map(_scan_row, specs):
            yield [*map(str, row[:5]), str(row[5]).lower()]

    widths = [0] * 6
    for row in cells():
        widths = list(map(max, widths, map(len, row)))
    sys.stdout.write(f"{len(specs)} models with p*q <= {args.max_pq}\n")
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


def _cmd_builtin(args: argparse.Namespace) -> int:
    sys.stdout.write(fusion.dump_fusion(builtin(args.key)))
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
    except ValueError as exc:
        # the code is read from the exception, so that no other command's module executes
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
