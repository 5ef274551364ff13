"""The CLI's category commands: validate, smatrix, classify, sphere, torus
and builtin.

``spinmtc.cli`` executes this module only when one of them runs, so that
``minimal``, ``minimal-scan`` and ``singvec`` neither compile nor execute
it, nor ``catalog``.  Each handler returns the exit code.  A category
argument is a file path, or a builtin key when no such file exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import BUILTIN_KEYS, _emit, _grid, _lazy, _write_blocks, _write_json_last

catalog = _lazy("catalog")
clifford = _lazy("clifford")
cyclotomic = _lazy("cyclotomic")
fusion = _lazy("fusion")
spinfunctor = _lazy("spinfunctor")

MAX_PUNCTURES = 20  # the epsilon table has 2^n rows


def _load_category(arg: str) -> fusion.FusionData:
    """A path, or a builtin key when no such file exists."""
    path = Path(arg)
    if path.exists():
        return fusion.load_fusion(path)
    if arg in BUILTIN_KEYS:
        return catalog.builtin(arg)
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
    data = _load_known_category(arg)
    if violations := fusion.validate(data):
        raise fusion.InconsistentDataError(f"{data.name!r} fails validate: {violations[0]}")
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


def _fmt_complex(z: complex, digits: int) -> str:
    re = f"{z.real:.{digits}g}"
    im = abs(z.imag)
    if f"{im:.{digits}g}" == "0":
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.{digits}g}j"


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
    numeric = None
    if digits:
        # one evaluation per distinct entry, keyed by its integer coefficients
        text: dict[tuple[tuple[int, int], ...], str] = {}
        for coeff_row, row in zip(s.data.ints, s.data):
            for coeffs, x in zip(coeff_row, row):
                key = tuple(coeffs.items())
                if key not in text:
                    text[key] = _fmt_complex(cyclotomic.embed_numeric(x, digits), digits)
        numeric = [[text[tuple(coeffs.items())] for coeffs in coeff_row] for coeff_row in s.data.ints]
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


def _cmd_sphere(args: argparse.Namespace) -> int:
    labels = _split_labels(args.labels)
    if len(labels) > MAX_PUNCTURES:
        raise ValueError(f"{len(labels)} punctures exceed the limit {MAX_PUNCTURES}")
    data = _load_valid_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    rep = spinfunctor.sphere_report(spinfunctor.SpinSphereSpec(data, vminus, labels))
    table, rows_per_part = rep.epsilon_table, spinfunctor.EpsilonTable.BLOCK_ROWS
    if args.format == "json":
        obj = {
            "category": data.name,
            "vminus": vminus,
            "boundary_labels": list(labels),
            **rep.to_dict(table=False),
        }
        _write_json_last(obj, "epsilon_table", "{}", table.blocks('    "{}": {}', ",\n"), rows_per_part)
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
    _write_blocks(table.blocks("    {}  {}", "\n"), "\n", rows_per_part)
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


def _cmd_builtin(args: argparse.Namespace) -> int:
    sys.stdout.write(fusion.dump_fusion(catalog.builtin(args.key)))
    return 0
