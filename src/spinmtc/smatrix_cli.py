"""The CLI's s-matrix commands: smatrix and classify.

``spinmtc.cli`` executes this module only when one of them runs, so that
``validate``, ``sphere``, ``torus`` and ``builtin`` neither compile nor
execute these handlers.  They load their category through ``category_cli``,
which checks a category file and trusts a builtin key, and they alone run
the s-matrix layer ``exactnum``.  Each handler returns the exit code.
"""

from __future__ import annotations

import argparse

from . import _emit, _grid, _lazy
from .category_cli import _load_known_category, _load_valid_category, _resolve_vminus

clifford = _lazy("clifford")
cyclotomic = _lazy("cyclotomic")
exactnum = _lazy("exactnum")


def _fmt_complex(z: complex, digits: int) -> str:
    re = f"{z.real:.{digits}g}"
    im = abs(z.imag)
    if f"{im:.{digits}g}" == "0":
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.{digits}g}j"


def _cmd_smatrix(args: argparse.Namespace) -> int:
    data = _load_known_category(args.category)
    s = exactnum.compute_smatrix(data)
    holds, alpha = exactnum.check_s_squared(s, data)
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
    s = exactnum.compute_smatrix(data)
    report = exactnum.verify_block_structure(data, cls, s)
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
