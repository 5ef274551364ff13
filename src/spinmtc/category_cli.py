"""The CLI's category commands that need no s-matrix: validate, sphere,
torus and builtin, and the loading of a category argument.

``spinmtc.cli`` executes this module only when a category command runs, so
that ``minimal``, ``minimal-scan`` and ``singvec`` neither compile nor
execute it, nor ``catalog``; ``smatrix`` and ``classify`` live in
``smatrix_cli``, which loads its category through this module.  Each
handler returns the exit code.  A category argument is a file path, or a
builtin key when no such file exists.  The library modules are read
through lazy module objects at call time, so that the file format
``fusionfile`` runs only for a file argument and ``builtin``, and the
axiom check ``axioms`` only for ``validate`` and a file argument: a builtin
is valid by construction, which the test suite checks
(``test_all_builtins_validate_clean``), so no other command re-checks it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import BUILTIN_KEYS, _emit, _lazy, _write_blocks, _write_json_last

axioms = _lazy("axioms")
catalog = _lazy("catalog")
clifford = _lazy("clifford")
fusion = _lazy("fusion")
fusionfile = _lazy("fusionfile")
spinfunctor = _lazy("spinfunctor")

MAX_PUNCTURES = 20  # the epsilon table has 2^n rows


def _load_category(arg: str) -> tuple[fusion.FusionData, bool]:
    """A path, or a builtin key when no such file exists; and whether it was
    read from a file."""
    path = Path(arg)
    if path.exists():
        return fusionfile.load_fusion(path), True
    if arg in BUILTIN_KEYS:
        return catalog.builtin(arg), False
    raise fusion.FormatError(f"no such file or builtin: {arg!r}")


def _load_known_category(arg: str, axiomatic: bool = False) -> fusion.FusionData:
    """As ``_load_category``, but data read from a file with a structure
    violation (see ``fusion.structure_violations``) is a format error naming
    the first one as ``validate`` prints it; the other commands cannot
    compute with it.  With ``axiomatic``, data read from a file that fails
    validate's axioms is inconsistent.  A builtin is not checked (see the
    module docstring)."""
    data, from_file = _load_category(arg)
    if from_file:
        if violations := fusion.structure_violations(data):
            raise fusion.FormatError(f"{data.name!r} fails validate: {violations[0]}")
        if axiomatic and (violations := axioms.axiom_violations(data)):
            raise fusion.InconsistentDataError(f"{data.name!r} fails validate: {violations[0]}")
    return data


def _load_valid_category(arg: str) -> fusion.FusionData:
    """As ``_load_known_category``; data failing validate's axioms is inconsistent."""
    return _load_known_category(arg, axiomatic=True)


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


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the exit code


def _cmd_validate(args: argparse.Namespace) -> int:
    data, _ = _load_category(args.category)
    violations = axioms.validate(data)
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
        f"(clifford algebra on {rep.lambda_rank} generators, "
        f"parity {rep.lambda_rank % 2})",
        "  epsilon table:\n",
    ]
    sys.stdout.write("\n".join(lines))
    _write_blocks(table.blocks("    {}  {}", "\n"), "\n", rows_per_part)
    sys.stdout.write("\n")
    return 0


def _cmd_torus(args: argparse.Namespace) -> int:
    data = _load_valid_category(args.category)
    vminus = _resolve_vminus(data, args.vminus)
    dims = spinfunctor.torus_dims(data, vminus)
    obj = {"category": data.name, "vminus": vminus, "dims": dims}
    lines = [f"{data.name}: torus state spaces"]
    for key, dim in dims.items():
        lines.append(f"  {key}  {dim}")
    _emit(obj, "\n".join(lines), args.format)
    return 0


def _cmd_builtin(args: argparse.Namespace) -> int:
    sys.stdout.write(fusionfile.dump_fusion(catalog.builtin(args.key)))
    return 0
