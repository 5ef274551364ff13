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

This module holds only the parser and the dispatch.  The handlers live in
``category_cli`` (``validate``, ``sphere``, ``torus`` and ``builtin``),
``smatrix_cli`` (``smatrix`` and ``classify``, which load their category
through ``category_cli``) and ``model_cli`` (``minimal``, ``minimal-scan``
and ``singvec``), and a command executes only the module that holds its
handler and what that module needs.  A call that names its command first
builds the subparser of that command alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from types import ModuleType
from typing import NoReturn, Sequence

from . import BUILTIN_KEYS, _lazy

# the handler modules, which ``_HANDLERS`` reads, and the six library modules
# that the benchmark's tracing patches: registered here, so that importing
# this module puts them in sys.modules, where a caller can patch them before
# any command runs (``category_cli`` registers the untraced ones it needs)
category_cli = _lazy("category_cli")
smatrix_cli = _lazy("smatrix_cli")
model_cli = _lazy("model_cli")
clifford = _lazy("clifford")
exactnum = _lazy("exactnum")
fusion = _lazy("fusion")
minimal = _lazy("minimal")
spinfunctor = _lazy("spinfunctor")
verma = _lazy("verma")

__all__ = ["main", "run", "build_parser"]

MAX_DIGITS = 17  # a float holds about 17 significant digits


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given a ``command``, the parser of that
    command alone, whose usage still names every command."""
    parser = argparse.ArgumentParser(
        prog="spinmtc",
        description="Exact fermionic fusion-category checks, minimal-model tables, "
        "and Verma-module singular vectors.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the metavar that the full parser derives from its choices
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_HANDLERS) + "}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="table",
                        help="output format (default table)")
    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--numeric", type=int, choices=range(MAX_DIGITS + 1), metavar="DIGITS",
                         default=0, help=f"add floating-point annotations to 0-{MAX_DIGITS} "
                         "significant digits (never authoritative)")

    def cmd(name: str, help_text: str, *extra: argparse.ArgumentParser) -> argparse.ArgumentParser | None:
        if command not in (None, name):
            return None
        return sub.add_parser(name, parents=[common, *extra], help=help_text)

    def cat_cmd(name: str, help_text: str, *extra: argparse.ArgumentParser) -> argparse.ArgumentParser | None:
        if p := cmd(name, help_text, *extra):
            p.add_argument("category", help="category file or builtin key")
        return p

    cat_cmd("validate", "check the fusion-ring axioms")
    cat_cmd("smatrix", "exact s-matrix and its square", numeric)

    if p := cat_cmd("classify", "NS/R label partition and block checks"):
        p.add_argument("--vminus", help="odd generator to use when several qualify")

    if p := cat_cmd("sphere", "spin sphere state-space dimensions"):
        p.add_argument(
            "--labels",
            required=True,
            help="comma-separated puncture labels; commas inside parentheses stay in the label",
        )
        p.add_argument("--vminus", help="odd generator to use when several qualify")

    if p := cat_cmd("torus", "spin torus state-space dimensions"):
        p.add_argument("--vminus", help="odd generator to use when several qualify")

    if p := cmd("minimal", "one minimal-model label table", numeric):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--q", type=int, required=True)

    if p := cmd("minimal-scan", "all models with p*q bounded"):
        p.add_argument("--max-pq", type=int, required=True, metavar="M")

    if p := cmd("singvec", "singular vectors in an NS Verma module", numeric):
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--c", help="central charge as a/b")
        p.add_argument("--h", help="highest weight as a/b")
        p.add_argument("--degree", help="degree as a/b or integer")

    # builtin always writes the file format, which is JSON; it takes --format as
    # every other command does, so that a caller may append "--format json" to any
    if p := cmd("builtin", "emit a builtin category file"):
        p.add_argument("key", choices=BUILTIN_KEYS)

    return parser


# the module of each command's handler, ``_cmd_<command>`` with "-" read as "_"
_HANDLERS: dict[str, ModuleType] = {
    "validate": category_cli,
    "smatrix": smatrix_cli,
    "classify": smatrix_cli,
    "sphere": category_cli,
    "torus": category_cli,
    "minimal": model_cli,
    "minimal-scan": model_cli,
    "singvec": model_cli,
    "builtin": category_cli,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its command first parses with that command's subparser alone
    parser = build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handler = getattr(_HANDLERS[args.command], "_cmd_" + args.command.replace("-", "_"))
        return handler(args)
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
