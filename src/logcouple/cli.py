"""Command-line front end.

Subcommands: evaluate a term or formula, run a checking suite, compute
subspace images and growth reports, emit a discrete witness set below a
given epsilon, and reformat an expression canonically.

``eval`` and ``fmt`` load only ``gamma`` and ``lang``: ``harness``,
``subspace`` and ``json`` load when a command first uses them.  A command
line led by a subcommand's exact name goes straight to that subparser.
Every subcommand prints through ``_report``: its text, or its JSON from
``_json_text``, the one JSON writer.  It writes reports and ``fmt``'s AST
nodes as they are, a node as an object that starts with its
``lang.NODE_NAMES`` name.  ``lang.is_variable`` checks ``--let`` names.

Output is deterministic: identical command lines (seeds included)
produce byte-identical stdout.  Exit codes: 0 = success / all checks
passed; 1 = a suite failed, a growth report failed its bound (a program
fault: the bounds are theorems), or a formula evaluated to false under
--fail-on-false; 2 = usage, parse, or input errors, or a stdout closed
before all output was written, each a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from typing import Callable, Dict, List, Optional, Sequence, Union

from . import gamma, lang
from .gamma import ExtendedElement, GammaElement, Infinity, Record

# harness and subspace load on first use, as attributes of the package object
# this module was imported with: a call-time ``from . import`` would look the
# package up in sys.modules, which may hold another copy of it.
_package = sys.modules[__package__]

SUITES = ("axioms", "successor", "lemma41", "lemma44", "subspace-growth")  # == tuple(harness._SUITES)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def load_generators(path: str) -> List[GammaElement]:
    """Read subspace generators: one element per line, in element text.

    Blank lines and lines starting with ``#`` are skipped.  Errors carry
    the offending line number.  ``inf`` is rejected: subspaces contain
    group elements only.  Only a regular file or a pipe is read, so a
    device such as ``/dev/zero`` is an error, not an endless read.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            mode = os.fstat(handle.fileno()).st_mode
            if not (stat.S_ISREG(mode) or stat.S_ISFIFO(mode)):
                raise ValueError(f"cannot read {path}: not a regular file or a pipe")
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    generators: List[GammaElement] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            element = lang.parse_element(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if isinstance(element, Infinity):
            raise ValueError(f"{path}:{lineno}: inf is not a group element") from None
        generators.append(element)
    return generators


def _json_text(value: object) -> str:
    """A report value as the bytes of ``json.dumps(..., indent=2)``: the one JSON writer.

    An element or ``inf`` is element text (a list or tuple of them goes through
    ``format_elements``) and a ``Record`` its fields in ``__slots__`` order, less
    those that are None.  An AST node's object starts with
    ``"node": lang.NODE_NAMES[type(node)]``.  Dict keys are str or int (witness levels).
    Other keys and values raise TypeError, and too deep a value, one frame a level,
    RecursionError.  ``json.dumps`` with an indent costs about three times as much.
    """
    from json.encoder import encode_basestring_ascii as quote  # TypeError on a non-str
    out: List[str] = []

    def write(value: object, indent: str) -> None:
        if isinstance(value, str):
            out.append(quote(value))
        elif isinstance(value, (GammaElement, Infinity)):
            out.append(quote(gamma.format_element(value)))
        elif isinstance(value, (Record, dict)):  # one loop, so one frame a level of the AST
            if isinstance(value, Record):  # an AST node's name first; fields that are None left out
                node = {"node": lang.NODE_NAMES[type(value)]} if type(value) in lang.NODE_NAMES else {}
                value = node | {name: v for name in value.__slots__ if (v := getattr(value, name)) is not None}
            sep, inner = "{\n", indent + "  "
            for key, item in value.items():  # a level is an int key; a bool key is a TypeError
                out.append(f"{sep}{inner}{quote(str(key) if type(key) is int else key)}: ")
                write(item, inner)
                sep = ",\n"
            out.append(f"\n{indent}}}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            if all(isinstance(item, (GammaElement, Infinity)) for item in value):
                value = gamma.format_elements(value)  # along a chain, each new term once
            sep, inner = "[\n", indent + "  "
            for item in value:
                out.append(sep + inner)
                write(item, inner)
                sep = ",\n"
            out.append(f"\n{indent}]" if value else "[]")
        elif value is None or isinstance(value, bool):
            out.append("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(value, "")
    return "".join(out)


def _report(as_json: bool, payload: Callable[[], object], text: Callable[[], str]) -> None:
    """Print ``payload()`` as JSON text, or ``text()``: only one is built."""
    try:
        print(_json_text(payload()) if as_json else text())
    except RecursionError:  # only fmt's AST nests that deep
        raise ValueError("expression nested too deeply for JSON output") from None


# --- report text ------------------------------------------------------------------


def _result_text(value: Union[ExtendedElement, bool]) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return gamma.format_element(value)


def _levels_text(levels: Sequence[int]) -> str:
    return ", ".join(str(k) for k in levels) or "(none)"


def _suite_text(report: harness.SuiteReport) -> str:
    lines = [f"suite: {report.suite}", f"seed: {report.seed}", f"trials: {report.trials}"]
    lines.extend(f"  {key}: {value}" for key, value in report.counters.items())
    if report.passed:
        lines.append("result: PASS")
    else:
        lines.append(f"result: FAIL ({report.failure_count} failures)")
        for f in report.failures:
            lines.append(f"  trial {f.trial} [{f.check}] {f.detail}")
            lines.extend(f"    {key} = {value}" for key, value in f.inputs.items())
    return "\n".join(lines)


def _image_text(space: subspace.Subspace, report: subspace.ImageReport) -> str:
    lines = [
        f"function: {report.function}",
        f"dim: {space.dim}",
        f"levels: {_levels_text(report.levels)}",
    ]
    for level in report.levels:
        lines.append(f"witness {level}: {gamma.format_element(report.witnesses[level])}")
    return "\n".join(lines)


def _growth_text(report: subspace.GrowthReport) -> str:
    lines = [
        f"function: {report.function}",
        f"old levels: {_levels_text(report.old_levels)}",
        f"new levels: {_levels_text(report.new_levels)}",
        f"added levels: {_levels_text(report.added_levels)}",
        f"new generators outside the base: {report.new_generator_count}",
        f"bound: {report.bound}",
        f"passed: {'yes' if report.passed else 'NO'}",
    ]
    if report.counterexample is not None:
        lines.append("counterexample:")
        for key, value in report.counterexample.items():  # printed as Python lists and dicts of text
            if isinstance(value, dict):  # the witnesses, {level: element}
                value = {str(level): gamma.format_element(x) for level, x in value.items()}
            else:  # a basis or the new generators, a tuple of elements
                value = gamma.format_elements(value)
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def _witness_text(report: harness.WitnessReport) -> str:
    lines = [
        f"epsilon: {gamma.format_element(report.epsilon)}",
        f"alpha: {gamma.format_element(report.alpha)} (level {report.alpha_level})",
        f"bound: {gamma.format_element(report.bound)}",
        "prefix:",
    ]
    lines.extend(f"  {text}" for text in gamma.format_elements(report.prefix))
    return "\n".join(lines)


# --- subcommands ------------------------------------------------------------------


def _expression_json(node: lang.Node, **fields: object) -> Dict[str, object]:
    return {"kind": "formula" if isinstance(node, lang.FormulaNode) else "term", **fields}


def _cmd_eval(args: argparse.Namespace) -> int:
    env: Dict[str, ExtendedElement] = {}
    for binding in args.let:
        name, sep, text = binding.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"malformed --let {binding!r}; expected NAME=ELEMENT")
        if not lang.is_variable(name):  # '(x)' parses to Var('x') but is not a name
            raise ValueError(f"--let name {name!r} is not a variable")
        env[name] = lang.parse_element(text.strip())
    node = lang.parse_any(args.text, strict_llog=args.strict_llog)
    value = lang.evaluate(node, env)
    _report(args.json, lambda: _expression_json(node, input=lang.format_any(node), result=value),
            lambda: _result_text(value))
    if args.fail_on_false and value is False:
        return EXIT_FAIL
    return EXIT_PASS


# Most trials one ``check`` runs: minutes of work per suite, not days.
MAX_TRIALS = 10**6


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials {args.trials} exceeds MAX_TRIALS = {MAX_TRIALS}")
    report = _package.harness.run_suite(args.suite, args.seed, args.trials)
    _report(args.json, lambda: report, lambda: _suite_text(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_subspace(args: argparse.Namespace) -> int:
    subspace = _package.subspace
    generators = load_generators(args.gens)
    if args.op == "growth":
        if args.extend is None:
            raise ValueError("--op growth requires --extend FILE")
        extra = load_generators(args.extend)
        if not extra:
            raise ValueError(f"{args.extend}: growth needs at least one new generator")
        reports = subspace.growth_check(subspace.echelonize(generators), extra)
        ok = all(r.passed for r in reports)
        _report(args.json, lambda: {"passed": ok, "growth": reports},
                lambda: "\n\n".join(_growth_text(r) for r in reports))
        return EXIT_PASS if ok else EXIT_FAIL
    if args.extend is not None:
        generators += load_generators(args.extend)
    space = subspace.echelonize(generators)
    report = space.image(args.op)
    _report(args.json, lambda: report, lambda: _image_text(space, report))
    return EXIT_PASS


def _cmd_witness(args: argparse.Namespace) -> int:
    report = _package.harness.make_witness(lang.parse_element(args.epsilon), args.count)
    _report(args.json, lambda: report, lambda: _witness_text(report))
    return EXIT_PASS


def _cmd_fmt(args: argparse.Namespace) -> int:
    node = lang.parse_any(args.text, strict_llog=args.strict_llog)
    formatted = lang.format_any(node)
    _report(args.json, lambda: _expression_json(node, formatted=formatted, ast=node), lambda: formatted)
    return EXIT_PASS


# --- parser wiring ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls of ``main``."""
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="emit JSON instead of text")
    text_opts = argparse.ArgumentParser(add_help=False, parents=[json_opt])
    text_opts.add_argument(
        "--strict-llog",
        action="store_true",
        help="restrict to the base language (no int applications)",
    )

    parser = argparse.ArgumentParser(
        prog="logcouple",
        description="Exact workbench for the logarithmic asymptotic couple.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parser.commands = sub.choices  # name -> subparser, for main's direct dispatch

    p_eval = sub.add_parser(
        "eval", parents=[text_opts], help="evaluate a term or quantifier-free formula"
    )
    p_eval.add_argument("text", help="term or formula, e.g. 'psi(e1) = e0 + e1'")
    p_eval.add_argument(
        "--let",
        action="append",
        default=[],
        metavar="NAME=ELEMENT",
        help="bind a variable (repeatable)",
    )
    p_eval.add_argument(
        "--fail-on-false",
        action="store_true",
        help="exit 1 when a formula evaluates to false",
    )
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", parents=[json_opt], help="run a verification suite")
    p_check.add_argument("suite", choices=SUITES, help="suite name")
    p_check.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    p_check.add_argument(
        "--trials",
        type=int,
        default=10000,
        help="trials per suite (default 10000, the certified configuration)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_sub = sub.add_parser(
        "subspace", parents=[json_opt], help="subspace images and growth reports"
    )
    p_sub.add_argument("--op", required=True, choices=("psi", "s", "p", "growth"))
    p_sub.add_argument("--gens", required=True, metavar="FILE", help="generator file")
    p_sub.add_argument(
        "--extend",
        metavar="FILE",
        help="extra generators (required for --op growth; merged for the image ops)",
    )
    p_sub.set_defaults(func=_cmd_subspace)

    p_wit = sub.add_parser(
        "witness", parents=[json_opt], help="discrete increasing set inside (0, epsilon)"
    )
    p_wit.add_argument("--epsilon", required=True, metavar="ELT", help="upper bound element")
    p_wit.add_argument("--count", required=True, type=int, metavar="N", help="elements to emit")
    p_wit.set_defaults(func=_cmd_witness)

    p_fmt = sub.add_parser("fmt", parents=[text_opts], help="reformat a term or formula")
    p_fmt.add_argument("text", help="term or formula text")
    p_fmt.set_defaults(func=_cmd_fmt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:  # no arguments, -h, "--", or not exactly a command name
            args = parser.parse_args(argv)
        else:  # what parse_args does once the name picks the subparser, minus the top-level pass
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except ValueError as exc:  # parse, element, domain and option errors alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early.  What is still buffered goes to devnull,
        # so flushing it at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
