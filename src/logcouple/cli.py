"""Command-line front end.

Subcommands: evaluate a term or formula, run a checking suite, compute
subspace images and growth reports, emit a discrete witness set below a
given epsilon, and reformat an expression canonically.

``eval`` and ``fmt`` load only ``gamma`` and ``lang``: ``harness``,
``subspace`` and ``json`` load when a command first uses them.

Output is deterministic: identical command lines (seeds included)
produce byte-identical stdout.  Exit codes: 0 = success / all checks
passed; 1 = a suite or growth bound failed, or a formula evaluated to
false under --fail-on-false; 2 = usage, parse, or input errors, or a
stdout closed before all output was written, which are reported on
stderr as one-line diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from typing import Dict, List, Optional, Sequence, Union

from . import gamma, lang
from .gamma import ExtendedElement, GammaElement, Infinity

# harness and subspace load on first use, as attributes of the package object
# this module was imported with: a call-time ``from . import`` would look the
# package up in sys.modules, which may hold another copy of it.
_package = sys.modules[__package__]

SUITES = ("axioms", "successor", "lemma41", "lemma44", "subspace-growth")  # == harness.suite_names()

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

class CliError(Exception):
    """Input problem reported as a one-line diagnostic with exit code 2."""


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
                raise CliError(f"cannot read {path}: not a regular file or a pipe")
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    generators: List[GammaElement] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            element = lang.parse_element(line)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
        if isinstance(element, Infinity):
            raise CliError(f"{path}:{lineno}: inf is not a group element") from None
        generators.append(element)
    return generators


def _emit_json(payload: object) -> None:
    import json

    print(json.dumps(payload, indent=2))


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
        for key, value in report.counterexample.items():
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


def _cmd_eval(args: argparse.Namespace) -> int:
    env: Dict[str, ExtendedElement] = {}
    for binding in args.let:
        name, sep, text = binding.partition("=")
        name = name.strip()
        if not sep:
            raise CliError(f"malformed --let {binding!r}; expected NAME=ELEMENT")
        try:
            parsed_name = lang.parse_any(name)
        except lang.ParseError:
            parsed_name = None
        if parsed_name != lang.Var(name):  # '(x)' also parses to Var('x')
            raise CliError(f"--let name {name!r} is not a variable")
        env[name] = lang.parse_element(text.strip())
    node = lang.parse_any(args.text, strict_llog=args.strict_llog)
    value = lang.evaluate(node, env)
    if args.json:
        kind = "formula" if isinstance(node, lang.FormulaNode) else "term"
        _emit_json(gamma.jsonable({"kind": kind, "input": lang.format_any(node), "result": value}))
    else:
        print(_result_text(value))
    if args.fail_on_false and value is False:
        return EXIT_FAIL
    return EXIT_PASS


def _cmd_check(args: argparse.Namespace) -> int:
    harness = _package.harness
    if args.trials < 0:
        raise CliError("--trials must be nonnegative")
    if args.trials > harness.MAX_TRIALS:
        raise CliError(f"--trials {args.trials} exceeds MAX_TRIALS = {harness.MAX_TRIALS}")
    report = harness.run_suite(args.suite, args.seed, args.trials)
    if args.json:
        _emit_json(gamma.jsonable(report))
    else:
        print(_suite_text(report))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_subspace(args: argparse.Namespace) -> int:
    subspace = _package.subspace
    generators = load_generators(args.gens)
    if args.op == "growth":
        if args.extend is None:
            raise CliError("--op growth requires --extend FILE")
        extra = load_generators(args.extend)
        if not extra:
            raise CliError(f"{args.extend}: growth needs at least one new generator")
        reports = subspace.growth_check(subspace.echelonize(generators), extra)
        ok = all(r.passed for r in reports)
        if args.json:
            _emit_json(gamma.jsonable({"passed": ok, "growth": reports}))
        else:
            print("\n\n".join(_growth_text(r) for r in reports))
        return EXIT_PASS if ok else EXIT_FAIL
    if args.extend is not None:
        generators += load_generators(args.extend)
    space = subspace.echelonize(generators)
    report = space.image(args.op)
    if args.json:
        _emit_json(gamma.jsonable(report))
    else:
        print(_image_text(space, report))
    return EXIT_PASS


def _cmd_witness(args: argparse.Namespace) -> int:
    report = _package.harness.make_witness(lang.parse_element(args.epsilon), args.count)
    if args.json:
        _emit_json(gamma.jsonable(report))
    else:
        print(_witness_text(report))
    return EXIT_PASS


def _cmd_fmt(args: argparse.Namespace) -> int:
    node = lang.parse_any(args.text, strict_llog=args.strict_llog)
    formatted = lang.format_any(node)
    if args.json:
        kind = "formula" if isinstance(node, lang.FormulaNode) else "term"
        try:
            _emit_json({"kind": kind, "formatted": formatted, "ast": lang.to_json(node)})
        except RecursionError:
            raise CliError("expression nested too deeply for JSON output") from None
    else:
        print(formatted)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except (CliError, ValueError) as exc:  # parse, element and domain errors are ValueErrors
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
