"""The ``logcouple`` command: golden outputs, exit codes, robustness, determinism.

``tests/data/cli_golden.json`` holds the exact stdout, stderr and exit
code of every command line in ``CORPUS``, run with ``tests/data`` as the
working directory.  Each case must reproduce all three byte for byte.
After an intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_cli.py --record

and review the diff.
"""

from __future__ import annotations

import functools
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logcouple import cli, gamma, harness, lang, subspace

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

CORPUS = [
    # README examples (the check example at a test-sized trial count)
    ["eval", "psi(e1) = e0 + e1"],
    ["eval", "int(e0) + x", "--let", "x=1/2*e1"],
    ["eval", "s(x) < e0", "--let", "x=2*e3", "--fail-on-false"],
    ["fmt", "e0+  e1/2", "--json"],
    ["check", "axioms", "--trials", "300", "--seed", "7"],
    ["subspace", "--op", "s", "--gens", "gens.txt"],
    ["subspace", "--op", "growth", "--gens", "gens.txt", "--extend", "more.txt"],
    ["witness", "--epsilon", "e0", "--count", "3"],
    # every suite, two seeds, text and JSON
    *[
        ["check", suite, "--trials", "300", "--seed", str(seed), *json_flag]
        for suite in cli.SUITES
        for seed in (0, 1)
        for json_flag in ([], ["--json"])
    ],
    # eval: terms
    ["eval", "0"],
    ["eval", "inf"],
    ["eval", "3/2*e0 - 2*e3 + e7"],
    ["eval", "psi(2*e3)"],
    ["eval", "psi(0)"],
    ["eval", "s(2*e0)"],
    ["eval", "s(0)"],
    ["eval", "p(e0 + e1 + e2)"],
    ["eval", "p(e0)"],
    ["eval", "int(e0 + e1 + 3*e2)"],
    ["eval", "e0 + inf"],
    ["eval", "-inf"],
    ["eval", "(e0 - e1) / 3"],
    ["eval", "x / 2 + e0", "--let", "x=2*e3"],
    ["eval", "x + y", "--let", "x=e0", "--let", "y=-e0"],
    ["eval", "x", "--let", "x=inf"],
    ["eval", "psi(e1)", "--json"],
    ["eval", "int(x) - x", "--let", "x=e0 + e2", "--json"],
    # eval: formulas
    ["eval", "e0 < e1"],
    ["eval", "e0 < e1", "--fail-on-false"],
    ["eval", "!e0 < e1"],
    ["eval", "e0 = e0 & e1 < e0"],
    ["eval", "e1 = e0 | e1 < e0"],
    ["eval", "inf = inf"],
    ["eval", "psi(0) = s(inf)"],
    ["eval", "(e0 + e1) = psi(e1)"],
    ["eval", "!(e0 = e0 & e1 = e1) | e0 < inf"],
    ["eval", "e0 = e0 | y = e0"],
    ["eval", "e1 < e0", "--json"],
    ["eval", "e1 < e0", "--json", "--fail-on-false"],
    ["eval", "s(x) < e0", "--let", "x=2*e3", "--json"],
    # eval: errors
    ["eval", "x + e0"],
    ["eval", "e0 = e0 & y = e0"],
    ["eval", "psi("],
    ["eval", "x + ?"],
    ["eval", "x / 0"],
    ["eval", "x =", "--let", "x=e0"],
    ["eval", "forall x (x = x)"],
    ["eval", "int(e0)", "--strict-llog"],
    ["eval", "psi(e0)", "--strict-llog"],
    ["eval", "x", "--let", "x"],
    ["eval", "x", "--let", "2=e0"],
    ["eval", "x", "--let", "x=e0 +"],
    ["eval", "1/0*e0"],
    ["eval", ""],
    # fmt
    ["fmt", "x+y+z"],
    ["fmt", "x + (y + z)"],
    ["fmt", "x - -y"],
    ["fmt", "--x"],
    ["fmt", "(x + y) / 2 / 3"],
    ["fmt", "-(x + y)"],
    ["fmt", "x = y | (y = z & a = b)"],
    ["fmt", "(x = y | y = z) & a = b"],
    ["fmt", "!(x = y & y = z)"],
    ["fmt", "!!x < y"],
    ["fmt", "s(x) / 2", "--json"],
    ["fmt", "x = y & !x < y", "--json"],
    ["fmt", "psi(e1) = e0 + e1", "--json"],
    ["fmt", "-3/2*e4 + inf - 0", "--json"],
    ["fmt", "int(x)", "--strict-llog"],
    ["fmt", "x y"],
    ["fmt", "exists y (x = y)", "--json"],
    # subspace images
    ["subspace", "--op", "psi", "--gens", "gens.txt"],
    ["subspace", "--op", "p", "--gens", "gens.txt"],
    ["subspace", "--op", "s", "--gens", "gens.txt", "--json"],
    ["subspace", "--op", "psi", "--gens", "psi_members.txt", "--json"],
    ["subspace", "--op", "s", "--gens", "psi_members.txt"],
    ["subspace", "--op", "p", "--gens", "psi_members.txt", "--json"],
    ["subspace", "--op", "s", "--gens", "units.txt"],
    ["subspace", "--op", "p", "--gens", "units.txt", "--extend", "low.txt"],
    ["subspace", "--op", "s", "--gens", "mixed.txt", "--json"],
    ["subspace", "--op", "psi", "--gens", "empty.txt"],
    ["subspace", "--op", "s", "--gens", "empty.txt", "--json"],
    # subspace growth: passes, and passes past the closed-subgroup bounds with a counterexample
    ["subspace", "--op", "growth", "--gens", "gens.txt", "--extend", "more.txt", "--json"],
    ["subspace", "--op", "growth", "--gens", "psi_members.txt", "--extend", "mixed.txt"],
    ["subspace", "--op", "growth", "--gens", "units.txt", "--extend", "low.txt"],
    ["subspace", "--op", "growth", "--gens", "units.txt", "--extend", "low.txt", "--json"],
    ["subspace", "--op", "growth", "--gens", "empty.txt", "--extend", "low.txt", "--json"],
    # subspace errors
    ["subspace", "--op", "growth", "--gens", "gens.txt"],
    ["subspace", "--op", "growth", "--gens", "gens.txt", "--extend", "empty.txt"],
    ["subspace", "--op", "s", "--gens", "bad.txt"],
    ["subspace", "--op", "s", "--gens", "inf.txt"],
    ["subspace", "--op", "s", "--gens", "missing.txt"],
    ["subspace", "--op", "log", "--gens", "gens.txt"],
    # witness
    ["witness", "--epsilon", "e0", "--count", "3", "--json"],
    ["witness", "--epsilon", "3/7*e5 - e6", "--count", "4"],
    ["witness", "--epsilon", "2*e5", "--count", "2", "--json"],
    ["witness", "--epsilon", "inf", "--count", "3"],
    ["witness", "--epsilon", "0", "--count", "3"],
    ["witness", "--epsilon", "-e0", "--count", "3"],
    ["witness", "--epsilon", "e0", "--count", "0"],
    ["witness", "--epsilon", "e0 e1", "--count", "2"],
    # usage errors
    [],
    ["nosuch"],
    ["check", "nosuch"],
    ["check", "axioms", "--trials", "-1"],
    ["check", "axioms", "--trials", "many"],
    ["witness", "--count", "3"],
    ["eval"],
    # each subcommand takes only the options it reads
    ["eval", "e0", "--seed", "1"],
    ["check", "axioms", "--trials", "5", "--strict-llog"],
    ["subspace", "--op", "s", "--gens", "gens.txt", "--trials", "3"],
    ["witness", "--epsilon", "e0", "--count", "1", "--strict-llog"],
    ["fmt", "x", "--seed", "2"],
    # dispatch: help, an abbreviated name, "--" before the command, and leftovers after "--"
    ["-h"],
    ["eval", "-h"],
    ["ev", "e0"],
    ["--", "eval", "e0"],
    ["check", "axioms", "--trials", "1", "--json", "--", "x"],
]

# Inputs that once overflowed the recursive parser or evaluator, with the
# exit code each must give now.
DEEP_PSI = "psi(" * 3000 + "x" + ")" * 3000
MANY_NOTS = "!" * 3000 + "e0 = e0"
LONG_SUM = " + ".join(["e0"] * 5000)
# 9000 terms with n/d coefficients on one generator line
LONG_LINE = " + ".join(f"{k % 7 + 1}/{k % 5 + 1}*e{k}" for k in range(9000))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_cli_within(seconds, argv):
    start = time.perf_counter()
    result = run_cli(argv)
    assert time.perf_counter() - start < seconds, f"{' '.join(argv)[:60]} took over {seconds} s"
    return result


@pytest.fixture
def in_data(monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _render(cases) -> str:
    """The golden file's text, as ``--record`` writes it."""
    return json.dumps(cases, indent=1) + "\n"


def test_golden_file_matches_corpus():
    assert [case["argv"] for case in _golden()] == CORPUS
    # byte for byte in the recorder's format: only --record writes the file
    same_bytes = GOLDEN.read_text(encoding="utf-8") == _render(_golden())
    assert same_bytes, f"{GOLDEN.name} differs from what --record writes"


def _case_id(index: int) -> str:
    return f"{index}:{' '.join(CORPUS[index])[:60]}"


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=_case_id)
def test_golden_output(in_data, index):
    case = _golden()[index]
    rc, out, err = run_cli(case["argv"])
    assert (out, err, rc) == (case["stdout"], case["stderr"], case["rc"])


# --- exit-code contract ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,code",
    [
        (["eval", "e0 < e1"], 0),
        (["eval", "e0 < e1", "--fail-on-false"], 1),
        (["subspace", "--op", "growth", "--gens", "units.txt", "--extend", "low.txt"], 0),
        (["check", "lemma41", "--trials", "5"], 0),
        (["eval", "x"], 2),
        (["fmt", "psi("], 2),
        (["subspace", "--op", "s", "--gens", "bad.txt"], 2),
        (["witness", "--epsilon", "0", "--count", "1"], 2),
        (["check"], 2),
    ],
)
def test_exit_codes(in_data, argv, code):
    assert run_cli(argv)[0] == code


def test_a_failed_growth_bound_exits_1_with_its_bundle(in_data, monkeypatch):
    # every span meets its growth bounds, so judge s by the closed-subgroup bound m + 1 alone
    real = subspace.growth_check

    def closed_s_bound(space, new_generators):
        psi, s, p = real(space, new_generators)
        bound = s.new_generator_count + 1
        s = subspace.GrowthReport(*s._fields()[:5], bound, len(s.added_levels) <= bound, s.counterexample)
        return psi, s, p

    monkeypatch.setattr(subspace, "growth_check", closed_s_bound)
    argv = ["subspace", "--op", "growth", "--gens", "units.txt", "--extend", "low.txt"]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (cli.EXIT_FAIL, "")
    assert "added levels: 1, 2, 3, 4\nnew generators outside the base: 1\nbound: 2\npassed: NO\n" in out
    assert "counterexample:\n  old_basis: ['e1', 'e2', 'e3']\n  new_generators: ['e0']\n" in out
    rc, out, err = run_cli(argv + ["--json"])
    payload = json.loads(out)
    assert (rc, err, payload["passed"]) == (cli.EXIT_FAIL, "", False)
    assert list(payload["growth"][1]["counterexample"]) == ["old_basis", "new_generators", "extended_basis", "witnesses"]


_COEFFICIENTS = ("1", "2", "1/3", "-5/2")
_NOT_GENERATORS = ("inf", "e", "e0 +", "1/0*e1", "psi(e0)", "e-1", "e0 + -e1")


@st.composite
def generator_files(draw, most):
    """Text of 1 to ``most`` generators over e0..e5, and whether every line is one;
    one file in five gets a line that is not."""
    lines = []
    for _ in range(draw(st.integers(1, most))):
        terms = draw(st.lists(st.tuples(st.sampled_from(_COEFFICIENTS), st.integers(0, 5)), min_size=1, max_size=3))
        text = " + ".join(f"{c}*e{i}" for c, i in terms)
        lines.append(text.replace("+ -", "- "))
    valid = draw(st.integers(0, 4)) > 0
    if not valid:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_NOT_GENERATORS)))
    return "\n".join(lines) + "\n", valid


@given(generator_files(3), generator_files(2), st.booleans())
def test_random_spans_keep_the_exit_code_contract(base, new, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        gens, more = Path(tmp, "gens.txt"), Path(tmp, "more.txt")
        gens.write_text(base[0])
        more.write_text(new[0])
        for op in ("psi", "s", "p", "growth"):
            argv = ["subspace", "--op", op, "--gens", str(gens), "--extend", str(more)] + ["--json"] * as_json
            rc, out, err = run_cli(argv)
            if base[1] and new[1]:
                assert (rc, err) == (cli.EXIT_PASS, ""), (op, out)
            else:
                assert (rc, out) == (cli.EXIT_USAGE, "")
                assert err.startswith("error: ") and err.count("\n") == 1


# Token soup: the grammar's tokens, the edges of MAX_LEVEL and MAX_NESTING, a
# number past Python's 4300-digit limit on int text, quantifier words, non-ASCII
# letters and digits, and NUL.
_SOUP_TOKENS = st.sampled_from([
    *"()+-*/!&|=<", "0", "1", "2", "3", "e0", "e1", "e3", "x", "y", "inf", *lang.FUNCTIONS,
    "e9999", "e10000", "(" * 128, "(" * 129, "9" * 4301, "forall", "exists", "é", "٣", "😀", "\x00",
])
_SOUP = st.lists(st.tuples(_SOUP_TOKENS, st.sampled_from(["", " "])), max_size=30).map(
    lambda pairs: "".join(token + sep for token, sep in pairs)
)
# Grammar-shaped text, which reaches the maps and the kernel past the parser:
# psi(e10000) has 10001 terms, and e10001 is one level past MAX_LEVEL.  The
# cap's edges also come as coefficient literals, which lex as one token.
_CAP_ATOMS = st.sampled_from(["e9999", "e10000", "e10001", "psi(e10000)", "2*e10000", "1/2*e10001", "psi(3*e10000)"])
_ATOMS = st.sampled_from(["e0", "0", "inf", "x", "e3", "2*e1", "1/3*e2"]) | _CAP_ATOMS
_TERMS = st.recursive(
    _ATOMS,
    lambda term: st.one_of(
        st.tuples(st.sampled_from(lang.FUNCTIONS), term).map(lambda pair: "{}({})".format(*pair)),
        st.tuples(term, st.sampled_from([" + ", " - "]), term).map("".join),
        st.tuples(term, st.sampled_from(["0", "1", "2"])).map(lambda pair: "({}) / {}".format(*pair)),
        term.map("-{}".format),
    ),
    max_leaves=6,
)
_FORMULAS = st.recursive(
    st.tuples(_TERMS, st.sampled_from([" = ", " < "]), _TERMS).map("".join),
    lambda formula: formula.map("!({})".format)
    | st.tuples(formula, st.sampled_from([" & ", " | "]), formula).map(lambda t: "({}){}({})".format(*t)),
    max_leaves=3,
)


# A run of 2-6 signed literals and basis vectors, which lex as one token per
# term: low terms, or terms at the cap's edge, where s(psi(run)) and an epsilon
# run reach it; a bare run may hold a zero denominator.
def _runs(*terms):
    signed = st.tuples(st.sampled_from(["", "-"]), st.sampled_from(terms))
    return st.lists(signed, min_size=2, max_size=6).map(
        lambda run: " + ".join(sign + term for sign, term in run).replace("+ -", "- ")
    )


_CAP_RUNS = _runs("e10001", "2*e10000", "1/2*e10001")
_RUNS = _runs("e0", "e3", "2*e1", "1/3*e2", "1/0*e3") | _runs("e10000", "e10001", "2*e10000", "1/2*e10001", "1/0*e3")
_TEXTS = _SOUP | _TERMS | _FORMULAS | _RUNS | _CAP_RUNS.map("psi({})".format) | _CAP_RUNS.map("s(psi({}))".format)
# One to three maps of a cap-edge atom.  About half of them take eval past
# MAX_LEVEL, such as psi(e10001) and s(psi(e10000)); the rest stay at or under
# it, such as s(psi(e9999)), which is psi(e10000).
_CAP_TEXTS = st.tuples(st.sampled_from(["psi({})", "s(psi({}))", "s(s(psi({})))"]), _CAP_ATOMS).map(
    lambda pair: pair[0].format(pair[1])
)
# Element text (--epsilon, --let) is an atom or a run as often as not, so that some of it reads.
_ELEMENT_TEXTS = _ATOMS | _RUNS | _CAP_RUNS | _TEXTS


@st.composite
def text_commands(draw):
    """argv of ``eval``, ``fmt`` or ``witness`` over a drawn text.

    Half of the ``eval`` and ``witness`` draws are at the edge of MAX_LEVEL: a
    ``_CAP_TEXTS`` text, or a cap-edge epsilon such as e10000 with a valid count.
    A boolean picks them, since ``st.one_of`` flattens nested branches and would
    give ``_CAP_ATOMS | _ELEMENT_TEXTS`` one branch in a dozen.
    """
    command = draw(st.sampled_from(["eval", "fmt", "witness"]))
    edge = command != "fmt" and draw(st.booleans())
    if command == "witness":  # never a count of 1000, whose prefix prints about 500k terms
        epsilon = draw(_CAP_ATOMS if edge else _ELEMENT_TEXTS)
        count = draw(st.sampled_from([1, 3] if edge else [-1, 0, 1, 3, 1001]))
        return ["witness", "--epsilon", epsilon, "--count", str(count)] + ["--json"] * draw(st.booleans())
    argv = [command, draw(_CAP_TEXTS if edge else _TEXTS)] + ["--json"] * draw(st.booleans())
    if command == "eval":
        argv += ["--let", "x=" + draw(_ELEMENT_TEXTS)] * draw(st.booleans())
        argv += ["--fail-on-false"] * draw(st.booleans())
    return argv


@given(text_commands())
@example(["eval", "s(psi(e10000))"])
@example(["witness", "--epsilon", "e10000", "--count", "1"])
@example(["eval", "(" * 129 + "e0" + ")" * 129])
def test_text_commands_keep_the_exit_code_contract(argv):
    rc, out, err = run_cli(argv)
    assert rc in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_USAGE)
    if rc == cli.EXIT_USAGE:
        assert out == ""
        # one diagnostic line, or argparse's usage text (a text led by '-' reads as an option)
        assert (err.startswith("error: ") and err.count("\n") == 1) or err.startswith("usage: ")
    else:
        assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "x"],
        ["eval", "psi("],
        ["subspace", "--op", "s", "--gens", "missing.txt"],
        ["witness", "--epsilon", "inf", "--count", "1"],
    ],
)
def test_input_errors_are_one_stderr_line(in_data, argv):
    rc, out, err = run_cli(argv)
    assert rc == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_or_short_circuits_past_unbound_variable():
    assert run_cli(["eval", "e0 = e0 | y = e0"]) == (cli.EXIT_PASS, "true\n", "")
    rc, out, err = run_cli(["eval", "e0 = e0 & y = e0"])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert "unbound variable 'y'" in err


@pytest.mark.parametrize(
    "argv, value",
    [
        # inf absorbs addition, negation and division
        (["eval", "e1 - x / 3", "--let", "x=inf"], "inf"),
        # the comparisons order inf on top, and scaling keeps it
        (["eval", "e5 < inf & !(inf < inf)"], "true"),
        (["eval", "x / 2 = inf", "--let", "x=inf"], "true"),
        (["eval", "3/2*e0 / 3 = 1/2*e0"], "true"),
        # element text reads like the term language: spaces inside a coefficient
        (["eval", "x", "--let", "x=3 / 2*e0"], "3/2*e0"),
    ],
    ids=["inf-absorbs", "inf-on-top", "inf-halved", "scaled-order", "spaced-coefficient"],
)
def test_inf_and_element_text_evaluate(argv, value):
    assert run_cli(argv) == (cli.EXIT_PASS, value + "\n", "")


def test_let_bindings_do_not_leak_into_the_next_call():
    assert run_cli(["eval", "x", "--let", "x=e0"]) == (cli.EXIT_PASS, "e0\n", "")
    assert run_cli(["eval", "x"]) == (cli.EXIT_USAGE, "", "error: unbound variable 'x'\n")


@pytest.mark.parametrize(
    "name", ["(x)", "((x))", "2", "e0", "psi(x)", "x y", "inf", "psi", "forall", "e1", "é", ""]
)
def test_let_name_must_be_a_bare_variable(name):
    # '(x)' parses to Var('x') too, but would bind the key '(x)', never 'x'.
    assert run_cli(["eval", "x", "--let", f"{name}=e0"]) == (
        cli.EXIT_USAGE,
        "",
        f"error: --let name {name!r} is not a variable\n",
    )
    assert run_cli(["eval", "x", "--let", " x =e0"]) == (cli.EXIT_PASS, "e0\n", "")


@pytest.mark.parametrize("name", ["e1x", "x_1", "_"])
def test_let_name_may_look_like_a_keyword_or_index(name):
    assert run_cli(["eval", name, "--let", f"{name}=e0"]) == (cli.EXIT_PASS, "e0\n", "")


def test_a_negated_term_follows_double_dash():
    # argparse reads a lone "-e0" as an option; "--" ends the options.
    assert run_cli(["eval", "--", "-e0"]) == (cli.EXIT_PASS, "-e0\n", "")


# --- inputs that must not crash -----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["eval", DEEP_PSI, "--let", "x=e1"], ["fmt", DEEP_PSI], ["fmt", DEEP_PSI, "--json"]],
    ids=["eval", "fmt", "fmt --json"],
)
def test_deep_nesting_is_a_parse_error(argv):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert "nested deeper than" in err and err.count("\n") == 1


def test_nesting_up_to_the_cap_parses(monkeypatch):
    depth = lang.MAX_NESTING
    assert run_cli(["eval", "psi(" * depth + "e3" + ")" * depth]) == (cli.EXIT_PASS, "e0\n", "")
    text = "(" * depth + "e0 = e0" + ")" * depth
    assert run_cli(["eval", text]) == (cli.EXIT_PASS, "true\n", "")
    # 450 atoms of 127 parentheses around e0, joined by '&' (118,797 bytes): the
    # lexer marks grouped formulas, so each '(' is read once and this is linear
    big = " & ".join(["(" * 127 + "e0" + ")" * 127 + " = e0"] * 450)
    assert run_cli_within(10, ["eval", big]) == (cli.EXIT_PASS, "true\n", "")
    # the last atom without its right-hand side is one parse error
    rc, out, err = run_cli_within(10, ["eval", big.removesuffix(" e0")])
    assert (rc, out) == (cli.EXIT_USAGE, "") and err.count("\n") == 1
    # A work bound that holds on any machine: at most one atom per token (129 a
    # group, 258 tokens), where a reader that backtracks from each '(' reads
    # about 127**2 / 2 atoms a group
    atoms = []
    atom = lang._Parser.atom
    monkeypatch.setattr(lang._Parser, "atom", lambda self: atoms.append(self.i) or atom(self))
    lang.parse_any(big)
    assert len(atoms) <= len(lang._lex(big)), f"{len(atoms)} atoms for 450 groups"


def test_long_negation_chain_evaluates():
    assert run_cli(["eval", MANY_NOTS]) == (cli.EXIT_PASS, "true\n", "")
    assert run_cli(["eval", "!" + MANY_NOTS]) == (cli.EXIT_PASS, "false\n", "")
    rc, out, _ = run_cli(["fmt", MANY_NOTS])
    assert (rc, out) == (cli.EXIT_PASS, MANY_NOTS + "\n")


def test_long_sum_evaluates():
    assert run_cli(["eval", LONG_SUM]) == (cli.EXIT_PASS, "5000*e0\n", "")
    rc, out, _ = run_cli(["fmt", LONG_SUM])
    assert (rc, out) == (cli.EXIT_PASS, LONG_SUM + "\n")
    # a 5000-term mixed-coefficient sum is added once; its value comes from fractions
    terms, value = [], {}
    for k in range(5000):
        i, q, sign = k * 13 % 41, Fraction(k % 7 + 1, k % 5 + 1), -1 if k % 2 else 1
        value[i] = value.get(i, 0) + sign * q
        terms.append(("" if k == 0 else " - " if sign < 0 else " + ") + f"{q}*e{i}")
    want = "".join(
        (" - " if c < 0 else " + ") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"e{i}"
        for i, c in sorted(value.items())
        if c
    )
    want = want[3:] if want[1] == "+" else "-" + want[3:]
    assert run_cli_within(10, ["eval", "".join(terms)]) == (cli.EXIT_PASS, want + "\n", "")


@pytest.mark.parametrize("text", [MANY_NOTS, LONG_SUM], ids=["not-chain", "long-sum"])
def test_fmt_json_of_a_very_deep_tree_exits_2(text):
    rc, out, err = run_cli(["fmt", text, "--json"])
    assert (rc, out, err) == (cli.EXIT_USAGE, "", "error: expression nested too deeply for JSON output\n")


def test_fmt_json_of_an_800_deep_tree_prints():
    # the writer spends one frame a level of the AST; at two, 800 levels overflow
    rc, out, err = run_cli(["fmt", "!" * 800 + "x = y", "--json"])
    assert (rc, err) == (cli.EXIT_PASS, "")
    payload = json.loads(out)["ast"]
    for _ in range(800):
        assert payload["node"] == "not"
        payload = payload["operand"]
    assert payload["node"] == "eq" and out.count('"operand"') == 800


def test_long_witness_prints_every_prefix_element():
    # the prefix is a chain of partial sums, formatted incrementally
    argv = ["witness", "--epsilon", "3/4*e5 - e9", "--count", "1000"]
    prefix = harness.make_witness(lang.parse_element(argv[2]), 1000).prefix
    want = [gamma.format_element(x) for x in prefix]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (cli.EXIT_PASS, "")
    assert out.splitlines()[4:] == [f"  {text}" for text in want]
    rc, out, err = run_cli(argv + ["--json"])
    assert (rc, err) == (cli.EXIT_PASS, "")
    assert json.loads(out)["prefix"] == want
    # below e0 each element's text extends the previous one's, so the 1000th
    # has 1000 terms; formatting stays linear beyond the output bytes
    start = time.perf_counter()
    rc, out, err = run_cli(["witness", "--epsilon", "e0", "--count", "1000", "--json"])
    assert time.perf_counter() - start < 10
    assert (rc, err) == (cli.EXIT_PASS, "")
    # a bool, so that a failure does not make pytest diff two 4 MB strings
    same_bytes = out == json.dumps(json.loads(out), indent=2) + "\n"
    assert same_bytes, "witness --json differs from what json.dumps(indent=2) writes"
    prefix = json.loads(out)["prefix"]
    assert len(prefix) == 1000 and prefix[-1].count("e") == 1000


# Every plain value shape that reports and AST nodes hold, with text over all
# of Unicode (surrogates, quotes, backslashes and controls included).  Tuples are
# written as lists and int keys as text, as json.dumps writes them.
_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(['"', "\\", "\x00\n\t\x1f\x7f", "é", "\u2028", "😀"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT | st.integers(), inner, max_size=4),
    max_leaves=24,
)


@given(_JSON_VALUES)
@example({"": [], "a": {}, "b": [True, 1, False, 0, None, -7, 2**70], "c": [[], {}, [{}]]})
@example([])
@example({})
@example({-2**70: (), "1": None, 1: [(None,)]})
def test_json_writer_prints_what_json_dumps_prints(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


# Reports hold tuples and key witnesses by int level, so the writer takes both.
@pytest.mark.parametrize("value", [(1,), {1: "a"}], ids=repr)
def test_json_writer_takes_tuples_and_int_keys(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(3, 2), {"a": {None: 1}}, [b"x"], {1, 2}, {True: 1}, [{"a": {False: 1}}]], ids=repr)
def test_json_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_json_writer_rules():
    class Report(gamma.Record):
        __slots__ = ("level", "value", "ratio", "by_level", "note")

    report = Report(3, (gamma.unit(0) + gamma.unit(2), gamma.INF), "3/2", {1: gamma.ZERO, 0: True}, None)
    want = {"level": 3, "value": ["e0 + e2", "inf"], "ratio": "3/2", "by_level": {"1": "0", "0": True}}
    # fields in __slots__ order, less the None note; element lists through format_elements
    assert cli._json_text(report) == json.dumps(want, indent=2)
    assert cli._json_text([gamma.unit(1), 3, (gamma.INF,)]) == json.dumps(["e1", 3, ["inf"]], indent=2)
    assert cli._json_text(Report(None, None, None, None, None)) == "{}"
    with pytest.raises(TypeError):
        Report(3, None, None, None)


# An AST node is written as it is: "node" names its kind, then its fields in order.


def test_term_json_shape():
    payload = json.loads(cli._json_text(lang.parse_any("s(x) / 2")))
    assert payload == {
        "node": "divide",
        "operand": {"node": "apply", "func": "s", "operand": {"node": "var", "name": "x"}},
        "divisor": 2,
    }


def test_formula_json_shape():
    payload = json.loads(cli._json_text(lang.parse_any("x = y & !x < y")))
    assert payload["node"] == "and"
    assert payload["right"]["node"] == "not"
    assert payload["left"] == {
        "node": "eq",
        "left": {"node": "var", "name": "x"},
        "right": {"node": "var", "name": "y"},
    }


def test_literal_json_shape():
    payload = json.loads(cli._json_text(lang.parse_any("psi(e1) = e0 + e1")))
    assert payload["node"] == "eq"
    assert payload["left"] == {
        "node": "apply",
        "func": "psi",
        "operand": {"node": "literal", "value": "e1"},
    }


# --- work bounded by documented caps ------------------------------------------------


def test_psi_up_to_max_level_evaluates():
    rc, out, err = run_cli(["eval", f"psi(e{gamma.MAX_LEVEL})"])
    assert (rc, err) == (cli.EXIT_PASS, "")
    assert out.endswith(f" + e{gamma.MAX_LEVEL}\n")


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["eval", f"psi(e{gamma.MAX_LEVEL + 1})"], "MAX_LEVEL"),
        (["eval", "psi(e9999999)"], "MAX_LEVEL"),
        (["witness", "--epsilon", "e9999999", "--count", "1"], "MAX_LEVEL"),
        (["witness", "--epsilon", "e0", "--count", str(harness.MAX_WITNESS_COUNT + 1)], "MAX_WITNESS_COUNT"),
        (["witness", "--epsilon", "e0", "--count", "100000000"], "MAX_WITNESS_COUNT"),
        (["check", "axioms", "--trials", str(cli.MAX_TRIALS + 1)], "MAX_TRIALS"),
        # Python's limit on int text (4300 digits by default) caps a coefficient's size
        (["eval", "e0" + " / 99999999999999999999" * 230], "Exceeds the limit (4300 digits)"),
    ],
    ids=[
        "psi-past-cap", "psi-huge", "witness-huge-epsilon", "count-past-cap", "count-huge",
        "trials-past-cap",
        "coefficient-past-int-text-limit",
    ],
)
def test_caps_exit_2_with_one_line(argv, cap):
    rc, out, err = run_cli(argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cap in err


@pytest.mark.parametrize(
    "content, message",
    [
        ("e0\ne²\n".encode(), "{}:2: expected basis index digits (at position 1)"),
        # a coefficient past Python's limit on int text (4300 digits by default)
        (b"e0\n" + b"7" * 5000 + b"*e1\n", "{}:2: Exceeds the limit"),
        (b"e0\n\xff\n", "cannot read {}: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["superscript-index", "huge-coefficient", "not-utf8"],
)
def test_generator_file_errors_name_the_file(tmp_path, content, message):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    argv = ["subspace", "--op", "growth", "--gens", str(DATA / "gens.txt"), "--extend", str(bad)]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: " + message.format(bad)) and err.count("\n") == 1


@pytest.mark.parametrize("op", ["p", "growth"])
def test_one_far_generator_is_cheap(tmp_path, op):
    # the p-image scan stops at index 0, which no basis row touches
    gens = tmp_path / "far.txt"
    gens.write_text("e100000\n")
    more = tmp_path / "more.txt"
    more.write_text("e500\n")
    argv = ["subspace", "--op", op, "--gens", str(gens), "--extend", str(more), "--json"]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (cli.EXIT_PASS, "")
    payload = json.loads(out)
    if op == "p":
        assert payload["levels"] == []
    else:
        psi, _, p = payload["growth"]
        assert psi["new_levels"] == [500, 100000]
        assert p["new_levels"] == []


def test_a_long_generator_line_is_read_in_one_pass(tmp_path):
    gens = tmp_path / "line.txt"
    gens.write_text(LONG_LINE + "\n")
    rc, _, err = run_cli_within(10, ["subspace", "--op", "s", "--gens", str(gens)])
    assert (rc, err) == (cli.EXIT_PASS, "")


@pytest.mark.parametrize("op, count, levels", [("s", 200, 201), ("p", 400, 399)])
def test_large_unit_spans(tmp_path, op, count, levels):
    # every index is a pivot, so each level adds one row to the running sum
    # that both images read, instead of re-solving from scratch
    gens = tmp_path / f"e{count}.txt"
    gens.write_text("".join(f"e{i}\n" for i in range(count)))
    rc, out, err = run_cli_within(30, ["subspace", "--op", op, "--gens", str(gens), "--json"])
    assert (rc, err) == (cli.EXIT_PASS, "")
    payload = json.loads(out)
    assert payload["levels"] == list(range(levels))
    apply = gamma.successor if op == "s" else gamma.predecessor
    for level, text in payload["witnesses"].items():
        assert apply(lang.parse_element(text)) == gamma.psi_element(int(level))


def test_large_unit_span_growth(tmp_path):
    gens, more = tmp_path / "e200.txt", tmp_path / "e400.txt"
    gens.write_text("".join(f"e{i}\n" for i in range(200)))
    more.write_text("".join(f"e{i}\n" for i in range(400)))
    argv = ["subspace", "--op", "growth", "--gens", str(gens), "--extend", str(more)]
    assert run_cli_within(30, argv)[0] == cli.EXIT_PASS


@pytest.mark.parametrize("op", ["psi", "s"])
def test_unit_span_order_does_not_change_the_output(tmp_path, op):
    # e0..e1999 in forward, reversed and shuffled order span one subspace, whose
    # echelon form is canonical, so the image prints the same bytes
    units = [f"e{k}" for k in range(2000)]
    shuffled = units[:]
    random.Random(0).shuffle(shuffled)
    outputs = []
    for order, lines in (("fwd", units), ("rev", units[::-1]), ("shuf", shuffled)):
        gens = tmp_path / f"units-{order}.txt"
        gens.write_text("\n".join(lines) + "\n")
        rc, out, err = run_cli_within(30, ["subspace", "--op", op, "--json", "--gens", str(gens)])
        assert (rc, err) == (cli.EXIT_PASS, "")
        outputs.append(out)
    # a bool, so that a failure does not make pytest diff outputs of up to 14 MB
    same_bytes = outputs[0] == outputs[1] == outputs[2]
    assert same_bytes, f"--op {op} prints different bytes for different generator orders"


def _run_child(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("flag", ["--gens", "--extend"])
def test_a_device_is_not_a_generator_file(flag):
    # /dev/zero is one endless line; it is refused, not read until memory runs out
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    files = ["--gens", "/dev/zero"] if flag == "--gens" else ["--gens", str(DATA / "gens.txt"), "--extend", "/dev/zero"]
    argv = [sys.executable, "-m", "logcouple.cli", "subspace", "--op", "growth", *files]
    # a child that reads anyway fails fast on 1 GiB of address space
    proc = _run_child(argv, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
    assert proc.stderr == "error: cannot read /dev/zero: not a regular file or a pipe\n"


def test_generators_can_come_from_a_pipe(tmp_path):
    if not os.path.exists("/dev/stdin"):
        pytest.skip("no /dev/stdin")
    text = "e0 + 2*e3\n# a comment\n\ne1\n"
    gens = tmp_path / "gens.txt"
    gens.write_text(text)
    argv = ["subspace", "--op", "s", "--gens"]
    proc = _run_child([sys.executable, "-m", "logcouple.cli", *argv, "/dev/stdin"], input=text)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli([*argv, str(gens)])


# The child runs one command through cli.main, then writes to stderr the
# modules that importing the package and running the command loaded.
_LOADED = """
import sys
before = set(sys.modules)
from logcouple import cli
cli.main(sys.argv[1:])
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""
_EVAL_SET = ["logcouple", "logcouple.cli", "logcouple.gamma", "logcouple.lang"]


@pytest.mark.parametrize(
    "argv, package, loaded, not_loaded",
    [
        (["eval", "psi(e1) = e0 + e1"], _EVAL_SET, [], ["dataclasses", "json"]),
        (["fmt", "e0+  e1/2"], _EVAL_SET, [], ["dataclasses", "json"]),
        (["fmt", "e0+  e1/2", "--json"], None, ["json"], []),
        (["check", "axioms", "--trials", "1"], None, ["logcouple.harness"], ["dataclasses", "inspect"]),
        (["witness", "--epsilon", "e0", "--count", "2"], None, ["logcouple.harness"], ["dataclasses", "inspect"]),
        (
            ["subspace", "--op", "s", "--gens", str(DATA / "gens.txt")],
            None, ["logcouple.subspace"], ["dataclasses", "inspect", "logcouple.harness"],
        ),
    ],
    ids=["eval", "fmt", "fmt-json", "check", "witness", "subspace"],
)
def test_a_command_loads_only_what_it_uses(argv, package, loaded, not_loaded):
    proc = _run_child([sys.executable, "-c", _LOADED, *argv])
    modules = proc.stderr.splitlines()[-1].split()
    if package is not None:
        assert [m for m in modules if m.split(".")[0] == "logcouple"] == package
    assert set(loaded) <= set(modules)
    assert not set(not_loaded) & set(modules)


# A second copy of the package, loaded as perfbench's traced run loads one:
# each module before the modules that use it, then sys.modules restored.  The
# copy's cli must run the copy's harness, which a call-time ``from . import``
# would miss: it finds the first copy through sys.modules.
_SECOND_COPY = """
import importlib, sys
import logcouple.cli
plain = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "logcouple"}
for name in plain:
    del sys.modules[name]
harness = importlib.import_module("logcouple.harness")
cli = importlib.import_module("logcouple.cli")
for name in [k for k in sys.modules if k.split(".")[0] == "logcouple"]:
    del sys.modules[name]
sys.modules.update(plain)
calls = []
run_suite = harness.run_suite
harness.run_suite = lambda *args: calls.append(args) or run_suite(*args)
print(cli.main(["check", "axioms", "--trials", "1"]), len(calls), file=sys.stderr)
"""


def test_a_second_copy_of_the_package_runs_its_own_harness():
    proc = _run_child([sys.executable, "-c", _SECOND_COPY])
    assert proc.stderr.split() == ["0", "1"], proc.stderr


# --- determinism --------------------------------------------------------------------


def test_repeated_runs_are_identical(in_data):
    for argv in (
        ["check", "lemma44", "--trials", "40", "--json"],
        ["subspace", "--op", "growth", "--gens", "units.txt", "--extend", "low.txt", "--json"],
        ["fmt", "x = y & !x < y", "--json"],
    ):
        assert run_cli(argv) == run_cli(argv)


def test_output_is_independent_of_hash_seed():
    argv = [sys.executable, "-m", "logcouple.cli", "check", "lemma44", "--trials", "40", "--json"]
    src = str(Path(__file__).parents[1] / "src")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("command", ["witness", "subspace"])
def test_a_reader_closing_stdout_early_gets_one_error_line(tmp_path, command):
    # Both outputs are far larger than a pipe's buffer, so the writer is still
    # writing when the reader goes.
    if command == "witness":
        argv = ["witness", "--epsilon", "e0", "--count", "1000"]
    else:
        gens = tmp_path / "line.txt"
        gens.write_text(LONG_LINE + "\n")
        argv = ["subspace", "--op", "s", "--gens", str(gens)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "logcouple.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    err = err.decode()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert proc.returncode == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# The child runs one command through cli.main, then writes to stderr the exit
# code and its own peak RSS in KiB.  That is VmHWM, the high-water mark of the
# child's own memory map.  Linux's ru_maxrss also keeps, across exec, that of
# the map the child was forked or vforked from, so a child of pytest would read
# at least pytest's resident size.
_PEAK_RSS = """
import sys
from logcouple import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak, file=sys.stderr)
"""


def _run_measured(argv, timeout=120):
    """The stdout and the peak RSS in KiB of one command run in a child."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-c", _PEAK_RSS, *argv]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=timeout)
    code, kib = map(int, proc.stderr.splitlines()[-1].split())
    assert code == 0, proc.stderr
    return proc.stdout, kib


@pytest.mark.parametrize("shape", ["distinct", "repeated"])
def test_a_sum_keeps_one_running_total_not_its_operands(shape):
    # 200 dense operands hold millions of terms between them; the sum holds
    # one numerator per index, so its peak RSS is that of 50 operands.
    def argv(n):
        if shape == "distinct":  # psi(e9000) + ... : n members of 9000+ ones each
            return ["eval", "+".join(f"psi(e{9000 + k})" for k in range(n))]
        dense = "+".join(f"e{k}" for k in range(10000))
        return ["eval", "+".join(["x"] * n), "--let", f"x={dense}"]

    (_, small), (_, large) = _run_measured(argv(50)), _run_measured(argv(200))
    assert large - small < 10 * 1024, f"peak RSS {small} KiB at n = 50, {large} KiB at n = 200"
    if shape == "distinct":
        # psi(e9000) + ... + psi(e9999) (10,999 bytes) has about 9.5 million
        # terms in its operands; coefficient i of the total is min(1000, 10000 - i)
        out, kib = _run_measured(argv(1000), timeout=10)
        coefficients = ((i, min(1000, 10000 - i)) for i in range(10000))
        want = " + ".join(f"e{i}" if c == 1 else f"{c}*e{i}" for i, c in coefficients)
        same_bytes = out == want + "\n"
        assert same_bytes, "the 1000-operand sum prints a wrong total"
        assert kib < 48 * 1024, f"peak RSS {kib} KiB for 1000 operands"


def _record() -> None:
    os.chdir(DATA)
    os.environ["COLUMNS"] = "80"
    cases = []
    for argv in CORPUS:
        rc, out, err = run_cli(argv)
        cases.append({"argv": argv, "rc": rc, "stdout": out, "stderr": err})
    GOLDEN.write_text(_render(cases), encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
