"""Replay benchmark commands through ``cli.main`` and check each answer.

``perfbench/workloads.py`` builds seeded ``check``, ``eval``, ``fmt``,
``subspace`` and ``witness`` commands, each with a check of its exit code
and stdout that ``perfbench/oracle.py`` computes without the package's
code.  This runs the first rounds of every workload in-process, and runs
``eval`` and ``fmt --json`` on random oracle ASTs written as noisy text and
inside deep runs of parentheses.
"""

import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import oracle
import pytest
import workloads
from hypothesis import given
from hypothesis import strategies as st

from logcouple import cli, lang

ROUNDS = {"session": 2, "laws": 5, "growth": 5}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_workload_answers_match_the_oracle(workload, seed, tmp_path):
    rounds = workloads.WORKLOADS[workload](seed, str(tmp_path))[: ROUNDS[workload]]
    for op in (op for ops in rounds for op in ops):
        rc, out, _ = run_cli(op.argv)
        assert op.check(rc, out) is None, " ".join(op.argv)[:200]


def _nested(rng, node, k):
    """Text of a formula AST with each operand of ``!``, ``&`` and ``|`` in
    parentheses and the left side of each comparison inside ``k`` more."""
    kind = node[0]
    if kind in ("eq", "lt"):
        left = "(" * k + workloads._noisy(rng, node[1]) + ")" * k
        return f"{left} {'=' if kind == 'eq' else '<'} {workloads._noisy(rng, node[2])}"
    if kind == "not":
        return f"!({_nested(rng, node[1], k)})"
    op = "&" if kind == "and" else "|"
    return f"({_nested(rng, node[1], k)}) {op} ({_nested(rng, node[2], k)})"


def _exact_div(x, n):
    """``oracle.div``, kept exact on the int coefficients of ``oracle.psi_member``
    (``oracle.div`` turns those into floats)."""
    return None if x is None else {i: Fraction(q) / n for i, q in x.items()}


def _depth(text):
    depth = deepest = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


@given(
    st.randoms(use_true_random=False),
    st.booleans(),
    st.integers(0, lang.MAX_NESTING) | st.integers(lang.MAX_NESTING - 16, lang.MAX_NESTING),
    st.integers(0, 3),
)
def test_random_asts_through_the_cli_match_the_oracle(rng, is_formula, k, wraps):
    node = workloads._rand_formula(rng, 3) if is_formula else workloads._rand_term(rng, 4)
    env = {name: None if rng.random() < 0.1 else workloads._element(rng) for name in "xyz"}
    lets = [arg for name, x in env.items() for arg in ("--let", f"{name}={oracle.fmt(x)}")]
    with mock.patch.object(oracle, "div", _exact_div):
        value = oracle.evaluate(node, env)
    evaluated = str(value).lower() if isinstance(value, bool) else oracle.fmt(value)
    formatted = {
        "kind": "formula" if is_formula else "term",
        "formatted": oracle.canonical(node),
        "ast": oracle.to_json(node),
    }
    nested = _nested(rng, node, k) if is_formula else "(" * k + workloads._noisy(rng, node) + ")" * k
    for text in (workloads._noisy(rng, node), "(" * wraps + nested + ")" * wraps):
        eval_run = run_cli(["eval", *lets, "--", text])
        fmt_run = run_cli(["fmt", "--json", "--", text])
        if _depth(text) > lang.MAX_NESTING:
            for rc, out, err in (eval_run, fmt_run):
                assert (rc, out) == (cli.EXIT_USAGE, ""), text
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert "nested deeper than" in err
        else:
            assert eval_run == (cli.EXIT_PASS, evaluated + "\n", ""), text
            assert fmt_run[::2] == (cli.EXIT_PASS, ""), text
            assert json.loads(fmt_run[1]) == formatted, text
