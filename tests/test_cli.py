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
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from logcouple import cli, gamma, harness, lang

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
SUITES = ("axioms", "successor", "lemma41", "lemma44", "subspace-growth")

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
        for suite in SUITES
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
    # subspace growth: passes, and a failure with a counterexample
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
]

# Inputs that once overflowed the recursive parser or evaluator, with the
# exit code each must give now.
DEEP_PSI = "psi(" * 3000 + "x" + ")" * 3000
MANY_NOTS = "!" * 3000 + "e0 = e0"
LONG_SUM = " + ".join(["e0"] * 5000)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def in_data(monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_matches_corpus():
    assert [case["argv"] for case in _golden()] == CORPUS


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
        (["subspace", "--op", "growth", "--gens", "units.txt", "--extend", "low.txt"], 1),
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


def test_let_bindings_do_not_leak_into_the_next_call():
    assert run_cli(["eval", "x", "--let", "x=e0"]) == (cli.EXIT_PASS, "e0\n", "")
    assert run_cli(["eval", "x"]) == (cli.EXIT_USAGE, "", "error: unbound variable 'x'\n")


@pytest.mark.parametrize("name", ["(x)", "((x))", "2", "e0", "psi(x)", "x y"])
def test_let_name_must_be_a_bare_variable(name):
    # '(x)' parses to Var('x') too, but would bind the key '(x)', never 'x'.
    assert run_cli(["eval", "x", "--let", f"{name}=e0"]) == (
        cli.EXIT_USAGE,
        "",
        f"error: --let name {name!r} is not a variable\n",
    )
    assert run_cli(["eval", "x", "--let", " x =e0"]) == (cli.EXIT_PASS, "e0\n", "")


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


def test_nesting_up_to_the_cap_parses():
    depth = lang.MAX_NESTING
    assert run_cli(["eval", "psi(" * depth + "e3" + ")" * depth]) == (cli.EXIT_PASS, "e0\n", "")
    text = "(" * depth + "e0 = e0" + ")" * depth
    assert run_cli(["eval", text]) == (cli.EXIT_PASS, "true\n", "")


def test_long_negation_chain_evaluates():
    assert run_cli(["eval", MANY_NOTS]) == (cli.EXIT_PASS, "true\n", "")
    assert run_cli(["eval", "!" + MANY_NOTS]) == (cli.EXIT_PASS, "false\n", "")
    rc, out, _ = run_cli(["fmt", MANY_NOTS])
    assert (rc, out) == (cli.EXIT_PASS, MANY_NOTS + "\n")


def test_long_sum_evaluates():
    assert run_cli(["eval", LONG_SUM]) == (cli.EXIT_PASS, "5000*e0\n", "")
    rc, out, _ = run_cli(["fmt", LONG_SUM])
    assert (rc, out) == (cli.EXIT_PASS, LONG_SUM + "\n")


@pytest.mark.parametrize("text", [MANY_NOTS, LONG_SUM], ids=["not-chain", "long-sum"])
def test_fmt_json_of_a_very_deep_tree_exits_2(text):
    rc, out, err = run_cli(["fmt", text, "--json"])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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
        (["check", "axioms", "--trials", str(harness.MAX_TRIALS + 1)], "MAX_TRIALS"),
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


@pytest.mark.parametrize("op, count, levels", [("s", 200, 201), ("p", 400, 399)])
def test_large_unit_spans(tmp_path, op, count, levels):
    # every index is a pivot, so each level adds one row to the running sum
    # that both images read, instead of re-solving from scratch
    gens = tmp_path / f"e{count}.txt"
    gens.write_text("".join(f"e{i}\n" for i in range(count)))
    rc, out, err = run_cli(["subspace", "--op", op, "--gens", str(gens), "--json"])
    assert (rc, err) == (cli.EXIT_PASS, "")
    payload = json.loads(out)
    assert payload["levels"] == list(range(levels))
    apply = gamma.successor if op == "s" else gamma.predecessor
    for level, text in payload["witnesses"].items():
        assert apply(lang.parse_element(text)) == gamma.psi_element(int(level))


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
        (["check", "axioms", "--trials", "1"], None, ["logcouple.harness"], []),
    ],
    ids=["eval", "fmt", "fmt-json", "check"],
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
        gens.write_text(" + ".join(f"{k % 7 + 1}/{k % 5 + 1}*e{k}" for k in range(9000)) + "\n")
        argv = ["subspace", "--op", "s", "--gens", str(gens)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "logcouple.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    err = err.decode()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert proc.returncode == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# The child runs one command through cli.main with stdout sent to devnull,
# then prints the exit code and its own peak RSS (KiB on Linux).
_PEAK_RSS = """
import contextlib, os, resource, sys
from logcouple import cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kib(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-c", _PEAK_RSS, *argv]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=120)
    code, kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kib


@pytest.mark.parametrize("shape", ["distinct", "repeated"])
def test_a_sum_keeps_one_running_total_not_its_operands(shape):
    # 200 dense operands hold millions of terms between them; the sum holds
    # one numerator per index, so its peak RSS is that of 50 operands.
    def argv(n):
        if shape == "distinct":  # psi(e9000) + ... : n members of 9000+ ones each
            return ["eval", "+".join(f"psi(e{9000 + k})" for k in range(n))]
        dense = "+".join(f"e{k}" for k in range(10000))
        return ["eval", "+".join(["x"] * n), "--let", f"x={dense}"]

    small, large = _peak_rss_kib(argv(50)), _peak_rss_kib(argv(200))
    assert large - small < 10 * 1024, f"peak RSS {small} KiB at n = 50, {large} KiB at n = 200"


def _record() -> None:
    os.chdir(DATA)
    os.environ["COLUMNS"] = "80"
    cases = []
    for argv in CORPUS:
        rc, out, err = run_cli(argv)
        cases.append({"argv": argv, "rc": rc, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
