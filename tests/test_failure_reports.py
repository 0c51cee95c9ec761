"""Failure reports of the law suites under corrupted maps, byte for byte.

Passing runs never show a failure's inputs or detail text, so the
golden corpus of CLI outputs cannot catch a change to them.  Each case
here runs one suite with a deliberately broken map (a ``gamma`` function
replaced for the run; the suites look each map up per trial) and
compares the report's ``--json`` form, from ``cli._json_text``, with
``tests/data/failure_golden.json``.  A map that makes a trial raise
shows as ``trial_raised`` failures, and ``check`` exits 1 with a FAIL
report.  After an intended change, rewrite the file with

    PYTHONPATH=src python tests/test_failure_reports.py --record

and review the diff.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from logcouple import cli, gamma, harness
from logcouple.gamma import INF, Infinity

GOLDEN = Path(__file__).parent / "data" / "failure_golden.json"
TRIALS = 100

_psi, _successor, _psi_level = gamma.psi, gamma.successor, gamma.psi_level
_unit = gamma.unit


def trailing_psi(x):
    """psi read off the last supported index instead of the first."""
    if isinstance(x, Infinity) or not x:
        return INF
    return gamma.psi_element(x.coords[-1][0])


def negated_psi(x):
    return -_psi(x)


def reversed_psi(x):
    """Higher level for a smaller leading index."""
    if isinstance(x, Infinity) or not x:
        return INF
    return gamma.psi_element(40 - x.coords[0][0])


def coefficient_psi(x):
    """One level up when the leading coefficient exceeds 1 in size."""
    if isinstance(x, Infinity) or not x:
        return INF
    index, q = x.coords[0]
    return gamma.psi_element(index + (abs(q) > 1))


def long_sum_psi(x):
    """The least psi-set member for elements of more than three terms."""
    if not isinstance(x, Infinity) and len(x.coords) > 3:
        return gamma.psi_element(0)
    return _psi(x)


def lopsided_successor(x):
    """One level too high whenever the last coefficient is negative."""
    s = _successor(x)
    if isinstance(s, Infinity) or not x or x.coords[-1][1] > 0:
        return s
    return _successor(s)


def odd_shifted_psi_level(x):
    level = _psi_level(x)
    return level + 1 if level is not None and level % 2 else level


def loose_psi_level(x):
    """Also a level, its term count less one, for any element of positive integer coefficients."""
    level = _psi_level(x)
    if level is not None or isinstance(x, Infinity) or not x:
        return level
    return len(x.coords) - 1 if all(q > 0 and q.denominator == 1 for _, q in x.coords) else None


def level_seven_blind_psi_level(x):
    """No level for the psi-set member of level 7."""
    level = _psi_level(x)
    return None if level == 7 else level


def skipping_unit(index):
    """``e3`` in place of ``e2``."""
    return _unit(3 if index == 2 else index)


# name -> (suite, seed, {gamma attribute: replacement})
CASES: Dict[str, tuple] = {
    "axioms-trailing-psi": ("axioms", 0, {"psi": trailing_psi}),
    "axioms-negated-psi": ("axioms", 1, {"psi": negated_psi}),
    "axioms-reversed-psi": ("axioms", 2, {"psi": reversed_psi}),
    "axioms-coefficient-psi": ("axioms", 3, {"psi": coefficient_psi}),
    "axioms-long-sum-psi": ("axioms", 4, {"psi": long_sum_psi}),
    "successor-lopsided-successor": ("successor", 0, {"successor": lopsided_successor}),
    "successor-trailing-psi": ("successor", 1, {"psi": trailing_psi}),
    "lemma41-trailing-psi": ("lemma41", 0, {"psi": trailing_psi}),
    "lemma41-lopsided-successor": ("lemma41", 1, {"successor": lopsided_successor}),
    "lemma44-odd-shifted-level": ("lemma44", 0, {"psi_level": odd_shifted_psi_level}),
    "growth-skipping-unit": ("subspace-growth", 0, {"unit": skipping_unit}),
    "lemma44-loose-psi-level": ("lemma44", 1, {"psi_level": loose_psi_level}),
    "growth-lopsided-successor": ("subspace-growth", 0, {"successor": lopsided_successor}),
}


def run_case(name: str, monkeypatch: pytest.MonkeyPatch) -> object:
    suite, seed, patches = CASES[name]
    for attr, fn in patches.items():
        monkeypatch.setattr(gamma, attr, fn)
    return json.loads(cli._json_text(harness.run_suite(suite, seed, TRIALS)))


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_matches_cases():
    assert list(_golden()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_failure_report(name, monkeypatch):
    report = run_case(name, monkeypatch)
    assert report["passed"] is False and report["failures"]
    assert report == _golden()[name]


@pytest.mark.parametrize(
    "suite, attr, fn",
    [
        ("lemma44", "psi_level", level_seven_blind_psi_level),
        ("subspace-growth", "successor", lopsided_successor),
    ],
    ids=["level-seven-blind-psi-level", "lopsided-successor"],
)
def test_a_trial_that_raises_is_a_failed_check(suite, attr, fn, monkeypatch, capsys):
    # a fault the trial runs into, even one that looks like bad input, ends in a FAIL report
    monkeypatch.setattr(gamma, attr, fn)
    assert cli.main(["check", suite, "--trials", "300"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert "result: FAIL" in out and "[trial_raised]" in out and err == ""


def test_a_trichotomy_failure_fails_its_own_check(monkeypatch, capsys):
    # lemma44 records a TrichotomyFailure under the trial's check, with the trial's
    # m, size and kind, and the detail names each psi-set member by its level
    monkeypatch.setattr(gamma, "psi_level", loose_psi_level)
    assert cli.main(["check", "lemma44", "--trials", "300"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert "result: FAIL" in out and "[random_map] no trichotomy case matched" in out and err == ""
    assert "trial_raised" not in out and "kind = random" in out and "e0 + e1" not in out


def _render() -> str:
    cases = {}
    for name in CASES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            cases[name] = run_case(name, monkeypatch)
    return json.dumps(cases, indent=1) + "\n"


def test_golden_file_is_what_the_recorder_writes():
    # test_failure_report compares parsed dicts, which cannot see key order;
    # the keys come in ``Record.__slots__`` order, as in ``--json``
    same_bytes = GOLDEN.read_text(encoding="utf-8") == _render()
    assert same_bytes, f"{GOLDEN.name} differs from what --record writes"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(_render(), encoding="utf-8")
