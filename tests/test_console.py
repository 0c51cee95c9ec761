"""The certified suite reports, byte for byte.

The certified configuration is seed 0 at 10000 trials: every suite passes,
and the sha256 of its ``check SUITE --json`` output is the one recorded
here.  lemma44 is also pinned at seeds 1-4 with 3000 trials: its pools of
at most 5 of 80 values redraw on a repeat, and each of these reports is the
one recorded when lemma44 drew through ``random()`` and ``sample``.

Each report is made in-process through ``cli.main``.  The suites take
about 7-9 s together on a 2-core box; each must finish within 120 s.
"""

import hashlib
import io
import time
from contextlib import redirect_stdout

import pytest

from logcouple import cli

CERTIFIED = {
    ("axioms", 0, 10000): "a0a0563246d587d942bb1c2758feca2cefa4fb6ee3978490209464f0902ee8a7",
    ("successor", 0, 10000): "7377e351b1cfc1961cadd0637e0f5ab6c11d1cad436f10ee3431d5d4ef823db3",
    ("lemma41", 0, 10000): "7c9c8b1a695ed501d27c2c6ca09e7dc4a49c2a9173062fb34950f193c992e796",
    ("lemma44", 0, 10000): "1c4cd831e1c452d2a3ff2f1f27d94500e573976d51622a94a7aff21b9ad1d5bd",
    ("subspace-growth", 0, 10000): "6b2a07caecdf90748e0aabae030d06b001efe5cb26d46b626fc13f322785c127",
    ("lemma44", 1, 3000): "926d33b89d2e8a8c946b482ed2b583467d77f359fc1adc93ee3a4063db3404a2",
    ("lemma44", 2, 3000): "14f6cd934124300753a08818be17d69b38c9a3a5dbff1290a914f52f69321e2f",
    ("lemma44", 3, 3000): "4866dd1910fd85bb8d3662990d741b51ce3da51c5a517da7de3ba165be8d584c",
    ("lemma44", 4, 3000): "b87c8cd56576811ca6a173102fb964d18b33dcf75c332f6991ef46cbf1b0b3e3",
}
TIME_LIMIT_S = 120


@pytest.mark.parametrize("suite, seed, trials", list(CERTIFIED), ids=lambda v: str(v))
def test_certified_report_is_byte_identical(suite, seed, trials):
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(["check", suite, "--seed", str(seed), "--trials", str(trials), "--json"])
    assert time.perf_counter() - start < TIME_LIMIT_S
    assert code == cli.EXIT_PASS
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CERTIFIED[suite, seed, trials]
