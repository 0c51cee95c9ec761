"""Replay benchmark commands through ``cli.main`` and check each answer.

``perfbench/workloads.py`` builds seeded ``check``, ``eval``, ``fmt``,
``subspace`` and ``witness`` commands, each with a check of its exit code
and stdout that ``perfbench/oracle.py`` computes without the package's
code.  This runs the first rounds of every workload in-process.
"""

import contextlib
import io

import pytest
import workloads

from logcouple import cli

ROUNDS = {"session": 2, "laws": 5, "growth": 5}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(ROUNDS))
def test_workload_answers_match_the_oracle(workload, seed, tmp_path):
    rounds = workloads.WORKLOADS[workload](seed, str(tmp_path))[: ROUNDS[workload]]
    for op in (op for ops in rounds for op in ops):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op.argv)
        assert op.check(rc, out.getvalue()) is None, " ".join(op.argv)[:200]
