import sys
from pathlib import Path

import hypothesis

# The benchmark's independent oracle (``perfbench/oracle.py``) and its workloads
# are imported by the tests as top-level modules: ``import oracle``.
sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

# CI determinism: examples derived from the test body, no wall-clock deadline
# (exact rational arithmetic has no meaningful per-example time budget).
hypothesis.settings.register_profile(
    "deterministic", derandomize=True, max_examples=200, deadline=None
)
hypothesis.settings.load_profile("deterministic")
