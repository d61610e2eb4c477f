"""The package namespace holds the library workflow and nothing else, and the
README's example runs as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import cnvlink

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

WORKFLOW = [
    "__version__",
    "STATE_NAMES",
    "ObservedData",
    "RegressionHyper",
    "HmmHyper",
    "SamplerConfig",
    "ValidationError",
    "NumericalError",
    "validate",
    "run_chain",
    "summarize",
    "ScenarioSpec",
    "simulate_dataset",
    "evaluate",
    "geweke",
    "heidelberger_welch",
]


def test_namespace_is_the_library_workflow():
    assert cnvlink.__all__ == WORKFLOW
    for name in cnvlink.__all__:
        assert getattr(cnvlink, name) is not None, name


def test_readme_python_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    src = os.path.join(os.path.dirname(cnvlink.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "pairs selected" in done.stdout
