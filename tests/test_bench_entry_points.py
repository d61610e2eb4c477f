"""The benchmark under ``bench/`` reaches into the package by name: the
traced run wraps functions and ``Kernel`` methods listed in
``bench/tracing.py``, the harness and checks import helpers directly, and
``bench/workloads.py`` passes configuration keys to ``cnvlink fit`` and
``cnvlink simulate``. These tests read those files (without changing them)
and check that every name and key still resolves, so a deletion in ``src/``
cannot silently break ``bench/run.py``."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from cnvlink.config import parse_value
from cnvlink.sampler import Kernel

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """The benchmark's module ``bench/<name>.py``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while it is defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def package_imports():
    """(file, module, name) for every ``from cnvlink... import name`` in
    the benchmark's Python files."""
    found = []
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cnvlink"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_traced_functions_resolve():
    tracing = load_bench("tracing")
    for mod_name, fn_name in tracing.FUNCTIONS:
        module = importlib.import_module(f"cnvlink.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"cnvlink.{mod_name}.{fn_name}"


def test_traced_kernel_methods_resolve():
    for name in load_bench("tracing").KERNEL_METHODS:
        assert callable(Kernel.__dict__.get(name)), f"Kernel.{name}"


def test_harness_and_check_imports_resolve():
    imports = package_imports()
    names = {(module, name) for _, module, name in imports}
    # the ones the set-up timer and the checkpoint check rely on
    for needed in [
        ("cnvlink.cli", "_read_dataset"),
        ("cnvlink.config", "resolve"),
        ("cnvlink.config", "to_sampler_config"),
        ("cnvlink.matrixio", "load_checkpoint"),
    ]:
        assert needed in names
    for path, module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{path}: {module}.{name}"



def test_workload_config_keys_parse():
    for workload in load_bench("workloads").WORKLOADS.values():
        keys = {**workload.fit_config(0), **(workload.simulate or {})}
        for key, value in keys.items():
            parse_value(key, value)
