"""Spans around the calls into each cnvlink module, recorded from outside.

:func:`traced` swaps each traced function for a wrapper in every cnvlink
module namespace that binds it (so a name imported with ``from .x import f``
is wrapped where it is looked up), and each traced ``Kernel`` method on the
class. A wrapper records one span: name, start, end and the span open when
it was called. Spans stay in memory in flat arrays until the run writes them
out. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (module, function) pairs traced wherever the function is bound.
FUNCTIONS = (
    ("cli", "cmd_fit"),
    ("cli", "cmd_summarize"),
    ("cli", "cmd_diagnose"),
    ("sampler", "run_chain"),
    ("model", "validate"),
    ("likelihood", "collapsed_loglik_from_parts"),
    ("likelihood", "log_emission"),
    ("likelihood", "log_state_prior"),
    ("priors", "mixture_weights"),
    ("priors", "log_assoc_prior"),
    ("matrixio", "read_matrix_tsv"),
    ("matrixio", "write_matrix_tsv"),
    ("matrixio", "save_checkpoint"),
    ("inference", "summarize"),
    ("diagnostics", "geweke"),
    ("diagnostics", "heidelberger_welch"),
)

#: ``Kernel`` methods traced on the class.
KERNEL_METHODS = (
    "sweep",
    "update_assoc",
    "update_states",
    "update_state_row",
    "update_means",
    "update_sds",
    "update_trans",
    "log_posterior",
)

#: Functions whose first argument is a file path; the span also counts the
#: file's bytes (read before the call, written after it).
READS = {"matrixio.read_matrix_tsv"}
WRITES = {"matrixio.write_matrix_tsv", "matrixio.save_checkpoint"}


class Recorder:
    """Flat in-memory span store; ``stack`` holds the open spans."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.nbytes: dict[str, int] = {}

    def wrap(self, label: str, fn):
        nid = self._ids.setdefault(label, len(self.labels))
        if nid == len(self.labels):
            self.labels.append(label)
        reads, writes = label in READS, label in WRITES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reads:
                self.nbytes[label] = self.nbytes.get(label, 0) + os.path.getsize(args[0])
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if writes:
                self.nbytes[label] = self.nbytes.get(label, 0) + os.path.getsize(args[0])
            return result

        return wrapper

    def arrays(self):
        """(name ids, parent indices, starts, ends) as numpy arrays."""
        return (
            np.frombuffer(self.name, dtype=np.uint16).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def _durations(self):
        """(name ids, starts, durations, self times) per span; a span's self
        time is its duration minus its children's."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name, start, dur, dur - child

    def summary(self) -> dict[str, dict]:
        """Per label: calls, total seconds, self seconds and bytes."""
        name, _, dur, self_s = self._durations()
        k = len(self.labels)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        return {
            label: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "bytes": self.nbytes.get(label, 0),
            }
            for i, label in enumerate(self.labels)
        }

    def self_seconds_within(self, t0: float, t1: float, exclude) -> float:
        """Summed self time of the spans that started in [t0, t1], leaving
        out the spans with a label in ``exclude``."""
        name, start, _, self_s = self._durations()
        skip = np.isin(name, [self._ids[label] for label in exclude])
        return float(self_s[(start >= t0) & (start <= t1) & ~skip].sum())

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, labels=np.array(self.labels), name=name, parent=parent, start=start, end=end)


@contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    import cnvlink.cli  # noqa: F401  (imports every module the CLI uses)
    from cnvlink.sampler import Kernel

    modules = [m for name, m in sys.modules.items() if name.startswith("cnvlink.")]
    undo = []
    for mod_name, fn_name in FUNCTIONS:
        fn = getattr(sys.modules[f"cnvlink.{mod_name}"], fn_name)
        wrapper = recorder.wrap(f"{mod_name}.{fn_name}", fn)
        for mod in modules:
            if mod.__dict__.get(fn_name) is fn:
                undo.append((mod, fn_name, fn))
                setattr(mod, fn_name, wrapper)
    for meth in KERNEL_METHODS:
        fn = Kernel.__dict__[meth]
        undo.append((Kernel, meth, fn))
        setattr(Kernel, meth, recorder.wrap(f"sampler.{meth}", fn))
    try:
        yield recorder
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
