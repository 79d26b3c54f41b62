"""Spans around the public functions of each entrobound layer, installed from
outside the program.

Each listed function is wrapped, and every module of the package that holds
the original under any name is rebound to the wrapper (``cli`` imports
functions directly, so patching only the defining module would miss its
calls).  ``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped as ``lapack.eig``.
Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out when the run ends.  A span's self time is its duration minus the
durations of its child spans; because each child lies inside its parent, the
self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, function, span name)
TRACED = [
    ("sampling", "sample_qc_pair", "sampling.sample_qc_pair"),
    ("sampling", "sample_density", "sampling.sample_density"),
    ("sampling", "sample_haar_unitary", "sampling.sample_haar_unitary"),
    ("sampling", "sample_simplex", "sampling.sample_simplex"),
    ("sampling", "sample_classical_pair_at_angle", "sampling.sample_classical_pair_at_angle"),
    ("linalg", "as_hermitian", "linalg.as_hermitian"),
    ("linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("linalg", "mat_sqrt", "linalg.mat_sqrt"),
    ("linalg", "m_operator", "linalg.m_operator"),
    ("states", "make_density", "states.make_density"),
    ("states", "qc_embed", "states.qc_embed"),
    ("states", "make_qc_state", "states.make_qc_state"),
    ("states", "make_classical", "states.make_classical"),
    ("states", "load_state_pair", "states.load_state_pair"),
    ("metrics", "fidelity", "metrics.fidelity"),
    ("metrics", "trace_distance", "metrics.trace_distance"),
    ("metrics", "classical_fidelity", "metrics.classical_fidelity"),
    ("entropy", "conditional_entropy", "entropy.conditional_entropy"),
    ("entropy", "classical_conditional_entropy", "entropy.classical_conditional_entropy"),
    ("fvdg", "classify_pair", "fvdg.classify_pair"),
    ("cli", "main", "cli.main"),
    ("cli", "fig1_scatter", "cli.loop"),
    ("cli", "fig2_fixed_angle", "cli.loop"),
    ("cli", "counterexample_curve", "cli.loop"),
    ("cli", "counterexample_scan", "cli.loop"),
    ("cli", "family_closed_form", "cli.family_closed_form"),
    ("cli", "render_csv", "cli.render"),
    ("cli", "render_json", "cli.render"),
    ("cli", "render_svg", "cli.render"),
    ("cli", "_emit", "cli.emit"),
]
LAPACK = "lapack.eig"
# Spans whose call count is reported next to their self time.
COUNTED = [name for _, _, name in TRACED if not name.startswith("cli.")] + [
    LAPACK, "cli.family_closed_form"]
SPAN_NAMES = list(dict.fromkeys([name for _, _, name in TRACED] + [LAPACK]))


class Tracer:
    def __init__(self) -> None:
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        nid = self._ids[name]
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if count is not None:
                count(counters, args)
            start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every TRACED function and the two numpy eigensolvers."""
        package = [m for name, m in sys.modules.items()
                   if name == "entrobound" or name.startswith("entrobound.")]
        for module, func, name in TRACED:
            original = getattr(sys.modules[f"entrobound.{module}"], func)
            wrapped = self.wrap(name, original, _count_bytes if name == "cli.emit" else None)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapped)
        for func in ("eigh", "eigvalsh"):
            self._rebind(np.linalg, func, self.wrap(LAPACK, getattr(np.linalg, func), _count_eig))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def self_times(self) -> np.ndarray:
        """Self time of each span: duration minus its children's durations."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def layer_metrics(self) -> dict[str, float]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        n = len(SPAN_NAMES)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=self.self_times(), minlength=n)
        out: dict[str, float] = {}
        for i, span in enumerate(SPAN_NAMES):
            if span in COUNTED:
                out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        eig_calls = int(calls[self._ids[LAPACK]])
        out["lapack.eig.n3_sum"] = int(self.counters["n3"])
        out["lapack.eig.batch_mean"] = (
            self.counters["matrices"] / eig_calls if eig_calls else 0.0)
        out["cli.emit.bytes"] = int(self.counters["emit_bytes"])
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _count_eig(counters: Counter, args) -> None:
    # Computed from shapes, not measured: n^3 per matrix, matrices per call.
    shape = np.shape(args[0])
    batch = math.prod(shape[:-2])
    counters["n3"] += batch * shape[-1] ** 3
    counters["matrices"] += batch


def _count_bytes(counters: Counter, args) -> None:
    # The CLI writes ASCII (CSV and JSON), so characters are bytes.
    counters["emit_bytes"] += len(args[0])
