"""The benchmark's workloads: inputs made from a seed, CLI call schedules and
the correctness check of every call.

A workload is a closed loop with one caller: each ``entrobound.cli.main(argv)``
call is issued in-process after the previous one returns, the way a user's
CLI call runs.  Work is grouped in *cycles*, the smallest call list that keeps
the workload's mix; a run always ends on a whole cycle.

Every call is an *operation*.  It fails when its exit code is wrong or its
output fails the workload's check.  Failures on non-finite input files are a
known defect of the program (non-finite entries are not rejected with exit
code 2); they are counted as failed like any other, and flagged so a run can
tell them apart from new failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

# Seed of the recorded reference outputs; never derived from --seed.
REF_SEED = 20221
# A numeric output cell matches the reference when |x - ref| <= REF_TOL * max(1, |ref|).
REF_TOL = 1e-9
# Tolerance of the bound and closed-form checks, as in the acceptance suite.
CHECK_TOL = 1e-9
# The closed form and the matrix route of the family agree to CHECK_TOL only away
# from lambda = 0, where arccos(F) near F = 1 loses half its digits (~3e-8).
FAMILY_LAMBDA_MIN = 0.01
FIG2_ANGLES = [i * 1e-6 for i in range(1, 11)]

EXIT_OK = 0
EXIT_INVALID = 2


@dataclass
class Call:
    """One CLI call, its item count and the check of its outcome."""

    argv: list[str]
    items: int
    # check(exit_code, stdout) -> None when correct, else the reason it failed
    check: Callable[[int, str], str | None]
    known_defect: bool = False

    @property
    def shape(self) -> str:
        """The call without its seed: calls of one shape do the same work."""
        argv = list(self.argv)
        if "--seed" in argv:
            del argv[argv.index("--seed"):argv.index("--seed") + 2]
        return " ".join(argv)


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    seconds: float
    failure: str | None = None


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    known_defect_failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, call: Call, failure: str | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if call.known_defect:
            self.known_defect_failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{' '.join(call.argv)}: {failure}")


def run_call(main, call: Call) -> Outcome:
    """Run ``main(argv)`` with stdout/stderr captured; time only the call.

    An exception escaping ``main`` ends a real CLI process with exit code 1,
    and ``SystemExit`` carries argparse's code, so both map to exit codes.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(call.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
    seconds = perf_counter() - start
    text = out.getvalue()
    return Outcome(code, text, seconds, call.check(code, text))


# -- output parsing and checks ---------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines:
        return [], np.empty((0, 0))
    header = lines[0].split(",")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


def _table_check(columns: list[str], n_rows: int, rows_ok: Callable[[np.ndarray], str | None]):
    def check(code: int, text: str) -> str | None:
        if code != EXIT_OK:
            return f"exit code {code}, expected {EXIT_OK}"
        try:
            header, rows = parse_csv(text)
        except ValueError as exc:
            return f"unparsable CSV: {exc}"
        if header != columns:
            return f"header {header}"
        if rows.shape[0] != n_rows:
            return f"{rows.shape[0]} rows, expected {n_rows}"
        if not np.all(np.isfinite(rows)):
            return "non-finite value"
        return rows_ok(rows)

    return check


TABLE_COLUMNS = ["angular", "entropy_diff", "bound"]
CURVE_COLUMNS = ["lambda", "angular_closed", "angular_matrix", "entropy_diff_closed",
                 "entropy_diff_matrix", "bound", "violation"]
SCAN_COLUMNS = ["d_a", "d_b", "lambda_star", "max_violation", "lambda_lo", "lambda_hi"]


def fig1_rows_ok(rows: np.ndarray) -> str | None:
    excess = rows[:, 1] - rows[:, 2]
    if np.any(excess > CHECK_TOL):
        return f"entropy_diff exceeds bound by {float(np.max(excess)):.3e}"
    return None


def fig2_rows_ok(rows: np.ndarray) -> str | None:
    # Each measured angle must sit at one of the requested angles; 1 % allows
    # for the arccos precision floor at 1e-6 (a relative error of ~2e-4).
    targets = np.array(FIG2_ANGLES)
    nearest = targets[np.argmin(np.abs(rows[:, :1] - targets), axis=1)]
    rel = np.abs(rows[:, 0] - nearest) / nearest
    if np.any(rel > 1e-2):
        return f"measured angle off its target by {float(np.max(rel)):.3e} (relative)"
    if np.any(rows[:, 1] < 0.0):
        return "negative entropy difference"
    return None


def curve_rows_ok(rows: np.ndarray) -> str | None:
    away = rows[:, 0] >= FAMILY_LAMBDA_MIN
    dev = max(
        float(np.max(np.abs(rows[away, 1] - rows[away, 2]))),
        float(np.max(np.abs(rows[away, 3] - rows[away, 4]))),
    )
    if dev > CHECK_TOL:
        return f"closed form and matrix route differ by {dev:.3e}"
    return None


def scan_rows_ok(rows: np.ndarray) -> str | None:
    violating = [(int(r[0]), int(r[1])) for r in rows if r[3] > CHECK_TOL]
    if violating != [(2, 2)]:
        return f"violating cells {violating}, expected [(2, 2)]"
    return None


def classify_check(expected_class: str | None):
    """Valid files must exit 0 with the class they were built to have;
    invalid files (``expected_class`` None) must exit 2."""

    def check(code: int, text: str) -> str | None:
        if expected_class is None:
            return None if code == EXIT_INVALID else f"exit code {code}, expected {EXIT_INVALID}"
        if code != EXIT_OK:
            return f"exit code {code}, expected {EXIT_OK}"
        try:
            verdict = json.loads(text)["class"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable report: {exc!r}"
        if verdict != expected_class:
            return f"class {verdict}, expected {expected_class}"
        return None

    return check


# -- reference comparison -----------------------------------------------------------


def output_cells(text: str) -> list:
    """Flatten a CSV table or a JSON report into strings and floats, in order."""
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        cells: list = []

        def walk(obj) -> None:
            if isinstance(obj, dict):
                for key in sorted(obj):
                    cells.append(key)
                    walk(obj[key])
            elif isinstance(obj, list):
                cells.append(len(obj))
                for item in obj:
                    walk(item)
            elif isinstance(obj, bool) or obj is None or isinstance(obj, str):
                cells.append(repr(obj))
            else:
                cells.append(float(obj))

        walk(json.loads(text))
        return cells
    cells = []
    for line in text.splitlines():
        for tok in line.split(","):
            try:
                cells.append(float(tok))
            except ValueError:
                cells.append(tok)
    return cells


def compare_to_reference(text: str, ref_text: str) -> tuple[bool, float]:
    """(within REF_TOL, largest absolute deviation of a numeric cell)."""
    got, want = output_cells(text), output_cells(ref_text)
    if len(got) != len(want):
        return False, math.inf
    max_dev, ok = 0.0, True
    for g, w in zip(got, want):
        if isinstance(w, float) and isinstance(g, float):
            if math.isnan(w) or math.isnan(g):
                ok = ok and math.isnan(w) and math.isnan(g)
                continue
            dev = abs(g - w)
            max_dev = max(max_dev, dev)
            ok = ok and dev <= REF_TOL * max(1.0, abs(w))
        elif g != w:
            return False, math.inf
    return ok, max_dev


# -- random inputs, made by the benchmark and not by the program's samplers ------------


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _density(rng: np.random.Generator, evals: np.ndarray) -> np.ndarray:
    u = _haar_unitary(rng, evals.size)
    m = (u * evals) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _full_rank_spectrum(rng: np.random.Generator, d: int) -> np.ndarray:
    # Bounded away from 0 so the pair is invertible by a wide margin.
    return 0.2 / d + 0.8 * rng.dirichlet(np.ones(d))


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _dense(m: np.ndarray, d_a: int, d_b: int) -> dict:
    return {"dim_a": d_a, "dim_b": d_b, "kind": "dense", "matrix": _matrix_json(m)}


def _qc(rng: np.random.Generator, d_a: int, d_b: int) -> dict:
    weights = _full_rank_spectrum(rng, d_b)
    blocks = [
        {"weight": float(w), "matrix": _matrix_json(_density(rng, _full_rank_spectrum(rng, d_a)))}
        for w in weights
    ]
    return {"dim_a": d_a, "dim_b": d_b, "kind": "qc", "blocks": blocks}


def _random_dense_pair(rng, d_a, d_b) -> dict:
    d = d_a * d_b
    return {
        "rho": _dense(_density(rng, _full_rank_spectrum(rng, d)), d_a, d_b),
        "sigma": _dense(_density(rng, _full_rank_spectrum(rng, d)), d_a, d_b),
    }


def _pure(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    m = np.outer(v, v.conj())
    return (m + m.conj().T) / 2.0


def _upper_saturating_pair(rng: np.random.Generator, d: int) -> dict:
    """Commuting invertible pair with spec(M) = {c, 1/c}.

    In a shared eigenbasis q_x = c^2 p_x on half the outcomes and p_x / c^2 on
    the rest; normalisation puts mass 1 / (1 + c^2) of p on the first half.
    """
    c = float(rng.uniform(1.5, 3.0))
    half = d // 2
    mass = 1.0 / (1.0 + c * c)
    p = np.concatenate([mass * _full_rank_spectrum(rng, half),
                        (1.0 - mass) * _full_rank_spectrum(rng, d - half)])
    q = np.concatenate([c * c * p[:half], p[half:] / (c * c)])
    u = _haar_unitary(rng, d)
    rho, sigma = (u * p) @ u.conj().T, (u * q) @ u.conj().T
    return {
        "rho": _dense((rho + rho.conj().T) / 2.0, 2, d // 2),
        "sigma": _dense((sigma + sigma.conj().T) / 2.0, 2, d // 2),
    }


NEITHER, EQUAL, UPPER = "NeitherSaturated", "Equal", "UpperSaturated"

# Valid kinds of one block of 20 files, each with the class it was built to have.
VALID_KINDS = [
    ("qc-2x2", NEITHER)] * 4 + [
    ("dense-4", NEITHER)] * 3 + [
    ("dense-8", NEITHER)] * 3 + [
    ("pure-4", UPPER)] * 3 + [
    ("equal-4", EQUAL), ("equal-8", EQUAL)] + [
    ("upper-4", UPPER)] * 3
# Two invalid files per block (10 %), rotating through the five invalid kinds.
INVALID_KINDS = ["non-hermitian", "trace", "malformed", "nan", "inf"]
NONFINITE_KINDS = {"nan", "inf"}
BLOCK = len(VALID_KINDS) + 2


def pair_kinds(n_files: int) -> list[tuple[str, str | None]]:
    kinds: list[tuple[str, str | None]] = []
    for block in range((n_files + BLOCK - 1) // BLOCK):
        kinds.extend(VALID_KINDS)
        kinds.extend((INVALID_KINDS[(2 * block + i) % len(INVALID_KINDS)], None) for i in range(2))
    return kinds[:n_files]


def make_pair_file(rng: np.random.Generator, kind: str) -> str:
    """Text of a pair file of the given kind."""
    if kind == "qc-2x2":
        return json.dumps({"rho": _qc(rng, 2, 2), "sigma": _qc(rng, 2, 2)})
    if kind == "dense-4":
        return json.dumps(_random_dense_pair(rng, 2, 2))
    if kind == "dense-8":
        return json.dumps(_random_dense_pair(rng, 2, 4))
    if kind == "pure-4":
        return json.dumps({"rho": _dense(_pure(rng, 4), 2, 2), "sigma": _dense(_pure(rng, 4), 2, 2)})
    if kind in ("equal-4", "equal-8"):
        d = 4 if kind == "equal-4" else 8
        state = _dense(_density(rng, _full_rank_spectrum(rng, d)), 2, d // 2)
        return json.dumps({"rho": state, "sigma": state})
    if kind == "upper-4":
        return json.dumps(_upper_saturating_pair(rng, 4))
    base = _density(rng, _full_rank_spectrum(rng, 4))
    sigma = _dense(_density(rng, _full_rank_spectrum(rng, 4)), 2, 2)
    if kind == "non-hermitian":
        bad = base.copy()
        bad[0, 1] += 1e-3
        return json.dumps({"rho": _dense(bad, 2, 2), "sigma": sigma})
    if kind == "trace":
        return json.dumps({"rho": _dense(1.1 * base, 2, 2), "sigma": sigma})
    if kind == "malformed":
        text = json.dumps({"rho": _dense(base, 2, 2), "sigma": sigma})
        return text[: len(text) // 2]
    if kind in NONFINITE_KINDS:
        # A diagonal (commuting) rho with one non-finite diagonal entry: in a
        # dense matrix LAPACK happens to reject NaN and inf, but a diagonal one
        # passes the eigendecomposition, so this form reaches validation itself.
        probs = _full_rank_spectrum(rng, 4).astype(complex)
        probs[int(rng.integers(0, 4))] = math.nan if kind == "nan" else math.inf
        return json.dumps({"rho": _dense(np.diag(probs), 2, 2), "sigma": sigma})
    raise ValueError(f"unknown pair kind {kind!r}")


# -- workloads ------------------------------------------------------------------------


def _call_seeds(seed: int, cycle: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, cycle])
    return [int(s) for s in rng.integers(0, 2**63, size=n)]


class Workload:
    """Base: ``cycle(i)`` returns the calls of cycle i; inputs depend only on the seed.

    ``tiny`` shrinks every call, for the benchmark's own smoke tests.
    """

    name = ""
    # Cycles per second of --seconds in the traced mode, set so that the
    # untraced pass takes about half of --seconds on a 2-core x86-64 host.
    fixed_cycles_per_s = 1.0
    # Cycles per second of --seconds in the timed mode for a workload whose
    # timed run is a fixed amount of work; None runs whole cycles until their
    # summed call time reaches --seconds.
    timed_cycles_per_s: float | None = None

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self) -> None:
        """Generate inputs that live on disk; nothing by default."""

    def fixed_cycles(self, seconds: float) -> int:
        return max(1, round(seconds * self.fixed_cycles_per_s))

    def timed_cycles(self, seconds: float) -> int | None:
        if self.timed_cycles_per_s is None:
            return None
        return max(1, round(seconds * self.timed_cycles_per_s))

    def warmup_call(self) -> Call:
        """A small call made once during set-up, before anything is timed."""
        raise NotImplementedError

    def cycle(self, index: int) -> list[Call]:
        raise NotImplementedError

    def reference_calls(self) -> list[Call]:
        """Small calls at REF_SEED whose outputs are compared with reference.json."""
        raise NotImplementedError


class QcScatter(Workload):
    """fig1 at d_A = d_B = 2 and at d_A = 2, d_B = 16; item = one QC pair.

    Pair counts give each configuration about half of a cycle's time; a cycle
    holds two calls of each.
    """

    name = "qc-scatter"
    fixed_cycles_per_s = 1.0

    def _fig1(self, d_b: int, n: int, seed: int) -> Call:
        argv = ["fig1", "--da", "2", "--db", str(d_b), "--n", str(n), "--seed", str(seed)]
        return Call(argv, n, _table_check(TABLE_COLUMNS, n, fig1_rows_ok))

    def warmup_call(self) -> Call:
        return self._fig1(2, 1, self.seed)

    def cycle(self, index: int) -> list[Call]:
        n_small, n_large = (4, 2) if self.tiny else (120, 20)
        seeds = _call_seeds(self.seed, index, 4)
        return [self._fig1(2, n_small, seeds[0]), self._fig1(16, n_large, seeds[1]),
                self._fig1(2, n_small, seeds[2]), self._fig1(16, n_large, seeds[3])]

    def reference_calls(self) -> list[Call]:
        small, large = _call_seeds(REF_SEED, 0, 2)
        return [self._fig1(2, 20, small), self._fig1(16, 4, large)]


class FixedAngle(Workload):
    """fig2 --da 8 --db 2 at the default ten angles; item = one classical pair."""

    name = "fixed-angle"
    fixed_cycles_per_s = 0.4

    def _fig2(self, n: int, seed: int) -> Call:
        argv = ["fig2", "--da", "8", "--db", "2", "--n", str(n), "--seed", str(seed)]
        rows = n * len(FIG2_ANGLES)
        return Call(argv, rows, _table_check(TABLE_COLUMNS, rows, fig2_rows_ok))

    def warmup_call(self) -> Call:
        return self._fig2(1, self.seed)

    def cycle(self, index: int) -> list[Call]:
        # 301 per angle puts 3010 rows through sorting and rendering per call,
        # short enough for a run to hold a few dozen calls.
        n = 2 if self.tiny else 301
        return [self._fig2(n, seed) for seed in _call_seeds(self.seed, index, 4)]

    def reference_calls(self) -> list[Call]:
        return [self._fig2(3, _call_seeds(REF_SEED, 0, 1)[0])]


class DenseFamily(Workload):
    """curve at (d, d) for d in 2..10 step 2 on a 101-point lambda grid, plus
    one scan; item = one lambda point of the matrix route (scan has none).

    The family has no random input; the seed only orders the calls of a cycle.
    """

    name = "dense-family"
    fixed_cycles_per_s = 0.4
    SIZES = (2, 4, 6, 8, 10)

    @staticmethod
    def _curve(d: int, step: str) -> Call:
        points = int(round(1.0 / float(step))) + 1
        argv = ["curve", "--da", str(d), "--db", str(d), "--lambda-step", step]
        return Call(argv, points, _table_check(CURVE_COLUMNS, points, curve_rows_ok))

    @staticmethod
    def _scan() -> Call:
        return Call(["scan"], 0, _table_check(SCAN_COLUMNS, 90, scan_rows_ok))

    def warmup_call(self) -> Call:
        return self._curve(2, "0.5")

    def cycle(self, index: int) -> list[Call]:
        sizes, step = ((2, 4), "0.1") if self.tiny else (self.SIZES, "0.01")
        calls = [self._curve(d, step) for d in sizes] + [self._scan()]
        order = np.random.default_rng([self.seed, index]).permutation(len(calls))
        return [calls[i] for i in order]

    def reference_calls(self) -> list[Call]:
        return [self._curve(d, "0.05") for d in self.SIZES] + [self._scan()]


class Classify(Workload):
    """classify over pair files written at set-up; item = one call.

    Each cycle is one pass over all files in a seeded order.  A timed run is
    a fixed number of passes, so the number of calls, and with it the number
    that fail on the non-finite files (the known defect), does not depend on
    the host's speed.  1.45 passes per second of --seconds make the calls
    take about --seconds on a 2-core x86-64 host; at least 1000 calls are
    made whatever --seconds is.
    """

    name = "classify"
    N_FILES = 200
    MIN_CALLS = 1000
    fixed_cycles_per_s = 0.8
    timed_cycles_per_s = 1.45

    def timed_cycles(self, seconds: float) -> int:
        passes = -(-self.MIN_CALLS // len(self.files))
        return max(passes, round(seconds * self.timed_cycles_per_s))

    def _write_files(self, seed: int, kinds: list[tuple[str, str | None]], subdir: str) -> list[Call]:
        rng = np.random.default_rng(seed)
        directory = os.path.join(self.workdir, subdir)
        os.makedirs(directory, exist_ok=True)
        calls = []
        for i, (kind, expected) in enumerate(kinds):
            path = os.path.join(directory, f"pair{i:04d}-{kind}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(make_pair_file(rng, kind))
            calls.append(Call(["classify", path], 1, classify_check(expected),
                              known_defect=kind in NONFINITE_KINDS))
        return calls

    def setup(self) -> None:
        kinds = pair_kinds(60 if self.tiny else self.N_FILES)
        self.files = self._write_files(self.seed, kinds, "pairs")

    def warmup_call(self) -> Call:
        return self.files[0]

    def cycle(self, index: int) -> list[Call]:
        order = np.random.default_rng([self.seed, index]).permutation(len(self.files))
        return [self.files[i] for i in order]

    def reference_calls(self) -> list[Call]:
        # Valid files only: the reference records correct outputs, and the
        # invalid files' outcome is fixed by their check alone.
        return self._write_files(REF_SEED, VALID_KINDS, "reference")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (QcScatter, FixedAngle, DenseFamily, Classify)
}
