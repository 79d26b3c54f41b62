"""Print the byte-identity digests of the CLI's outputs at seed 20221.

It prints 27 lines.  Each is a command and the first 16 hex digits of the
sha256 of its stdout.  Only ``fig1``, ``fig2`` and ``sample`` read a seed, so only they
get ``--seed 20221``.  The fourth ``fig1`` line, at 8 x 8, is the first
with ``d_A >= 8``: it forms 8 x 8 roots in one stacked call per chunk, and
its entropy rows of 64 entries go through numpy's pairwise-blocked sum.  The
last two ``fig1`` lines take the edge shapes ``d_A = 1`` and ``d_B = 1``
through fig1's block route.  The first three ``fig2``
lines have rows of 16, 32 and 3 entries, so they cover both the
pairwise-blocked and the sequential sum of numpy along a row.  They run at
angles of 1e-6 to 1e-5, where the angle sampler rarely rejects a draw; the
fourth, at angles 0.3 and 1.0 and d = 4, takes 1.6 and 9.0 attempts per
pair on average (at most 61 of the budget's 1000), so it covers the
sampler's reject branch.  The
``curve`` lines at ``--da 2 --db 4`` and ``--da 3 --db 1`` take the partial
trace of the family through ``d_B > d_A`` and ``d_B = 1``.  ``scan
--lambda-step 1`` takes every cell through the clean branch (its grid
{0, 1} misses the (2, 2) violation), and ``scan --lambda-step 0.25``
refines the (2, 2) cell from a coarse grid.  The ``compare`` lines at
``--da 4`` and ``--da 7`` take the trace-to-angle conversion beyond d_A = 2, one on each side of the dominance flag (0 at
d_A = 4, 1 at 7).  The two ``sample`` lines write a QC and a dense pair at
the default 2 x 2.  The third to last
line is ``classify`` over the 18 valid pair files of the benchmark
(``VALID_KINDS`` of ``perfbench/workloads.py``), written in order by
``make_pair_file(np.random.default_rng(20221), kind)``, with their outputs
concatenated.  The next covers the reject path: ``classify`` over the
five invalid pair files (``INVALID_KINDS``), made the same way, with each
one's exit code and first stderr line concatenated and the temporary
directory's name cut out.  The last is ``classify`` over the four
``CONSTRUCTED`` pair files, for verdicts the benchmark's files never
produce.  Equal digests on two checkouts mean
byte-identical output.  Run from anywhere; the package is imported from this
checkout's ``src``, so running the script in each of two checkouts compares
their ``src`` trees:

    python tools/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "tests"))

from entrobound.cli import main as cli_main  # noqa: E402
from oracles import chained_reciprocal_pair  # noqa: E402

# run_path compiles the file without writing a bytecode cache next to it.
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))

SEED = "20221"
COMMANDS = [
    ["fig1", "--n", "500", "--db", "2", "--seed", SEED],
    ["fig1", "--n", "500", "--db", "16", "--seed", SEED],
    ["fig1", "--n", "50", "--format", "svg", "--seed", SEED],
    ["fig1", "--n", "200", "--da", "8", "--db", "8", "--seed", SEED],
    ["fig1", "--n", "200", "--da", "1", "--db", "3", "--seed", SEED],
    ["fig1", "--n", "200", "--da", "3", "--db", "1", "--seed", SEED],
    ["fig2", "--n", "100", "--da", "8", "--db", "2", "--seed", SEED],
    ["fig2", "--n", "100", "--da", "2", "--db", "16", "--seed", SEED],
    ["fig2", "--n", "100", "--da", "1", "--db", "3", "--seed", SEED],
    ["fig2", "--n", "100", "--da", "2", "--db", "2", "--angles", "0.3,1.0", "--seed", SEED],
    ["curve", "--da", "2", "--db", "2"],
    ["curve", "--da", "10", "--db", "10"],
    ["curve", "--da", "2", "--db", "4"],
    ["curve", "--da", "3", "--db", "1"],
    ["curve", "--lambda-step", "0.1", "--format", "json"],
    ["scan"],
    ["scan", "--format", "svg"],
    ["scan", "--lambda-step", "1"],
    ["scan", "--lambda-step", "0.25"],
    ["compare"],
    ["compare", "--da", "4"],
    ["compare", "--da", "7"],
    ["sample", "--kind", "qc", "--seed", SEED],
    ["sample", "--kind", "dense", "--seed", SEED],
]


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rejection_of(argv: list[str]) -> str:
    """Exit code and first stderr line of a call that must fail."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code == 0:
        raise SystemExit(f"{' '.join(argv)} exited 0")
    return f"{code} {err.getvalue().splitlines()[0]}\n"


def classify_text(texts: list[str], run) -> str:
    """``run(["classify", path])`` over a pair file of each text, concatenated."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, text in enumerate(texts):
            path = os.path.join(tmp, f"pair{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            outputs.append(run(["classify", path]).replace(tmp, ""))
    return "".join(outputs)


def benchmark_files(kinds: list[str]) -> list[str]:
    rng = np.random.default_rng(int(SEED))
    return [WORKLOADS["make_pair_file"](rng, kind) for kind in kinds]


def pair_file(rho: np.ndarray, sigma: np.ndarray) -> str:
    """A pair file of two dense d x 1 states."""
    def state(m: np.ndarray) -> dict:
        entries = [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]
        return {"dim_a": len(m), "dim_b": 1, "kind": "dense", "matrix": entries}

    return json.dumps({"rho": state(rho), "sigma": state(sigma)})


# Verdicts that the benchmark's files never produce: Lower and Neither from
# the gap residuals, Upper with both gaps 0 (|0> and |1>), and Neither from
# a failed commutator test.
CONSTRUCTED = [
    pair_file(np.diag([0.5, 0.5, 0.0]), np.diag([0.5, 0.0, 0.5])),
    pair_file(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    pair_file(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])),
    pair_file(*chained_reciprocal_pair()[1:]),
]


def main() -> int:
    for argv in COMMANDS:
        print(f"{' '.join(argv):<48} {digest(stdout_of(argv))}")
    valid = benchmark_files([kind for kind, _ in WORKLOADS["VALID_KINDS"]])
    print(f"{'classify (18 valid pair files)':<48} {digest(classify_text(valid, stdout_of))}")
    rejects = classify_text(benchmark_files(WORKLOADS["INVALID_KINDS"]), rejection_of)
    print(f"{'classify (5 invalid pair files, rejections)':<48} {digest(rejects)}")
    constructed = classify_text(CONSTRUCTED, stdout_of)
    print(f"{'classify (4 constructed pair files)':<48} {digest(constructed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
