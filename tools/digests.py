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
byte-identical output.

With ``--files N`` it prints one more line: ``classify`` over N pair files
at each of the seeds 0 to 5, made in order by ``make_pair_file`` of
``np.random.default_rng(seed)`` for the kinds ``pair_kinds(N)`` of
``perfbench/workloads.py``, with each call's exit code, stdout and stderr
concatenated and the temporary directory's name cut out.  A malformed
file's message carries its path, so without the cut no two runs would
agree.  Run from anywhere; the package is imported from this
checkout's ``src``:

    python tools/digests.py

With ``--parent REV`` it also exports REV's ``src`` with ``git archive``
into a temporary directory, imports the package from there, and prints
each line with REV's digest and this checkout's, marking the lines that
differ; it exits 1 if any does.  Both sides run on this checkout's inputs
(``perfbench/workloads.py`` and ``tests/oracles.py``):

    python tools/digests.py --parent HEAD~1 --files 400
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "tests"))

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


def stdout_of(cli_main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rejection_of(cli_main, argv: list[str]) -> str:
    """Exit code and first stderr line of a call that must fail."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code == 0:
        raise SystemExit(f"{' '.join(argv)} exited 0")
    return f"{code} {err.getvalue().splitlines()[0]}\n"


def outcome_of(cli_main, argv: list[str]) -> str:
    """Exit code, stdout and stderr of a call, whatever its outcome."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"{code}\n{out.getvalue()}{err.getvalue()}"


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


def benchmark_files(kinds: list[str], seed: int = int(SEED)) -> list[str]:
    rng = np.random.default_rng(seed)
    return [WORKLOADS["make_pair_file"](rng, kind) for kind in kinds]


def generated_files(n_files: int) -> list[str]:
    """``n_files`` pair files of ``pair_kinds`` at each of the seeds 0 to 5."""
    kinds = [kind for kind, _ in WORKLOADS["pair_kinds"](n_files)]
    return [text for seed in range(6) for text in benchmark_files(kinds, seed)]


def pair_file(rho: np.ndarray, sigma: np.ndarray) -> str:
    """A pair file of two dense d x 1 states."""
    def state(m: np.ndarray) -> dict:
        entries = [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]
        return {"dim_a": len(m), "dim_b": 1, "kind": "dense", "matrix": entries}

    return json.dumps({"rho": state(rho), "sigma": state(sigma)})


# Verdicts that the benchmark's files never produce: Lower and Neither from
# the gap residuals, Upper with both gaps 0 (|0> and |1>), and Upper from a
# spectrum of M that clusters to {c, 1/c} only through the clustering's slack.
CONSTRUCTED = [
    pair_file(np.diag([0.5, 0.5, 0.0]), np.diag([0.5, 0.0, 0.5])),
    pair_file(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    pair_file(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])),
    pair_file(*chained_reciprocal_pair()[1:]),
]


def cli_main_from(src: Path):
    """``entrobound.cli.main`` imported afresh from the package in ``src``."""
    for name in [n for n in sys.modules if n == "entrobound" or n.startswith("entrobound.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("entrobound.cli").main
    finally:
        sys.path.remove(str(src))


def digest_lines(cli_main, n_files: int = 0) -> list[tuple[str, str]]:
    """The 27 (label, digest) pairs, and the generated files' pair if ``n_files``."""
    stdout = functools.partial(stdout_of, cli_main)
    lines = [(" ".join(argv), digest(stdout(argv))) for argv in COMMANDS]
    valid = benchmark_files([kind for kind, _ in WORKLOADS["VALID_KINDS"]])
    lines.append(("classify (18 valid pair files)", digest(classify_text(valid, stdout))))
    rejects = classify_text(benchmark_files(WORKLOADS["INVALID_KINDS"]),
                            functools.partial(rejection_of, cli_main))
    lines.append(("classify (5 invalid pair files, rejections)", digest(rejects)))
    constructed = classify_text(CONSTRUCTED, stdout)
    lines.append(("classify (4 constructed pair files)", digest(constructed)))
    if n_files:
        outcomes = classify_text(generated_files(n_files), functools.partial(outcome_of, cli_main))
        lines.append((f"classify ({6 * n_files} generated pair files, all outcomes)",
                      digest(outcomes)))
    return lines


def parent_lines(rev: str, n_files: int = 0) -> list[tuple[str, str]]:
    """``digest_lines`` of the package in ``rev``'s ``src``, exported with git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        return digest_lines(cli_main_from(Path(tmp) / "src"), n_files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="REV",
                        help="compare with the package in REV's src; exit 1 on any difference")
    parser.add_argument("--files", metavar="N", type=int, default=0,
                        help="add classify's outcomes over N generated pair files per seed 0-5")
    args = parser.parse_args(argv)
    lines = digest_lines(cli_main_from(ROOT / "src"), args.files)
    if args.parent is None:
        for label, value in lines:
            print(f"{label:<48} {value}")
        return 0
    differ = 0
    for (label, before), (_, after) in zip(parent_lines(args.parent, args.files), lines):
        differ += before != after
        print(f"{label:<48} {before} {after}{'  DIFFERS' if before != after else ''}")
    print(f"{differ} of {len(lines)} lines differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
