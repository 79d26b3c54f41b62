"""Command-line interface: argument parsing, seed resolution and output.

Subcommands reproduce the package's headline numerical experiments; the
tables come from ``entrobound.experiments``:

  fig1      scatter of conditional-entropy difference vs angular distance
            for random QC pairs, against min(u(d_A) A, ln d_A)
  fig2      the same at fixed small angular distances for classical pairs
  curve     the entangled/maximally-mixed interpolation family, closed form
            and direct matrix evaluation side by side
  scan      violation scan of that family over d_A in 2..10, d_B in 1..10
  compare   trace-distance bounds vs the converted angular-distance bound
  classify  Fuchs-van de Graaf saturation verdict for a state-pair file
  sample    write a random state pair in the JSON state format

``SUBCOMMANDS`` is the one record of what each subcommand reads and does:
its entry names the options it registers (keys of ``OPTIONS``), its help
text and its call.  ``build_parser`` registers exactly those options and
``main`` runs the call, so each table subcommand accepts only the options
its operation reads, plus ``--out`` and ``--format``.  The desk-scale
sample count and the SVG plot kind are stated in the entry's call.

CSV is the artifact of record (floats at 17 significant digits, canonical
row order, so equal seeds give byte-identical output); SVG output is
presentation-only.  Exit codes: 0 ok, 1 runtime error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple

import numpy as np

from .errors import (
    EntroboundError,
    OutOfRangeError,
    StateFormatError,
)
from .experiments import (
    Table,
    bounds_compare,
    counterexample_curve,
    counterexample_scan,
    family_closed_form,  # noqa: F401  perfbench/tracing.py traces it under this module
    fig1_scatter,
    fig2_fixed_angle,
)
from .fvdg import classify_pair
from .sampling import RngHandle, sample_density, sample_qc_pair
from .states import (
    check_dimension,
    dense_state_to_json,
    load_state_pair,
    qc_state_to_json,
)

DEFAULT_SEED = 20221


# -- serialization --------------------------------------------------------------


def _format_value(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def render_csv(table: Table) -> str:
    header, rows = table
    lines = [",".join(header)] + [",".join(_format_value(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def render_json(table: Table) -> str:
    header, rows = table
    body = [
        dict(zip(header, (int(x) if isinstance(x, (int, np.integer)) else float(x) for x in row)))
        for row in rows
    ]
    return json.dumps(body, indent=2) + "\n"


def render_svg(table: Table, scatter: bool) -> str:
    """Minimal scatter/polyline plot: column 0 on x, the rest as series."""
    header, rows = table
    width, height, margin = 640, 480, 40.0
    xs = np.array([float(r[0]) for r in rows])
    series = [np.array([float(r[i]) for r in rows]) for i in range(1, len(header))]
    lo_x, hi_x = (float(xs.min()), float(xs.max())) if len(xs) else (0.0, 1.0)
    all_y = np.concatenate(series) if series else np.array([0.0, 1.0])
    lo_y, hi_y = float(all_y.min()), float(all_y.max())
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0

    def sx(v: float) -> float:
        return margin + (v - lo_x) / span_x * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - lo_y) / span_y * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for idx, ys in enumerate(series):
        color = colors[idx % len(colors)]
        if scatter and idx == 0:
            parts.extend(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.5" fill="{color}"/>'
                for x, y in zip(xs, ys)
            )
        else:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
    for idx, name in enumerate(header[1:]):
        parts.append(
            f'<text x="{margin + 5}" y="{margin + 15 + 14 * idx}" font-size="11" '
            f'fill="{colors[idx % len(colors)]}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render(args: argparse.Namespace, table: Table, scatter: bool = False) -> str:
    if args.format == "csv":
        return render_csv(table)
    if args.format == "json":
        return render_json(table)
    return render_svg(table, scatter)


def _run_classify(args: argparse.Namespace) -> str:
    rho, sigma, _, _ = load_state_pair(args.input)
    return json.dumps(classify_pair(rho, sigma).to_json(), indent=2) + "\n"


def _run_sample(args: argparse.Namespace) -> str:
    rng = RngHandle(_resolve_seed(args))
    if args.kind == "qc":
        left, right = sample_qc_pair(rng, args.da, args.db)
        pair = {"rho": qc_state_to_json(left), "sigma": qc_state_to_json(right)}
    else:
        # A dense state sees only the product of the two dimensions.
        dim = check_dimension(args.da) * check_dimension(args.db)
        pair = {
            "rho": dense_state_to_json(sample_density(rng, dim), args.da, args.db),
            "sigma": dense_state_to_json(sample_density(rng, dim), args.da, args.db),
        }
    return json.dumps(pair, indent=2) + "\n"


# -- argument parsing ------------------------------------------------------------


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ENTROBOUND_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise OutOfRangeError(f"ENTROBOUND_SEED={env!r} is not an integer") from exc
    return DEFAULT_SEED


def _parse_angles(text: str | None) -> tuple[float, ...]:
    if text is None:
        return ()
    try:
        angles = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise OutOfRangeError(f"bad --angles value {text!r}") from exc
    if not angles:
        raise OutOfRangeError(f"--angles must list at least one angle, got {text!r}")
    return angles


def _sampled(args: argparse.Namespace, desk: int) -> tuple[int, int, int, int]:
    """The values of the ``_SAMPLED`` options as fig1 and fig2 take them.

    That is d_A, d_B, the sample count and the seed.  The count is ``desk``,
    or ten times that under ``--full``; ``--n`` overrides both.
    """
    count = (10 * desk if args.full else desk) if args.n is None else args.n
    return args.da, args.db, count, _resolve_seed(args)


# -- the subcommand table --------------------------------------------------------


OPTIONS = {
    "input": dict(help="path to {'rho': ..., 'sigma': ...} JSON"),
    "--kind": dict(choices=["qc", "dense"], default="qc"),
    "--da": dict(type=int, default=2, help="dimension of the A system"),
    "--db": dict(type=int, default=2, help="dimension of the B system"),
    "--n": dict(type=int, help="sample count (per angle for fig2)"),
    "--full": dict(action="store_true", help="use the full-scale sample counts"),
    "--seed": dict(type=int, help="RNG seed (fallback: ENTROBOUND_SEED, then a fixed default)"),
    "--lambda-step": dict(type=float, default=0.005, help="grid step in (0, 1], 1/step <= 10^6"),
    "--angles": dict(help="comma-separated angles in (0, pi/2)"),
    "--out": dict(help="output path (default stdout)"),
    "--format": dict(choices=["csv", "json", "svg"], default="csv"),
}


# options: the keys of OPTIONS that the subcommand registers, in order; help:
# its line in the usage text; run: its call, which takes the parsed namespace
# and returns the text that main writes to --out.
Subcommand = namedtuple("Subcommand", ["options", "help", "run"])

_SAMPLED = ("--da", "--db", "--n", "--full", "--seed")
_TABLE = ("--out", "--format")

# Each call looks its operation up in this module's globals when it runs, so
# a tracer that rebinds the module's attributes sees every call.  fig1 and
# fig2 state their desk-scale sample count and plot as a scatter.
SUBCOMMANDS = {
    "fig1": Subcommand(_SAMPLED + _TABLE, "entropy difference vs angular distance, QC pairs",
                       lambda a: _render(a, fig1_scatter(*_sampled(a, 10_000)), scatter=True)),
    "fig2": Subcommand(
        _SAMPLED + ("--angles",) + _TABLE, "the same for classical pairs at fixed small angles",
        lambda a: _render(a, fig2_fixed_angle(*_sampled(a, 1_000), _parse_angles(a.angles)),
                          scatter=True)),
    "curve": Subcommand(("--da", "--db", "--lambda-step") + _TABLE, "the counterexample family",
                        lambda a: _render(a, counterexample_curve(a.da, a.db, a.lambda_step))),
    "scan": Subcommand(("--lambda-step",) + _TABLE, "violation scan of the family over d_A, d_B",
                       lambda a: _render(a, counterexample_scan(a.lambda_step))),
    "compare": Subcommand(
        ("--da", "--lambda-step") + _TABLE, "trace-distance bounds vs the converted angular bound",
        lambda a: _render(a, bounds_compare(a.da, a.lambda_step))),
    "classify": Subcommand(("input", "--out"), "classify a JSON state-pair file", _run_classify),
    "sample": Subcommand(("--kind", "--da", "--db", "--seed", "--out"),
                         "write a random state pair as JSON", _run_sample),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Each ``parse_args`` call still returns a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="Entropy continuity-bound experiments and saturation diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, entry in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=entry.help)
        for option in entry.options:
            subparser.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(SUBCOMMANDS[args.subcommand].run(args), args.out)
        return 0
    except (EntroboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (StateFormatError, OutOfRangeError)) else 1


if __name__ == "__main__":
    sys.exit(main())
