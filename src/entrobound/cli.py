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

Each table subcommand accepts only the options its operation reads, plus
``--out`` and ``--format``.  CSV is the artifact of record (floats at 17
significant digits, canonical row order, so equal seeds give byte-identical
output); SVG output is presentation-only.  Exit codes: 0 ok, 1 runtime
error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

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
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_format_value(x) for x in row) + "\n")
    return out.getvalue()


def render_json(table: Table) -> str:
    header, rows = table
    body = [
        dict(zip(header, (int(x) if isinstance(x, (int, np.integer)) else float(x) for x in row)))
        for row in rows
    ]
    return json.dumps(body, indent=2) + "\n"


def render_svg(table: Table, scatter: bool, width: int = 640, height: int = 480) -> str:
    """Minimal scatter/polyline plot: column 0 on x, the rest as series."""
    header, rows = table
    margin = 40.0
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


def _run_table(args: argparse.Namespace) -> None:
    # The operations are looked up in this module when called, so a tracer
    # that rebinds its attributes sees the calls.
    name = args.subcommand
    if name == "fig1":
        table = fig1_scatter(args.da, args.db, _sample_count(args), _resolve_seed(args))
    elif name == "fig2":
        table = fig2_fixed_angle(
            args.da, args.db, _sample_count(args), _resolve_seed(args), _parse_angles(args.angles)
        )
    elif name == "curve":
        table = counterexample_curve(args.da, args.db, args.lambda_step)
    elif name == "scan":
        table = counterexample_scan(args.lambda_step)
    else:
        table = bounds_compare(args.da, args.lambda_step)
    if args.format == "csv":
        _emit(render_csv(table), args.out)
    elif args.format == "json":
        _emit(render_json(table), args.out)
    else:
        _emit(render_svg(table, scatter=name in ("fig1", "fig2")), args.out)


def _run_classify(args: argparse.Namespace) -> None:
    rho, sigma, _, _ = load_state_pair(args.input)
    report = classify_pair(rho, sigma)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)


def _run_sample(args: argparse.Namespace) -> None:
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
    _emit(json.dumps(pair, indent=2) + "\n", args.out)


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
    if not text:
        return ()
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise OutOfRangeError(f"bad --angles value {text!r}") from exc


def _sample_count(args: argparse.Namespace) -> int:
    if args.n is not None:
        return args.n
    if args.subcommand == "fig2":
        return 10_000 if args.full else 1_000
    return 100_000 if args.full else 10_000


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

    options = {
        "--da": dict(type=int, default=2, help="dimension of the A system"),
        "--db": dict(type=int, default=2, help="dimension of the B system"),
        "--n": dict(type=int, default=None, help="sample count (per angle for fig2)"),
        "--full": dict(action="store_true", help="use the full-scale sample counts"),
        "--seed": dict(type=int, default=None,
                       help="RNG seed (fallback: ENTROBOUND_SEED, then a fixed default)"),
        "--lambda-step": dict(type=float, default=0.005, dest="lambda_step"),
        "--angles": dict(type=str, default=None, help="comma-separated angles in (0, pi/2)"),
        "--out": dict(type=str, default=None, help="output path (default stdout)"),
        "--format": dict(choices=["csv", "json", "svg"], default="csv"),
    }

    def add(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **options[flag])

    # Each table subcommand takes the options its operation reads.
    sampled = ("--da", "--db", "--n", "--full", "--seed")
    for name, flags in (
        ("fig1", sampled),
        ("fig2", sampled + ("--angles",)),
        ("curve", ("--da", "--db", "--lambda-step")),
        ("scan", ("--lambda-step",)),
        ("compare", ("--da", "--lambda-step")),
    ):
        add(sub.add_parser(name), *flags, "--out", "--format")

    classify = sub.add_parser("classify", help="classify a JSON state-pair file")
    classify.add_argument("input", type=str, help="path to {'rho': ..., 'sigma': ...} JSON")
    add(classify, "--out")

    sample = sub.add_parser("sample", help="write a random state pair as JSON")
    sample.add_argument("--kind", choices=["qc", "dense"], default="qc")
    add(sample, "--da", "--db", "--seed", "--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = {"classify": _run_classify, "sample": _run_sample}.get(args.subcommand, _run_table)
        run(args)
        return 0
    except (StateFormatError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EntroboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
