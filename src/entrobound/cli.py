"""Experiment harness and command-line interface.

Subcommands reproduce the package's headline numerical experiments:

  fig1      scatter of conditional-entropy difference vs angular distance
            for random QC pairs, against min(u(d_A) A, ln d_A)
  fig2      the same at fixed small angular distances for classical pairs
  curve     the entangled/maximally-mixed interpolation family, closed form
            and direct matrix evaluation side by side
  scan      violation scan of that family over d_A in 2..10, d_B in 1..10
  compare   trace-distance bounds vs the converted angular-distance bound
  classify  Fuchs-van de Graaf saturation verdict for a state-pair file
  sample    write a random state pair in the JSON state format

CSV is the artifact of record (floats at 17 significant digits, canonical row
order, so equal seeds give byte-identical output); SVG output is
presentation-only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    ConversionDirection,
    classical_conditional_entropy,
    conditional_entropy,
    convert_bounds,
    lipschitz_u,
    winter_bound,
    audenaert_bound,
)
from .errors import (
    EntroboundError,
    OutOfRangeError,
    StateFormatError,
)
from .fvdg import classify_pair
from .metrics import angular_distance, classical_fidelity
from .sampling import RngHandle, sample_density, sample_qc_pair, sample_classical_pair_at_angle
from .states import (
    dense_state_to_json,
    load_state_pair,
    make_density,
    qc_embed,
    qc_state_to_json,
)

DEFAULT_SEED = 20221
# Grid threshold above which a bound excess counts as a violation.
VIOLATION_TOL = 1e-9

Table = tuple[list[str], list[tuple]]


@dataclass
class ExperimentConfig:
    subcommand: str
    d_a: int = 2
    d_b: int = 2
    n_samples: int = 10_000
    angles: tuple[float, ...] = field(default_factory=tuple)
    lambda_step: float = 0.005
    seed: int = DEFAULT_SEED
    output_path: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.d_a < 1 or self.d_b < 1:
            raise OutOfRangeError(f"dimensions must be >= 1, got ({self.d_a}, {self.d_b})")
        if self.n_samples < 1:
            raise OutOfRangeError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 < self.lambda_step <= 1.0:
            raise OutOfRangeError(f"lambda step must lie in (0, 1], got {self.lambda_step}")
        for a in self.angles:
            if not 0.0 < a < math.pi / 2:
                raise OutOfRangeError(f"angles must lie in (0, pi/2), got {a}")


# -- the entangled/maximally-mixed interpolation family -----------------------


def _xlogx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def family_pair(d_a: int, d_b: int, lam: float):
    """Matrix route: maximally entangled rho and its mix with I/(d_A d_B).

    Joint indices are k outer, so the entangled vector sits at positions
    j * d_A + j for j below min(d_A, d_B).
    """
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"lambda must lie in [0, 1], got {lam}")
    d_m = min(d_a, d_b)
    dim = d_a * d_b
    vec = np.zeros(dim)
    for j in range(d_m):
        vec[j * d_a + j] = 1.0 / math.sqrt(d_m)
    rho = np.outer(vec, vec)
    sigma = lam * np.eye(dim) / dim + (1.0 - lam) * rho
    return make_density(rho), make_density(sigma)


def family_closed_form(d_a: int, d_b: int, lam: float) -> tuple[float, float]:
    """Closed forms for the angular distance and |entropy difference|."""
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"lambda must lie in [0, 1], got {lam}")
    d_m = min(d_a, d_b)
    d = d_a * d_b
    angle = math.acos(min(1.0, math.sqrt(max(0.0, 1.0 - (d - 1) / d * lam))))
    diff = (
        -math.log(d_m)
        + _xlogx(1.0 - (d - 1) * lam / d)
        + (d - 1) * _xlogx(lam / d)
        - (d_b - d_m) * _xlogx(lam / d_b)
        - d_m * _xlogx(lam / d_b + (1.0 - lam) / d_m)
    )
    return angle, abs(diff)


def _lambda_grid(step: float) -> np.ndarray:
    return np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)


# -- table-producing operations ------------------------------------------------


def fig1_scatter(cfg: ExperimentConfig) -> Table:
    """(angular, |dH|, bound) rows for random QC pairs.

    The bound column is capped at ln d_A, the hard ceiling on QC
    conditional-entropy differences.
    """
    rng = RngHandle(cfg.seed)
    u = lipschitz_u(cfg.d_a)
    cap = math.log(cfg.d_a) if cfg.d_a > 1 else 0.0
    rows = []
    for _ in range(cfg.n_samples):
        left, right = sample_qc_pair(rng, cfg.d_a, cfg.d_b)
        rho, sigma = qc_embed(left), qc_embed(right)
        angle = angular_distance(rho, sigma)
        diff = abs(
            conditional_entropy(rho, cfg.d_a, cfg.d_b)
            - conditional_entropy(sigma, cfg.d_a, cfg.d_b)
        )
        rows.append((angle, diff, min(u * angle, cap)))
    rows.sort()
    return ["angular", "entropy_diff", "bound"], rows


def fig2_fixed_angle(cfg: ExperimentConfig) -> Table:
    """(angular, |dH|, bound) rows for classical pairs at fixed angles.

    Each angle gets its own derived stream, so output is independent of how
    angles are scheduled.
    """
    angles = sorted(cfg.angles) if cfg.angles else [i * 1e-6 for i in range(1, 11)]
    base = RngHandle(cfg.seed)
    u = lipschitz_u(cfg.d_a)
    dim = cfg.d_a * cfg.d_b
    rows = []
    for i, angle in enumerate(angles):
        rng = base.stream(i)
        for _ in range(cfg.n_samples):
            p, q = sample_classical_pair_at_angle(rng, dim, angle)
            measured = math.acos(min(1.0, classical_fidelity(p, q)))
            diff = abs(
                classical_conditional_entropy(p, cfg.d_a, cfg.d_b)
                - classical_conditional_entropy(q, cfg.d_a, cfg.d_b)
            )
            rows.append((measured, diff, u * measured))
    rows.sort()
    return ["angular", "entropy_diff", "bound"], rows


def counterexample_curve(cfg: ExperimentConfig) -> Table:
    """Interpolation family along lambda, closed form next to matrix route."""
    u = lipschitz_u(cfg.d_a)
    rows = []
    for lam in _lambda_grid(cfg.lambda_step):
        lam = float(lam)
        angle_cf, diff_cf = family_closed_form(cfg.d_a, cfg.d_b, lam)
        rho, sigma = family_pair(cfg.d_a, cfg.d_b, lam)
        angle_mx = angular_distance(rho, sigma)
        diff_mx = abs(
            conditional_entropy(rho, cfg.d_a, cfg.d_b)
            - conditional_entropy(sigma, cfg.d_a, cfg.d_b)
        )
        bound = u * angle_cf
        rows.append(
            (lam, angle_cf, angle_mx, diff_cf, diff_mx, bound,
             int(diff_cf > bound + VIOLATION_TOL))
        )
    return (
        ["lambda", "angular_closed", "angular_matrix", "entropy_diff_closed",
         "entropy_diff_matrix", "bound", "violation"],
        rows,
    )


def counterexample_scan(cfg: ExperimentConfig) -> Table:
    """Max bound excess of the family over d_A in 2..10, d_B in 1..10.

    Cells with a violation are re-examined on a step-0.001 grid around the
    violating interval; lambda_lo/lambda_hi bound that interval (-1 when the
    cell is clean).
    """
    rows = []
    base_grid = _lambda_grid(cfg.lambda_step)
    for d_a in range(2, 11):
        u = lipschitz_u(d_a)
        for d_b in range(1, 11):
            def excess(lam: float) -> float:
                angle, diff = family_closed_form(d_a, d_b, lam)
                return diff - u * angle

            gaps = np.array([excess(float(l)) for l in base_grid])
            violating = base_grid[gaps > VIOLATION_TOL]
            if violating.size:
                lo = max(0.0, float(violating.min()) - cfg.lambda_step)
                hi = min(1.0, float(violating.max()) + cfg.lambda_step)
                fine = np.clip(np.arange(lo, hi + 0.0005, 0.001), 0.0, 1.0)
                fine_gaps = np.array([excess(float(l)) for l in fine])
                sel = fine_gaps > VIOLATION_TOL
                best = int(np.argmax(fine_gaps))
                rows.append(
                    (d_a, d_b, float(fine[best]), float(fine_gaps[best]),
                     float(fine[sel].min()), float(fine[sel].max()))
                )
            else:
                best = int(np.argmax(gaps))
                rows.append((d_a, d_b, float(base_grid[best]), float(gaps[best]), -1.0, -1.0))
    return (
        ["d_a", "d_b", "lambda_star", "max_violation", "lambda_lo", "lambda_hi"],
        rows,
    )


def bounds_compare(cfg: ExperimentConfig) -> Table:
    """Trace-distance bounds next to the converted angular-distance bound.

    The dominance columns record the small-T comparison constant
    ln(d_A - 1) + 2 against u(d_A); dominance_holds is simply the truth of
    that inequality for this d_A.
    """
    u = lipschitz_u(cfg.d_a)
    lhs = math.log(cfg.d_a - 1) + 2.0 if cfg.d_a >= 2 else 2.0
    rows = []
    for t in _lambda_grid(cfg.lambda_step):
        t = float(t)
        rows.append(
            (
                t,
                audenaert_bound(t, max(cfg.d_a, 2)),
                winter_bound(t, cfg.d_a),
                convert_bounds(t, ConversionDirection.ANGULAR_FROM_TRACE, cfg.d_a),
                u * math.sqrt(2.0 * t),
                math.sin(math.acos(1.0 - t)),
                lhs,
                u,
                int(lhs <= u),
            )
        )
    return (
        ["trace_distance", "audenaert", "winter", "angular_conversion",
         "small_t_approximation", "trace_from_angular", "dominance_lhs",
         "dominance_rhs", "dominance_holds"],
        rows,
    )


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


def _run_table(cfg: ExperimentConfig) -> int:
    ops = {
        "fig1": (fig1_scatter, True),
        "fig2": (fig2_fixed_angle, True),
        "curve": (counterexample_curve, False),
        "scan": (counterexample_scan, False),
        "compare": (bounds_compare, False),
    }
    op, scatter = ops[cfg.subcommand]
    table = op(cfg)
    if cfg.fmt == "csv":
        _emit(render_csv(table), cfg.output_path)
    elif cfg.fmt == "json":
        _emit(render_json(table), cfg.output_path)
    else:
        _emit(render_svg(table, scatter), cfg.output_path)
    return 0


def _run_classify(args: argparse.Namespace) -> int:
    rho, sigma, _, _ = load_state_pair(args.input)
    report = classify_pair(rho, sigma)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return 0


def _run_sample(args: argparse.Namespace) -> int:
    rng = RngHandle(_resolve_seed(args))
    if args.kind == "qc":
        left, right = sample_qc_pair(rng, args.da, args.db)
        pair = {"rho": qc_state_to_json(left), "sigma": qc_state_to_json(right)}
    else:
        dim = args.da * args.db
        pair = {
            "rho": dense_state_to_json(sample_density(rng, dim), args.da, args.db),
            "sigma": dense_state_to_json(sample_density(rng, dim), args.da, args.db),
        }
    _emit(json.dumps(pair, indent=2) + "\n", args.out)
    return 0


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


def _default_samples(subcommand: str, full: bool) -> int:
    if subcommand == "fig2":
        return 10_000 if full else 1_000
    return 100_000 if full else 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="Entropy continuity-bound experiments and saturation diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *, db_default: int = 2) -> None:
        p.add_argument("--da", type=int, default=2, help="dimension of the A system")
        p.add_argument("--db", type=int, default=db_default, help="dimension of the B system")
        p.add_argument("--n", type=int, default=None, help="sample count (per angle for fig2)")
        p.add_argument("--full", action="store_true", help="use the full-scale sample counts")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (fallback: ENTROBOUND_SEED, then a fixed default)")
        p.add_argument("--lambda-step", type=float, default=0.005, dest="lambda_step")
        p.add_argument("--angles", type=str, default=None,
                       help="comma-separated angles in (0, pi/2)")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")

    for name in ("fig1", "fig2", "curve", "scan", "compare"):
        add_common(sub.add_parser(name))

    classify = sub.add_parser("classify", help="classify a JSON state-pair file")
    classify.add_argument("input", type=str, help="path to {'rho': ..., 'sigma': ...} JSON")
    classify.add_argument("--out", type=str, default=None)

    sample = sub.add_parser("sample", help="write a random state pair as JSON")
    sample.add_argument("--kind", choices=["qc", "dense"], default="qc")
    sample.add_argument("--da", type=int, default=2)
    sample.add_argument("--db", type=int, default=2)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "classify":
            return _run_classify(args)
        if args.subcommand == "sample":
            return _run_sample(args)
        cfg = ExperimentConfig(
            subcommand=args.subcommand,
            d_a=args.da,
            d_b=args.db,
            n_samples=args.n if args.n is not None else _default_samples(args.subcommand, args.full),
            angles=_parse_angles(args.angles),
            lambda_step=args.lambda_step,
            seed=_resolve_seed(args),
            output_path=args.out,
            fmt=args.format,
        )
        return _run_table(cfg)
    except (StateFormatError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EntroboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
