"""Command line front end.

Every subcommand reads lattices either as a known name (cubic, bcc, fcc,
hexagonal_prism, hexa_rhombic_dodecahedron, square, hexagonal) or as a JSON
file {"n": int, "columns": [[...], ...]}. Structured results are JSON,
tabular results CSV with '#' header comments; both carry the tool version,
the seed, and an echo of the effective configuration, and a fixed seed makes
reruns byte-identical.

Exit codes: 0 success, 2 invalid input, 3 numeric failure (no obtuse
superbase, irrational row ratios, rank deficiency).
"""

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import __version__
from .babai import babai_point, is_babai_error, nearest_plane
from .core import (
    RankDeficiencyError,
    UnsupportedDimensionError,
    as_basis,
    cvp_bruteforce,
    gram,
    lattice_from_json,
    packing_density,
)
from .error2d import (
    LEVEL_CURVE_DEFAULT_KS,
    ReducedBasis2D,
    level_curve_data,
    pe_closed_form,
    pe_geometric_2d,
    pe_polar,
)
from .error3d import CellType, classify_cell, pe_3d, scan_random, summarize_scan
from .lattices import HEXAGONAL_2D, KNOWN_LATTICES, SQUARE_2D
from .protocol import (
    IrrationalRatioError,
    _draw_rows,
    _scaled_upper,
    centralized_total_rate,
    fusion_decode,
    gaussian_source,
    interactive_rate_approximation,
    interactive_simulate,
    node_encode,
    rationalize,
    uniform_source,
)
from .reduction import (
    ConormSet,
    ObtuseSuperbaseNotFound,
    conorms,
    is_minkowski_reduced,
    to_obtuse_superbase,
    vonorms,
)

_NAMED = dict(KNOWN_LATTICES)
_NAMED["square"] = SQUARE_2D
_NAMED["hexagonal"] = HEXAGONAL_2D

_VALIDATION_ERRORS = (
    ValueError,
    KeyError,
    FileNotFoundError,
    IsADirectoryError,
    json.JSONDecodeError,
    UnsupportedDimensionError,
)
_NUMERIC_ERRORS = (
    ObtuseSuperbaseNotFound,
    IrrationalRatioError,
    RankDeficiencyError,
    np.linalg.LinAlgError,
    FloatingPointError,
    OverflowError,
)


def _g(x):
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _load_lattice(spec):
    if spec in _NAMED:
        return as_basis(_NAMED[spec])
    return lattice_from_json(spec)


def _config_echo(args, skip=("func", "out")):
    pairs = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        pairs.append(f"{key}={vars(args)[key]}")
    return " ".join(pairs)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    doc = {
        "meta": {
            "tool": "latbabai",
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": getattr(args, "seed", None),
            "config": _config_echo(args),
        }
    }
    doc.update(payload)
    _emit(json.dumps(doc, indent=2) + "\n", args.out)


def _emit_csv(args, header, rows, extra_comments=()):
    buf = io.StringIO()
    buf.write(f"# latbabai {__version__} {args.subcommand}\n")
    buf.write(f"# config: {_config_echo(args)}\n")
    for line in extra_comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)


_SELLING_COLS = ("s01", "s02", "s03", "s23", "s13", "s12")


def _cmd_reduce(args):
    V = _load_lattice(args.lattice)
    n = V.shape[0]
    if n not in (2, 3):
        raise UnsupportedDimensionError("reduce handles n = 2 and n = 3")
    report = is_minkowski_reduced(gram(V))
    sb = to_obtuse_superbase(V)
    if n == 3:
        con = conorms(sb)
        selling = [-c for c in con.values]
        con_list = list(con.values)
        von = vonorms(sb)
        von_list = [von[key] for key in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))]
    else:
        selling = [float(v) for v in sb.selling_pairs()]
        con_list = [-v for v in selling]
        W = sb.vectors
        von_list = [float(W[1] @ W[1]), float(W[2] @ W[2]), float((W[1] + W[2]) @ (W[1] + W[2]))]
    _emit_json(args, {
        "minkowski": bool(report.reduced),
        "violated": report.violated,
        "superbase": [[float(x) for x in row] for row in sb.vectors],
        "selling": [float(x) for x in selling],
        "conorms": [float(x) for x in con_list],
        "vonorms": [float(x) for x in von_list],
    })
    return 0


def _cmd_babai(args):
    V = _load_lattice(args.lattice)
    x = np.array([float(t) for t in args.target.split(",")])
    if x.shape != (V.shape[0],):
        raise ValueError(f"target needs {V.shape[0]} comma-separated components")
    approx = babai_point(V, x)
    exact = cvp_bruteforce(V, x)
    _emit_json(args, {
        "coeffs": [int(b) for b in approx.coeffs],
        "point": [float(v) for v in approx.point],
        "exact_point": [float(v) for v in exact.point],
        "is_error": is_babai_error(V, x),
    })
    return 0


def _cmd_pe2d(args):
    chosen = sum(1 for flag in (args.a is not None or args.b is not None,
                                args.basis, args.polar) if flag)
    if chosen != 1:
        raise ValueError("give exactly one of --a/--b, --basis, --polar")
    if args.polar:
        theta, rho = args.polar
        pe = pe_polar(theta, rho)
        _emit_json(args, {"theta": theta, "rho": rho, "pe": pe})
        return 0
    if args.basis:
        V = _load_lattice(args.basis)
        pe = pe_geometric_2d(V)
        _emit_json(args, {"pe_geometric": pe, "det": float(abs(np.linalg.det(V)))})
        return 0
    if args.a is None or args.b is None:
        raise ValueError("--a and --b go together")
    rb = ReducedBasis2D(args.a, args.b)
    V = np.array([[1.0, rb.a], [0.0, rb.b]])
    _emit_json(args, {
        "a": rb.a,
        "b": rb.b,
        "pe_closed": pe_closed_form(rb),
        "pe_geometric": pe_geometric_2d(V),
        "density": packing_density(V),
    })
    return 0


def _cmd_levels(args):
    ks = LEVEL_CURVE_DEFAULT_KS if args.k is None else tuple(float(t) for t in args.k.split(","))
    rows = level_curve_data(pe_values=ks, grid=args.grid, b_max=args.bmax)
    _emit_csv(args, ("k", "a", "b", "pe"), [tuple(_g(v) for v in row) for row in rows])
    return 0


def _cmd_pe3d(args):
    V = _load_lattice(args.lattice)
    result = pe_3d(V)
    _emit_json(args, {
        "pe": result.pe,
        "best_ordering": "".join(map(str, result.best_ordering)),
        "per_ordering": {
            "".join(map(str, perm)): pe for perm, pe in sorted(result.per_ordering.items())
        },
        "cell_type": result.cell_type.value,
        "density": packing_density(V),
    })
    return 0


def _cmd_table1(args):
    rows = []
    for name, V in KNOWN_LATTICES.items():
        V = as_basis(V)
        result = pe_3d(V)
        rows.append((
            name,
            ";".join(_g(s) for s in np.minimum(result.selling, 0.0)),
            _g(packing_density(V)),
            _g(result.pe),
        ))
    _emit_csv(args, ("lattice", "selling", "density", "pe"), rows)
    return 0


def _scan_rows(records):
    rows = []
    for rec in records:
        rows.append((
            str(rec.seed),
            _g(rec.density),
            _g(rec.pe),
            rec.cell_type.value,
            *(_g(s) for s in rec.selling),
        ))
    return rows


def _cmd_random_scan(args):
    records = scan_random(args.trials, density_floor=args.floor, seed=args.seed)
    summary = summarize_scan(records)
    comments = (
        f"count: {summary['count']}",
        f"max_pe: {_g(summary['max_pe']) if summary['count'] else 'nan'}",
    )
    _emit_csv(
        args,
        ("trial_seed", "density", "pe", "cell_type", *_SELLING_COLS),
        _scan_rows(records),
        extra_comments=comments,
    )
    return 0


def _cmd_table2_scan(args):
    records = scan_random(args.trials, density_floor=args.floor, seed=args.seed)
    rows = []
    for rec in records:
        con = ConormSet(tuple(-s for s in rec.selling))
        near = classify_cell(con, tol=args.label_tol)
        if near is CellType.TruncatedOctahedron:
            continue
        rows.append((
            str(rec.seed),
            _g(rec.density),
            _g(rec.pe),
            near.value,
            rec.cell_type.value,
            *(_g(s) for s in rec.selling),
        ))
    _emit_csv(
        args,
        ("trial_seed", "density", "pe", "cell_near", "cell_exact", *_SELLING_COLS),
        rows,
        extra_comments=(f"near_degenerate: {len(rows)} of {len(records)}",),
    )
    return 0


def _cmd_protocol_sim(args):
    V = _load_lattice(args.lattice)
    n = V.shape[0]
    make = uniform_source if args.source == "uniform" else gaussian_source
    sources = [make() for _ in range(n)]
    if args.model == "interactive":
        _, empirical = interactive_simulate(sources, V, args.alpha, args.samples, seed=args.seed)
        payload = {
            "rate_bound": interactive_rate_approximation(sources, V, args.alpha),
            "empirical_rate": empirical,
            "side_info_bits": 0.0,
            "decode_mismatches": 0,
        }
    else:
        _, Rs = _scaled_upper(V, args.alpha, sources)
        profile = rationalize(Rs)
        report = centralized_total_rate(sources, V, args.alpha, samples=args.samples, seed=args.seed)
        X = np.empty((n, min(args.samples, 10**4)))
        msgs = [node_encode(m, X[m], Rs, profile) for m in _draw_rows(sources, X, [args.seed, 1])]
        differs = fusion_decode(msgs, Rs, profile) != nearest_plane(Rs, X.T)
        payload = {
            "rate_bound": report.bound_bits,
            "empirical_rate": report.empirical_bits,
            "side_info_bits": report.side_info_bits,
            "decode_mismatches": int(np.count_nonzero(differs.any(axis=1))),
        }
    _emit_json(args, payload)
    return 0


# built on first use and kept: parse_args reads the parser and changes nothing in it
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latbabai",
        description="Lattice decoding with the nearest-plane rule: reduction, "
        "error geometry, and communication protocols.",
    )
    parser.add_argument("--version", action="version", version=f"latbabai {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        return p

    p = add("reduce", _cmd_reduce, help="Minkowski test, obtuse superbase, Selling data")
    p.add_argument("--lattice", required=True)

    p = add("babai", _cmd_babai, help="nearest-plane point vs exact closest point")
    p.add_argument("--lattice", required=True)
    p.add_argument("--target", required=True, help="comma-separated coordinates")

    p = add("pe2d", _cmd_pe2d, help="2D error probability (closed form or geometric)")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--basis", default=None, help="lattice name or JSON path")
    p.add_argument("--polar", type=float, nargs=2, metavar=("THETA", "RHO"), default=None)

    p = add("levels", _cmd_levels, help="level-curve samples of the 2D error probability")
    p.add_argument("--k", default=None, help="comma-separated level values")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--bmax", type=float, default=2.0)

    p = add("pe3d", _cmd_pe3d, help="3D error probability with ordering search")
    p.add_argument("--lattice", required=True)

    p = add("table1", _cmd_table1, help="five known 3D lattices: Selling data, density, pe")

    p = add("random-scan", _cmd_random_scan, help="random reduced superbases above a density floor")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--floor", type=float, default=0.4)

    p = add("table2-scan", _cmd_table2_scan, help="random scan filtered to near-degenerate cells")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--floor", type=float, default=0.4)
    p.add_argument("--label-tol", type=float, default=1e-2, dest="label_tol")

    p = add("protocol-sim", _cmd_protocol_sim, help="centralized or interactive rate simulation")
    p.add_argument("--model", choices=("centralized", "interactive"), required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--source", choices=("uniform", "gauss"), default="uniform")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"latbabai: numeric failure: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"latbabai: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
