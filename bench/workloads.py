"""The three benchmark workloads: inputs drawn from the seed, timed blocks, checks.

A workload is a list of blocks. A block is a fixed list of inputs (one
"pass") and the call that is timed on each input. Every input is timed one
call at a time, so all workloads are closed loops with a single caller.
Checks run between calls, outside the timed region; `check` returns the
exact counts an input contributes on the first pass and raises CheckFailed
when an output is wrong.
"""

import csv
import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import latbabai
from latbabai import babai, cli, core, error3d, protocol

# Untraced references for the checks: the traced run swaps the module
# attributes for wrappers, and checks must not add spans of their own.
_classify_cell = error3d.classify_cell
_mc_pe_oracle = error3d.mc_pe_oracle
_nearest_plane = babai.nearest_plane
_pe_3d = error3d.pe_3d
_random_reduced_superbase = error3d.random_reduced_superbase

# pe_3d of the exemplars as the code computes it and mc_pe_oracle confirms;
# the tabulated 0.0617 for the hexa-rhombic cell is not reproduced.
EXEMPLAR_PE = {
    "cubic": Fraction(0),
    "hexa_rhombic_dodecahedron": Fraction(1, 12),
    "hexagonal_prism": Fraction(1, 12),
    "bcc": Fraction(7, 48),
    "fcc": Fraction(65, 432),
}
Z_BOUND = 5.0  # mc_pe_oracle agreement: |pe - mc| <= Z_BOUND * se
MC_CHECK_SAMPLES = 20_000
MC_CHECK_RECORDS = 3

PARAMS = {
    "scan": {
        "scan_calls": 16,
        "trials_per_call": 5,
        "density_floor": 0.0,
        "pe3d_exemplars": list(latbabai.KNOWN_LATTICES),
        "pe3d_random_bases": 95,
    },
    "scan_dense": {
        "cli_calls": 30,
        "trials_per_call": 100,
        "density_floor": 0.4,
        "filter_steps": 1000,
    },
    "decode": {
        "babai_lattices": ["HEXAGONAL_2D", "BCC_UNIT", "FCC", "HEXA_RHOMBIC"],
        "queries": 1000,
        "fusion_lattices": ["HEXAGONAL_2D", "BCC_UNIT"],
        "alpha": 2.0**-8,
        "rounds": 1000,
        "mc_lattices": list(latbabai.KNOWN_LATTICES),
        "mc_samples": 200_000,
        "protocol_lattices": ["HEXAGONAL_2D", "BCC_UNIT"],
        "protocol_samples": 50_000,
    },
}


class CheckFailed(Exception):
    """An output failed its correctness check."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Block:
    """One timed block: `call(item)` is timed, `check(item, out)` is not.

    kind "latency" reports latency percentiles, kind "rate" units per second.
    """

    name: str
    kind: str
    items: list
    call: Callable
    check: Callable
    share: float  # fraction of the run's measuring time
    units: Callable = field(default=lambda item: 1)


@dataclass
class Workload:
    """Blocks plus how they map to the end-to-end metrics.

    rate_per_s is the units of one pass over `rate_blocks` per second of
    their mean call times; call_p50_ms and call_p90_ms come from
    `latency_block`. `named` gives the figures printed by operation name as
    (block, statistic, scale, unit).
    """

    name: str
    blocks: list
    rate_blocks: tuple
    latency_block: str
    named: dict
    final_checks: Callable  # (first-pass counts by block) -> list of failure messages


def _seeds(seed, tag, n):
    ss = np.random.SeedSequence([seed, tag])
    return [int(s) for s in ss.generate_state(n)]


def _check_record(pe, selling, cell_type):
    _require(0.0 <= pe < 1.0, f"scan record pe {pe} outside [0, 1)")
    expected = _classify_cell(np.maximum(-np.asarray(selling, dtype=float), 0.0))
    _require(expected.value == cell_type, f"cell_type {cell_type} != classify_cell {expected.value}")


def _mc_agrees(records):
    """First few (trial seed, pe) pairs against mc_pe_oracle; failures as messages.

    The basis is regenerated from its trial seed and put in the column order
    pe_3d chose, because mc_pe_oracle decodes in the order it is given.
    """
    bad = []
    for seed, pe in records[:MC_CHECK_RECORDS]:
        V, _ = _random_reduced_superbase(seed)
        res = _pe_3d(V)
        if abs(res.pe - pe) > 1e-11:
            bad.append(f"trial {seed}: recorded pe {pe!r}, regenerated {res.pe!r}")
            continue
        p, se = _mc_pe_oracle(V[:, list(res.best_ordering)], MC_CHECK_SAMPLES, seed=seed)
        if abs(pe - p) > Z_BOUND * max(se, 1.0 / MC_CHECK_SAMPLES):
            bad.append(f"trial {seed}: pe {pe:.6f} vs mc {p:.6f} +- {se:.6f}")
    return bad


@functools.cache
def _pe_given_order(name):
    """pe of an exemplar decoded in its given column order, what mc_pe_oracle estimates."""
    return _pe_3d(latbabai.KNOWN_LATTICES[name]).per_ordering[(0, 1, 2)]


# --- scan -------------------------------------------------------------------


def _scan(seed):
    p = PARAMS["scan"]
    T = p["trials_per_call"]

    def scan_call(s):
        records = error3d.scan_random(T, density_floor=p["density_floor"], seed=s)
        return records, error3d.summarize_scan(records)

    def scan_check(s, out):
        records, summary = out
        _require(len(records) == T, f"{len(records)} records from {T} trials at floor 0")
        for r in records:
            _check_record(r.pe, r.selling, r.cell_type.value)
        _require(summary["count"] == T and summary["max_pe"] == max(r.pe for r in records),
                 "summarize_scan disagrees with its records")
        return {"records": len(records), "mc_records": [(r.seed, r.pe) for r in records]}

    exemplars = list(latbabai.KNOWN_LATTICES.items())
    randoms = [("random", _random_reduced_superbase(s)[0])
               for s in _seeds(seed, 2, p["pe3d_random_bases"])]

    def pe3d_check(item, res):
        name, _ = item
        _require(0.0 <= res.pe < 1.0, f"pe_3d {res.pe} outside [0, 1)")
        if name in EXEMPLAR_PE:
            _require(abs(res.pe - float(EXEMPLAR_PE[name])) <= 1e-12,
                     f"pe_3d({name}) = {res.pe!r}, expected {EXEMPLAR_PE[name]}")
        return {}

    blocks = [
        Block("scan_random", "rate", _seeds(seed, 1, p["scan_calls"]), scan_call, scan_check,
              0.55, units=lambda s: T),
        Block("pe_3d", "latency", exemplars + randoms, lambda item: error3d.pe_3d(item[1]),
              pe3d_check, 0.45),
    ]

    named = {
        "trials_per_s": ("scan_random", "units_per_s", 1.0, "1/s"),
        "pe3d_p50_ms": ("pe_3d", "p50_s", 1e3, "ms"),
        "pe3d_p90_ms": ("pe_3d", "p90_s", 1e3, "ms"),
    }
    return Workload("scan", blocks, ("scan_random",), "pe_3d", named,
                    lambda first: _mc_agrees(first["scan_random"]["mc_records"]))


# --- scan_dense -------------------------------------------------------------


def _scan_dense(seed, out_path):
    p = PARAMS["scan_dense"]
    T = p["trials_per_call"]
    floor = p["density_floor"]

    def cli_call(s):
        return cli.main(["random-scan", "--trials", str(T), "--seed", str(s),
                         "--floor", str(floor), "--out", out_path])

    def cli_check(s, rc):
        _require(rc == 0, f"random-scan exited {rc}")
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
        _require(f"# count: {len(rows)}" in comments, "count comment disagrees with the rows")
        mc = []
        for row in rows:
            selling = [float(row[k]) for k in ("s01", "s02", "s03", "s23", "s13", "s12")]
            _check_record(float(row["pe"]), selling, row["cell_type"])
            _require(float(row["density"]) >= floor, "record below the density floor")
            mc.append((int(row["trial_seed"]), float(row["pe"])))
        return {"records": len(rows), "trials": T, "mc_records": mc}

    def filter_call(s):
        V, attempts = error3d.random_reduced_superbase(s)
        return attempts, core.packing_density(V)

    def filter_check(s, out):
        attempts, dens = out
        # pi / sqrt(18) is the densest 3D lattice packing (FCC)
        _require(attempts >= 1 and 0.0 < dens <= math.pi / math.sqrt(18.0) + 1e-9,
                 f"sample {s}: attempts {attempts}, density {dens}")
        return {"draws": attempts, "bases": 1}

    blocks = [
        Block("random_scan_cli", "rate", _seeds(seed, 3, p["cli_calls"]), cli_call, cli_check,
              0.6, units=lambda s: T),
        Block("density_filter", "latency", _seeds(seed, 4, p["filter_steps"]), filter_call,
              filter_check, 0.4),
    ]

    named = {
        "trials_per_s": ("random_scan_cli", "units_per_s", 1.0, "1/s"),
        "filter_p50_ms": ("density_filter", "p50_s", 1e3, "ms"),
        "filter_p90_ms": ("density_filter", "p90_s", 1e3, "ms"),
    }
    return Workload("scan_dense", blocks, ("random_scan_cli",), "density_filter", named,
                    lambda first: _mc_agrees(first["random_scan_cli"]["mc_records"]))


# --- decode -----------------------------------------------------------------


def _decode(seed):
    p = PARAMS["decode"]
    rng = np.random.default_rng([seed, 5])
    babai_lattices = [getattr(latbabai, name) for name in p["babai_lattices"]]
    queries = []
    for k in range(p["queries"]):
        V = babai_lattices[k % len(babai_lattices)]
        queries.append((V, V @ rng.uniform(-3.0, 3.0, V.shape[0])))

    def babai_call(item):
        V, x = item
        return babai.babai_point(V, x), core.cvp_bruteforce(V, x)

    def babai_check(item, out):
        _, x = item
        approx, exact = out
        d_approx = float(np.linalg.norm(x - approx.point))
        d_exact = float(np.linalg.norm(x - exact.point))
        _require(d_exact <= d_approx + 1e-12, f"cvp_bruteforce {d_exact} farther than Babai {d_approx}")
        return {"misses": int(d_exact < d_approx - 1e-12), "queries": 1}

    alpha = p["alpha"]
    fusion = []
    for name in p["fusion_lattices"]:
        R = alpha * core.qr_upper(getattr(latbabai, name))[1]
        fusion.append((R, protocol.rationalize(R)))
    rounds = []
    for k in range(p["rounds"]):
        R, profile = fusion[k % len(fusion)]
        rounds.append((R, profile, rng.uniform(-1.0, 1.0, R.shape[0])))

    def fusion_call(item):
        R, profile, x = item
        msgs = [protocol.node_encode(m, x[m], R, profile) for m in range(profile.n)]
        return protocol.fusion_decode(msgs, R, profile)

    def fusion_check(item, b):
        R, _, x = item
        _require(np.array_equal(b, _nearest_plane(R, x)), "fusion_decode != nearest_plane")
        return {}

    mc_items = [(name, latbabai.KNOWN_LATTICES[name], s)
                for name, s in zip(p["mc_lattices"], _seeds(seed, 6, len(p["mc_lattices"])))]

    def mc_call(item):
        _, V, s = item
        return error3d.mc_pe_oracle(V, p["mc_samples"], seed=s)

    def mc_check(item, out):
        name = item[0]
        est, se = out
        exact = _pe_given_order(name)
        _require(abs(est - exact) <= Z_BOUND * max(se, 1.0 / p["mc_samples"]),
                 f"mc_pe_oracle({name}) = {est} +- {se}, exact {exact}")
        return {}

    proto_items = []
    proto_seeds = _seeds(seed, 7, 2 * len(p["protocol_lattices"]))
    for k, name in enumerate(p["protocol_lattices"]):
        V = getattr(latbabai, name)
        proto_items.append(("interactive", name, V, proto_seeds[2 * k]))
        proto_items.append(("centralized", name, V, proto_seeds[2 * k + 1]))

    def proto_call(item):
        kind, _, V, s = item
        sources = [protocol.uniform_source() for _ in range(V.shape[0])]
        samples = p["protocol_samples"]
        if kind == "interactive":
            return protocol.interactive_simulate(sources, V, alpha, samples, seed=s)[1]
        return protocol.centralized_total_rate(sources, V, alpha, samples=samples, seed=s).empirical_bits

    def proto_check(item, rate):
        _require(math.isfinite(rate) and rate > 0.0, f"{item[0]} rate {rate} on {item[1]}")
        return {}

    blocks = [
        Block("babai_query", "latency", queries, babai_call, babai_check, 0.35),
        Block("fusion_round", "latency", rounds, fusion_call, fusion_check, 0.15),
        Block("mc_pe_oracle", "rate", mc_items, mc_call, mc_check, 0.2,
              units=lambda item: p["mc_samples"]),
        Block("protocol", "rate", proto_items, proto_call, proto_check, 0.3,
              units=lambda item: p["protocol_samples"]),
    ]
    named = {
        "babai_query_p50_us": ("babai_query", "p50_s", 1e6, "us"),
        "babai_query_p99_us": ("babai_query", "p99_s", 1e6, "us"),
        "fusion_round_p50_us": ("fusion_round", "p50_s", 1e6, "us"),
        "fusion_round_p99_us": ("fusion_round", "p99_s", 1e6, "us"),
        "mc_samples_per_s": ("mc_pe_oracle", "units_per_s", 1.0, "1/s"),
        "protocol_samples_per_s": ("protocol", "units_per_s", 1.0, "1/s"),
    }
    return Workload("decode", blocks, ("mc_pe_oracle", "protocol"), "babai_query", named,
                    lambda first: [])


def build(name, seed, out_path):
    """Workload `name` with inputs drawn from `seed`; CLI output goes to out_path."""
    warnings.simplefilter("error", core.EnumerationWindowWarning)
    if name == "scan":
        return _scan(seed)
    if name == "scan_dense":
        return _scan_dense(seed, out_path)
    return _decode(seed)


NAMES = ("scan", "scan_dense", "decode")
