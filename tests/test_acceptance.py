"""Acceptance gate: one test per numbered criterion, each printing a single
CRITERION k PASS/FAIL line with the measured values before asserting.

Reference values are asserted exactly as stated, at the stated tolerances.
One reference number, the hexa-rhombic error probability 0.0617, does not
match what this implementation computes (exactly 1/12, Monte-Carlo
validated) under any column ordering, sign flip, or relabeling. The repo does
not hold the paper's Table 1 basis for that lattice, so it is not settled
whether the reference or the exemplar is at fault; criterion 1 asserts the
reference as written and fails rather than being loosened to pass.

The fixed-basis value 0.6 once quoted for {(5,0),(3,1)} is not asserted: it
is shown wrong by exact computation (criterion 3 derives 1/2 by hand).
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from latbabai.babai import nearest_plane
from latbabai.cli import main as cli_main
from latbabai.core import as_basis, qr_upper, volume
from latbabai.error2d import ReducedBasis2D, pe_closed_form, pe_geometric_2d
from latbabai.error3d import (
    mc_pe_oracle,
    pe_3d,
    random_reduced_superbase,
    scan_random,
    summarize_scan,
    voronoi_cell_3d,
)
from latbabai.lattices import BCC_UNIT, FCC, HEXAGONAL_2D
from latbabai.protocol import (
    centralized_rate_bound,
    fusion_decode,
    interactive_rate_approximation,
    interactive_simulate,
    node_encode,
    rationalize,
    uniform_source,
)
from latbabai.reduction import to_obtuse_superbase
from test_error2d import voronoi_polygon_2d

EXAMPLE_5 = np.array([[1.0, 0.4], [0.0, 2.0]])
EXAMPLE_7 = np.array([[1.0, 0.311], [0.0, 1.01]])


def _line(k, ok, detail):
    print(f"CRITERION {k} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_table1_reproduction(tmp_path):
    expected = {
        "cubic": (0.5235, 0.0),
        "hexa_rhombic_dodecahedron": (0.5235, 0.0617),
        "hexagonal_prism": (0.6046, 0.0833),
        "bcc": (0.6801, 0.1459),
        "fcc": (0.7404, 0.1505),
    }
    out = tmp_path / "table1.csv"
    t0 = time.monotonic()
    code = cli_main(["table1", "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    measured = {r[0]: (float(r[2]), float(r[3])) for r in rows[1:]}
    bad = []
    parts = []
    for name, (dens_e, pe_e) in expected.items():
        dens_m, pe_m = measured[name]
        parts.append(f"{name} ({dens_m:.4f}, {pe_m:.4f})")
        if abs(dens_m - dens_e) > 1e-3:
            bad.append(f"{name} density {dens_m:.6f} vs {dens_e} ")
        if abs(pe_m - pe_e) > 1e-3:
            bad.append(f"{name} pe {pe_m:.6f} vs {pe_e} (diff {abs(pe_m - pe_e):.4f})")
    ok = not bad and elapsed < 10.0
    detail = f"runtime {elapsed:.2f}s; " + "; ".join(parts)
    if bad:
        detail += " | out of tolerance: " + "; ".join(bad)
    assert _line(1, ok, detail), detail


def test_criterion_2_closed_form_vs_geometry_vs_mc():
    hex_rb = ReducedBasis2D(-0.5, np.sqrt(3.0) / 2.0)
    exact_ok = abs(pe_closed_form(hex_rb) - 1.0 / 12.0) <= 1e-12

    rng = np.random.default_rng(20260816)
    agree_max = 0.0
    for _ in range(100):
        while True:
            a = rng.uniform(-0.5, 0.0)
            b = rng.uniform(0.85, 1.8)
            if a * a + b * b >= 1.0:
                break
        rb = ReducedBasis2D(a, b)
        agree_max = max(agree_max, abs(pe_closed_form(rb) - pe_geometric_2d(rb.basis())))
    agree_ok = agree_max <= 1e-9

    # frozen MC panel: the hexagonal point plus ten fixed in-regime samples
    rng = np.random.default_rng(20260816)
    panel = [hex_rb]
    while len(panel) < 11:
        a = rng.uniform(-0.5, 0.0)
        b = rng.uniform(0.85, 1.8)
        if a * a + b * b >= 1.0:
            panel.append(ReducedBasis2D(a, b))
    worst_z = 0.0
    for i, rb in enumerate(panel):
        est, se = mc_pe_oracle(rb.basis(), samples=10**6, seed=1000 + i)
        z = abs(est - pe_closed_form(rb)) / max(se, 1e-12)
        worst_z = max(worst_z, z)
    mc_ok = worst_z <= 3.0

    ok = exact_ok and agree_ok and mc_ok
    assert _line(
        2,
        ok,
        f"pe(-1/2, sqrt3/2) = {pe_closed_form(hex_rb):.12f}; closed-vs-geometric "
        f"max |diff| {agree_max:.2e} over 100 points; MC worst z={worst_z:.2f} "
        f"on 11 points at 1e6 samples",
    ), (exact_ok, agree_ok, mc_ok)


def test_criterion_3_fixed_basis_values():
    v_zero = pe_geometric_2d(np.array([[1.0, -2.0], [2.0, 1.0]]))
    zero_ok = abs(v_zero) <= 1e-12
    # {(5,0),(3,1)} spans the square lattice of {(2,-1),(1,2)}, so its Voronoi
    # cell is |2x - y| <= 5/2, |x + 2y| <= 5/2. The Babai box is |x| <= 5/2,
    # |y| <= 1/2 (area 5). For every |y| <= 1/2 the cell's slice is
    # x in [(y - 5/2)/2, (y + 5/2)/2], of length 5/2 and inside the box, so
    # the intersection has area 5/2 and pe = 1 - (5/2)/5 = 1/2 exactly.
    v_skew = pe_geometric_2d(np.array([[5.0, 3.0], [0.0, 1.0]]))
    skew_ok = abs(v_skew - 0.5) <= 1e-9
    # Swapped order {(3,1),(5,0)}: in the frame of (3,1) the cell is the
    # diamond |u| + |v| <= sqrt10/2 (area 5); of the Babai box only the side
    # |v| <= sqrt10/4 cuts it.
    # The two cut-off tips are half-scale copies of the half-diamonds, 5/8
    # each, leaving 15/4 of 5, so pe = 1/4: the value follows column order.
    v_swap = pe_geometric_2d(np.array([[3.0, 5.0], [1.0, 0.0]]))
    swap_ok = abs(v_swap - 0.25) <= 1e-9
    ok = zero_ok and skew_ok and swap_ok
    detail = (
        f"{{(1,2),(-2,1)}} pe = {v_zero:.2e} (expected 0); "
        f"{{(5,0),(3,1)}} pe = {v_skew:.12f} (expected 1/2); "
        f"{{(3,1),(5,0)}} pe = {v_swap:.12f} (expected 1/4)"
    )
    assert _line(3, ok, detail), detail


def test_criterion_4_fusion_decode_agreement():
    rng = np.random.default_rng(48151623)
    mismatches = {}
    for name, V in (
        ("hexagonal", HEXAGONAL_2D),
        ("bcc", BCC_UNIT),
        ("example5", EXAMPLE_5),
        ("example7", EXAMPLE_7),
    ):
        _, R = qr_upper(as_basis(V))
        prof = rationalize(R)
        n = R.shape[0]
        bad = 0
        for x in rng.uniform(-8, 8, size=(10**4, n)):
            msgs = [node_encode(m, x[m], R, prof) for m in range(n)]
            if not np.array_equal(fusion_decode(msgs, R, prof), nearest_plane(R, x)):
                bad += 1
        mismatches[name] = bad
    ok = all(v == 0 for v in mismatches.values())
    assert _line(
        4, ok, "mismatches per lattice over 1e4 inputs: " + str(mismatches)
    ), mismatches


def test_criterion_5_rate_bounds_and_side_info():
    _, Rh = qr_upper(as_basis(HEXAGONAL_2D))
    b_hex = centralized_rate_bound(rationalize(Rh))
    b_ex7 = centralized_rate_bound(rationalize(EXAMPLE_7))
    _, Rb = qr_upper(as_basis(BCC_UNIT))
    b_bcc = centralized_rate_bound(rationalize(Rb))
    s_msg = node_encode(0, 1.0, EXAMPLE_7, rationalize(EXAMPLE_7))
    ok = (
        b_hex == 1.0
        and abs(b_ex7 - math.log2(1000)) <= 1e-4
        and abs(b_bcc - math.log2(6)) <= 1e-4
        and s_msg.s == 500
    )
    assert _line(
        5,
        ok,
        f"bounds: hexagonal {b_hex:.4f}, example7 {b_ex7:.4f}, bcc {b_bcc:.4f}; "
        f"side info at x=(1,1): s = {s_msg.s}",
    ), (b_hex, b_ex7, b_bcc, s_msg)


def test_criterion_6_fcc_ordering_sensitivity():
    result = pe_3d(FCC)
    vals = sorted(result.per_ordering.values())
    has_low = any(abs(v - 0.1505) <= 1e-3 for v in vals)
    has_high = any(abs(v - 0.1667) <= 1e-3 for v in vals)
    min_ok = abs(result.pe - 0.1505) <= 1e-3 and result.pe == min(vals)
    ok = has_low and has_high and min_ok
    assert _line(
        6,
        ok,
        f"six orderings give {{{', '.join(f'{v:.6f}' for v in sorted(set(round(v, 9) for v in vals)))}}}; "
        f"minimum {result.pe:.6f} at ordering {result.best_ordering}",
    ), result.per_ordering


def test_criterion_7_density_floor_scan():
    t0 = time.monotonic()
    records = scan_random(1000, density_floor=0.4, seed=0)
    elapsed = time.monotonic() - t0
    summary = summarize_scan(records)
    threshold = 0.1505 + 1e-3
    ok = summary["max_pe"] <= threshold and elapsed < 300.0
    assert _line(
        7,
        ok,
        f"1000 trials, {summary['count']} records above density 0.4, "
        f"max pe = {summary['max_pe']:.6f} (threshold {threshold}), "
        f"runtime {elapsed:.1f}s",
    ), summary


def test_criterion_8_interactive_agreement_and_rate():
    sources = [uniform_source(0.0, 1.0)] * 2
    alpha = 2**-8
    _, R = qr_upper(as_basis(HEXAGONAL_2D))
    Rs = alpha * R

    # explicit all-node agreement: the broadcast recursion every node runs
    # must equal a local nearest-plane decode, input by input
    rng = np.random.default_rng(90210)
    disagreements = 0
    for _ in range(1000):
        x = np.array([s.sample(rng, 1)[0] for s in sources])
        u = np.zeros(2, dtype=int)
        for i in (1, 0):
            resid = x[i] - (Rs[i, i + 1 :] @ u[i + 1 :] if i + 1 < 2 else 0.0)
            u[i] = math.floor(resid / Rs[i, i] + 0.5)
        if not np.array_equal(u, nearest_plane(Rs, x)):
            disagreements += 1

    approx = interactive_rate_approximation(sources, HEXAGONAL_2D, alpha)
    _, empirical = interactive_simulate(sources, HEXAGONAL_2D, alpha, samples=5 * 10**5, seed=314159)
    gap_per_dim = abs(empirical - approx) / 2.0
    ok = disagreements == 0 and gap_per_dim <= 0.3
    assert _line(
        8,
        ok,
        f"coefficient disagreements: {disagreements}/1000; empirical rate "
        f"{empirical:.4f} vs approximation {approx:.4f} "
        f"({gap_per_dim:.3f} bits/dim, tolerance 0.3)",
    ), (disagreements, empirical, approx)


def test_criterion_9_geometry_invariant_suite():
    vol_worst = 0.0
    sym_fail = euler_fail = 0
    for seed in range(100):
        V, _ = random_reduced_superbase(rng_seed=seed)
        cell = voronoi_cell_3d(to_obtuse_superbase(V).basis())
        vol_worst = max(vol_worst, abs(cell.volume - volume(V)))
        if not cell.is_centrally_symmetric():
            sym_fail += 1
        if cell.euler_characteristic != 2:
            euler_fail += 1

    rng = np.random.default_rng(271828)
    area_worst = 0.0
    for _ in range(100):
        while True:
            a = rng.uniform(-0.5, 0.5)
            b = rng.uniform(0.8, 2.0)
            if a * a + b * b >= 1.0:
                break
        rb = ReducedBasis2D(a, b)
        area_worst = max(area_worst, abs(voronoi_polygon_2d(rb).area - rb.b))

    ok = vol_worst <= 1e-9 and sym_fail == 0 and euler_fail == 0 and area_worst <= 1e-9
    assert _line(
        9,
        ok,
        f"100 3D cells: worst |vol - det| = {vol_worst:.2e}, symmetry failures "
        f"{sym_fail}, Euler failures {euler_fail}; 100 2D cells: worst "
        f"|area - b| = {area_worst:.2e}",
    ), (vol_worst, sym_fail, euler_fail, area_worst)
