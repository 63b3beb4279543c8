import csv
import io
import json

import numpy as np
import pytest

from latbabai import __version__, cli
from latbabai.babai import is_babai_error
from latbabai.cli import main
from latbabai.lattices import BCC_UNIT, KNOWN_LATTICES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def parse_csv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return comments, rows[0], rows[1:]


@pytest.fixture
def lattice_file(tmp_path):
    def write(columns, name="lat.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"n": len(columns[0]), "columns": columns}))
        return str(path)

    return write


def test_meta_block_identifies_run(capsys):
    doc = run_json(capsys, "reduce", "--lattice", "bcc")
    meta = doc["meta"]
    assert meta["tool"] == "latbabai"
    assert meta["version"] == __version__
    assert meta["subcommand"] == "reduce"
    assert "lattice=bcc" in meta["config"]


def test_reduce_bcc(capsys):
    doc = run_json(capsys, "reduce", "--lattice", "bcc")
    assert doc["minkowski"] is True
    assert doc["violated"] is None
    assert len(doc["superbase"]) == 4
    assert np.allclose(np.sum(doc["superbase"], axis=0), 0.0, atol=1e-9)
    assert doc["selling"] == pytest.approx([-1.0] * 6, abs=1e-9)
    assert doc["conorms"] == pytest.approx([1.0] * 6, abs=1e-9)
    assert len(doc["vonorms"]) == 7


def test_reduce_2d(capsys):
    doc = run_json(capsys, "reduce", "--lattice", "hexagonal")
    assert doc["minkowski"] is True
    assert len(doc["superbase"]) == 3
    assert len(doc["selling"]) == 3
    assert len(doc["vonorms"]) == 3


def test_babai_subcommand(capsys):
    doc = run_json(capsys, "babai", "--lattice", "hexagonal", "--target", "0.3,0.44")
    assert set(doc) == {"meta", "coeffs", "point", "exact_point", "is_error"}
    assert len(doc["coeffs"]) == 2
    from latbabai.lattices import HEXAGONAL_2D

    assert doc["is_error"] == is_babai_error(HEXAGONAL_2D, np.array([0.3, 0.44]))


def test_babai_rejects_bad_target(capsys):
    code, _, err = run_cli(capsys, "babai", "--lattice", "hexagonal", "--target", "1,2,3")
    assert code == 2
    assert "invalid input" in err


def test_pe2d_ab_form(capsys):
    doc = run_json(capsys, "pe2d", "--a", "-0.5", "--b", str(np.sqrt(3.0) / 2.0))
    assert doc["pe_closed"] == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert doc["pe_geometric"] == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert doc["density"] == pytest.approx(np.pi / (2 * np.sqrt(3.0)), abs=1e-9)


def test_pe2d_polar_and_basis(capsys, lattice_file):
    doc = run_json(capsys, "pe2d", "--polar", str(2 * np.pi / 3), "1.0")
    assert doc["pe"] == pytest.approx(1.0 / 12.0, abs=1e-12)
    path = lattice_file([[5.0, 0.0], [3.0, 1.0]])
    doc2 = run_json(capsys, "pe2d", "--basis", path)
    assert doc2["pe_geometric"] == pytest.approx(0.5, abs=1e-9)


def test_pe2d_basis_too_flat_for_the_polygon_exits_3(capsys, lattice_file):
    path = lattice_file([[1e-9, 0.0], [0.0, 1.0]])
    code, out, err = run_cli(capsys, "pe2d", "--basis", path)
    assert (code, out) == (3, "")
    assert err.startswith("latbabai: numeric failure:") and "2 vertices" in err


def test_pe2d_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "pe2d")
    assert code == 2
    code2, _, _ = run_cli(capsys, "pe2d", "--a", "-0.3", "--b", "1.0", "--polar", "2.0", "1.0")
    assert code2 == 2


def test_levels_k_zero_segment(capsys):
    code, out, _ = run_cli(capsys, "levels", "--k", "0", "--grid", "20")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["k", "a", "b", "pe"]
    assert comments[0].startswith(f"# latbabai {__version__} levels")
    assert len(rows) == 20
    assert all(row[1] == "0" and row[3] == "0" for row in rows)


def test_pe3d_fcc_orderings(capsys):
    doc = run_json(capsys, "pe3d", "--lattice", "fcc")
    assert doc["cell_type"] == "rhombic_dodecahedron"
    assert doc["pe"] == pytest.approx(65.0 / 432.0, abs=1e-9)
    assert len(doc["per_ordering"]) == 6
    vals = sorted(set(round(v, 6) for v in doc["per_ordering"].values()))
    assert vals == [pytest.approx(0.150463, abs=1e-6), pytest.approx(0.166667, abs=1e-6)]
    assert doc["per_ordering"][doc["best_ordering"]] == doc["pe"]
    assert doc["density"] == pytest.approx(np.pi / (3 * np.sqrt(2.0)), abs=1e-9)


@pytest.mark.parametrize("name", sorted(KNOWN_LATTICES))
def test_pe3d_and_reduce_at_any_scale(capsys, lattice_file, name):
    V = np.asarray(KNOWN_LATTICES[name])
    unit = run_json(capsys, "pe3d", "--lattice", name)
    unit_reduce = run_json(capsys, "reduce", "--lattice", name)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e4):
        path = lattice_file((scale * V).T.tolist())
        doc = run_json(capsys, "pe3d", "--lattice", path)
        assert doc["cell_type"] == unit["cell_type"], scale
        assert doc["per_ordering"].keys() == unit["per_ordering"].keys()
        for perm, pe in unit["per_ordering"].items():
            assert doc["per_ordering"][perm] == pytest.approx(pe, abs=1e-14), (scale, perm)
        # the obtuse and Minkowski tests are relative to the basis's norms
        doc = run_json(capsys, "reduce", "--lattice", path)
        assert (doc["minkowski"], doc["violated"]) == (unit_reduce["minkowski"], unit_reduce["violated"]), scale


@pytest.mark.parametrize("scale", [1e-158, 2.0**-1000], ids=["1e-158", "2^-1000"])
def test_pe3d_density_on_a_tiny_basis(capsys, lattice_file, scale):
    # |det V| underflows; the density, the P_e and the cell type are taken on
    # a power-of-two rescaling
    path = lattice_file((scale * np.asarray(KNOWN_LATTICES["fcc"])).T.tolist())
    code, out, err = run_cli(capsys, "pe3d", "--lattice", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["cell_type"] == "rhombic_dodecahedron"
    assert doc["density"] == pytest.approx(np.pi / np.sqrt(18.0), rel=1e-15)
    assert doc["pe"] == pytest.approx(65.0 / 432.0, abs=1e-15)


def test_pe3d_and_reduce_on_a_long_prism(capsys, lattice_file):
    # the identity superbase of this basis is not obtuse (p_12 = +0.3)
    path = lattice_file([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1e5]])
    doc = run_json(capsys, "pe3d", "--lattice", path)
    assert doc["cell_type"] == "hexagonal_prism"
    assert doc["pe"] == pytest.approx(0.0525, abs=1e-12)
    # one long vector loosens no Minkowski test on the short ones
    doc = run_json(capsys, "reduce", "--lattice", path)
    assert (doc["minkowski"], doc["violated"]) == (True, None)
    path = lattice_file([[1.0, 0.0, 0.0], [0.55, 1.0, 0.0], [0.0, 0.0, 1e4]])
    doc = run_json(capsys, "reduce", "--lattice", path)
    assert (doc["minkowski"], doc["violated"]) == (False, "2|a12| > a11")


def test_table1_rows(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["lattice", "selling", "density", "pe"]
    by_name = {row[0]: row for row in rows}
    assert set(by_name) == {"cubic", "hexa_rhombic_dodecahedron", "hexagonal_prism", "bcc", "fcc"}
    assert float(by_name["cubic"][3]) == pytest.approx(0.0, abs=1e-12)
    assert float(by_name["bcc"][2]) == pytest.approx(0.6801, abs=1e-3)
    assert float(by_name["bcc"][3]) == pytest.approx(7.0 / 48.0, abs=1e-9)
    assert len(by_name["fcc"][1].split(";")) == 6


def test_pe3d_and_table1_search_for_the_superbase_once(capsys, monkeypatch):
    # pe_3d reports the Selling data and cell type of the superbase its
    # kernel found, so the subcommands make no second sign search
    calls = {"to_obtuse_superbase": 0, "conorms": 0}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    run_json(capsys, "pe3d", "--lattice", "fcc")
    assert run_cli(capsys, "table1")[0] == 0
    assert calls == {"to_obtuse_superbase": 0, "conorms": 0}
    run_json(capsys, "reduce", "--lattice", "fcc")  # the counters count
    assert calls == {"to_obtuse_superbase": 1, "conorms": 1}


def test_random_scan_structure_and_determinism(capsys):
    args = ("random-scan", "--trials", "50", "--seed", "3", "--floor", "0.0")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code2, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    comments, header, rows = parse_csv(out1)
    assert header[:4] == ["trial_seed", "density", "pe", "cell_type"]
    assert header[4:] == ["s01", "s02", "s03", "s23", "s13", "s12"]
    assert len(rows) == 50
    assert any(c.startswith("# count: 50") for c in comments)
    max_pe = max(float(r[2]) for r in rows)
    assert any(c == f"# max_pe: {format(max_pe, '.12g')}" for c in comments)
    # selling parameters of an obtuse superbase are nonpositive
    assert all(float(v) <= 1e-12 for r in rows for v in r[4:])


def test_random_scan_density_floor_filters(capsys):
    code, out, _ = run_cli(capsys, "random-scan", "--trials", "120", "--seed", "9", "--floor", "0.5")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert all(float(r[1]) >= 0.5 for r in rows)


def test_random_scan_refuses_a_nan_or_inf_floor(capsys):
    # NaN compares false with every density, so it would keep every trial;
    # +inf would keep none and report a max_pe of nan
    code, out, err = run_cli(capsys, "random-scan", "--trials", "3", "--seed", "0", "--floor", "nan")
    assert code == 2 and out == "" and "NaN" in err
    code, out, err = run_cli(capsys, "random-scan", "--trials", "3", "--seed", "0", "--floor", "inf")
    assert code == 2 and out == "" and len(err.splitlines()) == 1 and "+inf" in err
    # -inf is no floor at all
    code, out, _ = run_cli(capsys, "random-scan", "--trials", "3", "--seed", "0", "--floor=-inf")
    comments, _, rows = parse_csv(out)
    assert code == 0 and len(rows) == 3 and "# count: 3" in comments


def test_table2_scan(capsys):
    code, out, _ = run_cli(
        capsys, "table2-scan", "--trials", "150", "--seed", "5", "--floor", "0.3"
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header[:5] == ["trial_seed", "density", "pe", "cell_near", "cell_exact"]
    assert any("near_degenerate:" in c for c in comments)
    for row in rows:
        assert row[3] != "truncated_octahedron"


def test_protocol_sim_centralized(capsys):
    doc = run_json(
        capsys,
        "protocol-sim", "--model", "centralized", "--lattice", "hexagonal",
        "--alpha", str(2**-6), "--samples", "2000", "--seed", "1",
    )
    assert doc["decode_mismatches"] == 0
    assert doc["side_info_bits"] == pytest.approx(1.0, abs=1e-12)
    assert doc["rate_bound"] > 0 and doc["empirical_rate"] > 0


def test_protocol_sim_interactive(capsys):
    # coarse alpha keeps the joint coefficient support small enough for a
    # 2000-sample plug-in entropy; rate accuracy at scale is covered elsewhere
    doc = run_json(
        capsys,
        "protocol-sim", "--model", "interactive", "--lattice", "hexagonal",
        "--alpha", str(2**-3), "--samples", "2000", "--seed", "1",
    )
    assert doc["decode_mismatches"] == 0
    assert doc["side_info_bits"] == 0.0
    assert abs(doc["empirical_rate"] - doc["rate_bound"]) / 2 < 0.5


@pytest.mark.parametrize("model", ["centralized", "interactive"])
def test_protocol_sim_too_few_samples_exits_2(capsys, model):
    code, _, err = run_cli(
        capsys, "protocol-sim", "--model", model, "--lattice", "hexagonal",
        "--alpha", "0.0625", "--samples", "50",
    )
    assert code == 2
    assert "fewer than 100 samples" in err


def test_protocol_sim_irrational_lattice_exits_3(capsys, lattice_file):
    path = lattice_file([[1.0, 0.0], [1.0 / 3.0 + 1e-8, 1.0]])
    code, _, err = run_cli(
        capsys, "protocol-sim", "--model", "centralized", "--lattice", path, "--alpha", "1.0"
    )
    assert code == 3
    assert "numeric failure" in err


def test_rank_deficient_lattice_exits_3(capsys, lattice_file):
    path = lattice_file([[1.0, 0.0], [2.0, 0.0]])
    code, _, err = run_cli(capsys, "reduce", "--lattice", path)
    assert code == 3
    assert "numeric failure" in err


# the 2^600 target overflows d @ d in cvp_bruteforce before the search's
# Python float overflow, which is the error under test
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale, target, message", [
    # coefficients near 2^600, beyond int64, from the nearest-plane rounding
    (2.0**-600, (0.3, 0.2, 0.1), "outside the int64 range"),
    # the closest-point search squares a term beyond the float range
    (2.0**600, (0.3 * 2.0**600, 0.2 * 2.0**600, 0.1 * 2.0**600), "out of range"),
])
def test_babai_overflow_exits_3(capsys, lattice_file, scale, target, message):
    path = lattice_file((scale * BCC_UNIT).T.tolist())
    code, out, err = run_cli(capsys, "babai", "--lattice", path, "--target", ",".join(map(repr, target)))
    assert (code, out) == (3, "")
    assert err.startswith("latbabai: numeric failure:") and message in err
    assert err.count("\n") == 1


def test_unknown_lattice_exits_2(capsys):
    code, _, err = run_cli(capsys, "reduce", "--lattice", "no_such_lattice.json")
    assert code == 2
    assert "invalid input" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "reduce", "--lattice", str(path))
    assert code == 2


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    out_path = tmp_path / "t1.csv"
    code, _, _ = run_cli(capsys, "table1", "--out", str(out_path))
    assert code == 0
    code2, stdout, _ = run_cli(capsys, "table1")
    assert code2 == 0
    assert out_path.read_text() == stdout


def test_csv_reemit_roundtrip(capsys):
    # parsing the CSV and re-writing it with the csv module is lossless
    code, out, _ = run_cli(capsys, "random-scan", "--trials", "30", "--seed", "2")
    assert code == 0
    comments, header, rows = parse_csv(out)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    body = [line for line in out.splitlines(keepends=True) if not line.startswith("#")]
    assert buf.getvalue() == "".join(body)
