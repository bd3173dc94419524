import json
import pathlib

import pytest

from a2gcovert import __version__
from a2gcovert.cli import _row_seed, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
    body = [ln for ln in text.splitlines() if not ln.startswith("#") and ln]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return meta, header, rows


class TestRowSeed:
    def test_mode_metric_seeds_of_a_row_differ(self):
        for seed, i in ((0, 0), (0, 3), (12345, 7)):
            seeds = {_row_seed(seed, i, mode, metric)
                     for mode in ("om", "dm")
                     for metric in ("dep", "outage", "csc")}
            assert len(seeds) == 6


class TestSweep:
    def test_basic_dep_sweep(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "0.5", "--stop", "4",
             "--points", "5", "--metrics", "dep"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["axis_value", "mode", "dep"]
        assert len(rows) == 10  # 5 points x {om, dm}
        assert any(m.startswith("scenario_hash=") for m in meta)
        assert any(m.startswith("seed=") for m in meta)
        for row in rows:
            assert 0.0 <= float(row["dep"]) <= 1.0

    def test_hybrid_is_rowwise_max(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "p_a", "--start", "5", "--stop", "20",
             "--points", "4", "--metrics", "ecr",
             "--modes", "om,dm,hybrid"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        by_axis = {}
        for row in rows:
            by_axis.setdefault(row["axis_value"], {})[row["mode"]] = (
                float(row["ecr"]))
        for vals in by_axis.values():
            assert vals["hybrid"] == pytest.approx(max(vals["om"],
                                                       vals["dm"]))

    def test_mc_columns(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "2", "--metrics", "outage", "--modes", "om",
             "--mc", "--samples", "20000"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["axis_value", "mode", "outage", "mc_outage",
                          "mc_outage_stderr"]
        for row in rows:
            gap = abs(float(row["outage"]) - float(row["mc_outage"]))
            assert gap < max(0.03, 5 * float(row["mc_outage_stderr"]))

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "2", "--metrics", "dep", "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "metadata" in doc and "rows" in doc
        assert len(doc["rows"]) == 4
        # numbers carry the CSV's 10 significant digits, as JSON numbers
        code, csv_out, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "2", "--metrics", "dep"], capsys)
        _, _, csv_rows = parse_csv(csv_out)
        for row, csv_row in zip(doc["rows"], csv_rows):
            value = row["dep"]
            assert isinstance(value, float)
            assert value == float(csv_row["dep"])
            digits = repr(value).split("e")[0].replace(".", "").lstrip("0-")
            assert len(digits.rstrip("0")) <= 10

    def test_unknown_metric_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--metrics", "latency"], capsys)
        assert code == 2
        assert "unknown metric" in err

    def test_unsafe_position_exits_2(self, capsys):
        # beyond x = 2415 the transmitter-warden distance exceeds the band
        code, _, err = run_cli(
            ["sweep", "--axis", "x_a", "--start", "2500", "--stop", "3000",
             "--points", "3", "--metrics", "dep"], capsys)
        assert code == 2
        assert "d_aw" in err

    def test_allow_unsafe(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--axis", "x_a", "--start", "2500", "--stop", "3000",
             "--points", "3", "--metrics", "dep", "--allow-unsafe"], capsys)
        assert code == 0

    def test_too_few_points_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "1", "--metrics", "dep"], capsys)
        assert code == 2


class TestOptimize:
    def test_both_modes(self, capsys):
        code, out, _ = run_cli(["optimize", "--metric", "ecr"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert {row["mode"] for row in rows} == {"om", "dm"}
        for row in rows:
            assert row["feasible"] == "true"
            assert float(row["objective"]) > 0.0
            assert row["binding"] in ("power", "covertness")

    def test_csc_has_no_rate(self, capsys):
        code, out, _ = run_cli(
            ["optimize", "--metric", "csc", "--mode", "om"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["r_b_opt"] == ""


class TestModeMap:
    def test_map_covers_both_modes(self, capsys):
        code, out, _ = run_cli(
            ["mode-map", "--metric", "ecr", "--points", "12",
             "--allow-unsafe"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 12
        indicators = {row["indicator"] for row in rows}
        assert indicators <= {"om", "dm"}
        for row in rows:
            assert float(row["objective_hybrid"]) == pytest.approx(
                max(float(row["objective_om"]), float(row["objective_dm"])))


class TestValidate:
    def test_small_grid_passes(self, capsys, tmp_path):
        cfg = tmp_path / "scn.txt"
        cfg.write_text("seed = 3\n")
        code, out, _ = run_cli(
            ["validate", "--samples", "20000", "--config", str(cfg),
             "--workers", "4"], capsys)
        meta, header, rows = parse_csv(out)
        assert "passed" in header
        assert any(m.startswith("command=validate") for m in meta)
        n_fail = sum(1 for row in rows if row["passed"] != "true")
        assert code == (0 if n_fail == 0 else 1)

    def test_sample_floor(self, capsys):
        code, _, err = run_cli(["validate", "--samples", "100"], capsys)
        assert code == 2
        assert "10^4" in err


class TestDefaults:
    def test_lists_all_keys(self, capsys):
        from a2gcovert.scenario import DEFAULT_FLAT
        code, out, _ = run_cli(["defaults"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert {row["key"] for row in rows} == set(DEFAULT_FLAT)


class TestDeterminism:
    def test_sweep_bytes_stable_across_workers(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--axis", "p_a", "--start", "5", "--stop", "20",
                "--points", "3", "--metrics", "dep", "--modes", "om",
                "--mc", "--samples", "30000", "--seed", "11"]
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "8", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_loading(self, tmp_path, capsys):
        cfg = tmp_path / "scn.txt"
        cfg.write_text("alice.x = 400\np_a_dbm = 10\n")
        code, out, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "2", "--metrics", "dep", "--modes", "om",
             "--config", str(cfg)], capsys)
        assert code == 0
        meta, _, _ = parse_csv(out)
        from a2gcovert.scenario import scenario_hash, scenario_to_flat
        want = scenario_hash(scenario_to_flat(cfg.read_text()))
        assert f"scenario_hash={want}" in meta

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--metrics", "dep", "--config", "/nonexistent/scn.txt"], capsys)
        assert code == 2
        assert "error" in err


class TestVersion:
    def test_package_metadata_reads_the_module_version(self):
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            conf = tomllib.load(fh)
        assert "version" not in conf["project"]
        assert "version" in conf["project"]["dynamic"]
        attr = conf["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "a2gcovert.__version__"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"a2gcovert {__version__}"
