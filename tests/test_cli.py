import json
import math
import pathlib
import warnings
from dataclasses import replace

import pytest

from a2gcovert import __version__, scenario
from a2gcovert.cli import _MC_METRIC_IDS, _MODE_IDS, build_parser, main
from a2gcovert.oracle import derived_seed


def _row_seed(seed, axis_index, mode, metric):
    """The oracle seed of a (mode, metric) column of a group of sweep
    points whose first row is ``axis_index``."""
    return derived_seed(seed, axis_index, _MODE_IDS[mode],
                        _MC_METRIC_IDS[metric])


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

    def test_mc_outage_and_csc_share_the_outage_seed(self, capsys):
        # a rho sweep is one group of equal state tables: every row is
        # evaluated on the draws of row 0's outage seed
        from a2gcovert.channel import NoiseModel
        from a2gcovert.cli import _fmt
        from a2gcovert.oracle import mc_ergodic_capacity, mc_outage
        from a2gcovert.scenario import db_to_linear, default_scenario
        n, seed = 20000, 4
        code, out, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "2", "--metrics", "outage,csc", "--modes", "dm",
             "--mc", "--samples", str(n), "--seed", str(seed)], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        scn = default_scenario(seed=seed)
        group_seed = _row_seed(seed, 0, "dm", "outage")
        for row in rows:
            rho = db_to_linear(float(row["axis_value"]))
            point = replace(scn, noise=NoiseModel(scn.noise.sigma_n2, rho))
            est = mc_outage(point, mode="dm", n=n, seed=group_seed)
            cap = mc_ergodic_capacity(point, mode="dm", n=n, seed=group_seed)
            assert row["mc_outage"] == _fmt(est.mean)
            assert row["mc_csc"] == _fmt(cap.mean)
            assert row["mc_csc_stderr"] == _fmt(cap.std_error)

    def test_x_a_rows_keep_their_own_seeds(self, capsys):
        # every x_a point has its own state tables, so each row is a group
        # of one, drawn from its own row's seeds
        from a2gcovert.cli import _fmt
        from a2gcovert.oracle import (mc_ergodic_capacity,
                                      mc_expected_min_dep, mc_outage)
        from a2gcovert.scenario import NodePosition, default_scenario
        n, seed = 20000, 9
        code, out, _ = run_cli(
            ["sweep", "--axis", "x_a", "--start", "400", "--stop", "1600",
             "--points", "3", "--metrics", "dep,outage,csc", "--mc",
             "--samples", str(n), "--seed", str(seed)], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        scn = default_scenario(seed=seed)
        for j, row in enumerate(rows):
            i, mode = j // 2, row["mode"]
            point = replace(scn, alice=NodePosition(
                float(row["axis_value"]), scn.alice.y, scn.alice.h))
            dep = mc_expected_min_dep(point, mode, n=n,
                                      seed=_row_seed(seed, i, mode, "dep"))
            bob_seed = _row_seed(seed, i, mode, "outage")
            est = mc_outage(point, mode, n=n, seed=bob_seed)
            cap = mc_ergodic_capacity(point, mode, n=n, seed=bob_seed)
            assert row["mc_dep"] == _fmt(dep.mean)
            assert row["mc_dep_stderr"] == _fmt(dep.std_error)
            assert row["mc_outage"] == _fmt(est.mean)
            assert row["mc_outage_stderr"] == _fmt(est.std_error)
            assert row["mc_csc"] == _fmt(cap.mean)
            assert row["mc_csc_stderr"] == _fmt(cap.std_error)

    def test_p_a_rows_share_draws(self, capsys):
        # common draws: the MC outage cannot rise with p_a, nor the CSC
        # fall, even where a step moves them by about one standard error
        code, out, _ = run_cli(
            ["sweep", "--axis", "p_a", "--start", "14.9", "--stop", "15.1",
             "--points", "6", "--metrics", "outage,csc", "--mc",
             "--samples", "20000", "--seed", "3"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        for mode in ("om", "dm"):
            cells = [r for r in rows if r["mode"] == mode]
            outages = [float(r["mc_outage"]) for r in cells]
            capacities = [float(r["mc_csc"]) for r in cells]
            assert outages == sorted(outages, reverse=True)
            assert capacities == sorted(capacities)
            assert outages[0] > outages[-1]

    def test_hybrid_only_draws_nothing(self, capsys, monkeypatch):
        from a2gcovert import cli
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return []

        monkeypatch.setattr(cli, "mc_dep_points", counting)
        monkeypatch.setattr(cli, "mc_receiver_points", counting)
        base = ["sweep", "--axis", "p_a", "--start", "5", "--stop", "20",
                "--points", "3", "--metrics", "dep,outage,ecr,csc",
                "--modes", "hybrid", "--seed", "11"]
        code, out, _ = run_cli(base + ["--mc", "--samples", "20000"], capsys)
        assert code == 0 and calls == []
        _, header, rows = parse_csv(out)
        assert header[-2:] == ["mc_csc", "mc_csc_stderr"]
        _, _, plain = parse_csv(run_cli(base, capsys)[1])
        assert [{k: v for k, v in r.items() if not k.startswith("mc_")}
                for r in rows] == plain
        assert all(v == "" for r in rows
                   for k, v in r.items() if k.startswith("mc_"))

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

    @pytest.mark.parametrize("option, what", [("--metrics", "metric"),
                                              ("--modes", "mode")])
    def test_empty_list_exits_2(self, option, what, capsys):
        code, out, err = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             option, ","], capsys)
        assert code == 2 and out == ""
        assert f"a sweep needs at least one {what}" in err

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--mc", "--samples", "1000", "--seed", "-1"], capsys)
        assert code == 2 and out == ""
        assert "seed = -1" in err

    def test_too_few_points_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "1", "--metrics", "dep"], capsys)
        assert code == 2


class TestAxisBounds:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "p_a", "--start", "nan", "--stop", "10"],
        ["sweep", "--axis", "rho", "--start", "nan", "--stop", "4",
         "--metrics", "outage,csc"],
        ["sweep", "--axis", "x_a", "--start", "400", "--stop", "inf"],
        ["sweep", "--axis", "p_max", "--start", "10", "--stop", "4000"],
        ["mode-map", "--metric", "ecr", "--start", "nan"],
    ])
    def test_non_finite_bound_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv + ["--points", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("argv, axis", [
        (["sweep", "--axis", "r_b", "--start=-1.7e308", "--stop=1.7e308",
          "--metrics", "ecr"], "r_b"),
        (["mode-map", "--metric", "ecr", "--start=1e308", "--stop=-1e308"],
         "x_a"),
    ])
    def test_span_that_overflows_exits_2(self, argv, axis, capsys):
        # finite bounds whose difference overflows: linspace warned twice
        # and gave nan or inf points, and the error named the elevation
        # angle, gamma_th or the safe distance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"finite {axis}" in err


class TestOptions:
    def test_each_command_accepts_the_options_it_reads(self):
        parser = build_parser()
        scenario_opts = ["--config", "scn.txt", "--seed", "1"]
        output_opts = ["--json", "--out", "out.json"]
        for argv in (
                ["sweep", "--axis", "rho", "--start", "1", "--stop", "2",
                 "--allow-unsafe", "--workers", "2"] + scenario_opts,
                ["mode-map", "--metric", "ecr", "--allow-unsafe"]
                + scenario_opts,
                ["validate", "--workers", "2"] + scenario_opts,
                ["optimize", "--metric", "csc"] + scenario_opts,
                ["defaults"]):
            parser.parse_args(argv + output_opts)

    @pytest.mark.parametrize("argv", [
        ["optimize", "--metric", "ecr", "--allow-unsafe"],
        ["optimize", "--metric", "ecr", "--workers", "2"],
        ["mode-map", "--metric", "ecr", "--workers", "2"],
        ["validate", "--allow-unsafe"],
        ["defaults", "--allow-unsafe"],
        ["defaults", "--workers", "2"],
        ["defaults", "--config", "scn.txt"],
        ["defaults", "--seed", "3"],
    ])
    def test_option_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    @pytest.mark.parametrize("config", [
        "dm.alpha_nlos = 3e6", "om.alpha_nlos = 2710", "scurve.sigma = 4880"])
    def test_unreachable_states(self, config, tmp_path, capsys):
        # NLoS path loss underflowing to 0, or a LoS probability of 0
        cfg = tmp_path / "scn.txt"
        cfg.write_text(config + "\n")
        code, out, err = run_cli(
            ["optimize", "--metric", "ecr", "--config", str(cfg)], capsys)
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert {row["mode"] for row in rows} == {"om", "dm"}
        assert all(float(row["objective"]) >= 0.0 for row in rows)

    @pytest.mark.parametrize("config", [
        "alice.h = 0.5\nom.alpha_nlos = 2710",
        "alice.h = 0.5\nom.alpha_nlos = 1000\nom.beta_nlos = 1e20"])
    def test_overflowing_path_loss_exits_2(self, config, tmp_path, capsys):
        # 0.5 m from the warden, the NLoS gain beta * d^(-alpha) overflows
        cfg = tmp_path / "scn.txt"
        cfg.write_text(config + "\n")
        code, out, err = run_cli(
            ["optimize", "--metric", "ecr", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: path loss") and "alpha = " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("config", [
        "noise.sigma_n2_dbm = -3000\nom.beta_los = 1e20",
        "noise.rho_db = 2398"])
    def test_overflowing_mean_snr(self, config, tmp_path, capsys):
        # a state's mean SNR, or rho^2, overflowing to inf divided by zero
        # in the fading rule and ended in a bare traceback
        cfg = tmp_path / "scn.txt"
        cfg.write_text(config + "\n")
        code, out, err = run_cli(
            ["optimize", "--metric", "csc", "--config", str(cfg)], capsys)
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert {row["mode"] for row in rows} == {"om", "dm"}
        for row in rows:
            assert 0.0 < float(row["p_a_opt_mw"]) < 1e-100
            assert 0.0 < float(row["objective"]) < math.inf

    def test_ecr_where_the_nominal_snr_rounds_away(self, tmp_path, capsys):
        # at a covert power near 1e-142 mW, 1 + SNR rounds to 1: the rate
        # grid was all zeros and both modes read 0 b/s
        cfg = tmp_path / "scn.txt"
        cfg.write_text("noise.rho_db = 2398\n")
        code, out, err = run_cli(
            ["optimize", "--metric", "ecr", "--config", str(cfg)], capsys)
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert {row["mode"] for row in rows} == {"om", "dm"}
        for row in rows:
            assert 0.0 < float(row["objective"]) < math.inf

    @pytest.mark.parametrize("metric", ["ecr", "csc"])
    def test_position_beyond_the_squaring_range(self, metric, tmp_path,
                                                 capsys):
        # (alice.x)^2 overflowed in geometry.distance: a traceback
        cfg = tmp_path / "scn.txt"
        cfg.write_text("alice.x = 1e160\n")
        code, out, err = run_cli(
            ["optimize", "--metric", metric, "--config", str(cfg)], capsys)
        assert code == 0, err
        _, _, rows = parse_csv(out)
        assert {row["mode"] for row in rows} == {"om", "dm"}
        assert all(0.0 <= float(row["objective"]) < math.inf for row in rows)

    def test_far_sweep_is_a_clean_error(self, capsys):
        # the safety check measures d_aw; it now reports the violation in
        # one line where the distance overflowed before
        code, out, err = run_cli(
            ["sweep", "--axis", "x_a", "--start", "1e159", "--stop", "1e160",
             "--points", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: d_aw = ") and "violates" in err
        assert len(err.splitlines()) == 1 and len(err) < 200

    @pytest.mark.parametrize("who", ["alice", "bob", "willie"])
    def test_antenna_without_elements_exits_2(self, who, tmp_path, capsys):
        cfg = tmp_path / "scn.txt"
        cfg.write_text(f"antenna.{who}.n = 0\n")
        code, out, err = run_cli(
            ["optimize", "--metric", "csc", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: antenna.{who}.n = 0 must be >= 1\n"

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


class TestLargeShape:
    # a shape in 6815-6877, inside the parser's range, where a gamma window
    # between the law's 1e-18 quantiles read a lower quantile of 0
    def test_optimize_and_mode_map(self, tmp_path, capsys):
        cfg = tmp_path / "scn.txt"
        cfg.write_text("dm.s_los = 6850\n")
        code, out, err = run_cli(["optimize", "--metric", "ecr", "--mode",
                                  "dm", "--config", str(cfg)], capsys)
        assert code == 0, err
        (row,) = parse_csv(out)[2]
        assert 0.0 < float(row["objective"]) <= float(row["r_b_opt"])
        code, out, err = run_cli(["mode-map", "--metric", "csc", "--points",
                                  "5", "--config", str(cfg)], capsys)
        assert code == 0, err
        rows = parse_csv(out)[2]
        assert len(rows) == 5
        for row in rows:
            om, dm = float(row["objective_om"]), float(row["objective_dm"])
            assert om > 0.0 and math.isfinite(dm) and dm > 0.0
            assert float(row["objective_hybrid"]) == max(om, dm)


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

    def test_gap_has_four_significant_digits(self, capsys):
        code, out, _ = run_cli(["validate", "--samples", "10000"], capsys)
        _, _, rows = parse_csv(out)
        assert len(rows) == 240
        for row in rows:
            gap = float(row["gap"])
            assert gap == float(f"{gap:.4g}")
            diff = abs(float(row["analytic"]) - float(row["mc_mean"]))
            assert gap == pytest.approx(diff, rel=1e-3, abs=1e-9)

    def test_negative_seed_in_the_scenario_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "scn.txt"
        cfg.write_text("seed = -5\n")
        code, out, err = run_cli(
            ["validate", "--samples", "10000", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert "seed = -5" in err

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

    def test_mc_sweep_bytes_stable_across_workers(self, tmp_path, capsys):
        # three batches per oracle call, so the workers really split them
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--axis", "rho", "--start", "1", "--stop", "3",
                "--points", "3", "--metrics", "dep,outage,csc", "--mc",
                "--samples", "140000", "--seed", "5"]
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "4", "--out", str(b)]) == 0
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

    def test_config_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        parse = scenario._parse_flat

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(scenario, "_parse_flat", counting)
        cfg = tmp_path / "scn.txt"
        cfg.write_text("alice.x = 400\np_a_dbm = 10\n")
        code, _, _ = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--points", "2", "--metrics", "dep", "--modes", "om",
             "--config", str(cfg)], capsys)
        assert code == 0
        assert calls == [cfg.read_text()]

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--axis", "rho", "--start", "2", "--stop", "4",
             "--metrics", "dep", "--config", "/nonexistent/scn.txt"], capsys)
        assert code == 2
        assert "error" in err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # a UTF-16 byte-order mark: the decode error was a traceback
        cfg = tmp_path / "scn.txt"
        cfg.write_bytes(b"\xff\xfealice.x = 400\n")
        code, _, err = run_cli(
            ["optimize", "--metric", "csc", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err


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
