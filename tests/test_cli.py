import json

import pytest

from spectrum_auction import oracle
from spectrum_auction.cli import fmt9, main
from spectrum_auction.errors import NonUniqueThreshold
from spectrum_auction.presets import preset


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_preset_worked_example(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--preset", "appendixK")
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == 2
        assert abs(payload["c_star"] - 49.4) < 0.1

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "opt.json"
        code, out, _ = run_cli(capsys, "optimize", "--preset", "appendixK", "--output", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["case"] == 2


class TestEquilibrium:
    def test_standard_regime_json(self, capsys):
        code, out, _ = run_cli(capsys, "equilibrium", "--preset", "appendixK", "--c", "55")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "standard"
        assert payload["c"] == 55.0
        assert abs(payload["r_t"] - 65.8) < 0.1
        assert "r_x" not in payload
        assert payload["breakpoints"][0] == 50.0
        assert payload["breakpoints"][-1] == 200.0

    def test_mid_regime_json(self, capsys):
        code, out, _ = run_cli(capsys, "equilibrium", "--preset", "appendixK", "--c", "49.4")
        payload = json.loads(out)
        assert payload["regime"] == "mid"
        assert abs(payload["r_x"] - 59.3) < 0.1

    @pytest.mark.parametrize("c, regime", [("20", "low"), ("250", "high")])
    def test_regimes_without_a_threshold(self, capsys, c, regime):
        code, out, _ = run_cli(capsys, "equilibrium", "--preset", "appendixK", "--c", c)
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == regime
        assert "r_t" not in payload and "r_x" not in payload
        assert payload["breakpoints"] == [50.0, 200.0]

    def test_missing_reserve_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "equilibrium", "--preset", "appendixK")
        assert code == 2
        assert json.loads(err)["error"] == "config"


class TestPayoffCurve:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "payoff-curve", "--preset", "fig4",
            "--c-min", "42", "--c-max", "200", "--steps", "25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,expected_payoff,regime,expected_payment"
        assert len(lines) == 26

    def test_unimodal_payoff_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "payoff-curve", "--preset", "fig4",
            "--c-min", "42", "--c-max", "200", "--steps", "60",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        payoffs = [float(r[1]) for r in rows]
        from spectrum_auction.numerics import has_interior_dip

        assert not has_interior_dip(payoffs, 1e-4 * 300.0)


class TestConfigHandling:
    def test_config_file(self, capsys, tmp_path):
        cfg = {
            "market": {
                "k": 2, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 300.0,
                "dist": {"kind": "uniform", "r_min": 50, "r_max": 200},
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 0
        assert json.loads(out)["case"] == 3

    def test_unknown_top_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"market": {}, "bandwidth": 5}))
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "config"

    def test_unknown_market_key_rejected(self, capsys, tmp_path):
        cfg = {
            "market": {
                "k": 2, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 300.0,
                "extra": 1,
                "dist": {"kind": "uniform", "r_min": 50, "r_max": 200},
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 2

    def test_invalid_market_values_rejected(self, capsys, tmp_path):
        cfg = {
            "market": {
                "k": 1, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 300.0,
                "dist": {"kind": "uniform", "r_min": 50, "r_max": 200},
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 2

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--preset", "fig99")
        assert code == 2

    def test_missing_config_source(self, capsys):
        code, _, err = run_cli(capsys, "optimize")
        assert code == 2

    def test_unreadable_config_path(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--config", "/nonexistent.json")
        assert code == 2
        assert json.loads(err)["error"] == "io"


class TestConfigSource:
    def test_preset_and_config_exclude_each_other(self, capsys, tmp_path):
        """Both flags used to run the preset and ignore the file."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"market": dict(preset("appendixK")["market"], k=3)}))
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--preset", "appendixK", "--config", str(path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, seed", [((), 5), (("--seed", "7"), 7)])
    def test_verify_seeds_its_stream_from_the_config(self, monkeypatch, tmp_path, flags, seed):
        """``verify`` used to seed its stream with its ``--seed`` default,
        0, over a config ``seed``; a given flag still beats the key."""
        streams = []
        check = oracle.best_response_check

        def record(*args, rng, **kwargs):
            streams.append((rng.master_seed, rng.stream_index))
            return check(*args, rng=rng, **kwargs)

        monkeypatch.setattr("spectrum_auction.oracle.best_response_check", record)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"market": preset("appendixK")["market"], "c": 55.0,
                                    "seed": 5}))
        small = ["--samples", "2000", "--type-grid", "5", "--bid-grid", "11"]
        assert main(["verify", "--config", str(path), *small, *flags]) == 0
        assert streams == [(seed, 0)]


class TestRefusalExitCode:
    def test_non_unique_threshold_maps_to_3(self, capsys, monkeypatch):
        import spectrum_auction.provider as provider

        def refuse(cfg, **kwargs):
            raise NonUniqueThreshold("synthetic")

        monkeypatch.setattr(provider, "optimize_reserve", refuse)
        code, _, err = run_cli(capsys, "optimize", "--preset", "appendixK")
        assert code == 3
        assert json.loads(err)["error"] == "NonUniqueThreshold"


class TestSimulate:
    def test_csv_and_summary(self, capsys, tmp_path):
        out_csv = tmp_path / "reps.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "appendixK",
            "--replications", "40", "--seed", "7", "--output", str(out_csv),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["summary"]["replications"] == 40
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 41
        header = lines[0].split(",")
        assert header[:5] == ["rep", "r_1", "r_2", "r_3", "r_4"]
        assert "w_max" in header

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, *_ = run_cli(
                capsys, "simulate", "--preset", "appendixK",
                "--replications", "30", "--seed", "3", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_abstain_serialized_as_N(self, capsys, tmp_path):
        out_csv = tmp_path / "reps.csv"
        run_cli(
            capsys, "simulate", "--preset", "appendixK",
            "--replications", "60", "--seed", "1", "--output", str(out_csv),
        )
        body = out_csv.read_text()
        assert ",N," in body or ",N\n" in body

    def test_sweep_emits_one_summary_and_csv_per_cell(self, capsys, tmp_path):
        cfg = {
            "market": {
                "k": 4, "eta_apo": 0.3, "delta_lte": 0.4, "r_lte": 95.0,
                "dist": {"kind": "truncated_normal", "r_min": 50, "r_max": 200,
                         "mu": 125, "sigma": 50},
            },
            "sweep": {"r_lte": [95.0, 120.0]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_csv = tmp_path / "cells.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(path),
            "--replications", "5", "--seed", "2", "--output", str(out_csv),
        )
        assert code == 0
        cells = json.loads(out)
        assert [c["params"]["r_lte"] for c in cells] == [95.0, 120.0]
        assert (tmp_path / "cells.csv.000").exists()
        assert (tmp_path / "cells.csv.001").exists()


class TestMultiCli:
    def test_simulate_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "multi.csv"
        code, out, _ = run_cli(
            capsys, "multi-lte", "simulate", "--preset", "fig12",
            "--replications", "25", "--seed", "2", "--reserve", "120",
            "--output", str(out_csv),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["replications"] == 25
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 26
        assert "winner_origin" in lines[0]

    def test_payoff_curve_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "multi-lte", "payoff-curve", "--preset", "fig11",
            "--c-min", "40", "--c-max", "180", "--steps", "5",
            "--samples", "2000",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,expected_payoff,se"
        assert len(lines) == 6


# Every (action, flag) pair that ``multi-lte`` used to accept and ignore.
IGNORED_MULTI_FLAGS = [
    *(("optimize", flag) for flag in (
        "--c-min", "--c-max", "--steps", "--replications", "--seed", "--reserve", "--workers",
        "--summary")),
    *(("payoff-curve", flag) for flag in (
        "--replications", "--seed", "--reserve", "--workers", "--summary")),
    *(("simulate", flag) for flag in ("--c-min", "--c-max", "--steps", "--samples")),
]
FLAG_VALUES = {"--c-min": "60", "--c-max": "150", "--steps": "3", "--replications": "2",
               "--seed": "1", "--reserve": "140", "--workers": "1", "--samples": "4"}
ACTION_FLAGS = {"optimize": ["--samples", "4"], "payoff-curve": ["--samples", "4"],
                "simulate": ["--reserve", "140"]}


@pytest.mark.parametrize("action, flag", IGNORED_MULTI_FLAGS,
                         ids=[action + flag for action, flag in IGNORED_MULTI_FLAGS])
def test_multi_action_refuses_a_flag_it_does_not_read(capsys, tmp_path, action, flag):
    """Each pair used to run with the flag ignored and exit 0."""
    config = {"multi_market": preset("fig12")["multi_market"], "c_min": 60.0,
              "c_max": 150.0, "steps": 3, "replications": 2}
    path = tmp_path / "multi.json"
    path.write_text(json.dumps(config))
    value = FLAG_VALUES.get(flag, str(tmp_path / "summary.json"))
    with pytest.raises(SystemExit) as exc:
        main(["multi-lte", action, "--config", str(path), *ACTION_FLAGS[action], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestFormatting:
    def test_fmt9(self):
        assert fmt9(49.35281046) == "49.3528105"
        assert fmt9(float("inf")) == "N"
        assert fmt9(38.0) == "38"
