import json

import pytest

from scatcalc import cli
from scatcalc.cli import ConfigError, emit_report, load_config, main, run_experiment


def write_config(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"lambda": 2.0}), "radial")
        assert cfg.values["lambda"] == 2.0
        assert cfg.values["resolution"] == 8  # default filled
        assert cfg.seed == 0

    def test_unknown_key_suggestion(self, tmp_path):
        with pytest.raises(ConfigError, match="did you mean 'lambda'"):
            load_config(write_config(tmp_path, {"lamda": 1.0}), "radial")

    def test_all_violations_reported(self, tmp_path):
        body = {"lamda": 1.0, "resolution": -3, "dim": "two"}
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, body), "radial")
        msg = str(err.value)
        assert "lamda" in msg and "resolution" in msg and "dim" in msg

    def test_range_checks(self, tmp_path):
        with pytest.raises(ConfigError, match="range check"):
            load_config(write_config(tmp_path, {"N": 127}), "quantize-check")

    @pytest.mark.parametrize(
        "experiment,body", [("radial", {"model": "schrodinger"}), ("scatter1d", {"potential": "step"})]
    )
    def test_name_outside_constructor_table(self, tmp_path, experiment, body):
        with pytest.raises(ConfigError, match="range check"):
            load_config(write_config(tmp_path, body), experiment)

    def test_every_list_key_has_a_range_check(self):
        # a list key without one lets [] or a bad element reach the runner
        unchecked = [
            (experiment, key)
            for experiment, (_, schema) in cli._EXPERIMENTS.items()
            for key, (typ, _, check) in schema.items()
            if typ is list and check is None
        ]
        assert unchecked == []

    def test_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p), "radial")

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            load_config(write_config(tmp_path, {}), "nonsense")


class TestRunAndEmit:
    def test_scatter_free_report(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, {"potential": "free", "lambdas": [0.5, 1.0]}), "scatter1d"
        )
        report = run_experiment(cfg)
        assert report.passed
        assert report.metrics["max_unitarity_defect"] < 1e-12
        paths = emit_report(report, tmp_path / "out", formats=("json", "csv"))
        assert (tmp_path / "out" / "scatter1d-report.json").exists()
        assert (tmp_path / "out" / "scatter1d-coefficients.csv").exists()
        body = json.loads((tmp_path / "out" / "scatter1d-report.json").read_text())
        assert body["passed"] is True

    def test_byte_stable_reports(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, {"potential": "square_barrier", "lambdas": [1.0, 2.0]}),
            "scatter1d",
        )
        emit_report(run_experiment(cfg), tmp_path / "a")
        emit_report(run_experiment(cfg), tmp_path / "b")
        a = (tmp_path / "a" / "scatter1d-report.json").read_bytes()
        b = (tmp_path / "b" / "scatter1d-report.json").read_bytes()
        assert a == b

    def test_seed_echoed_in_parameters(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"seed": 7, "lambda": 1.0}), "radial")
        report = run_experiment(cfg)
        assert report.parameters["seed"] == 7


class TestMainExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"potential": "free", "lambdas": [1.0]})
        code = main(["scatter1d", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_config_error_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"potental": "free"})
        assert main(["scatter1d", "--config", cfg]) == 2

    def test_missing_config_is_two(self, tmp_path):
        assert main(["scatter1d", "--config", str(tmp_path / "nope.json")]) == 2

    def test_io_error_is_three(self, tmp_path):
        cfg = write_config(tmp_path, {"potential": "free", "lambdas": [1.0]})
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["scatter1d", "--config", cfg, "--out", str(blocker / "sub")]) == 3

    @pytest.mark.parametrize(
        "experiment,body,key",
        [
            # vacuous passes: no criterion at all
            ("threshold", {"orders": []}, "orders"),
            ("helmholtz", {"dims": []}, "dims"),
            ("helmholtz", {"n_radii": 1}, "n_radii"),  # a slope fitted to one radius
            # tracebacks inside the runners
            ("threshold", {"radii": []}, "radii"),
            ("threshold", {"radii": ["a", 100.0]}, "radii"),
            ("threshold", {"radii": [0.5, 100.0, 200.0]}, "radii"),
            ("pairing", {"radii": []}, "radii"),
            ("helmholtz", {"dims": [4]}, "dims"),
            ("scatter1d", {"lambdas": []}, "lambdas"),
            ("scatter1d", {"lambdas": [-1.0]}, "lambdas"),
            # past the dense quantization budget
            ("quantize-check", {"N": 512}, "N"),
            ("var-order", {"N": 512}, "N"),
            # json reads NaN and Infinity; the barrier solve used to hang on NaN
            ("radial", {"lambda": float("inf")}, "lambda"),
            ("scatter1d", {"potential": "square_barrier", "height": float("nan")}, "height"),
            # degenerate ladders: a flat one fits a slope to one abscissa or
            # passes vacuously, a reversed one inverts the bounded ratio
            ("helmholtz", {"r_min": 50.0, "r_max": 50.0}, "r_max"),
            ("threshold", {"radii": [50.0, 50.0, 50.0]}, "radii"),
            ("threshold", {"radii": [400.0, 200.0, 100.0, 50.0]}, "radii"),
        ],
    )
    def test_bad_config_is_two_and_writes_nothing(self, tmp_path, capsys, experiment, body, key):
        cfg = write_config(tmp_path, body)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment,body,refusal",
        [
            ("quantize-check", {"L": 1e-6}, "KernelDecayError"),
            ("commutant", {"eps": 100}, "DigammaTooSmallError"),
            ("commutant", {"digamma": 1e-9}, "DigammaTooSmallError"),
            ("commutant", {"delta": 100}, "SupportTooWideError"),
        ],
    )
    def test_library_refusal_is_two_and_writes_nothing(
        self, tmp_path, capsys, experiment, body, refusal
    ):
        # schema-valid values that the library refuses: a refusal, not a failed criterion
        cfg = write_config(tmp_path, body)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"refused: {refusal}: " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "module,name",
        [("symbols", "KernelDecayError"), ("symbols", "NotScEllipticError"),
         ("commutants", "DigammaTooSmallError"), ("commutants", "SupportTooWideError"),
         ("commutants", "ThresholdOrderError"), ("grid", "GridBudgetError"),
         ("hamflow", "ThresholdDegeneracyError")],
    )
    def test_refusals_share_one_value_error_base(self, module, name):
        from scatcalc.grid import InputRefusal

        refusal = getattr(__import__(f"scatcalc.{module}", fromlist=[name]), name)
        assert issubclass(refusal, InputRefusal) and issubclass(refusal, ValueError)

    def test_plain_value_error_in_a_runner_propagates(self, tmp_path, monkeypatch):
        # only the library's refusals map to exit 2; any other exception is a bug
        def broken(values, seed):
            raise ValueError("a bug, not a refusal")

        schema = cli._EXPERIMENTS["scatter1d"][1]
        monkeypatch.setitem(cli._EXPERIMENTS, "scatter1d", (broken, schema))
        cfg = write_config(tmp_path, {})
        with pytest.raises(ValueError, match="a bug, not a refusal"):
            main(["scatter1d", "--config", cfg, "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_quantize_check_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"N": 96, "L": 18.0})
        code = main(["quantize-check", "--config", cfg, "--out", str(tmp_path / "q")])
        assert code == 0

    def test_seed_flag_matches_config_seed(self, tmp_path):
        flag = write_config(tmp_path, {}, "plain.json")
        argv = ["quantize-check", "--config", flag, "--out", str(tmp_path / "a"), "--seed", "7"]
        assert main(argv) == 0
        keyed = write_config(tmp_path, {"seed": 7}, "seeded.json")
        assert main(["quantize-check", "--config", keyed, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "quantize-check-report.json").read_bytes()
        assert json.loads(a)["parameters"]["seed"] == 7
        assert a == (tmp_path / "b" / "quantize-check-report.json").read_bytes()

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        # the flag passes the check of the config's seed key
        cfg = write_config(tmp_path, {})
        argv = ["scatter1d", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert main(argv) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_int_for_float_key_is_the_float(self, tmp_path):
        for out, L in (("int", 20), ("float", 20.0)):
            cfg = write_config(tmp_path, {"L": L}, f"{out}.json")
            assert main(["quantize-check", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        a = (tmp_path / "int" / "quantize-check-report.json").read_bytes()
        assert a == (tmp_path / "float" / "quantize-check-report.json").read_bytes()

    def test_non_object_body_is_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [])
        assert main(["quantize-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment,body",
        [("quantize-check", {"N": 96, "L": 18.0}), ("commutant", {"N": 32, "fields": 4}),
         ("var-order", {"N": 64, "L": 10.0})],
    )
    def test_csv_without_tables_passes(self, tmp_path, capsys, experiment, body):
        # no table, so no file: the output directory stands in for the report
        cfg = write_config(tmp_path, body)
        argv = [experiment, "--config", cfg, "--out", str(tmp_path / "c"), "--format", "csv"]
        assert main(argv) == 0
        assert f"report: {tmp_path / 'c'}" in capsys.readouterr().err

    def test_var_order_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"N": 64, "L": 10.0})
        code = main(["var-order", "--config", cfg, "--out", str(tmp_path / "v")])
        assert code == 0

    def test_criterion_failure_is_one(self, tmp_path, capsys):
        # a reversed radius ladder makes the gap-decreasing criterion fail
        cfg = write_config(tmp_path, {"radii": [400.0, 100.0]})
        code = main(["pairing", "--config", cfg, "--out", str(tmp_path / "p")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_radial_wave_degeneracy_gate(self, tmp_path):
        cfg = write_config(tmp_path, {"model": "wave", "resolution": 4})
        code = main(["radial", "--config", cfg, "--out", str(tmp_path / "w")])
        assert code == 0
        body = json.loads((tmp_path / "w" / "radial-report.json").read_text())
        assert body["criteria"]["degenerate_gate"] is True

    def test_radial_helmholtz_dim1_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": "helmholtz", "dim": 1})
        assert main(["radial", "--config", cfg, "--out", str(tmp_path / "h")]) == 2
        assert "dim" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("model, dim", [("klein_gordon", 3), ("wave", 1), ("x_dx", 2)])
    def test_radial_fixed_dim_model_rejects_other_dim(self, tmp_path, capsys, model, dim):
        # these models live in one dimension each; a dim they ignore is a config error
        cfg = write_config(tmp_path, {"model": model, "dim": dim})
        assert main(["radial", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
        assert "dim" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("body", [{"dim": 3}, {"dim": 3, "grid_points": 17}])
    def test_radon_dim3_above_16_points_is_config_error(self, tmp_path, capsys, body):
        # the 3-D probe's dense SVD: 1,736 unknowns at 16 points, 6,272 at the default 24
        cfg = write_config(tmp_path, body)
        assert main(["radon", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "grid_points" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_flow_runner_is_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path, {"trajectories": 3})
        for out in ("a", "b"):
            assert main(["flow", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        a = (tmp_path / "a" / "flow-report.json").read_bytes()
        assert a == (tmp_path / "b" / "flow-report.json").read_bytes()

    @pytest.mark.parametrize(
        "experiment,body",
        [
            ("commutant", {}),
            ("helmholtz", {}),
            # the ladder must reach the tail: bounded_r-0.75 needs
            # mass(R_top) / mass(R_top-2) < 1.05, and [25, 50, 100] gives 1.089
            ("threshold", {"radii": [40.0, 80.0, 120.0, 160.0]}),
            ("radon", {"grid_points": 8, "directions": 16}),
            # no transverse slot besides rho: threshold data is undefined
            ("radial", {"model": "d_x1", "dim": 1}),
            # radial panels sized from lambda; 0.5-wide ones failed the self-check
            ("threshold", {"lambda": 10.0, "radii": [20.0, 40.0, 60.0, 80.0]}),
        ],
    )
    def test_runner_passes_and_is_byte_stable(self, tmp_path, experiment, body):
        cfg = write_config(tmp_path, body)
        for out in ("a", "b"):
            argv = [experiment, "--config", cfg, "--out", str(tmp_path / out), "--format", "json,csv"]
            assert main(argv) == 0
        a_files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert f"{experiment}-report.json" in a_files
        assert a_files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in a_files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
