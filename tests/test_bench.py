"""Experiment harness: configuration, histograms, reports, CLI."""

import json

import numpy as np
import pytest

from gebs import bench
from gebs import cli
from gebs.errors import ConfigError, EmptyRootSetError, ParameterError


# ---------------------------------------------------------------------------
# Configuration

def test_config_defaults_fill_in():
    cfg = bench.ExperimentConfig("ar1")
    assert (cfg.sims, cfg.boots) == bench.DESK_SCALE["ar1"]
    assert cfg.n == bench.DEFAULT_N["ar1"]
    assert cfg.methods == bench.DEFAULT_METHODS["ar1"]
    paper = bench.ExperimentConfig("glm", scale="paper")
    assert (paper.sims, paper.boots) == bench.PAPER_SCALE["glm"]


@pytest.mark.parametrize("kwargs", [
    {"experiment": "nope"},
    {"experiment": "ar1", "scale": "huge"},
    {"experiment": "ar1", "format": "xml"},
    {"experiment": "ar1", "sims": 0},
    {"experiment": "ar1", "boots": 5},
    {"experiment": "ar1", "n": 1},
    {"experiment": "ar1", "methods": ()},
    {"experiment": "ar1", "seed": -1},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        bench.ExperimentConfig(**kwargs)


def test_child_seed_is_stable_and_distinct():
    assert bench.child_seed(3, 1, 2) == bench.child_seed(3, 1, 2)
    assert bench.child_seed(3, 1, 2) != bench.child_seed(3, 2, 1)
    assert 0 <= bench.child_seed(0) < 2 ** 64


# ---------------------------------------------------------------------------
# Histogram and modes

def test_density_histogram_validation():
    with pytest.raises(ParameterError):
        bench.density_histogram(np.zeros(10))
    with pytest.raises(ParameterError):
        bench.density_histogram(np.zeros(100), bins=5)


def test_density_histogram_unimodal():
    draws = np.random.default_rng(0).standard_normal(5000)
    hist = bench.density_histogram(draws, bins=20)
    assert hist.masses.sum() == pytest.approx(1.0)
    assert len(hist.modes) == 1
    assert abs(hist.modes[0]) < 0.5


def test_density_histogram_bimodal():
    r = np.random.default_rng(1)
    draws = np.concatenate([r.normal(-4, 0.5, 3000), r.normal(4, 0.5, 3000)])
    hist = bench.density_histogram(draws, bins=30)
    assert len(hist.modes) == 2
    assert hist.modes[0] == pytest.approx(-4, abs=1.0)
    assert hist.modes[1] == pytest.approx(4, abs=1.0)


def test_density_histogram_plateau_counts_once():
    # exactly equal masses across all bins form one plateau, not many modes
    draws = np.tile(np.arange(10), 10).astype(float)
    hist = bench.density_histogram(draws, bins=10)
    assert np.allclose(hist.masses, 0.1)
    assert len(hist.modes) == 1


def test_density_histogram_minor_bumps_suppressed():
    r = np.random.default_rng(2)
    draws = np.concatenate([r.normal(0, 1, 5000), np.array([25.0])])
    hist = bench.density_histogram(draws, bins=30)
    # the lone outlier bin stays below the 10% prominence floor
    assert all(m < 10 for m in hist.modes)


# ---------------------------------------------------------------------------
# Experiments at smoke scale

def test_run_ar1_smoke():
    cfg = bench.ExperimentConfig("ar1", sims=3, boots=20, n=30,
                                 methods=("rb", "gbs-multinomial"), seed=1)
    report = bench.run_experiment(cfg)
    assert report.shape == "table1"
    methods = [r["method"] for r in report.rows]
    assert methods == ["rb", "gbs-multinomial", "truth"]
    assert report.truth > 0
    assert not report.degenerate


def test_run_glm_smoke():
    cfg = bench.ExperimentConfig("glm", sims=2, boots=30,
                                 methods=("gbs-multinomial",), seed=1)
    report = bench.run_experiment(cfg)
    assert report.shape == "table2"
    assert len(report.rows) == 10
    for row in report.rows:
        assert 0.0 <= row["coverage_pct"] <= 100.0
        assert row["mean_ci_length"] > 0


def test_run_weights_check_smoke():
    cfg = bench.ExperimentConfig("weights-check", methods=("multinomial",), seed=0)
    report = bench.run_experiment(cfg)
    verdicts = {r["condition"]: r["passed"] for r in report.rows}
    assert set(verdicts) == {"bw", "cltw", "vw_a", "vw_b"}


def test_unknown_method_rejected():
    cfg = bench.ExperimentConfig("ar1", sims=1, boots=10, n=20,
                                 methods=("bogus",), seed=0)
    with pytest.raises(ConfigError):
        bench.run_experiment(cfg)


def test_nls_multistart_finds_two_roots():
    from gebs import models as M
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    fits = bench.nls_roots(model, data, np.ones(24))
    assert len(fits) == 2


def test_nls_roots_without_starts_is_empty():
    from gebs import models as M
    with pytest.raises(EmptyRootSetError):
        bench.nls_roots(M.IsomerizationModel(), M.load_isomerization(),
                        np.ones(24), starts=())


# ---------------------------------------------------------------------------
# Report rendering

def _tiny_report():
    cfg = bench.ExperimentConfig("ar1", sims=2, boots=15, n=20,
                                 methods=("gbs-multinomial",), seed=3)
    return bench.run_experiment(cfg), cfg


def test_render_csv_shape():
    report, cfg = _tiny_report()
    text = bench.render_report(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "method,mean_var_est,var_var_est,fallback_rate"
    assert lines[-1].startswith("# config ")
    assert any(line.startswith("# seed 3") for line in lines)
    assert any(line.startswith("# truth ") for line in lines)


def test_render_json_roundtrip():
    report, cfg = _tiny_report()
    obj = json.loads(bench.render_report(report, "json"))
    assert obj["experiment"] == "ar1"
    assert obj["columns"] == list(bench.COLUMNS["table1"])
    assert obj["config"]["seed"] == 3
    assert len(obj["rows"]) == 2  # one method plus truth


def test_render_unknown_format():
    report, _ = _tiny_report()
    with pytest.raises(ConfigError):
        bench.render_report(report, "yaml")


def test_emit_report_writes_file(tmp_path):
    report, _ = _tiny_report()
    out = tmp_path / "r.csv"
    text = bench.emit_report(report, "csv", str(out))
    assert out.read_text() == text


# ---------------------------------------------------------------------------
# CLI

def test_cli_ok_and_output_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--experiment", "ar1", "--n", "20", "--sims", "2",
                     "--boots", "15", "--methods", "gbs-multinomial",
                     "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text().startswith("method,")
    assert capsys.readouterr().out == ""


def test_cli_stdout_default(capsys):
    code = cli.main(["run", "--experiment", "ar1", "--n", "20", "--sims", "2",
                     "--boots", "15", "--methods", "gbs-multinomial"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("method,")


def test_cli_scheme_args_expansion():
    args = cli.build_parser().parse_args(
        ["run", "--experiment", "ar1", "--methods", "rb,gbs-uniform",
         "--scheme-args", "0.5,1.5"])
    assert cli._methods_from(args) == ("rb", "gbs-uniform:0.5,1.5")


def test_cli_config_error_exit_code(capsys):
    code = cli.main(["run", "--experiment", "ar1", "--boots", "5"])
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_cli_negative_seed_exit_code(capsys):
    code = cli.main(["run", "--experiment", "ar1", "--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_cli_bad_output_path(capsys):
    code = cli.main(["run", "--experiment", "weights-check",
                     "--methods", "multinomial",
                     "--out", "/nonexistent-dir/report.csv"])
    assert code == cli.EXIT_CONFIG


def test_cli_degenerate_exit_code(monkeypatch, capsys):
    from gebs.errors import DegenerateRunError

    def boom(config):
        raise DegenerateRunError("synthetic")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(["run", "--experiment", "ar1"])
    assert code == cli.EXIT_DEGENERATE
    assert "degenerate" in capsys.readouterr().err
