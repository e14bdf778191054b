"""Experiment harness: configuration, histograms, reports, CLI."""

import ctypes
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gebs import bench
from gebs import cli
from gebs.errors import (ConfigError, EmptyRootSetError, NonConvergenceError,
                         ParameterError)

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    {"experiment": "nls", "sims": 3},
    {"experiment": "nls", "boots": 49},   # fewer draws than a histogram takes
    # options the experiment would ignore, even at their default values
    {"experiment": "glm", "n": 10},
    {"experiment": "nls", "n": 24},
    {"experiment": "weights-check", "n": 320},
    {"experiment": "weights-check", "sims": 1},
    {"experiment": "weights-check", "boots": 200},
    {"experiment": "glm", "methods": ("wb", "gbs-exp", "wb")},
    {"experiment": "weights-check", "methods": ("exp", "exp")},
    # counts and seeds are integers: no truncation, no bools
    {"experiment": "ar1", "seed": 1.5},
    {"experiment": "ar1", "sims": True},
    {"experiment": "ar1", "sims": 2.5},
    {"experiment": "ar1", "boots": 10.5},
    {"experiment": "ar1", "n": 20.0},
    # a report path that could not be written: refused before any work
    {"experiment": "ar1", "out": "/nonexistent-dir/report.csv"},
    {"experiment": "ar1", "out": ""},
    {"experiment": "ar1", "out": 3},
    # method names are strings
    {"experiment": "ar1", "methods": [1]},
    {"experiment": "ar1", "methods": ["rb", None]},
    {"experiment": "ar1", "methods": [b"rb"]},
    {"experiment": "glm", "methods": [["wb"]]},
    {"experiment": "weights-check", "methods": [1.0]},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        bench.ExperimentConfig(**kwargs)


@pytest.mark.parametrize("methods", ["rb", "gbs-exp", ""])
def test_config_refuses_a_string_of_methods(methods):
    # a string is a sequence of characters: "rb" would run methods r and b
    with pytest.raises(ConfigError, match="methods"):
        bench.ExperimentConfig("ar1", methods=methods)


def test_config_stores_numpy_integers_as_int():
    cfg = bench.ExperimentConfig("ar1", n=np.int64(20), sims=np.int64(3),
                                 boots=np.int64(20), seed=np.int64(4))
    assert [type(getattr(cfg, k)) for k in ("n", "sims", "boots", "seed")] == [int] * 4
    assert json.dumps(cfg.to_dict())


def test_child_seed_is_stable_and_distinct():
    assert bench.child_seed(3, 1, 2) == bench.child_seed(3, 1, 2)
    assert bench.child_seed(3, 1, 2) != bench.child_seed(3, 2, 1)
    assert 0 <= bench.child_seed(0) < 2 ** 64


# ---------------------------------------------------------------------------
# Histogram and modes

def test_density_histogram_validation():
    with pytest.raises(ParameterError):
        bench.density_histogram(np.zeros(10))


def test_density_histogram_unimodal():
    draws = np.random.default_rng(0).standard_normal(5000)
    hist = bench.density_histogram(draws)
    assert hist.masses.sum() == pytest.approx(1.0)
    assert len(hist.modes) == 1
    assert abs(hist.modes[0]) < 0.5


def test_density_histogram_bimodal():
    r = np.random.default_rng(1)
    draws = np.concatenate([r.normal(-4, 0.5, 3000), r.normal(4, 0.5, 3000)])
    hist = bench.density_histogram(draws)
    assert len(hist.modes) == 2
    assert hist.modes[0] == pytest.approx(-4, abs=1.0)
    assert hist.modes[1] == pytest.approx(4, abs=1.0)


def test_density_histogram_plateau_counts_once():
    # exactly equal masses across all bins form one plateau, not many modes
    draws = np.tile(np.arange(bench.HIST_BINS), 10).astype(float)
    hist = bench.density_histogram(draws)
    assert np.allclose(hist.masses, 1 / bench.HIST_BINS)
    assert len(hist.modes) == 1


def test_density_histogram_minor_bumps_suppressed():
    r = np.random.default_rng(2)
    draws = np.concatenate([r.normal(0, 1, 5000), np.array([25.0])])
    hist = bench.density_histogram(draws)
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
    # names follow the --methods scheme grammar, plus jackknife-sqrt
    names = ("multinomial", "dirichlet:alpha=1")
    cfg = bench.ExperimentConfig("weights-check", methods=names, seed=0)
    report = bench.run_experiment(cfg)
    assert [r["scheme"] for r in report.rows] == [s for s in names for _ in range(4)]
    verdicts = {r["condition"]: r["passed"] for r in report.rows}
    assert set(verdicts) == {"bw", "cltw", "vw_a", "vw_b"}


@pytest.mark.parametrize("bad", ["bogus", "dirichlet:1", "jackknife:d=0"])
def test_weights_check_rejects_a_bad_name_before_any_check(bad, monkeypatch, capsys):
    def no_check(*args, **kwargs):
        raise AssertionError("a scheme was checked before every name was read")

    monkeypatch.setattr(bench.wmod, "check_conditions", no_check)
    code = cli.main(["run", "--experiment", "weights-check",
                     "--methods", f"multinomial,{bad}"])
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_unknown_method_rejected():
    cfg = bench.ExperimentConfig("ar1", sims=1, boots=10, n=20,
                                 methods=("bogus",), seed=0)
    with pytest.raises(ConfigError):
        bench.run_experiment(cfg)


@pytest.mark.parametrize("experiment, methods, first_work", [
    ("ar1", "rb,gbs-bogus", "simulate_ar1"),
    ("ar1", "wb,bogus", "simulate_ar1"),
    ("ar1", "rb,gbs-uniform:0.5", "simulate_ar1"),
    ("glm", "wb,rb", "simulate_glm"),
    ("nls", "rb,wb", "nls_data_digest"),
], ids=["bad-scheme", "bad-name", "bad-tail", "glm-rb", "nls-wb"])
def test_methods_resolve_before_any_work(experiment, methods, first_work,
                                         monkeypatch, tmp_path, capsys):
    # a bad name, a bad scheme or a baseline the model lacks is a configuration
    # error raised before the first replicate is fit (nls: before its data is
    # checked against the recorded anchors), and no report is written
    def no_work(*args, **kwargs):
        raise AssertionError("a replicate was fit before every method was resolved")

    owner = bench if first_work == "nls_data_digest" else bench.mmod
    monkeypatch.setattr(owner, first_work, no_work)
    out = tmp_path / "report.csv"
    # 50 boots: nls refuses fewer, and must fail on the method, not on boots
    argv = ["run", "--experiment", experiment, "--boots", "50",
            "--methods", methods, "--out", str(out)]
    if experiment == "glm":
        argv += ["--sims", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_nls_multistart_finds_two_roots():
    from gebs import models as M
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    fits = bench.nls_roots(model, data, np.ones(24))
    assert len(fits) == 2


def test_nls_roots_with_no_converged_start_is_empty(monkeypatch):
    from gebs import models as M

    def fit(model, data, weights, start):
        raise NonConvergenceError("bounded least squares did not converge")

    monkeypatch.setattr(bench, "_nls_fit", fit)
    with pytest.raises(EmptyRootSetError):
        bench.nls_roots(M.IsomerizationModel(), M.load_isomerization(), np.ones(24))


def test_nls_roots_skips_a_start_that_does_not_converge(monkeypatch):
    from gebs import models as M
    model, data = M.IsomerizationModel(), M.load_isomerization()

    def fit(model, data, weights, start):
        if start is bench.NLS_STARTS[0]:
            raise NonConvergenceError("bounded least squares did not converge")
        return np.array(bench.NLS_ANCHORS[1])

    monkeypatch.setattr(bench, "_nls_fit", fit)
    fits = bench.nls_roots(model, data, np.ones(24))
    assert [th.tolist() for th, _ in fits] == [list(bench.NLS_ANCHORS[1])]


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


def test_emit_report_overwrites_in_place(tmp_path):
    # a shorter report over a longer one: the same bytes as a fresh write,
    # in the same inode
    report, _ = _tiny_report()
    out = tmp_path / "r"
    longer = bench.emit_report(report, "json", out)
    inode = out.stat().st_ino
    text = bench.emit_report(report, "csv", out)
    assert len(text) < len(longer)
    assert out.read_bytes() == text.encode("utf-8")
    assert out.stat().st_ino == inode


def test_emit_report_never_truncates_on_open(tmp_path, monkeypatch):
    # opening with O_TRUNC would free the old report's disk blocks
    report, _ = _tiny_report()
    out = tmp_path / "r.csv"
    out.write_text("x" * 10000)
    calls = []
    real_open = bench.os.open

    def spy(path, flags, *args, **kwargs):
        calls.append((path, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(bench.os, "open", spy)
    text = bench.emit_report(report, "csv", out)
    assert len(calls) == 1
    assert not calls[0][1] & os.O_TRUNC
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


def test_cli_methods_grammar():
    # a comma starts a new method unless a digit, sign or '.' follows it
    assert cli._methods_from("rb,gbs-uniform:0.5,1.5,gbs-exp") == (
        "rb", "gbs-uniform:0.5,1.5", "gbs-exp")
    assert cli._methods_from("uniform:.5, 1.5,exp") == ("uniform:.5, 1.5", "exp")
    assert cli._methods_from(" rb , wb,") == ("rb", "wb")
    assert cli._methods_from(None) is None


def test_cli_scheme_tail_with_a_comma_runs(tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--experiment", "weights-check",
                     "--methods", "uniform:0.5,1.5", "--out", str(out)]) == cli.EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 4   # header, then one row per condition
    assert cli.main(["run", "--experiment", "ar1", "--n", "20", "--sims", "2",
                     "--boots", "15", "--methods", "gbs-uniform:0.5,1.5",
                     "--out", str(out)]) == cli.EXIT_OK


def test_cli_config_error_exit_code(capsys):
    code = cli.main(["run", "--experiment", "ar1", "--boots", "5"])
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_cli_negative_seed_exit_code(capsys):
    code = cli.main(["run", "--experiment", "ar1", "--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--experiment", "ar1", "--sims", "2", "--boots", "20",
     "--methods", "gbs-uniform:nan,1.5"],
    ["--experiment", "ar1", "--sims", "2", "--boots", "20",
     "--methods", "gbs-dirichlet:alpha=inf"],
    ["--experiment", "weights-check", "--methods", "dirichlet:alpha=inf"],
])
def test_cli_rejects_non_finite_scheme_parameters(argv, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert cli.main(["run", *argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


CLI_RUNS_WITHOUT_SCIPY = """
import sys, gebs, gebs.cli
out = sys.argv[1]
for argv in (["--experiment", "ar1", "--n", "20", "--sims", "2", "--boots", "20"],
             ["--experiment", "glm", "--sims", "1", "--boots", "20"],
             ["--experiment", "nls", "--boots", "50"],
             ["--experiment", "weights-check", "--methods", "exp"]):
    assert gebs.cli.main(["run", *argv, "--out", out]) == 0, argv
assert 0.0 < gebs.ks_distance([-1.0, 0.0, 1.0]) < 1.0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_cli_run_loads_scipy(tmp_path):
    # scipy's import is most of a fresh process's set-up and only nls_roots,
    # the reference fit of the recorded nls anchors, uses it; neither does
    # ks_distance's normal reference
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CLI_RUNS_WITHOUT_SCIPY,
                           str(tmp_path / "report.csv")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_heap_policy_applies_both_mallopt_settings():
    assert cli.apply_heap_policy() == (1, 1)
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):     # glibc < 2.33
        return
    libc.mallinfo2.restype = _Mallinfo2
    libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
    # a 1 MiB block, far above glibc's initial 128 KiB threshold, comes from
    # the heap and not from a mapping of its own
    mapped = libc.mallinfo2().hblks
    block = libc.malloc(1 << 20)
    try:
        assert block and libc.mallinfo2().hblks == mapped
    finally:
        libc.free(block)


def test_cli_builds_its_parser_and_heap_policy_once_per_process(monkeypatch, tmp_path,
                                                                  capsys):
    # as in a fresh process, whose first main call parses badly and second runs
    monkeypatch.setattr(cli, "_PARSER", None)
    calls = Counter()
    for name in ("build_parser", "apply_heap_policy"):
        def counted(original=getattr(cli, name), name=name):
            calls[name] += 1
            return original()
        monkeypatch.setattr(cli, name, counted)
    with pytest.raises(SystemExit) as parse_error:
        cli.main([*TINY_RUN, "--boots", "many"])
    assert parse_error.value.code == 2     # argparse's usage error
    assert "invalid int value" in capsys.readouterr().err
    second = tmp_path / "second.csv"
    assert cli.main([*TINY_RUN, "--out", str(second)]) == cli.EXIT_OK
    assert calls == {"build_parser": 1, "apply_heap_policy": 1}
    # a lone call, with a parser of its own, writes the same bytes
    monkeypatch.setattr(cli, "_PARSER", None)
    lone = tmp_path / "lone.csv"
    assert cli.main([*TINY_RUN, "--out", str(lone)]) == cli.EXIT_OK
    assert calls == {"build_parser": 2, "apply_heap_policy": 2}
    assert second.read_bytes() == lone.read_bytes()
    # build_parser itself still returns a fresh parser on every call
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._PARSER


def test_cli_nls_rejects_sims_other_than_one(tmp_path, capsys):
    # nls runs one replicate; a report must not claim more than it ran
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--experiment", "nls", "--sims", "3",
                     "--boots", "50", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "sims" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, methods", [
    ("ar1", "rb,rb"), ("nls", "gbs-exp,rb,gbs-exp"), ("weights-check", "exp,uniform,exp"),
], ids=["ar1", "nls", "weights-check"])
def test_cli_rejects_a_repeated_method(experiment, methods, tmp_path, capsys):
    # results are keyed by method name, so a repeat used to overwrite the
    # earlier run's rows with the later run's
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--experiment", experiment, "--methods", methods,
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_n_on_bundled_data(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--experiment", "glm", "--n", "77", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "ar1 only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_output_path(tmp_path, monkeypatch, capsys):
    # refused before any work: a bad --out must not cost a full run
    def no_work(config):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    for out in (tmp_path / "nodir" / "report.csv", tmp_path):
        code = cli.main(["run", "--experiment", "weights-check",
                         "--methods", "multinomial", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


TINY_RUN = ["run", "--experiment", "ar1", "--n", "20", "--sims", "2",
            "--boots", "15", "--methods", "gbs-multinomial", "--seed", "3"]


def test_cli_report_over_a_longer_one_equals_stdout(tmp_path, capsys):
    assert cli.main(TINY_RUN) == cli.EXIT_OK
    expected = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "report"
    assert cli.main([*TINY_RUN, "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    inode = out.stat().st_ino
    assert out.stat().st_size > len(expected)
    assert cli.main([*TINY_RUN, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == expected
    assert out.stat().st_ino == inode


def test_cli_writes_through_a_symlink(tmp_path, capsys):
    assert cli.main(TINY_RUN) == cli.EXIT_OK
    expected = capsys.readouterr().out
    target = tmp_path / "target.csv"
    target.write_text("x" * 10000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert cli.main([*TINY_RUN, "--out", str(link)]) == cli.EXIT_OK
    assert link.is_symlink()
    assert target.read_text() == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /dev/null")
def test_cli_writes_to_dev_null(capsys):
    assert cli.main([*TINY_RUN, "--out", "/dev/null"]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""


def test_cli_degenerate_exit_code(tmp_path, capsys):
    # one-out-of-n weights put all the weight on one observation, so each
    # draw's two-parameter logistic system is singular and falls back
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--experiment", "glm", "--sims", "1", "--boots", "20",
                     "--methods", "gbs-moon:m=1", "--out", str(out)])
    assert code == cli.EXIT_DEGENERATE
    assert "one or more methods degenerated" in capsys.readouterr().err
    assert "# flag degenerate:gbs-moon:m=1=1" in out.read_text().splitlines()


def test_cli_report_write_failure_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    def full_disk(report, fmt, out):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_report", full_disk)
    code = cli.main(["run", "--experiment", "weights-check", "--methods", "exp",
                     "--out", str(tmp_path / "report.csv")])
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
