"""Report bytes of every benchmark workload match the committed golden digests.

The benchmark checks these digests only when it runs; this test checks the
check round and the first rounds of the default seed on every test run. The
default weights-check report, which no workload runs, has its digest here.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gebs import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
_spec = importlib.util.spec_from_file_location("gebs_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
GOLDENS = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))
ROUNDS = 3


def _cases():
    for name, workload in workloads.WORKLOADS.items():
        golden = GOLDENS[name]
        yield pytest.param(workload, workloads.CHECK_SEED, golden["check"],
                           id=f"{name}-check")
        for r in range(ROUNDS):
            yield pytest.param(workload, workloads.round_seed(0, r),
                               golden["rounds"][r], id=f"{name}-round{r}")


@pytest.mark.parametrize("workload, seed, golden", list(_cases()))
def test_report_matches_golden(workload, seed, golden, tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main(workload.argv(seed, out)) == cli.EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == golden


WEIGHTS_CHECK_GOLDEN = "9c025ec7fbd7e385"


def test_default_weights_check_report_matches_golden(tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main(["run", "--experiment", "weights-check", "--out", str(out)]) == cli.EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == WEIGHTS_CHECK_GOLDEN


def test_solve_digest_plays_one_round():
    # tests/solve_digest.py, the A/B check that a change keeps every solve's
    # bits, runs; and in one tree its digests repeat
    import solve_digest

    first = solve_digest.digests(1)
    assert first == solve_digest.digests(1)
    assert first["reports"][0] == 2 * len(workloads.WORKLOADS)
    assert first["solves"][0] > 0
    assert first["weights-check"][0] == 2
    # with no rounds it hashes the check seed's weights-check report alone,
    # which is the default report
    assert solve_digest.digests(0)["weights-check"] == (1, WEIGHTS_CHECK_GOLDEN)


def test_fixed_cost_measures_one_call():
    # tests/fixed_cost.py, which prints ROADMAP item 11's fixed costs, runs
    import fixed_cost

    lines = fixed_cost.report(sims=1, boots=(10, 20), repeats=1, samples=1)
    assert [line.split()[0] for line in lines] == (["resample"] * 3
                                                   + ["cli.main:", "_pcg64_words"])
    assert "boots=10:" in lines[0] and "boots=20:" in lines[1]
    assert all(f" {k} draws " in lines[-1] for k in fixed_cost.SEED_DRAWS)


def test_code_lines_counts_each_module():
    # tests/code_lines.py, which prints the package size ROADMAP tracks, runs;
    # a docstring, a comment or a blank line is no code line
    import code_lines

    lines = code_lines.report()
    names, sizes = [], []
    for line in lines:
        name, file_lines, code = line.split()
        names.append(name)
        sizes.append((int(file_lines), int(code)))
    assert names[-1] == "total" and "engine.py" in names
    assert sizes[-1] == tuple(map(sum, zip(*sizes[:-1])))
    assert all(0 < code < file_lines for file_lines, code in sizes)
    text = ('"""Module."""\n'
            '\n'
            'def f(x):\n'
            '    """Doc,\n'
            '    two lines."""\n'
            '    # note\n'
            '    return (x +\n'
            '            1)\n')
    assert code_lines.count(text) == (8, 3)
