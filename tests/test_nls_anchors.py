"""The recorded nls anchors against the fit they were recorded from.

``bench.NLS_ANCHORS`` are the two full-data roots that ``bench.nls_roots``
fits to the bundled isomerization data, best fit first, and
``bench.NLS_DATA_DIGEST`` is the digest of that data; an nls run uses the
recorded roots and refuses data with another digest. Like
``tests/test_goldens.py``, the equality holds for this host's numpy and scipy.
On a mismatch the assertion message prints the lines to paste into
``src/gebs/bench.py``, so this file is also the tool that records them again:

    PYTHONPATH=src python -m pytest -q tests/test_nls_anchors.py
"""

import numpy as np
import pytest

from gebs import bench, cli
from gebs import models as M
from gebs.errors import ParseError


def _literals(anchors):
    rows = "".join("    (" + ", ".join(repr(float(x)) for x in th) + "),\n"
                   for th in anchors)
    return f"NLS_ANCHORS = (\n{rows})"


def test_recorded_anchors_are_the_reference_fit_bit_for_bit():
    data = M.load_isomerization()
    fits = sorted(bench.nls_roots(M.IsomerizationModel(), data, np.ones(data.n)),
                  key=lambda f: f[1])
    fitted = [th for th, _ in fits]
    recorded = [np.array(th) for th in bench.NLS_ANCHORS]
    assert [th.tobytes() for th in recorded] == [th.tobytes() for th in fitted], (
        "the recorded anchors differ from nls_roots; paste:\n" + _literals(fitted))


def test_recorded_digest_is_the_bundled_data():
    digest = bench.nls_data_digest(M.load_isomerization())
    assert digest == bench.NLS_DATA_DIGEST, (
        f"the bundled data changed; paste:\nNLS_DATA_DIGEST = \"{digest}\"\n"
        "and record NLS_ANCHORS again from this test's other message")


def test_nls_run_refuses_data_the_anchors_were_not_fitted_to(monkeypatch, tmp_path,
                                                             capsys):
    # the smallest change a value can take: one ulp of one response
    data = M.load_isomerization()
    y = data["y"].copy()
    y[5] = np.nextafter(y[5], np.inf)
    data.arrays["y"] = y
    monkeypatch.setattr(bench.mmod, "load_isomerization", lambda: data)
    with pytest.raises(ParseError, match="NLS_ANCHORS"):
        bench.run_experiment(bench.ExperimentConfig("nls", boots=50))
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--experiment", "nls", "--boots", "50", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "digest" in capsys.readouterr().err
    assert not out.exists()
