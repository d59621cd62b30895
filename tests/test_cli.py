import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from pqcartan.cli import main
from pqcartan.freegroup import representation_from_config, sphere_words
from pqcartan.weyl import file_to_slots, merge_to_slots


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def red_cfg(tmp_path):
    return write_config(
        tmp_path,
        "red.json",
        {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
         "length": 4, "seed": 3},
    )


def test_rep_build_success(tmp_path, red_cfg):
    out = tmp_path / "out"
    assert main(["rep-build", "--config", red_cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["summary"]["certificate"]["separation"] > 0
    assert payload["manifest"]["config_sha256"]
    assert payload["summary"]["limit_signatures"] == [[1, -1, 1]]


def test_rep_build_d5(tmp_path):
    cfg = write_config(
        tmp_path, "d5.json",
        {"representation": {"recipe": "reducible-21", "params": {"p": 3, "q": 2, "power": 6}}},
    )
    out = tmp_path / "out"
    assert main(["rep-build", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["summary"]["limit_signatures"] == [[1, -1, 1, -1, 1]]


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg is imported only where it is used (isometry sampling,
    # the conjugated-pair recipes), so the CLI starts without paying for it
    code = "import sys, pqcartan, pqcartan.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["rep-build", "--config", str(bad), "--out", str(tmp_path / "o"), "--json-errors"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "config"


def test_missing_config_exits_2(tmp_path):
    assert main(["count", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]) == 2


def test_cap_exits_4(tmp_path, red_cfg):
    assert main(["count", "--config", red_cfg, "--out", str(tmp_path / "o"), "--max-words", "10"]) == 4


def test_certification_failure_exits_3(tmp_path):
    cfg = write_config(
        tmp_path, "rej.json",
        {"representation": {"recipe": "reducible-21", "params": {"power": 1}}, "length": 3},
    )
    assert main(["rep-build", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_gap_check_artifacts(tmp_path, red_cfg):
    out = tmp_path / "gap"
    assert main(["gap-check", "--config", red_cfg, "--out", str(out)]) == 0
    rows = (out / "gaps.csv").read_text().strip().splitlines()
    assert rows[0] == "shell,min_root_gap"
    assert len(rows) == 5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["passes"] is True


def test_project_and_enumerate(tmp_path, red_cfg):
    out1 = tmp_path / "proj"
    assert main(["project", "--config", red_cfg, "--out", str(out1)]) == 0
    header = (out1 / "projections.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["word", "length"]
    assert "w_g" in header
    out2 = tmp_path / "enum"
    assert main(["enumerate", "--config", red_cfg, "--out", str(out2)]) == 0
    lines = (out2 / "sphere.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3 ** 3


@pytest.mark.parametrize("sub", ["enumerate", "project"])
def test_sphere_beyond_max_words_exits_4(tmp_path, red_cfg, sub):
    # the L=4 sphere of a rank-2 group has 4 * 3^3 = 108 words
    assert main([sub, "--config", red_cfg, "--out", str(tmp_path / "o"), "--max-words", "107"]) == 4
    assert main([sub, "--config", red_cfg, "--out", str(tmp_path / "o"), "--max-words", "108"]) == 0


@pytest.mark.parametrize("sub", ["enumerate", "project"])
def test_empty_sphere_exits_2(tmp_path, sub):
    # the engine reads words of at least one letter
    cfg = write_config(tmp_path, "l0.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                             "length": 0})
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _exact_projections(rep, word):
    """(Cartan projection, slot projection, rank -> slot map) of the exact product, mpmath."""
    import mpmath

    d = rep.dim
    sg = np.array([1.0] * rep.form.signature[0] + [-1.0] * rep.form.signature[1])
    jmat = mpmath.diag(sg.tolist())
    exact = mpmath.eye(d)
    for l in word.letters:
        exact = exact * mpmath.matrix(rep.letter_image(l).true_matrix().tolist())
    sv = mpmath.mp.eig(exact.T * exact, left=False, right=False)
    logs = np.array(sorted([float(mpmath.log(abs(v))) / 2 for v in sv], reverse=True))
    vals, vecs = mpmath.mp.eig(jmat * exact.T * jmat * exact)
    order = sorted(range(d), key=lambda t: -abs(vals[t]))
    halves = np.array([float(mpmath.log(abs(vals[t]))) for t in order]) / 2
    signs = []
    for t in order:
        v = np.array([complex(vecs[r, t]) for r in range(d)])
        v = np.real(v / np.exp(1j * np.angle(v[np.argmax(np.abs(v))])))
        signs.append(1 if np.sum(sg * v**2) > 0 else -1)
    return logs - logs.mean(), file_to_slots(halves - halves.mean(), signs), merge_to_slots(signs)


@pytest.mark.parametrize("representation,length,size", [
    ({"recipe": "reducible-21", "params": {"power": 4}}, 6, 972),
    ({"recipe": "two-orbit"}, 4, 108),
], ids=["reducible_21", "two_orbit"])
def test_project_matches_high_precision(tmp_path, representation, length, size):
    # every word of the sphere is written, with finite values, and 40 evenly
    # spaced rows agree with the exact Cartan and slot projections; the words'
    # log-singular spreads are far beyond what one float64 matrix resolves
    import mpmath

    mpmath.mp.dps = 150
    cfg = write_config(tmp_path, "proj.json", {"representation": representation, "length": length})
    out = tmp_path / "proj"
    assert main(["project", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary == {"rows": size, "not_decomposable": 0, "length": length}
    rep = representation_from_config(representation)
    d = rep.dim
    with open(out / "projections.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    words = list(sphere_words(rep.rank, length))
    assert [r[0] for r in rows] == [str(w) for w in words]
    values = np.array([[float(x) for x in r[2:2 + 2 * d] + r[-3:]] for r in rows])
    assert np.isfinite(values).all()
    for i in np.linspace(0, size - 1, 40).round().astype(int):
        a, b_o, slots = _exact_projections(rep, words[i])
        assert np.max(np.abs(values[i, :d] - a)) < 1e-8
        assert np.max(np.abs(values[i, d:2 * d] - b_o)) < 1e-8
        assert rows[i][2 + 2 * d] == "".join(map(str, slots))


def test_cocycle_check(tmp_path):
    cfg = write_config(tmp_path, "coc.json", {"samples": 25, "seed": 9})
    out = tmp_path / "coc"
    assert main(["cocycle-check", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["samples"] == 25
    assert all(v < 1e-8 for v in summary["max_deviations"].values())


@pytest.mark.parametrize("sub,extra", [
    ("count", {"length": 4}),
    ("gap-check", {"length": 4}),
    ("cone", {"length_min": 3, "length_max": 4}),
])
def test_worker_count_invariance(tmp_path, sub, extra):
    cfg = write_config(
        tmp_path, f"{sub}.json",
        {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
         "seed": 5, **extra},
    )
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"{sub}-{threads}"
        assert main([sub, "--config", cfg, "--out", str(out), "--threads", str(threads)]) == 0
        outs.append(out)
    for name in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
