import json
import subprocess
import sys

import pytest

from pqcartan.cli import main


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
