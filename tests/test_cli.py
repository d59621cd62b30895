import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from pqcartan.bulk import index_row
from pqcartan.cli import main
from pqcartan.freegroup import representation_from_config

import oracle
from conftest import sphere_words


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


@pytest.mark.parametrize("sub", ["count", "cone", "equidistribute", "gap-check"])
def test_ball_beyond_max_words_exits_4(tmp_path, sub, capsys):
    # the L=7 ball of a rank-2 group has 4 * (3^7 - 1) / 2 = 4372 words besides the identity
    cfg = write_config(tmp_path, "red7.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                               "length": 7, "length_max": 7})
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"), "--max-words", "10", "--json-errors"]) == 4
    assert "enumeration of 4372 words exceeds the cap of 10" in json.loads(capsys.readouterr().out)["message"]


def test_ball_at_max_words_runs(tmp_path, red_cfg):
    # the L=4 ball of a rank-2 group has 4 + 12 + 36 + 108 = 160 words besides the identity
    assert main(["gap-check", "--config", red_cfg, "--out", str(tmp_path / "o"), "--max-words", "159"]) == 4
    assert main(["gap-check", "--config", red_cfg, "--out", str(tmp_path / "o"), "--max-words", "160"]) == 0


def test_equidistribute_runs_within_its_ball(tmp_path):
    # the L=3 ball of a rank-2 group has 4 + 12 + 36 = 52 words besides the identity
    cfg = write_config(tmp_path, "red3.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                               "length": 3})
    assert main(["equidistribute", "--config", cfg, "--out", str(tmp_path / "o"), "--max-words", "52"]) == 0


def test_equidistribute_d5_two_letter_cylinders(tmp_path):
    # the cylinder words' brackets come off the engine's level vectors, so no
    # level wedge has to be decomposable
    cfg = write_config(tmp_path, "d5.json", {
        "representation": {"recipe": "reducible-21", "params": {"p": 3, "q": 2, "power": 6}}, "length": 4,
        "boxes": [[[1, 2], [2, -1]], [[1, 2], [-2, -1]], [[-1, -2], [2, -1]], [[-1, -2], [-2, -1]]]})
    out = tmp_path / "o"
    assert main(["equidistribute", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "boxes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and all(np.isfinite(float(r["bracket"])) for r in rows)


@pytest.mark.parametrize("cylinder,message", [([0], "cylinder letter 0 "), ([3], "cylinder letter 3 "),
                                              ([2, -3], "cylinder letter -3 "),
                                              ([1, -1], "cylinder [1, -1] is not a reduced word")],
                         ids=["zero", "past-rank", "past-rank-inverse", "unreduced"])
def test_equidistribute_refuses_a_cylinder_that_is_no_word(tmp_path, capsys, monkeypatch, cylinder, message):
    # refused as a config error before the engine builds any word
    from pqcartan.freegroup import Representation

    def no_words(self):
        raise AssertionError("the engine was asked for words")

    monkeypatch.setattr(Representation, "bulk_context", no_words)
    cfg = write_config(tmp_path, "box.json", {
        "representation": {"recipe": "reducible-21", "params": {"power": 4}}, "length": 3,
        "boxes": [[[1], cylinder], [[1], [2]], [[-1], cylinder], [[-1], [2]]]})
    out = tmp_path / "o"
    assert main(["equidistribute", "--config", cfg, "--out", str(out), "--json-errors"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["error"] == "config" and message in body["message"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("sub,lengths,message", [
    ("rep-build", {"sample_length": 0}, "sample_length must be at least 1"),
    ("count", {"length": 0}, "length must be at least 1"),
    ("cone", {"length_min": 5, "length_max": 4}, "length_min must lie in [1, length_max = 4]"),
    ("gap-check", {"length": 1}, "length must be at least 2"),
], ids=["rep-build-sample-0", "count-0", "cone-min-above-max", "gap-check-1"])
def test_word_lengths_out_of_range_exit_2(tmp_path, capsys, sub, lengths, message):
    cfg = write_config(tmp_path, "c.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                            **lengths})
    out = tmp_path / "o"
    assert main([sub, "--config", cfg, "--out", str(out), "--json-errors"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["error"] == "config" and message in body["message"]
    assert not (out / "summary.json").exists()


def test_rep_build_sample_sphere_beyond_max_words_exits_4(tmp_path, red_cfg, capsys):
    # the limit set is sampled off the whole sample_length sphere: 4 * 3^5 = 972 words at the default length 6
    out = tmp_path / "o"
    assert main(["rep-build", "--config", red_cfg, "--out", str(out), "--max-words", "971", "--json-errors"]) == 4
    assert "enumeration of 972 words exceeds the cap of 971" in json.loads(capsys.readouterr().out)["message"]
    assert not (out / "summary.json").exists()


def test_rep_build_at_max_words_keeps_its_summary(tmp_path, red_cfg):
    summaries = []
    for cap in ([], ["--max-words", "972"]):
        out = tmp_path / f"o{len(summaries)}"
        assert main(["rep-build", "--config", red_cfg, "--out", str(out), *cap]) == 0
        summaries.append(json.loads((out / "summary.json").read_text())["summary"])
    assert summaries[0] == summaries[1]


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


def test_project_and_enumerate_slices_match_unsliced_run(tmp_path, monkeypatch):
    # the sphere is read in pieces of at most bulk.slice_words(d) words; the
    # artifacts do not depend on the slice size, and no piece holds more
    from pqcartan import bulk, cli

    cfg = write_config(tmp_path, "l6.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                             "length": 6, "length_min": 4, "length_max": 6})
    seen, rows_of = [], cli._projection_rows

    def spy(shell):
        seen.append(shell.count)
        return rows_of(shell)

    monkeypatch.setattr(cli, "_projection_rows", spy)
    for sub, name in (("project", "projections.csv"), ("enumerate", "sphere.csv"), ("cone", "cone.csv")):
        outs = []
        for slice_bytes in (bulk.SLICE_BYTES, 100 * 208):  # 208 bytes of level state per word at d = 3
            monkeypatch.setattr(bulk, "SLICE_BYTES", slice_bytes)
            outs.append(tmp_path / f"{sub}-{slice_bytes}")
            assert main([sub, "--config", cfg, "--out", str(outs[-1])]) == 0
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert json.loads((outs[0] / "summary.json").read_text())["summary"] == \
            json.loads((outs[1] / "summary.json").read_text())["summary"]
    # project at L = 6: one piece of 243 words per first letter, then pieces of at most 100
    assert seen[:4] == [243] * 4 and max(seen[4:]) <= 100 and sum(seen[4:]) == 4 * 243


@pytest.mark.parametrize("representation,length,size", [
    ({"recipe": "reducible-21", "params": {"power": 4}}, 6, 972),
    ({"recipe": "two-orbit"}, 4, 108),
], ids=["reducible_21", "two_orbit"])
def test_project_matches_high_precision(tmp_path, representation, length, size):
    # every word of the sphere is written, with finite values, and 40 evenly
    # spaced rows agree with the exact Cartan and slot projections; the words'
    # log-singular spreads are far beyond what one float64 matrix resolves
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
        exact = oracle.row_product(rep, index_row(words[i].letters))
        b_o, slots = oracle.slot_projection(exact, rep.form.signature)
        assert np.max(np.abs(values[i, :d] - oracle.cartan(exact))) < 1e-8
        assert np.max(np.abs(values[i, d:2 * d] - b_o)) < 1e-8
        assert rows[i][2 + 2 * d] == "".join(map(str, slots))


def test_cocycle_check(tmp_path):
    cfg = write_config(tmp_path, "coc.json", {"samples": 25, "seed": 9})
    out = tmp_path / "coc"
    assert main(["cocycle-check", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["samples"] == 25
    assert all(v < 1e-8 for v in summary["max_deviations"].values())


def test_count_phi_lambda_matches_count_curve(tmp_path):
    # phi_lambda pairs the default functional with Jordan data placed in the
    # canonical chamber.  Words that are not cyclically reduced still read
    # their own level matrices, so reading each word's cyclic core will move
    # these counts; the CLI must keep agreeing with count_curve.
    from pqcartan.counting import canonical_chamber, count_curve, default_phi

    representation = {"recipe": "reducible-21", "params": {"power": 4}}
    cfg = write_config(tmp_path, "lam.json", {"representation": representation, "length": 6,
                                              "functional": "phi_lambda", "grid": {"hi": 60.0, "points": 31}})
    out = tmp_path / "lam"
    assert main(["count", "--config", cfg, "--out", str(out)]) == 0
    rep = representation_from_config(representation)
    chamber = canonical_chamber(rep)
    curve = count_curve(rep, "phi_lambda", 6, np.linspace(0.0, 60.0, 31), phi=default_phi(rep, chamber),
                        chamber=chamber)
    rows = list(csv.reader((out / "counts.csv").read_text().splitlines()))
    assert rows[0] == ["threshold", "count"]
    assert [int(c) for _, c in rows[1:]] == curve.counts.tolist()
    assert [float(t) for t, _ in rows[1:]] == pytest.approx(curve.thresholds.tolist(), abs=1e-9)
    assert 0 < curve.counts[-1]


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


DIAGONAL = [[2.7, 0, 0], [0, 1, 0], [0, 0, 0.37]]
LORENTZ_FORM = {"field": "R", "gram": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}


def test_explicit_generator_builds_and_takes_the_seed_override(tmp_path):
    cfg = write_config(tmp_path, "gen.json", {"representation": {"generators": [DIAGONAL], "form": LORENTZ_FORM,
                                                                 "power": 4}})
    out = tmp_path / "gen"
    assert main(["rep-build", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["summary"]["metadata"]["recipe"] == "explicit"
    assert payload["manifest"]["seed"] == 11


def test_explicit_generators_failing_the_contraction_exit_3(tmp_path, capsys):
    # the README's diagonal generator and a conjugate of it by a rotation: their fixed flags are
    # distinct but close, so eps is small and neither image contracts within it
    conjugate = [[1.366, 0.241, -0.857], [0.241, 0.554, 0.155], [-0.857, 0.155, 2.15]]
    cfg = write_config(tmp_path, "two.json", {"representation": {"generators": [DIAGONAL, conjugate],
                                                                 "form": LORENTZ_FORM, "power": 4}})
    assert main(["rep-build", "--config", cfg, "--out", str(tmp_path / "o"), "--json-errors"]) == 3
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "certification"
    assert "generator 0 image fails" in error["message"] and "contraction" in error["message"]


@pytest.mark.parametrize("sub,payload,code,kind,message", [
    # a NumericsError from ScaledMatrix.of
    ("rep-build", {"representation": {"generators": [[[0] * 3] * 3], "form": LORENTZ_FORM, "power": 4}},
     5, "degeneracy", "matrix with zero or non-finite entries"),
    # a DegenerateFormError from Form.of
    ("cocycle-check", {"form": {"field": "R", "gram": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]}, "samples": 5, "seed": 1},
     5, "degeneracy", "Gram matrix is singular within tolerance"),
    # a recipe parameter that no recipe takes
    ("rep-build", {"representation": {"recipe": "reducible-21", "params": {"power": 4, "spread": 2}}},
     2, "config", "unexpected keyword argument 'spread'"),
])
def test_error_exit_codes(tmp_path, capsys, sub, payload, code, kind, message):
    cfg = write_config(tmp_path, "err.json", payload)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"), "--json-errors"]) == code
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == kind and error["exit_code"] == code
    assert message in error["message"]


def test_cocycle_check_over_a_complex_form(tmp_path):
    gram = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]]
    cfg = write_config(tmp_path, "cplx.json", {"form": {"field": "C", "gram": gram}, "samples": 5, "seed": 1})
    out = tmp_path / "cplx"
    assert main(["cocycle-check", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["samples"] == 5
    assert all(v < 1e-8 for v in summary["max_deviations"].values())


def test_count_on_a_two_point_grid_reports_the_slope_error(tmp_path):
    cfg = write_config(tmp_path, "cnt.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                              "length": 3, "grid": {"points": 2}})
    out = tmp_path / "cnt"
    assert main(["count", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["slope_error"] == "window holds fewer than three usable grid points"
    assert "slope" not in summary
