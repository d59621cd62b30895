import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from pqcartan.bulk import index_row
from pqcartan.cli import main
from pqcartan.freegroup import reducible_rep, representation_from_config

import oracle
from conftest import sphere_words, word_name


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


def test_library_paths_load_neither_scipy_linalg_nor_a_process_pool(tmp_path):
    # numpy is the only runtime dependency, and only a multi-worker run imports a process pool; the test process
    # holds scipy itself, so a fresh interpreter builds every recipe, samples real and complex isometries and runs a
    # single-worker rep-build, then names the modules it loaded
    cfg = write_config(tmp_path, "two.json", {"representation": {"recipe": "two-orbit"}})
    code = f"""
import sys
import numpy as np
from pqcartan.cli import main
from pqcartan.forms import Form, sample_isometry
from pqcartan.freegroup import RECIPES
for build in RECIPES.values():
    build()
rng = np.random.default_rng(0)
sample_isometry(Form.standard(2, 1), rng)
sample_isometry(Form.standard(2, 1, "C"), rng)
assert main(["rep-build", "--config", {cfg!r}, "--out", {str(tmp_path / "out")!r}, "--threads", "1"]) == 0
print(sorted(m for m in ("scipy.linalg", "concurrent.futures.process") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


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


def test_a_config_max_words_entry_does_not_override_the_flag(tmp_path, capsys):
    # --max-words is the only word cap: a config's own entry is a key the CLI refuses
    cfg = write_config(tmp_path, "red4.json", {"representation": {"recipe": "reducible-21", "params": {"power": 4}},
                                               "length": 4, "max_words": 10**9})
    out = str(tmp_path / "o")
    assert main(["gap-check", "--config", cfg, "--out", out, "--max-words", "159", "--json-errors"]) == 2
    assert "unknown config key 'max_words'" in json.loads(capsys.readouterr().out)["message"]


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
                                              ([1, -1], "cylinder [1, -1] is not a reduced word"),
                                              ([], "cylinder [] is empty"),
                                              ([1], "box [[1], [1]] pairs cylinder [1] with itself")],
                         ids=["zero", "past-rank", "past-rank-inverse", "unreduced", "empty", "same-word"])
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


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_equidistribute_writes_null_for_a_product_defect_the_boxes_do_not_define(tmp_path):
    # two boxes over one cylinder pair: no 2 x 2 grid, so no matrix to decompose
    cfg = write_config(tmp_path, "box.json", {
        "representation": {"recipe": "reducible-21", "params": {"power": 4}}, "length": 4,
        "boxes": [[[1], [2]], [[-1], [2]]]})
    out = tmp_path / "o"
    assert main(["equidistribute", "--config", cfg, "--out", str(out)]) == 0
    summary = _strict_json((out / "summary.json").read_text())["summary"]
    assert summary["product_defect"] is None and summary["length"] == 4


def test_count_without_three_distinct_thresholds_reports_the_slope_error(tmp_path):
    # every rotation-control word is excluded, so all 256 thresholds are 0
    cfg = write_config(tmp_path, "rot.json", {"representation": {"recipe": "rotation-control"}, "length": 4})
    out = tmp_path / "rot"
    assert main(["count", "--config", cfg, "--out", str(out)]) == 0
    summary = _strict_json((out / "summary.json").read_text())["summary"]
    assert summary["slope_error"] == "window holds fewer than three usable grid points"
    assert "slope" not in summary and "stderr" not in summary


def test_a_summary_that_is_not_strict_json_leaves_no_file(tmp_path, monkeypatch):
    from pqcartan import cli

    monkeypatch.setattr(cli, "identity_suite", lambda o, samples, seed: {"max_deviations": {"cocycle": float("nan")}})
    cfg = write_config(tmp_path, "cc.json", {"samples": 1})
    out = tmp_path / "cc"
    with pytest.raises(ValueError, match="not JSON compliant"):
        main(["cocycle-check", "--config", cfg, "--out", str(out)])
    assert not out.exists()


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
        for slice_bytes in (bulk.SLICE_BYTES, 100 * 544):  # slice_words counts 544 bytes a word at d = 3
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
    assert [r[0] for r in rows] == [word_name(w) for w in words]
    values = np.array([[float(x) for x in r[2:2 + 2 * d] + r[-3:]] for r in rows])
    assert np.isfinite(values).all()
    for i in np.linspace(0, size - 1, 40).round().astype(int):
        exact = oracle.row_product(rep, index_row(words[i]))
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


RED4 = {"representation": {"recipe": "reducible-21", "params": {"power": 4}}}
DIAGONAL = [[2.7, 0, 0], [0, 1, 0], [0, 0, 0.37]]
LORENTZ_FORM = {"field": "R", "gram": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
COMPLEX_LORENTZ = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]]


@pytest.mark.parametrize("sub,name,extra,lines", [
    ("project", "projections.csv", {"length": 3}, 37),
    ("project", "projections.csv", {"representation": {"recipe": "rotation-control"}, "length": 3}, 1),
    ("enumerate", "sphere.csv", {"length": 3}, 37),
    ("count", "counts.csv", {"length": 4}, 257),
    ("cone", "cone.csv", {"length_min": 3, "length_max": 4}, None),
    ("gap-check", "gaps.csv", {"length": 4}, 5),
    ("equidistribute", "boxes.csv", {"length": 3, "boxes": [[[1, 2], [2]], [[1, 2], [-2]], [[-1], [2]], [[-1], [-2]]]},
     5),
], ids=["project", "project-all-masked", "enumerate", "count", "cone", "gap-check", "equidistribute"])
def test_csv_artifacts_are_what_csv_writer_renders(tmp_path, sub, name, extra, lines):
    # each row is written by one format string; the bytes are csv.writer's rendering of the fields they
    # hold: CRLF after every row, the header included, and quotes only around a field holding a comma
    cfg = write_config(tmp_path, "c.json", {**RED4, **extra})
    out = tmp_path / "o"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 0
    with open(out / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rendered = io.StringIO(newline="")
    csv.writer(rendered).writerows(rows)
    assert (out / name).read_bytes() == rendered.getvalue().encode("utf-8")
    # an unquoted field holding a comma would re-render alike, but as two fields
    assert all(len(row) == len(rows[0]) for row in rows)
    assert len(rows) == lines if lines is not None else len(rows) > 1


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
    ("rep-build", {"representation": {"recipe": "reducible-12"}}, 2, "config", "unknown recipe 'reducible-12'"),
    ("rep-build", {"representation": {"form": LORENTZ_FORM}}, 2, "config", "needs either 'recipe' or 'generators'"),
    ("count", {"representation": {"recipe": "reducible-21", "params": {"power": 4}}, "length": 3,
               "functional": "norm_xx"}, 2, "config", "unknown functional kind 'norm_xx'"),
    ("cocycle-check", {"form": {"field": "R", "gram": [[1, 1, 0], [0, 1, 0], [0, 0, -1]]}, "samples": 5},
     2, "config", "Gram matrix is not self-adjoint"),
    ("rep-build", {"representation": {"generators": [[[2, 0, 0], [0, 1, 0]]], "form": LORENTZ_FORM}},
     2, "config", "expected a square matrix, got shape (2, 3)"),
    # a suite of no samples would report all-zero deviations for nothing checked
    ("cocycle-check", {"form": LORENTZ_FORM, "samples": 0}, 2, "config", "samples must be at least 1, got 0"),
    # a key no subcommand reads, at the top level or in a nested entry
    ("count", {**RED4, "length": 3, "lenght": 3}, 2, "config", "unknown config key 'lenght'"),
    ("cone", {**RED4, "length_min": 2, "length_max": 3, "stride": 3}, 2, "config", "unknown config key 'stride'"),
    ("count", {**RED4, "length": 3, "grid": {"lo": 5.0, "hi": 20.0}}, 2, "config", "unknown config key 'grid.lo'"),
    # a recipe belongs in the representation entry
    ("rep-build", {"recipe": "reducible-21", "params": {"power": 4}}, 2, "config", "unknown config key 'recipe'"),
    # an int key takes no float, string or boolean
    ("count", {**RED4, "length": 3.9}, 2, "config", "length must be of type int, got 3.9"),
    ("count", {**RED4, "length": "3"}, 2, "config", "length must be of type int, got '3'"),
    ("count", {**RED4, "length": True}, 2, "config", "length must be of type int, got True"),
    ("cocycle-check", {"form": LORENTZ_FORM, "samples": 2.5}, 2, "config", "samples must be of type int, got 2.5"),
    ("count", {**RED4, "length": 3, "grid": {"points": 0}}, 2, "config", "grid.points must be at least 1, got 0"),
    ("equidistribute", {**RED4, "length": 3, "phi": [1, -1]}, 2, "config", "phi must hold 3 numbers"),
    ("equidistribute", {**RED4, "length": 3, "boxes": [[1, 2]]}, 2, "config", "boxes must be a list of [A, B] pairs"),
    # the experiment needs a limit set in one open orbit
    ("equidistribute", {"representation": {"recipe": "two-orbit"}, "length": 3}, 2, "config",
     "single-orbit hypothesis fails"),
    # inputs the program cannot run, refused before any word is built
    ("rep-build", [RED4], 2, "config", "is not a JSON object"),
    ("cocycle-check", {"form": {"field": "R", "gram": np.eye(9).tolist()}}, 2, "config",
     "dimension 9 exceeds supported maximum 8"),
    ("rep-build", {"representation": {"generators": [DIAGONAL], "form": {"field": "C", "gram": COMPLEX_LORENTZ},
                                      "power": 4}}, 2, "config", "bulk enumeration supports real representations only"),
    # a key of the other path in a representation entry is refused, not ignored
    ("rep-build", {"representation": {"recipe": "reducible-21", "power": 9}}, 2, "config",
     "a representation built from 'recipe' takes no 'power' key"),
    ("rep-build", {"representation": {"recipe": "reducible-21",
                                      "form": {"field": "R", "gram": np.diag([-1, 1, 1]).tolist()}}},
     2, "config", "a representation built from 'recipe' takes no 'form' key"),
    ("rep-build", {"representation": {"generators": [DIAGONAL], "form": LORENTZ_FORM, "power": 4,
                                      "params": {"power": 4}}},
     2, "config", "a representation built from 'generators' takes no 'params' key"),
    ("cocycle-check", {"form": {"gram": LORENTZ_FORM["gram"]}, "samples": 5}, 2, "config",
     "form entry has no 'field' key"),
])
def test_error_exit_codes(tmp_path, capsys, sub, payload, code, kind, message):
    cfg = write_config(tmp_path, "err.json", payload)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o"), "--json-errors"]) == code
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == kind and error["exit_code"] == code
    assert message in error["message"]


def test_the_reducible_recipe_certifies_at_its_default_power(tmp_path):
    # power 4 is the least that certifies the (2,1) block pair
    assert reducible_rep().metadata["recipe"] == "reducible-21"
    cfg = write_config(tmp_path, "red.json", {"representation": {"recipe": "reducible-21"}})
    assert main(["rep-build", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_a_seed_flag_below_the_seed_bound_exits_2(tmp_path, capsys):
    # the flag's seed is held to the config key's bound before it replaces the entry
    cfg = write_config(tmp_path, "coc.json", {"samples": 1})
    assert main(["cocycle-check", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1", "--json-errors"]) == 2
    assert "seed must be at least 0, got -1" in json.loads(capsys.readouterr().out)["message"]


def test_a_program_error_is_no_config_error(tmp_path, red_cfg, monkeypatch):
    # only named errors map to exit codes: a KeyError the program raises surfaces as itself
    from pqcartan import cli

    def broken(*args, **kwargs):
        raise KeyError("a key the program lost")

    monkeypatch.setattr(cli, "anosov_gap_check", broken)
    with pytest.raises(KeyError, match="a key the program lost"):
        main(["gap-check", "--config", red_cfg, "--out", str(tmp_path / "o")])


def test_cocycle_check_over_a_complex_form(tmp_path):
    cfg = write_config(tmp_path, "cplx.json", {"form": {"field": "C", "gram": COMPLEX_LORENTZ}, "samples": 5,
                                               "seed": 1})
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
