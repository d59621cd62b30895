"""Command-line front end: configs in JSON, bulk data as CSV, summaries as JSON.

Exit codes: 0 success, 2 config error, 3 certification failure, 4 resource
cap exceeded, 5 numerical-degeneracy abort.  Every artifact embeds a
manifest (config hash, seed, versions); identical configs give byte-equal
artifacts for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bulk import CapExceededError, ShellData, sphere_rows, sphere_size
from .cocycles import identity_suite
from .counting import cone_samples, count_curve, default_phi, equidistribution_experiment, estimate_exponent
from .flags import NonGenericFlagError
from .forms import DegenerateFormError, Form
from .freegroup import (
    DEFAULT_WORD_CAP,
    Representation,
    SchottkyRejection,
    anosov_gap_check,
    representation_from_config,
    sample_limit_set,
    sphere_words,
)
from .numerics import NumericsError
from .pq_cartan import MODULUS_CLUSTER_TOL, NotInBoGError
from .projections import NotLoxodromicError
from .weyl import merge_to_slots

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_CAP = 4
EXIT_DEGENERACY = 5

DEFAULT_GRID_POINTS = 256


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _manifest(cfg: dict, subcommand: str) -> dict:
    import scipy

    return {
        "subcommand": subcommand,
        "config_sha256": _config_hash(cfg),
        "seed": cfg.get("seed", 0),
        "versions": {"pqcartan": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _build_rep(cfg: dict) -> Representation:
    rep = representation_from_config(cfg.get("representation", cfg))
    if isinstance(rep, SchottkyRejection):
        raise _Rejection(rep)
    return rep


class _Rejection(Exception):
    def __init__(self, rejection: SchottkyRejection):
        super().__init__("; ".join(rejection.reasons))
        self.rejection = rejection


def _grid_from(cfg: dict, default_hi: float) -> np.ndarray:
    g = cfg.get("grid", {})
    lo = float(g.get("lo", 0.0))
    hi = float(g.get("hi", default_hi))
    n = int(g.get("points", DEFAULT_GRID_POINTS))
    return np.linspace(lo, hi, n)


# -- subcommands --------------------------------------------------------------


def cmd_rep_build(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    sigs, bad = sample_limit_set(rep, int(cfg.get("sample_length", 6)), int(cfg.get("sample_count", 40)))
    return {
        "certificate": rep.certificate,
        "metadata": rep.metadata,
        "signature": list(rep.form.signature),
        "limit_signatures": sorted(set(sigs)),
        "non_generic_samples": len(bad),
        "note": "finite-length certification tests a necessary condition only",
    }


def _sphere_shell(rep: Representation, cfg: dict, default_length: int) -> tuple[int, ShellData]:
    """(length, engine data) of the configured sphere, refused beyond ``max_words``."""
    length = int(cfg.get("length", default_length))
    if length < 1:
        raise ConfigError(f"length must be at least 1, got {length}")
    n, cap = sphere_size(rep.rank, length), int(cfg["max_words"])
    if n > cap:
        raise CapExceededError(cap, n)
    return length, rep.bulk_context().shell(sphere_rows(rep.rank, length))


def cmd_enumerate(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length, shell = _sphere_shell(rep, cfg, 4)
    # the engine's levels are projective: the letters' own log-scales are added back
    log_scales = shell.scales[0] + rep.image_scales[shell.idx_rows].sum(axis=1)
    out = ([str(word), length, f"{s:.12g}"] + [f"{x:.12g}" for x in m.reshape(-1)]
           for word, s, m in zip(sphere_words(rep.rank, length), log_scales, shell.comps[0]))
    d = rep.dim
    header = ["word", "length", "log_scale"] + [f"m{i}{j}" for i in range(d) for j in range(d)]
    _write_csv(Path(args.out) / "sphere.csv", header, out)
    return {"words": shell.count, "length": length}


def cmd_project(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length, shell = _sphere_shell(rep, cfg, 6)
    bo, signs, gaps = shell.bo_data()
    valid = shell.bo_valid_mask()
    w_g = merge_to_slots(np.where(signs > 0, 1, -1))
    modulus_gap = gaps.min(axis=1)
    words = sphere_words(rep.rank, length)
    # a simple eigenline's restricted form is 1x1, so its isotropy margin is 1
    out = ([str(word), length] + [f"{x:.10g}" for x in a] + [f"{x:.10g}" for x in b]
           + ["".join(map(str, w)), f"{gap:.4g}", 1, int(gap < 10 * MODULUS_CLUSTER_TOL)]
           for word, ok, a, b, w, gap in zip(words, valid, shell.cartan_coords(), bo, w_g, modulus_gap) if ok)
    d = rep.dim
    header = (
        ["word", "length"]
        + [f"a{i}" for i in range(d)]
        + [f"b{i}" for i in range(d)]
        + ["w_g", "modulus_gap", "isotropy_margin", "degenerate"]
    )
    _write_csv(Path(args.out) / "projections.csv", header, out)
    rows_written = int(valid.sum())
    return {"rows": rows_written, "not_decomposable": shell.count - rows_written, "length": length}


def cmd_cocycle_check(cfg: dict, args) -> dict:
    o = Form.from_json(json.dumps(cfg["form"])) if "form" in cfg else Form.standard(2, 1)
    report = identity_suite(
        o,
        samples=int(cfg.get("samples", 300)),
        seed=int(cfg.get("seed", 0)),
    )
    return report


def cmd_count(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length = int(cfg.get("length", 8))
    functional = cfg.get("functional", "norm_bo")
    phi = None
    if functional == "phi_bo":
        phi = np.asarray(cfg["phi"], dtype=float) if "phi" in cfg else default_phi(rep)
    probe = count_curve(rep, "norm_at", min(3, length), np.linspace(0, 1, 2))
    hi = probe.shell_minima[min(3, length)] * (length + 1) / min(3, length)
    grid = _grid_from(cfg, hi)
    cap = int(cfg["max_words"])
    curve = count_curve(rep, functional, length, grid, phi=phi, threads=args.threads, cap=cap)
    _write_csv(
        Path(args.out) / "counts.csv",
        ["threshold", "count"],
        [[f"{t:.10g}", int(c)] for t, c in zip(curve.thresholds, curve.counts)],
    )
    t_hi = curve.complete_below()
    summary: dict = {
        "functional": functional,
        "length": length,
        "complete_below": t_hi,
        "excluded": {str(k): v for k, v in sorted(curve.excluded.items())},
    }
    try:
        slope, stderr, extra = estimate_exponent(curve, (0.5 * t_hi, t_hi))
        summary.update({"slope": slope, "stderr": stderr, "window": [0.5 * t_hi, t_hi],
                        "shifted_slopes": extra["shifted_slopes"]})
    except ValueError as exc:
        summary["slope_error"] = str(exc)
    return summary


def cmd_cone(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    l_min = int(cfg.get("length_min", 6))
    l_max = int(cfg.get("length_max", 9))
    result = cone_samples(rep, l_min, l_max, threads=args.threads,
                          stride=int(cfg.get("stride", 1)))
    bo = result["slot_cloud"].points
    union = result["translate_union"]
    rows = [["bo"] + [f"{x:.10g}" for x in v] for v in bo]
    rows += [["cartan_translate"] + [f"{x:.10g}" for x in v] for v in union]
    header = ["source"] + [f"x{i}" for i in range(rep.dim)]
    _write_csv(Path(args.out) / "cone.csv", header, rows)
    return {
        "weyl_count": len(result["weyl_set"]),
        "weyl_set": [list(w.perm) for w in result["weyl_set"]],
        "signatures": [list(s) for s in result["signatures"]],
        "hausdorff": result["hausdorff"],
        "lengths": [l_min, l_max],
    }


def cmd_equidistribute(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length = int(cfg.get("length", 10))
    phi = np.asarray(cfg["phi"], dtype=float) if "phi" in cfg else default_phi(rep)
    boxes_cfg = cfg.get("boxes")
    if boxes_cfg is None:
        boxes = [((1,), (2,)), ((1,), (-2,)), ((-1,), (2,)), ((-1,), (-2,))]
    else:
        boxes = [(tuple(a), tuple(b)) for a, b in boxes_cfg]
    result = equidistribution_experiment(rep, phi, length, boxes, threads=args.threads)
    rows = []
    for (a, b), mass, bracket in zip(result["boxes"], result["reweighted_final"], result["brackets"]):
        rows.append([str(a), str(b), f"{mass:.10g}", f"{bracket:.10g}"])
    _write_csv(Path(args.out) / "boxes.csv", ["cyl_minus", "cyl_plus", "reweighted_mass", "bracket"], rows)
    return {
        "entropy": result["entropy"],
        "product_defect": result["product_defect"],
        "length": length,
    }


def cmd_gap_check(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length = int(cfg.get("length", 8))
    c, cp, minima = anosov_gap_check(rep, length, threads=args.threads, cap=int(cfg["max_words"]))
    _write_csv(
        Path(args.out) / "gaps.csv",
        ["shell", "min_root_gap"],
        [[s, f"{v:.10g}"] for s, v in sorted(minima.items())],
    )
    return {
        "c": c,
        "c_prime": cp,
        "passes": bool(c > 0),
        "note": "finite-length check of a necessary condition only",
    }


SUBCOMMANDS = {
    "rep-build": cmd_rep_build,
    "enumerate": cmd_enumerate,
    "project": cmd_project,
    "cocycle-check": cmd_cocycle_check,
    "count": cmd_count,
    "cone": cmd_cone,
    "equidistribute": cmd_equidistribute,
    "gap-check": cmd_gap_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqcartan",
        description="Signed Cartan decomposition experiments for PSL_d",
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--max-words", type=int, default=DEFAULT_WORD_CAP)
    parser.add_argument("--json-errors", action="store_true")
    args = parser.parse_args(argv)

    def fail(code: int, kind: str, message: str) -> int:
        body = {"error": kind, "message": message, "exit_code": code}
        if args.json_errors:
            print(json.dumps(body, sort_keys=True))
        else:
            print(f"error ({kind}): {message}", file=sys.stderr)
        return code

    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        cfg.setdefault("max_words", args.max_words)
        summary = SUBCOMMANDS[args.subcommand](cfg, args)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (NotInBoGError, NonGenericFlagError, DegenerateFormError, NotLoxodromicError)):
            return fail(EXIT_DEGENERACY, "degeneracy", str(exc))
        return fail(EXIT_CONFIG, "config", str(exc))
    except _Rejection as exc:
        return fail(EXIT_CERTIFICATION, "certification", str(exc))
    except CapExceededError as exc:
        return fail(EXIT_CAP, "resource-cap", str(exc))
    except (NumericsError,) as exc:
        return fail(EXIT_DEGENERACY, "degeneracy", str(exc))

    payload = {"manifest": _manifest(cfg, args.subcommand), "summary": summary}
    _write_json(Path(args.out) / "summary.json", payload)
    print(json.dumps(payload["summary"], sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
