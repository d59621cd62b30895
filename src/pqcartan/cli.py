"""Command-line front end: configs in JSON, bulk data as CSV, summaries as JSON.

A config holds only the keys of ``KEYS``.  Exit codes: 0 success, 2 config
error or unmet hypothesis, 3 certification failure, 4 resource cap exceeded,
5 numerical-degeneracy abort; any other failure is a traceback.  Every
artifact embeds a manifest (config hash, seed, versions); identical configs
give byte-equal artifacts for any worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .bulk import ShellData, ball_size, sphere_size, subtree_pieces, word_names
from .cocycles import identity_suite
from .counting import (FUNCTIONAL_KINDS, anosov_gap_check, canonical_chamber, cone_samples, count_curve,
                       default_phi, equidistribution_experiment, estimate_exponent)
from .flags import NonGenericFlagError
from .forms import DegenerateFormError, Form
from .freegroup import Representation, SchottkyRejection, representation_from_config, sample_limit_set
from .numerics import HypothesisError, NumericsError
from .pq_cartan import MODULUS_CLUSTER_TOL, NotInBoGError
from .projections import NotLoxodromicError
from .weyl import merge_to_slots

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_CAP = 4
EXIT_DEGENERACY = 5

DEFAULT_GRID_POINTS = 256
DEFAULT_WORD_CAP = 50_000_000
FORMAT_ROWS = 1024  # CSV rows formatted at a time, so a sphere piece's Python strings and floats stay small
LIMIT_SAMPLES = 40

# every key a config may hold, whichever subcommand reads it, since one config may serve several:
# (JSON type, least value or None); a nested entry's keys are dotted paths
KEYS = {
    "representation": (dict, None), "representation.recipe": (str, None), "representation.params": (dict, None),
    "representation.generators": (list, None), "representation.form": (dict, None), "representation.power": (int, 1),
    "form": (dict, None), "seed": (int, 0), "samples": (int, 1), "sample_length": (int, 1),
    "length": (int, 1), "length_min": (int, 1), "length_max": (int, 1),
    "functional": (str, None), "phi": (list, None), "boxes": (list, None),
    "grid": (dict, None), "grid.hi": (float, None), "grid.points": (int, 1),
}
DEGENERACY = (NotInBoGError, NonGenericFlagError, DegenerateFormError, NotLoxodromicError, NumericsError)


class ConfigError(ValueError):
    """A config the CLI does not run: unreadable, or a key, type or value it refuses (exit 2)."""


class CapExceededError(RuntimeError):
    """A ball or sphere of more words than ``--max-words`` allows (exit 4)."""


def _is(value, kind: type) -> bool:
    """Whether a JSON value is of ``kind``: no boolean is a number, and every integer is a float."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _check(entry: dict, prefix: str):
    """Refuse a key of ``entry`` that ``KEYS`` does not hold, or a value of the wrong type or below its bound."""
    for key, value in entry.items():
        path = prefix + key
        if path not in KEYS:
            raise ConfigError(f"unknown config key {path!r}; known: {sorted(KEYS)}")
        kind, least = KEYS[path]
        if not _is(value, kind):
            raise ConfigError(f"{path} must be of type {kind.__name__}, got {value!r}")
        if least is not None and value < least:
            raise ConfigError(f"{path} must be at least {least}, got {value}")
        if any(k.startswith(path + ".") for k in KEYS):
            _check(value, path + ".")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    _check(cfg, "")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _manifest(cfg: dict, subcommand: str) -> dict:
    return {
        "subcommand": subcommand,
        "config_sha256": _config_hash(cfg),
        "seed": cfg.get("seed", 0),
        "versions": {"pqcartan": __version__, "numpy": np.__version__},
    }


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], lines) -> int:
    """Write the header and each formatted line, CRLF-terminated as ``csv.writer`` ends rows; returns the line count.

    A line's fields are quoted by its format where ``csv.writer`` would quote them (a field holding a comma).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for written, line in enumerate(lines, 1):
            fh.write(line + "\r\n")
    return written


def _from_config(build, entry: dict):
    """``build(entry)``, where a plain ValueError, TypeError or KeyError (no degeneracy error) is a config error."""
    try:
        return build(entry)
    except DEGENERACY:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_rep(cfg: dict) -> Representation:
    rep = _from_config(representation_from_config, cfg.get("representation", {}))
    if rep.form.field_tag != "R":
        raise ConfigError("bulk enumeration supports real representations only")
    return rep


def _phi(cfg: dict, rep: Representation, chamber) -> np.ndarray:
    """The config's ``phi``, one number per coordinate, or else ``counting.default_phi`` in ``chamber``."""
    if "phi" not in cfg:
        return default_phi(rep, chamber)
    phi = cfg["phi"]
    if len(phi) != rep.dim or not all(_is(x, float) for x in phi):
        raise ConfigError(f"phi must hold {rep.dim} numbers, one per coordinate, got {phi}")
    return np.asarray(phi, dtype=float)


def _capped(cfg: dict, words: int) -> None:
    """Refuse, before any word is built, a ball or sphere of more than ``max_words`` words."""
    cap = cfg["max_words"]
    if words > cap:
        raise CapExceededError(f"enumeration of {words} words exceeds the cap of {cap}")


def _ball_length(rep: Representation, cfg: dict, key: str, default: int) -> int:
    """The configured word length of a ball read through the engine, within ``max_words``."""
    length = cfg.get(key, default)
    _capped(cfg, ball_size(rep.rank, length) - 1)
    return length


def _grid_from(cfg: dict, default_hi: float) -> np.ndarray:
    g = cfg.get("grid", {})
    return np.linspace(0.0, g.get("hi", default_hi), g.get("points", DEFAULT_GRID_POINTS))


# -- subcommands --------------------------------------------------------------


def cmd_rep_build(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    # the samples are strided over the whole sphere, which the word cap counts
    length = cfg.get("sample_length", 6)
    _capped(cfg, sphere_size(rep.rank, length))
    sigs, bad = sample_limit_set(rep, length, LIMIT_SAMPLES)
    return {
        "certificate": rep.certificate,
        "metadata": rep.metadata,
        "signature": list(rep.form.signature),
        "limit_signatures": sorted(set(sigs)),
        "non_generic_samples": len(bad),
        "note": "finite-length certification tests a necessary condition only",
    }


def _sphere_csv_rows(rep: Representation, cfg: dict, default_length: int, rows_of) -> tuple[int, int, Iterator]:
    """(length, word count, CSV rows) of the configured sphere, refused beyond ``max_words``.

    Read off ``bulk.subtree_pieces`` under each first letter in turn, in canonical order; each piece of
    the sphere's length is mapped by ``rows_of`` and freed before the next is built.
    """
    length = cfg.get("length", default_length)
    n = sphere_size(rep.rank, length)
    _capped(cfg, n)
    ctx = rep.bulk_context()

    def rows():
        for first in range(ctx.alphabet_size):
            for piece in subtree_pieces(ctx, first, length):
                yield from rows_of(piece) if piece.length == length else ()
                del piece

    return length, n, rows()


def cmd_enumerate(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)

    def rows_of(shell: ShellData):
        # the engine's levels are projective: the letters' own log-scales are added back
        log_scales = shell.scales[0] + rep.image_scales[shell.idx_rows].sum(axis=1)
        m = shell.comps[0].reshape(shell.count, -1)
        return _lines(f"%s,{shell.length}" + ",%.12g" * (1 + m.shape[1]), shell.idx_rows, log_scales[:, None], m)

    length, n, out = _sphere_csv_rows(rep, cfg, 4, rows_of)
    d = rep.dim
    header = ["word", "length", "log_scale"] + [f"m{i}{j}" for i in range(d) for j in range(d)]
    _write_csv(Path(args.out) / "sphere.csv", header, out)
    return {"words": n, "length": length}


def _lines(line: str, idx_rows: np.ndarray, *columns: np.ndarray) -> Iterator[str]:
    """``line % (name, *fields)`` per word: its name, then its entries of each (n, m) column block in turn.

    Formatted FORMAT_ROWS words at a time; the blocks are joined as float64, so a ``%d`` field prints an integer.
    """
    for lo in range(0, len(idx_rows), FORMAT_ROWS):
        rows = slice(lo, lo + FORMAT_ROWS)
        fields = np.concatenate([c[rows] for c in columns], axis=1).tolist()
        yield from (line % (name, *f) for name, f in zip(word_names(idx_rows[rows]), fields))


def _projection_rows(shell: ShellData):
    bo, signs, gaps = shell.bo_data()
    ok = shell.bo_valid_mask()
    d = bo.shape[1]
    w_g = merge_to_slots(np.where(signs > 0, 1, -1))
    gap = gaps.min(axis=1, keepdims=True)
    # w_g is its slot digits run together; a simple eigenline's restricted form is 1x1, so its isotropy margin is 1
    line = f"%s,{shell.length}" + ",%.10g" * (2 * d) + "," + "%d" * d + ",%.4g,1,%d"
    return _lines(line, shell.idx_rows[ok], shell.cartan_coords()[ok], bo[ok], w_g[ok], gap[ok],
                  gap[ok] < 10 * MODULUS_CLUSTER_TOL)


def cmd_project(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length, n, out = _sphere_csv_rows(rep, cfg, 6, _projection_rows)
    d = rep.dim
    header = (["word", "length"] + [f"a{i}" for i in range(d)] + [f"b{i}" for i in range(d)]
              + ["w_g", "modulus_gap", "isotropy_margin", "degenerate"])
    rows_written = _write_csv(Path(args.out) / "projections.csv", header, out)
    return {"rows": rows_written, "not_decomposable": n - rows_written, "length": length}


def cmd_cocycle_check(cfg: dict, args) -> dict:
    return identity_suite(_from_config(Form.from_config, cfg), cfg.get("samples", 300), cfg.get("seed", 0))


def cmd_count(cfg: dict, args) -> dict:
    functional = cfg.get("functional", "norm_bo")
    if functional not in FUNCTIONAL_KINDS:
        raise ConfigError(f"unknown functional kind {functional!r}; known: {list(FUNCTIONAL_KINDS)}")
    rep = _build_rep(cfg)
    length = _ball_length(rep, cfg, "length", 8)
    # phi_lambda pairs phi with Jordan data placed in the canonical chamber
    chamber = canonical_chamber(rep) if functional == "phi_lambda" else None
    phi = _phi(cfg, rep, chamber) if functional in ("phi_bo", "phi_lambda") else None
    probe = count_curve(rep, "norm_at", min(3, length), np.linspace(0, 1, 2))
    hi = probe.shell_minima[min(3, length)] * (length + 1) / min(3, length)
    curve = count_curve(rep, functional, length, _grid_from(cfg, hi), phi=phi, chamber=chamber, threads=args.threads)
    _write_csv(Path(args.out) / "counts.csv", ["threshold", "count"],
               ("%.10g,%d" % tc for tc in zip(curve.thresholds.tolist(), curve.counts.tolist())))
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
    l_min = cfg.get("length_min", 6)
    l_max = _ball_length(rep, cfg, "length_max", 9)
    if l_min > l_max:
        raise ConfigError(f"length_min must lie in [1, length_max = {l_max}], got {l_min}")
    result = cone_samples(rep, l_min, l_max, threads=args.threads)
    bo = result["slot_cloud"]
    union = result["translate_union"]
    coords = ",%.10g" * rep.dim
    lines = [("bo" + coords) % tuple(v) for v in bo.tolist()]
    lines += [("cartan_translate" + coords) % tuple(v) for v in union.tolist()]
    header = ["source"] + [f"x{i}" for i in range(rep.dim)]
    _write_csv(Path(args.out) / "cone.csv", header, lines)
    return {
        "weyl_count": len(result["weyl_set"]),
        "weyl_set": [list(w.perm) for w in result["weyl_set"]],
        "signatures": [list(s) for s in result["signatures"]],
        "hausdorff": result["hausdorff"],
        "lengths": [l_min, l_max],
    }


def cmd_equidistribute(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length = _ball_length(rep, cfg, "length", 10)
    boxes_cfg = cfg.get("boxes", [[[1], [2]], [[1], [-2]], [[-1], [2]], [[-1], [-2]]])
    if not all(_is(box, list) and len(box) == 2 and all(_is(cyl, list) and all(_is(x, int) for x in cyl)
                                                        for cyl in box) for box in boxes_cfg):
        raise ConfigError(f"boxes must be a list of [A, B] pairs of words whose letters are ints, got {boxes_cfg}")
    boxes = [(tuple(a), tuple(b)) for a, b in boxes_cfg]
    for cyl in sorted({cyl for box in boxes for cyl in box}):
        if not cyl:
            raise ConfigError("cylinder [] is empty: a cylinder is a word of at least one letter")
        for letter in cyl:
            if not 1 <= abs(letter) <= rep.rank:
                raise ConfigError(f"cylinder letter {letter} lies outside +-1..+-{rep.rank}")
        if any(x == -y for x, y in zip(cyl, cyl[1:])):
            raise ConfigError(f"cylinder {list(cyl)} is not a reduced word")
    phi = _phi(cfg, rep, None)
    result = equidistribution_experiment(rep, phi, length, boxes, threads=args.threads)
    # a cylinder prints as a letter tuple, which holds a comma since no cylinder is empty, so it is quoted
    lines = ['"%s","%s",%.10g,%.10g' % (a, b, mass, bracket)
             for (a, b), mass, bracket in zip(result["boxes"], result["reweighted_final"], result["brackets"])]
    _write_csv(Path(args.out) / "boxes.csv", ["cyl_minus", "cyl_plus", "reweighted_mass", "bracket"], lines)
    return {
        "entropy": result["entropy"],
        "product_defect": result["product_defect"],
        "length": length,
    }


def cmd_gap_check(cfg: dict, args) -> dict:
    rep = _build_rep(cfg)
    length = _ball_length(rep, cfg, "length", 8)
    if length < 2:
        raise ConfigError(f"length must be at least 2 to fit a line through shell minima, got {length}")
    c, cp, minima = anosov_gap_check(rep, length, threads=args.threads)
    _write_csv(Path(args.out) / "gaps.csv", ["shell", "min_root_gap"],
               ("%d,%.10g" % sv for sv in sorted(minima.items())))
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
            _check({"seed": args.seed}, "")
            cfg["seed"] = args.seed
        cfg["max_words"] = args.max_words
        summary = SUBCOMMANDS[args.subcommand](cfg, args)
    except (ConfigError, HypothesisError) as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    except SchottkyRejection as exc:
        return fail(EXIT_CERTIFICATION, "certification", str(exc))
    except CapExceededError as exc:
        return fail(EXIT_CAP, "resource-cap", str(exc))
    except DEGENERACY as exc:
        return fail(EXIT_DEGENERACY, "degeneracy", str(exc))

    payload = {"manifest": _manifest(cfg, args.subcommand), "summary": summary}
    _write_json(Path(args.out) / "summary.json", payload)
    print(json.dumps(payload["summary"], sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
