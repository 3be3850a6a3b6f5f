"""Experiment configuration: a single self-contained JSON file.

A config has nested blocks ``grid``, ``model``, ``run``, and optionally
``check``.  Initial fields are declared as sine-mode coefficient lists and
projected onto the nonnegative cone (negative parts clipped; the clip
distance is reported in the manifest).  Serialization is canonical (sorted
keys), so the config hash is stable across platforms.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .coefficients import MODEL_CATALOGUE, CoefficientModel, model_from_config
from .grid_noise import SpaceTimeGrid, make_grid, project_nonneg, sine_profile
from .semigroup import functional_from_config

__all__ = [
    "ConfigError",
    "load_config",
    "parse_config",
    "dumps_config",
    "config_hash",
    "validate_config",
    "build_grid",
    "build_model",
    "initial_field",
]

class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


def parse_config(text: str) -> dict:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dumps_config(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _need(block: dict, block_name: str, key: str, types, pred=None, desc=""):
    if key not in block:
        raise ConfigError(f"{block_name}.{key}: missing required field")
    val = block[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError(f"{block_name}.{key}: expected {desc or types}, got {val!r}")
    if pred is not None and not pred(val):
        raise ConfigError(f"{block_name}.{key}: invalid value {val!r} ({desc})")
    return val


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite_numbers(node, path: str) -> None:
    """ConfigError naming the first non-finite number under node (JSON's Infinity is a float)."""
    if isinstance(node, dict):
        for key, val in node.items():
            _finite_numbers(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _finite_numbers(val, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{path}: must be finite, got {node!r}")


def _positive_list(block: dict, block_name: str, key: str) -> None:
    if key in block:
        vals = block[key]
        if not (isinstance(vals, list) and all(_is_number(v) and v > 0 for v in vals) and len(set(vals)) > 1):
            raise ConfigError(f"{block_name}.{key}: must be a list of at least two distinct numbers > 0")


def _on_mesh(grid: SpaceTimeGrid, field: str, times) -> None:
    for t in times:
        try:
            grid.step_of(t)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}") from exc


def _mode_lists(block: dict, block_name: str, *keys) -> None:
    for key in keys:
        if key in block and not (
            isinstance(block[key], list) and all(_is_number(v) for v in block[key])
        ):
            raise ConfigError(f"{block_name}.{key}: must be a list of mode coefficients")


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _finite_numbers(cfg, "")
    for name in ("grid", "model", "run"):
        if name not in cfg or not isinstance(cfg[name], dict):
            raise ConfigError(f"{name}: missing required block")

    g = cfg["grid"]
    _need(g, "grid", "n_space", int, desc="integer")
    for key in ("dt", "t_final"):
        _need(g, "grid", key, (int, float), desc="number")
    try:
        grid = build_grid(cfg)
    except ValueError as exc:  # make_grid states the grid rules
        raise ConfigError(f"grid.{exc}") from exc

    m = cfg["model"]
    name = _need(m, "model", "name", str, lambda v: v in MODEL_CATALOGUE,
                 f"one of {sorted(MODEL_CATALOGUE)}")
    params = m.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model.params: must be an object")
    try:
        model_from_config(name, params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.params: {exc}") from exc

    r = cfg["run"]
    mode = _need(r, "run", "mode", str, lambda v: v in ("penalized", "reflected"),
                 "'penalized' or 'reflected'")
    if mode == "penalized":
        _need(r, "run", "eps", (int, float), lambda v: v > 0, "> 0")
    _need(r, "run", "n_paths", int, lambda v: v >= 1, "integer >= 1")
    _need(r, "run", "seed", int, lambda v: 0 <= v < 2 ** 64, "integer in [0, 2**64)")
    if "save_at" in r:
        if not isinstance(r["save_at"], list) or not all(_is_number(v) for v in r["save_at"]):
            raise ConfigError("run.save_at: must be a list of times")
        _on_mesh(grid, "run.save_at", r["save_at"])
    _mode_lists(r, "run", "h_modes")
    _positive_list(r, "run", "eps_ladder")

    if "check" in cfg:
        c = cfg["check"]
        if not isinstance(c, dict):
            raise ConfigError("check: must be an object")
        _mode_lists(c, "check", "h_modes", "h1_modes", "h2_modes")
        if "t" in c:
            _on_mesh(grid, "check.t", [_need(c, "check", "t", (int, float), lambda v: v > 0, "> 0")])
        if "p" in c:
            _need(c, "check", "p", (int, float), lambda v: v >= 1, ">= 1")
        for key in ("ladder", "eps_ladder"):
            _positive_list(c, "check", key)
        if any(s > 1 for s in c.get("ladder", [])):
            raise ConfigError("check.ladder: rungs must lie in (0, 1]")
        for key in ("eps_big", "eps_small"):
            if key in c:
                _need(c, "check", key, (int, float), lambda v: v > 0, "> 0")
        if "eps_small" in c and "eps_big" in c and not c["eps_small"] < c["eps_big"]:
            raise ConfigError(f"check.eps_small: must be < check.eps_big = {c['eps_big']!r}")
        if "functional" in c:
            f = c["functional"]
            if not isinstance(f, dict) or "kind" not in f:
                raise ConfigError("check.functional: must be an object with a 'kind'")
            try:
                functional_from_config(grid, f)
            except KeyError as exc:
                raise ConfigError(f"check.functional: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"check.functional: {exc}") from exc


def build_grid(cfg: dict) -> SpaceTimeGrid:
    g = cfg["grid"]
    return make_grid(g["n_space"], float(g["dt"]), float(g["t_final"]))


def build_model(cfg: dict) -> CoefficientModel:
    m = cfg["model"]
    return model_from_config(m["name"], m.get("params", {}))


def initial_field(grid: SpaceTimeGrid, modes) -> tuple[np.ndarray, float]:
    """Sine-mode profile projected to the nonnegative cone.

    Returns (field, clip distance in sup norm); projection guarantees the
    run starts inside the admissible set.
    """
    return project_nonneg(sine_profile(grid, modes or []))
