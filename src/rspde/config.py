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
from functools import partial

import numpy as np

from .coefficients import CoefficientModel, model_from_config
from .grid_noise import SpaceTimeGrid, make_grid, project_nonneg, sine_profile
from .semigroup import _check_positive, _check_streams, functional_from_config
from .solver import _check_mode
from .verify import EPS_BIG, EPS_SMALL, _check_eps_pair, _check_ladder, _check_p, _check_rungs

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


def _need(block: dict, block_name: str, key: str, types, pred=None, desc="", rule=None):
    """block[key]: present, of a JSON type in ``types`` (a bool is not a number), with
    ``pred`` true, and then through ``rule``, the library's own statement of the
    value's rule, whose error message goes behind the field path."""
    if key not in block:
        raise ConfigError(f"{block_name}.{key}: missing required field")
    val = block[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError(f"{block_name}.{key}: expected {desc or types}, got {val!r}")
    if pred is not None and not pred(val):
        raise ConfigError(f"{block_name}.{key}: invalid value {val!r} ({desc})")
    if rule is not None:
        try:
            rule(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{block_name}.{key}: {exc}") from exc
    return val


def _optional(block: dict, block_name: str, key: str, *args, **kwargs):
    """``_need`` for a key the config may leave out; None when it does."""
    return _need(block, block_name, key, *args, **kwargs) if key in block else None


def _numbers(vals) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals)


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


def validate_config(cfg: dict) -> None:
    """ConfigError naming the first bad field.  The config knows its blocks, keys, JSON
    types and that numbers are finite; each value rule is the library's own (``_need``)."""
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
    name = _need(m, "model", "name", str, desc="a string", rule=model_from_config)
    _optional(m, "model", "params", dict, desc="an object", rule=partial(model_from_config, name))

    r = cfg["run"]
    mode = _need(r, "run", "mode", str, lambda v: v in ("penalized", "reflected"),
                 "'penalized' or 'reflected'")
    if mode == "penalized":
        _need(r, "run", "eps", (int, float), desc="number", rule=lambda v: _check_mode(mode, v))
    _need(r, "run", "n_paths", int, desc="integer", rule=_check_streams)
    _need(r, "run", "seed", int, lambda v: 0 <= v < 2 ** 64, "integer in [0, 2**64)")
    _optional(r, "run", "save_at", list, _numbers, "a list of times",
              lambda times: [grid.step_of(t) for t in times])
    _optional(r, "run", "h_modes", list, _numbers, "a list of mode coefficients")
    eps_ladder = partial(_check_ladder, "eps_ladder")
    _optional(r, "run", "eps_ladder", list, _numbers, "a list of numbers", eps_ladder)

    if "check" in cfg:
        c = cfg["check"]
        if not isinstance(c, dict):
            raise ConfigError("check: must be an object")
        for key in ("h_modes", "h1_modes", "h2_modes"):
            _optional(c, "check", key, list, _numbers, "a list of mode coefficients")
        _optional(c, "check", "t", (int, float), lambda v: v > 0, "> 0", grid.step_of)
        _optional(c, "check", "p", (int, float), desc="number", rule=_check_p)
        for key, rule in (("ladder", _check_rungs), ("eps_ladder", eps_ladder)):
            _optional(c, "check", key, list, _numbers, "a list of numbers", rule)
        for key in ("eps_big", "eps_small"):
            _optional(c, "check", key, (int, float), desc="number", rule=partial(_check_positive, key))
        pair = (c.get("eps_big", EPS_BIG), c.get("eps_small", EPS_SMALL))  # what comparison runs
        _optional(c, "check", "eps_small" if "eps_small" in c else "eps_big", (int, float),
                  rule=lambda _: _check_eps_pair(*pair))  # a lone key meets the other's default
        _optional(c, "check", "functional", dict, lambda f: {"kind", "direction_modes"} <= f.keys(),
                  "an object with 'kind' and 'direction_modes'", partial(functional_from_config, grid))


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
