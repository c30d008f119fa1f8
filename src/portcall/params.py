"""Plain-text parameter files.

One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored. Every key is optional and falls back to the built-in default, but an
unknown key is an error so typos cannot silently leave a parameter untuned.
"""

from __future__ import annotations

from .classifier import ModelParams
from .embedding import FeatureWeights

_FLOAT_KEYS = {
    "magnitude.x": ("weights", "m_x"),
    "magnitude.y": ("weights", "m_y"),
    "magnitude.z": ("weights", "m_z"),
    "magnitude.bearing_sin": ("weights", "m_sin"),
    "magnitude.bearing_cos": ("weights", "m_cos"),
    "penalty.course": (None, "p_course"),
    "penalty.heading": (None, "p_heading"),
    "penalty.speed": (None, "p_speed"),
    "penalty.dist_from_departure": (None, "p_dist"),
    "norm.speed_knots": (None, "norm_speed_knots"),
    "norm.dist_km": (None, "norm_dist_km"),
}
_INT_KEYS = {"leaf_size"}
_BOOL_KEYS = {"smoothing.enabled"}

KNOWN_KEYS = sorted(set(_FLOAT_KEYS) | _INT_KEYS | _BOOL_KEYS)


class ParamsError(ValueError):
    """A parameter file line that cannot be applied."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_params(text: str) -> ModelParams:
    weight_kw: dict[str, float] = {}
    param_kw: dict[str, float | bool | int] = {}
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParamsError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _FLOAT_KEYS:
                group, field = _FLOAT_KEYS[key]
                target = weight_kw if group == "weights" else param_kw
                target[field] = float(value)
            elif key in _INT_KEYS:
                leaf_size = int(value)
                if leaf_size < 1:
                    raise ValueError("must be >= 1")
                param_kw["leaf_size"] = leaf_size
            elif key in _BOOL_KEYS:
                param_kw["smoothing_enabled"] = _parse_bool(value)
            else:
                raise ParamsError(f"line {lineno}: unknown key {key!r}")
        except ParamsError:
            raise
        except ValueError as exc:
            raise ParamsError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    try:
        return ModelParams(weights=FeatureWeights(**weight_kw), **param_kw)
    except ValueError as exc:
        raise ParamsError(str(exc)) from exc


def load_params(path: str) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        return parse_params(fh.read())


def format_params(p: ModelParams) -> str:
    pairs = [(key, repr(getattr(p.weights if group else p, name)))
             for key, (group, name) in _FLOAT_KEYS.items()]
    pairs += [("leaf_size", str(p.leaf_size)),
              ("smoothing.enabled", "true" if p.smoothing_enabled else "false")]
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def save_params(path: str, params: ModelParams) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_params(params))
