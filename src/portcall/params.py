"""Plain-text parameter files.

One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored. Every key is optional and falls back to the built-in default, but an
unknown key is an error so typos cannot silently leave a parameter untuned.

Each key names a ``FeatureWeights`` field (``magnitude.*``) or a
``ModelParams`` field, and its value is read as the type of that field's
default. The owner is rebuilt after every line, so its own check names the
line of a bad value.
"""

from __future__ import annotations

from .classifier import ModelParams
from .embedding import FeatureWeights

# file key -> field name, in file order
_FIELDS = {
    "magnitude.x": "m_x",
    "magnitude.y": "m_y",
    "magnitude.z": "m_z",
    "magnitude.bearing_sin": "m_sin",
    "magnitude.bearing_cos": "m_cos",
    "penalty.course": "p_course",
    "penalty.heading": "p_heading",
    "penalty.speed": "p_speed",
    "penalty.dist_from_departure": "p_dist",
    "norm.speed_knots": "norm_speed_knots",
    "norm.dist_km": "norm_dist_km",
    "leaf_size": "leaf_size",
    "smoothing.enabled": "smoothing_enabled",
}
_WEIGHT_DEFAULTS = vars(FeatureWeights())
_DEFAULTS = {**_WEIGHT_DEFAULTS, **vars(ModelParams())}

KNOWN_KEYS = sorted(_FIELDS)


class ParamsError(ValueError):
    """A parameter file line that cannot be applied."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# type of a field's default -> (parse, format)
_CODECS = {float: (float, repr), int: (int, str),
           bool: (_parse_bool, lambda value: "true" if value else "false")}


def parse_params(text: str) -> ModelParams:
    weight_kw: dict[str, float] = {}
    param_kw: dict[str, float | int | bool] = {}
    params = ModelParams()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ParamsError(f"line {lineno}: unknown key {key!r}")
        name = _FIELDS[key]
        owner_kw = weight_kw if name in _WEIGHT_DEFAULTS else param_kw
        if name in owner_kw:
            raise ParamsError(f"line {lineno}: duplicate key {key!r}")
        try:
            owner_kw[name] = _CODECS[type(_DEFAULTS[name])][0](value.strip())
            params = ModelParams(FeatureWeights(**weight_kw), **param_kw)
        except ValueError as exc:
            raise ParamsError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return params


def load_params(path: str) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        return parse_params(fh.read())


def format_params(p: ModelParams) -> str:
    values = {**vars(p.weights), **vars(p)}
    return "".join(f"{key} = {_CODECS[type(_DEFAULTS[name])][1](values[name])}\n"
                   for key, name in _FIELDS.items())
