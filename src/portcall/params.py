"""Plain-text parameter files.

One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored. Every key is optional and falls back to the built-in default, but an
unknown key is an error so typos cannot silently leave a parameter untuned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classifier import ModelParams
from .embedding import FeatureWeights
from .index import DEFAULT_LEAF_SIZE

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


@dataclass(frozen=True)
class ParamsFile:
    params: ModelParams
    leaf_size: int = DEFAULT_LEAF_SIZE


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_params(text: str) -> ParamsFile:
    weight_kw: dict[str, float] = {}
    param_kw: dict[str, float | bool] = {}
    leaf_size = DEFAULT_LEAF_SIZE
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
            elif key in _BOOL_KEYS:
                param_kw["smoothing_enabled"] = _parse_bool(value)
            else:
                raise ParamsError(f"line {lineno}: unknown key {key!r}")
        except ParamsError:
            raise
        except ValueError as exc:
            raise ParamsError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    try:
        weights = FeatureWeights(**weight_kw)
        params = ModelParams(weights=weights, **param_kw)
    except ValueError as exc:
        raise ParamsError(str(exc)) from exc
    return ParamsFile(params=params, leaf_size=leaf_size)


def load_params(path: str) -> ParamsFile:
    with open(path, encoding="utf-8") as fh:
        return parse_params(fh.read())


def format_params(pf: ParamsFile) -> str:
    p = pf.params
    pairs = [(key, repr(getattr(p.weights if group else p, name)))
             for key, (group, name) in _FLOAT_KEYS.items()]
    pairs += [("leaf_size", str(pf.leaf_size)),
              ("smoothing.enabled", "true" if p.smoothing_enabled else "false")]
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def save_params(path: str, pf: ParamsFile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_params(pf))
