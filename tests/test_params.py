"""Parameter file parsing, defaults, rejection of unknown keys."""

import pytest

from portcall.classifier import ModelParams
from portcall.params import (
    KNOWN_KEYS,
    ParamsError,
    format_params,
    load_params,
    parse_params,
)


def test_empty_text_gives_defaults():
    params = parse_params("")
    assert params == ModelParams()
    assert params.leaf_size == 32


def test_full_round_trip(tmp_path):
    params = parse_params("\n".join([
        "magnitude.x = 0.5",
        "magnitude.y = 0.25",
        "magnitude.z = 1.0",
        "magnitude.bearing_sin = 0.125",
        "magnitude.bearing_cos = 0.0625",
        "penalty.course = 2.5",
        "penalty.heading = 0.0",
        "penalty.speed = 9.5",
        "penalty.dist_from_departure = 3.25",
        "norm.speed_knots = 40.0",
        "norm.dist_km = 120.0",
        "leaf_size = 16",
        "smoothing.enabled = false",
    ]))
    assert params.weights.m_x == 0.5
    assert params.p_dist == 3.25
    assert params.norm_dist_km == 120.0
    assert params.leaf_size == 16
    assert params.smoothing_enabled is False

    path = tmp_path / "p.txt"
    path.write_text(format_params(params), encoding="utf-8")
    assert load_params(str(path)) == params


def test_partial_file_keeps_other_defaults():
    params = parse_params("penalty.speed = 4.0\n")
    assert params.p_speed == 4.0
    assert params.p_course == ModelParams().p_course
    assert params.weights == ModelParams().weights


def test_comments_and_blank_lines():
    params = parse_params("# tuned 2018-04-02\n\nleaf_size = 8  # small tree\n")
    assert params.leaf_size == 8


def test_unknown_key_rejected():
    with pytest.raises(ParamsError, match="unknown key"):
        parse_params("magnitude.w = 0.5\n")


def test_bad_value_rejected():
    with pytest.raises(ParamsError, match="line 1"):
        parse_params("penalty.course = fast\n")
    with pytest.raises(ParamsError, match="line 1: bad value for 'leaf_size'"):
        parse_params("leaf_size = 0\n")
    with pytest.raises(ParamsError):
        parse_params("smoothing.enabled = maybe\n")


def test_leaf_size_below_one_rejected():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="leaf_size must be >= 1"):
            ModelParams(leaf_size=bad)


def test_duplicate_key_rejected():
    with pytest.raises(ParamsError, match="duplicate"):
        parse_params("leaf_size = 8\nleaf_size = 16\n")


def test_missing_equals_rejected():
    with pytest.raises(ParamsError, match="expected key = value"):
        parse_params("leaf_size 8\n")


def test_out_of_range_magnitude_rejected():
    with pytest.raises(ParamsError):
        parse_params("magnitude.x = 1.5\n")


def test_format_lists_every_known_key():
    text = format_params(ModelParams())
    present = {line.split("=")[0].strip() for line in text.strip().split("\n")}
    assert present == set(KNOWN_KEYS)


def test_format_default_params_is_pinned():
    assert format_params(ModelParams()) == (
        "magnitude.x = 1.0\n"
        "magnitude.y = 1.0\n"
        "magnitude.z = 1.0\n"
        "magnitude.bearing_sin = 0.25\n"
        "magnitude.bearing_cos = 0.25\n"
        "penalty.course = 1.0\n"
        "penalty.heading = 1.0\n"
        "penalty.speed = 1.0\n"
        "penalty.dist_from_departure = 1.0\n"
        "norm.speed_knots = 50.0\n"
        "norm.dist_km = 100.0\n"
        "leaf_size = 32\n"
        "smoothing.enabled = true\n"
    )


# values of the right type that the owning object's own check rejects
BAD_VALUES = {
    **{f"magnitude.{axis}": "1.5" for axis in ("x", "y", "z", "bearing_sin", "bearing_cos")},
    **{f"penalty.{name}": "-0.5" for name in ("course", "heading", "speed",
                                             "dist_from_departure")},
    "norm.speed_knots": "0",
    "norm.dist_km": "-1",
    "leaf_size": "0",
    "smoothing.enabled": "maybe",
}


@pytest.mark.parametrize("key", KNOWN_KEYS)
def test_bad_value_for_every_key_names_its_line(key):
    assert set(BAD_VALUES) == set(KNOWN_KEYS)
    other = "leaf_size = 8" if key != "leaf_size" else "penalty.speed = 2.0"
    with pytest.raises(ParamsError, match=f"^line 2: bad value for '{key}': "):
        parse_params(f"{other}\n{key} = {BAD_VALUES[key]}\n")


NON_FINITE_FIELDS = {
    "p_course": "penalty.course",
    "p_heading": "penalty.heading",
    "p_speed": "penalty.speed",
    "p_dist": "penalty.dist_from_departure",
    "norm_speed_knots": "norm.speed_knots",
    "norm_dist_km": "norm.dist_km",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_FIELDS))
def test_non_finite_penalty_or_normalizer_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name}=.* must be finite"):
        ModelParams(**{name: float(value)})
    key = NON_FINITE_FIELDS[name]
    with pytest.raises(ParamsError, match=f"^line 2: bad value for '{key}': {name}="):
        parse_params(f"# tuned\n{key} = {value}\n")

