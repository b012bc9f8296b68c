"""Tests for the sectioned key-value config parser."""

import pytest

from hxtwin.config import ConfigError, load_config, parse_config

SAMPLE = """\
# scenario header comment
[run]
duration_s = 600        # inline comment
dt_s = 1.0
label = chirp tracking

[hot.inlet]
T_K = 380
mdot_kg_s = 30
enabled = yes
cp_coeffs = 2800, 2.0
variant = A
"""


def parse_sample():
    return parse_config(SAMPLE, source="sample.cfg")


def test_parse_sections_and_entries():
    raw = parse_sample()
    assert set(raw.sections) == {"run", "hot.inlet"}
    assert raw.sections["run"] == 2
    assert raw.sections["hot.inlet"] == 7
    assert raw.get_str("run", "label") == "chirp tracking"
    assert raw.source == "sample.cfg"


def test_line_of_tracks_source_lines():
    raw = parse_sample()
    assert raw.line_of("run", "duration_s") == 3
    assert raw.line_of("hot.inlet", "cp_coeffs") == 11


def test_has():
    raw = parse_sample()
    assert raw.has("run", "dt_s")
    assert not raw.has("run", "druation_s")
    assert not raw.has("cold.inlet", "T_K")


def test_typed_getters():
    raw = parse_sample()
    assert raw.get_float("run", "dt_s") == 1.0
    assert raw.get_int("run", "duration_s") == 600
    assert raw.get_bool("hot.inlet", "enabled") is True
    assert raw.get_floats("hot.inlet", "cp_coeffs") == (2800.0, 2.0)
    assert raw.get_choice("hot.inlet", "variant", {"A", "B", "C"}) == "A"


def test_getter_defaults_used_when_absent():
    raw = parse_sample()
    assert raw.get_float("run", "settle_s", 0.0) == 0.0
    assert raw.get_str("run", "note", "none") == "none"
    assert raw.get_bool("run", "verbose", False) is False
    assert raw.get_floats("run", "amps", (1.0,)) == (1.0,)


def test_missing_required_key_names_section_line():
    raw = parse_sample()
    with pytest.raises(ConfigError) as exc:
        raw.get_float("run", "settle_s")
    assert "missing key 'settle_s'" in str(exc.value)
    assert exc.value.line == 2  # points at the [run] header


def test_missing_section_is_file_level():
    raw = parse_sample()
    with pytest.raises(ConfigError) as exc:
        raw.get_float("cold.inlet", "T_K")
    assert "missing section [cold.inlet]" in str(exc.value)
    assert exc.value.line == 0


@pytest.mark.parametrize(
    "getter,key,fragment",
    [
        ("get_float", "label", "expects a number"),
        ("get_int", "label", "expects an integer"),
        ("get_bool", "label", "expects a boolean"),
        ("get_floats", "label", "comma-separated numbers"),
    ],
)
def test_type_errors_carry_value_line(getter, key, fragment):
    raw = parse_sample()
    with pytest.raises(ConfigError) as exc:
        getattr(raw, getter)("run", key)
    assert fragment in str(exc.value)
    assert exc.value.line == 5  # the 'label = ...' line


def test_get_int_rejects_float_literal():
    raw = parse_config("[run]\nn = 2.5\n")
    with pytest.raises(ConfigError) as exc:
        raw.get_int("run", "n")
    assert exc.value.line == 2


def test_get_bool_accepted_spellings():
    text = "[f]\na = true\nb = False\nc = 1\nd = off\ne = Yes\n"
    raw = parse_config(text)
    assert raw.get_bool("f", "a") is True
    assert raw.get_bool("f", "b") is False
    assert raw.get_bool("f", "c") is True
    assert raw.get_bool("f", "d") is False
    assert raw.get_bool("f", "e") is True


def test_get_choice_rejects_with_line():
    raw = parse_config("[run]\nvariant = D\n")
    with pytest.raises(ConfigError) as exc:
        raw.get_choice("run", "variant", {"A", "B", "C"})
    assert "must be one of" in str(exc.value)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("[run]\n[run]\n", 2, "duplicate section"),
        ("[run]\nx = 1\nx = 2\n", 3, "duplicate key"),
        ("[run\nx = 1\n", 1, "malformed section header"),
        ("[]\n", 1, "malformed section header"),
        ("[  ]\n", 1, "empty section name"),
        ("[run]\n= 3\n", 2, "empty key"),
        ("[run]\nx =\n", 2, "empty value"),
        ("[run]\njust words\n", 2, "expected 'key = value'"),
        ("x = 1\n", 1, "before any [section]"),
    ],
)
def test_parse_errors_report_line(text, lineno, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)
    assert f"line {lineno}:" in str(exc.value)


def test_duplicate_key_allowed_across_sections():
    raw = parse_config("[a]\nx = 1\n[b]\nx = 2\n")
    assert raw.get_int("a", "x") == 1
    assert raw.get_int("b", "x") == 2


def test_comment_only_hash_inside_value_is_stripped():
    # '#' always starts a comment; values cannot contain one
    raw = parse_config("[a]\nx = 5 # five\n")
    assert raw.get_str("a", "x") == "5"


def test_reject_unasked_passes_asked_keys_present_or_absent():
    raw = parse_config("[run]\nduration_s = 600\n")
    assert raw.get_int("run", "duration_s") == 600
    assert raw.get_float("run", "dt_s", 1.0) == 1.0  # asked, absent: default
    assert raw.asked == {("run", "duration_s"), ("run", "dt_s")}
    raw.reject_unasked()  # should not raise


def test_reject_unasked_flags_unknown_section():
    raw = parse_config("[run]\nx = 1\n\n[rnu]\nx = 1\n")
    raw.get_int("run", "x")
    with pytest.raises(ConfigError) as exc:
        raw.reject_unasked()
    assert "unknown section [rnu]" in str(exc.value)
    assert exc.value.line == 4


def test_reject_unasked_flags_unasked_key():
    raw = parse_config("[run]\ndruation_s = 600\n")
    assert raw.get_int("run", "duration_s", 300) == 300
    with pytest.raises(ConfigError) as exc:
        raw.reject_unasked()
    assert "unknown key 'druation_s' in section [run]" in str(exc.value)
    assert exc.value.line == 2


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(SAMPLE, encoding="utf-8")
    raw = load_config(path)
    assert raw.source == str(path)
    assert raw.get_int("run", "duration_s") == 600
    assert raw.get_floats("hot.inlet", "cp_coeffs") == (2800.0, 2.0)
