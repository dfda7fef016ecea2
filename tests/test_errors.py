import pytest

from neuperm.errors import (
    BoundInapplicableError,
    CapacityError,
    DescriptorError,
    IneffectiveRegimeError,
    ParseError,
    VerificationError,
    read_json,
    split_spec,
)


def test_exit_codes_live_on_the_error_types():
    assert VerificationError.exit_code == 2
    assert CapacityError.exit_code == 3
    assert BoundInapplicableError.exit_code == IneffectiveRegimeError.exit_code == 4
    for cls in (ParseError, DescriptorError, ValueError):
        assert not hasattr(cls, "exit_code")


def test_read_json_refuses_a_repeated_key_at_any_depth():
    assert read_json('{"a": {"b": 1, "c": [{"b": 2}]}}', "plan") == {
        "a": {"b": 1, "c": [{"b": 2}]}
    }
    with pytest.raises(ValueError, match="^plan repeats the key 'b'$"):
        read_json('{"a": [{"b": 1, "b": 1}]}', "plan")
    with pytest.raises(DescriptorError, match="^descriptor repeats the key 'x+\\.\\.\\.x+'$"):
        read_json('{"%s": 1, "%s": 2}' % ("x" * 500, "x" * 500), "descriptor", DescriptorError)


@pytest.mark.parametrize("text,message", [
    ("{nope", "net sidecar is not valid JSON: Expecting property name"),
    ("", "net sidecar is not valid JSON: Expecting value: line 1 column 1"),
    ("[" * 200_000, "net sidecar JSON is nested too deeply"),
])
def test_read_json_errors_name_the_input(text, message):
    with pytest.raises(ValueError, match="^" + message):
        read_json(text, "net sidecar")


_KINDS = {"bare": (None, "d"), "opt": (int, 7), "need": (float, None)}


def test_split_spec_forms():
    assert split_spec("bare", _KINDS, "spec") == ("bare", "d")
    assert split_spec(" opt ", _KINDS, "spec") == ("opt", 7)
    assert split_spec("opt:3", _KINDS, "spec") == ("opt", 3)
    assert split_spec("need:0.5", _KINDS, "spec") == ("need", 0.5)


@pytest.mark.parametrize("spec,message", [
    ("", "unknown spec ''"),
    ("warp:1", "unknown spec 'warp:1'"),
    ("bare:1", "spec 'bare:1' takes no value"),
    ("need", "spec 'need' needs a value"),
    ("opt:x", "bad value in spec 'opt:x'"),
    ("need:", "bad value in spec 'need:'"),
])
def test_split_spec_errors_quote_the_spec(spec, message):
    with pytest.raises(ValueError, match="^" + message + "$"):
        split_spec(spec, _KINDS, "spec")
