"""Error types, the exit codes they carry, and the readers of text input.

A command ended by an error exits with its ``exit_code``: 2 verification
failure, 3 capacity violation, 4 refused bound, 1 any other error. Every
JSON sidecar is read by ``read_json`` and every ``kind[:value]`` flag by
``split_spec``, whose errors name the input (the archive header has its own
reader, whose errors carry byte offsets).
"""

from __future__ import annotations

import json
import reprlib

#: longest quote of a malformed value in an error line
_QUOTE_CHARS = 60
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring = 3, _QUOTE_CHARS


def quote(value) -> str:
    """A repr of ``value`` for an error line: nested containers are cut off
    three levels down and the text at _QUOTE_CHARS characters, so a huge or
    deeply nested value neither floods the line nor recurses."""
    text = _REPR.repr(value)
    return text if len(text) <= _QUOTE_CHARS else text[: _QUOTE_CHARS - 3] + "..."


class ParseError(ValueError):
    """Malformed archive bytes. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class DescriptorError(ValueError):
    """Descriptor JSON violates the schema or does not fit its archive."""


class VerificationError(RuntimeError):
    """Post-condition check failed (e.g. outputs diverged after a rewrite)."""
    exit_code = 2


class CapacityError(ValueError):
    """Payload does not fit the host under the stated embedding rule."""
    exit_code = 3


class BoundInapplicableError(ValueError):
    """Closed-form bound hypothesis violated (d >= 1 - delta)."""
    exit_code = 4


class IneffectiveRegimeError(ValueError):
    """Too few covered bits: L <= 0 means permutation cannot constrain the payload."""
    exit_code = 4


def read_json(text: str | bytes, what: str, error=ValueError):
    """The JSON document ``text``, whose bytes are read as UTF-8; bytes that
    are not UTF-8, text that is not JSON, JSON nested too deeply, or an
    object that repeats a key raises ``error`` naming ``what``."""
    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise error(f"{what} repeats the key {quote(key)}")
            doc[key] = value
        return doc

    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise error(f"{what} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise error(f"{what} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise error(f"{what} JSON is nested too deeply") from e


def split_spec(spec: str, kinds: dict, what: str):
    """``kind`` or ``kind:value`` as ``(kind, value)``. ``kinds`` maps each
    kind to (value type, default); a type of None takes no value, a default
    of None needs one. Any other spec raises ValueError quoting it."""
    kind, sep, text = spec.strip().partition(":")
    if kind not in kinds:
        raise ValueError(f"unknown {what} {quote(spec)}")
    convert, default = kinds[kind]
    if sep and convert:
        try:
            return kind, convert(text)
        except ValueError:
            raise ValueError(f"bad value in {what} {quote(spec)}") from None
    if sep or (convert and default is None):
        raise ValueError(f"{what} {quote(spec)} {'takes no' if sep else 'needs a'} value")
    return kind, default
