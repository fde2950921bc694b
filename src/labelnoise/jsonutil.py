"""Deterministic JSON serialization, CSV rows and content digests.

All persisted artifacts are written through these helpers so that reruns
with identical inputs produce byte-identical files: keys are sorted and
floats carry 17 significant digits (lossless for 64-bit values); NaN and
the infinities are written as ``NaN``, ``Infinity`` and ``-Infinity``,
the literals ``json.loads`` reads back. CSV artifacts go through
``write_rows``, which formats a block of rows with one ``%`` operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import reprlib
import sys

from .errors import ConfigurationError, LabelNoiseError, ParseError

# ``format(v, ".17g")`` texts that ``json.loads`` would not read back as v
# ("-0" reads back as the integer 0)
_FLOAT_LITERALS = {"-0": "-0.0", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# rows per ``write_text`` chunk in ``write_rows``: 256 to 16,384 format
# 40,000 trial rows equally fast, in half the time of one chunk per row
_ROW_BLOCK = 1024


def _encode(obj, item_sep=", ", kv_sep=": ") -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        text = format(obj, ".17g")
        return _FLOAT_LITERALS.get(text, text)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + item_sep.join(_encode(v, item_sep, kv_sep) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            items.append(json.dumps(key) + kv_sep + _encode(obj[key], item_sep, kv_sep))
        return "{" + item_sep.join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json17(obj) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    return _encode(obj)


def write_text(path, chunks) -> None:
    """Write ``chunks`` in order as the file ``path``: a string as ASCII,
    any bytes-like object (``bytes``, a C-contiguous array) as its bytes.

    Each chunk is one write to a temporary sibling, renamed over ``path``
    after the last; an error from a write or from ``chunks`` removes it
    and leaves ``path`` as it was: a crash never truncates an artifact.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_rows(path, header: str, row_format: str, columns) -> None:
    """Write ``header``, then ``row_format % row`` for each row of
    ``columns`` (equal-length sequences, one per field of the format).

    Each block of ``_ROW_BLOCK`` rows is formatted by one ``%`` on the
    format repeated, from a slice of every column, and handed to
    ``write_text`` as one chunk.
    """
    fields, rows = len(columns), len(columns[0]) if columns else 0

    def blocks():
        yield header
        for k in range(0, rows, _ROW_BLOCK):
            block = [column[k:k + _ROW_BLOCK] for column in columns]
            size = len(block[0])
            values = [None] * (size * fields)
            for i, column in enumerate(block):
                values[i::fields] = column
            yield row_format * size % tuple(values)

    write_text(path, blocks())


def write_json17(obj, path) -> None:
    """Write ``dump_json17(obj)`` and a newline, replacing ``path`` atomically."""
    write_text(path, (dump_json17(obj), "\n"))


def json_problem(exc: ValueError | RecursionError, text: str) -> tuple[str, int]:
    """What an error from ``json.loads(text)`` reports, and its line.

    Besides ``JSONDecodeError`` the decoder raises a plain ``ValueError``
    for an integer literal longer than ``sys.get_int_max_str_digits()``
    and a ``RecursionError`` for arrays or objects nested too deeply.
    Neither names a position: the line is the first one holding a run of
    more digits than the limit, or the first one reaching the deepest
    nesting (brackets inside strings do not count).
    """
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg, exc.lineno
    if isinstance(exc, RecursionError):
        depth = deepest = at = 0
        for m in re.finditer(r'"(?:[^"\\]|\\.)*"|[\[{\]}]', text):
            depth += {"[": 1, "{": 1, "]": -1, "}": -1}.get(m.group(), 0)
            if depth > deepest:
                deepest, at = depth, m.start()
        return "nested too deeply", text.count("\n", 0, at) + 1
    limit = sys.get_int_max_str_digits()
    run = re.search(r"\d{%d}" % (limit + 1), text)
    lineno = text.count("\n", 0, run.start()) + 1 if run else 1
    return f"integer literal over {limit} digits", lineno


def read_json(path, what: str):
    """Parse the ASCII JSON file at ``path``; ``what`` names it in errors.

    A missing file raises ConfigurationError. A non-ASCII byte, malformed
    JSON or an over-long integer literal raises ParseError naming the
    file and the line.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ConfigurationError(f"{what} file not found: {path}") from None
    try:
        text = data.decode("ascii")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        problem, lineno = "non-ASCII byte", data.count(b"\n", 0, exc.start) + 1
    except (ValueError, RecursionError) as exc:
        problem, lineno = json_problem(exc, text)
    raise ParseError(f"malformed {what} file {path}: {problem} (line {lineno})")


def read_json_object(path, what: str, read):
    """``read`` applied to the JSON object in the file ``path``, the one reader
    of a JSON-object artifact; a non-object, or a LabelNoiseError from
    ``read``, raises ``PATH: <message>`` (the error's type kept)."""
    obj = read_json(path, what)
    try:
        if not isinstance(obj, dict):
            raise ConfigurationError(f"{what} must be a JSON object")
        return read(obj)
    except LabelNoiseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object"}


def json_field(section: dict, key: str, kind: type, path: str, nullable: bool = False,
               bounds: tuple | None = None):
    """``section[key]`` if it is a JSON ``kind`` (or null when ``nullable``),
    within the closed interval ``bounds`` if given.

    ``int`` excludes bools and integers outside the 64-bit range;
    ``float`` takes any finite number but a bool and returns a float.
    Otherwise raises ConfigurationError naming ``<path>.<key>``.
    """
    if key not in section:
        raise ConfigurationError(f"{path}.{key} is missing")
    v = section[key]
    if v is None and nullable:
        return None
    if kind is float:  # ``type`` keeps bool, a subclass of int, out
        ok = type(v) in (int, float) and abs(v) <= sys.float_info.max
    else:
        ok = isinstance(v, kind) and (kind is bool or not isinstance(v, bool))
    if not ok:
        raise ConfigurationError(f"{path}.{key} must be {_KIND_NAMES[kind]}, got {reprlib.repr(v)}")
    if kind is int and not -2**63 <= v < 2**63:
        raise ConfigurationError(f"{path}.{key} must be a 64-bit integer, got {reprlib.repr(v)}")
    if bounds and not bounds[0] <= v <= bounds[1]:
        raise ConfigurationError(f"{path}.{key} must be in [{bounds[0]}, {bounds[1]}], "
                                 f"got {reprlib.repr(v)}")
    return float(v) if kind is float else v


def canonical_json(obj) -> str:
    """Compact sorted-key JSON used for config digests.

    Floats use the same 17-significant-digit encoding as the artifact
    writers, so digesting a config parsed back from disk (where integral
    floats reload as ints) matches digesting the original object.
    """
    return _encode(obj, item_sep=",", kv_sep=":")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_config(config_dict: dict) -> str:
    return sha256_text(canonical_json(config_dict))
