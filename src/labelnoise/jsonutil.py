"""Deterministic JSON serialization and content digests.

All persisted artifacts are written through these helpers so that reruns
with identical inputs produce byte-identical files: keys are sorted and
floats carry 17 significant digits (lossless for 64-bit values).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import reprlib
import sys

from .errors import ConfigurationError, ParseError


def _encode(obj, item_sep=", ", kv_sep=": ") -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):  # "-0" would read back as the integer 0
        return "-0.0" if (text := format(obj, ".17g")) == "-0" else text
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
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return _encode(obj.item(), item_sep, kv_sep)
    if hasattr(obj, "tolist"):  # numpy array
        return _encode(obj.tolist(), item_sep, kv_sep)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json17(obj) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    return _encode(obj)


@contextlib.contextmanager
def _replacing_file(path):
    """An ASCII text file that takes the place of ``path`` once written.

    The text goes to a temporary sibling that is renamed over ``path``
    when the block ends; an error removes it and leaves ``path`` as it
    was, so a crash mid-write never leaves a truncated artifact.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json17(obj, path) -> None:
    """Write ``dump_json17(obj)`` and a newline, replacing ``path`` atomically."""
    with _replacing_file(path) as fh:
        fh.write(dump_json17(obj))
        fh.write("\n")


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


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object"}


def json_field(section: dict, key: str, kind: type, path: str, nullable: bool = False):
    """``section[key]`` if it is a JSON ``kind`` (or null when ``nullable``).

    ``int`` excludes bools; ``float`` takes any finite number but a bool
    and returns a float. Otherwise raises ConfigurationError naming
    ``<path>.<key>``.
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
