"""Deterministic JSON rendering.

``json.dumps`` prints floats with the shortest round-tripping repr, which is
not a fixed width.  Output files here are compared byte-for-byte (golden
files, determinism across thread counts), so floats are always rendered with
17 significant digits, which round-trips IEEE doubles exactly.  Fractions are
rendered as "p/q" strings.

``open_output`` is the one writer of output files (JSON, CSV and LP text):
a file is replaced only when it is complete.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from contextlib import contextmanager
from fractions import Fraction


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float in output: {x!r}")
    return format(float(x), ".17g")


def _render(value, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    if value is None or isinstance(value, bool):
        out.append(json.dumps(value))
    elif isinstance(value, Fraction):
        out.append(json.dumps(f"{value.numerator}/{value.denominator}"))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            if i:
                out.append(",\n")
            out.append(pad + json.dumps(key) + ": ")
            _render(item, out, level + 1)
        out.append("\n" + "  " * level + "}")
    elif isinstance(value, (list, tuple)):
        if not len(value):
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            if i:
                out.append(",\n")
            out.append(pad)
            _render(item, out, level + 1)
        out.append("\n" + "  " * level + "]")
    elif hasattr(value, "item"):  # numpy scalar
        _render(value.item(), out, level)
    else:
        raise TypeError(f"cannot render {type(value).__name__} deterministically")


def render_json(value) -> str:
    """Render ``value`` as JSON indented by two spaces, with a trailing newline."""
    out: list[str] = []
    _render(value, out, 0)
    return "".join(out) + "\n"


@contextmanager
def open_output(path):
    """A text file whose contents replace ``path`` only if the block completes.

    The block writes to a temporary file in the target's directory, which
    ``os.replace`` then renames over ``path``; a block that raises leaves any
    previous file untouched and removes the temporary file.  A path that
    exists but is no regular file (``/dev/stdout``, a pipe) is written in
    place.  A temporary file that cannot be created is reported as ``path``.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_json(path, value) -> None:
    """Render ``value``, then replace ``path`` with it (``open_output``)."""
    text = render_json(value)
    with open_output(path) as fh:
        fh.write(text)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
