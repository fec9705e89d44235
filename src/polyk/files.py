"""Polytope input files: a minimal JSON document, hand-authorable and exact.

Top-level fields: ``name`` (string), ``dim`` (integer), ``vertices`` (array
of arrays).  Coordinates are integers or strings "p/q" with q > 0; float
literals are rejected outright so no inexact value can enter the pipeline.
An integer with more digits than the interpreter converts
(``sys.get_int_max_str_digits``), as a JSON number or in a "p/q" string, and
a document nested deeper than the JSON parser's recursion allows are input
errors that name the file and the limit.  A file must be UTF-8; a byte that
does not decode is an input error naming the file and the byte's offset.  So
must the name: a JSON escape of a lone surrogate (``"\\ud800"``) decodes to a
string no UTF-8 output can write, an input error naming the file.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import InputError
from .linalg import Vector
from .polytope import Polytope, validate

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits, the whole string


class PolytopeFile(NamedTuple):
    name: str
    dim: int
    vertices: tuple[Vector, ...]


def _reject_float(token: str) -> None:
    raise InputError(f"floating-point literal {token!r} not accepted; use integers or \"p/q\"")


def _parse_int(digits: str, where: str) -> int:
    """``int(digits)`` for an ASCII integer literal, with an optional minus."""
    limit = sys.get_int_max_str_digits()
    count = len(digits) - digits.startswith("-")
    if limit and count > limit:
        raise InputError(f"{where}: integer with {count} digits exceeds the limit "
                         f"of {limit} digits")
    return int(digits)


def _parse_coordinate(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: boolean is not a coordinate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise InputError(f"{where}: malformed rational {value!r}")
        if "/" in value:
            p, q = (_parse_int(x, where) for x in value.split("/"))
            if q == 0:
                raise InputError(f"{where}: zero denominator in {value!r}")
            return Fraction(p, q)
        return Fraction(_parse_int(value, where))
    raise InputError(f"{where}: coordinate must be an integer or \"p/q\" string, "
                     f"got {type(value).__name__}")


def parse_polytope_text(text: str, source: str = "<string>") -> PolytopeFile:
    try:
        doc = json.loads(text, parse_float=_reject_float,
                         parse_int=lambda digits: _parse_int(digits, source))
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{source}: nested too deeply to parse (the JSON parser stops at "
                         f"the recursion limit, {sys.getrecursionlimit()})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{source}: top level must be an object")
    for key in ("name", "dim", "vertices"):
        if key not in doc:
            raise InputError(f"{source}: missing field {key!r}")
    name = doc["name"]
    if not isinstance(name, str):
        raise InputError(f"{source}: name must be a string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"{source}: name does not encode as UTF-8: character {exc.start} "
                         f"is {name[exc.start]!r} ({exc.reason})") from exc
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise InputError(f"{source}: dim must be a non-negative integer")
    raw_vertices = doc["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError(f"{source}: vertices must be a non-empty array")
    vertices = []
    for vi, row in enumerate(raw_vertices):
        if not isinstance(row, list):
            raise InputError(f"{source}: vertex {vi} must be an array")
        if len(row) != dim:
            raise InputError(f"{source}: vertex {vi} has {len(row)} coordinates, expected {dim}")
        vertices.append(tuple(
            _parse_coordinate(value, f"{source}: vertex {vi}, coordinate {ci}")
            for ci, value in enumerate(row)))
    return PolytopeFile(name=name, dim=dim, vertices=tuple(vertices))


def parse_polytope_file(path: str | Path) -> PolytopeFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start} ({exc.reason})") from exc
    return parse_polytope_text(text, source=str(path))


def load_polytope(path: str | Path) -> Polytope:
    """Parse and validate in one step; a validation error names the file."""
    pf = parse_polytope_file(path)
    try:
        return validate(pf.vertices, name=pf.name)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def polytope_to_json(P: Polytope) -> dict:
    return {
        "name": P.name or "(unnamed)",
        "dim": P.ambient_dim,
        # a Fraction renders as "p/q" or "n", matching the input grammar
        "vertices": [[str(x) for x in v] for v in P.vertices],
    }
