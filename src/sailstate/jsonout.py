"""The one JSON writer behind every JSON output.

`dumps(doc)` gives exactly the text of `json.dumps` with a two-space indent,
plus a final newline. On CPython before 3.14 any indent makes `json.dumps`
run its pure-Python encoder, one generator per container; here each
container is one `str.join` and every string goes through
`encode_basestring_ascii`, the C function `json.dumps` itself uses, so the
escaping is the same by construction.

A list of records, dicts that all hold the first one's key objects in its
order as the dicts of one dict display do, fills one `%` template whose keys
are escaped once; each key's values are encoded as one column. Any other
list, one record of another shape among them, is written item by item.

Documents are built from `dict` (str keys), `list`, `str`, `int`, `bool` and
`None`, matched by exact type. Anything else, a float, a tuple or a `str`
subclass among them, raises `TypeError` rather than risk bytes that differ
from `json`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from operator import is_

_INDENT = "  "


def dumps(doc) -> str:
    """`doc` as `json.dumps` writes it with a two-space indent, plus "\\n"."""
    return _encode(doc, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """`value` as JSON whose nested lines start with `newline` (a line break
    and the current indent)."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + _INDENT
        items = [
            _key(key) + (_string(item) if type(item) is str else _encode(item, inner))
            for key, item in value.items()
        ]
        return _lines(items, "{}", inner, newline)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + _INDENT
        return _lines(_records(value, inner) or _column(value, inner), "[]", inner, newline)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _column(values, newline: str) -> list[str]:
    """Each of `values` encoded; all strings in one `map`."""
    if all(type(v) is str for v in values):
        return list(map(_string, values))
    return [_encode(v, newline) for v in values]


def _records(value: list, newline: str) -> list[str] | None:
    """The records of `value` filled into one template, or None unless every
    item is a dict holding the first one's key objects in its order."""
    first = value[0]
    keys = list(first) if type(first) is dict else None
    if not keys or not all(
        type(item) is dict and len(item) == len(keys) and all(map(is_, item, keys))
        for item in value
    ):
        return None
    inner = newline + _INDENT
    fields = ("," + inner).join(_key(key).replace("%", "%%") + "%s" for key in keys)
    columns = [_column(column, inner) for column in zip(*map(dict.values, value))]
    return list(map(("{" + inner + fields + newline + "}").__mod__, zip(*columns)))


def _key(key) -> str:
    """`key` and the `": "` after it; a key must be exactly a `str`."""
    if type(key) is not str:
        raise TypeError(f"cannot write a {type(key).__name__} key as JSON")
    return _string(key) + ": "


def _lines(items: list[str], brackets: str, inner: str, newline: str) -> str:
    """`items` one to a line between `brackets`. The brackets join the first
    and last items so that the one `join` is the only copy of a container's
    text; a megabyte report would otherwise be copied once per `+`."""
    items[0] = brackets[0] + inner + items[0]
    items[-1] += newline + brackets[1]
    return ("," + inner).join(items)
