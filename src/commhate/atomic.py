"""The on-disk format, both directions: UTF-8 text, gzip when the name ends
in ``.gz``, one JSON document per file or one JSON value per line.

Writing goes through a temp file beside the target, then ``os.replace``, so
a target appears complete or not at all. A ``.gz`` target is compressed with
a zero timestamp and the target's own name in its header, so compressed
artifacts are byte-reproducible. There is no fsync: the rename guards
against a failed or killed run, not against a power cut.

Reading raises ``FileNotFoundError`` for a missing file and ``ValueError``
led by the path (and line) for any other fault: unreadable, bad UTF-8, bad
JSON, nesting too deep, truncated or corrupt ``.gz``.

It also owns the check on every field read back: the field kinds, and the
messages ``<where>'field' is missing`` and ``<where>'field' must be <kind>``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import zlib
from typing import Callable, Iterable, Iterator, TextIO


@contextlib.contextmanager
def writing(path: str) -> Iterator[TextIO]:
    """A UTF-8 text stream whose content replaces ``path`` when the block
    ends normally. If the block raises, the temp file is removed and
    ``path`` is left as it was."""
    directory, name = os.path.split(path)
    # One temp name per process: no two live processes share a pid, and a
    # process writes one artifact at a time.
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(tmp)  # left behind by a killed process that had this pid
    raw = open(tmp, "xb")  # mode 0o666 & ~umask, as open(path, "w") gives
    try:
        with raw:
            stream = raw
            if name.endswith(".gz"):
                stream = gzip.GzipFile(filename=path, mode="wb", fileobj=raw, mtime=0)
            with io.TextIOWrapper(stream, encoding="utf-8") as fh:
                yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    with writing(path) as fh:
        fh.write(text)


def write_json(path: str, obj, indent: int | None = None) -> None:
    """One JSON document, keys sorted, non-ASCII kept, newline-terminated.
    NaN and infinities are not JSON and raise ValueError. ``json.dumps``, not
    ``json.dump``: only ``dumps`` uses the C encoder (when ``indent`` is None);
    both give the same text."""
    with writing(path) as fh:
        fh.write(json.dumps(obj, ensure_ascii=False, allow_nan=False, sort_keys=True,
                            indent=indent))
        fh.write("\n")


def write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """One JSON object per line, ``, ``/``: `` separators, non-ASCII kept; returns the count."""
    encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode
    n = 0
    with writing(path) as fh:
        for n, row in enumerate(rows, 1):
            fh.write(encode(row) + "\n")
    return n


def open_read(path: str):
    """``path`` opened for binary reading, gunzipped if it ends in .gz."""
    try:
        return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, no permission, an I/O error
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_json(path: str):
    """The one JSON document in ``path``."""
    with open_read(path) as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except (OSError, EOFError, zlib.error) as exc:  # an I/O error, a damaged .gz
            raise ValueError(f"{path}: cannot read: {exc}") from None
        except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def read_jsonl(path: str, parse: Callable, strict: bool = False,
               on_skip: Callable[[int], None] | None = None) -> Iterator:
    """Stream ``parse(value)`` for each line's JSON value, dropping None.

    Blank lines are skipped. A line that is not UTF-8 or JSON, or whose value
    ``parse`` rejects with ValueError, TypeError or LookupError, is malformed:
    lenient mode passes its 1-based number to ``on_skip`` and reads on,
    strict mode raises naming ``path:line``. A truncated or corrupt .gz ends
    the stream; the lines before the damage are kept and the damage is one
    malformed line (strict mode names the last complete line).
    """
    with open_read(path) as fh:
        lineno = 0
        try:
            for lineno, raw in enumerate(fh, 1):
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    value = parse(json.loads(line))
                except (ValueError, TypeError, LookupError, RecursionError) as exc:
                    if strict:
                        raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
                    if on_skip is not None:
                        on_skip(lineno)
                    continue
                if value is not None:
                    yield value
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # cut or corrupt .gz
            if strict:
                damage = "truncated" if isinstance(exc, EOFError) else "corrupt"
                raise ValueError(
                    f"{path}: compressed stream {damage} after line {lineno}: {exc}"
                ) from exc
            if on_skip is not None:
                on_skip(lineno + 1)


def read_record(path: str, from_dict: Callable):
    """``from_dict`` of the JSON document in ``path``, its ValueError led by the path."""
    obj = read_json(path)
    try:
        return from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _finite(value) -> bool:
    try:  # an int beyond float range raises OverflowError
        return (type(value) is int or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


# A field kind is (name, test, shown): the name completes "must be ...", and
# a wrong value is shown unless the kind is a list. A bool's type is not int.
STRING = ("a string", str.__instancecheck__, True)
COUNT = ("a non-negative integer", lambda v: type(v) is int and v >= 0, True)
NUMBER = ("a finite number", _finite, True)
LIST = ("a list", list.__instancecheck__, False)
# map() runs the per-item test without a Python frame per item.
STRINGS = ("a list of strings",
           lambda v: isinstance(v, list) and all(map(str.__instancecheck__, v)), False)
NUMBERS = ("a list of finite numbers",
           lambda v: isinstance(v, list) and all(map(_finite, v)), False)
_CONFIG_KINDS = {int: ("an integer", lambda v: type(v) is int, False),
                 float: ("a number", lambda v: type(v) is int or isinstance(v, float), False),
                 str: ("a string", str.__instancecheck__, False), list: LIST,
                 dict: ("a JSON object", dict.__instancecheck__, False)}


def check_header(obj, what: str, version: int) -> None:
    """Raise ValueError unless ``obj`` is a JSON object of the given ``version``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} file must hold a JSON object, got {type(obj).__name__}")
    if obj.get("version") != version:
        raise ValueError(f"unsupported {what} schema version: {obj.get('version')!r}")


def fields(obj, where: str, kinds: Iterable[tuple[str, tuple]]) -> list:
    """The values of the fields that the (name, kind) pairs ``kinds`` name, in
    order. Each must be present and of its kind; a non-object lacks them all."""
    values = []
    for name, (kind, test, shown) in kinds:
        try:
            value = obj[name]
        except (KeyError, TypeError):  # TypeError: obj is not a JSON object
            raise ValueError(f"{where}{name!r} is missing") from None
        if not test(value):
            raise ValueError(f"{where}{name!r} must be {kind}"
                             + (f", got {value!r}" if shown else ""))
        values.append(value)
    return values


def check_types(obj: dict, types: dict, where: str, unknown: str) -> None:
    """Raise ValueError for keys ``types`` lacks, then for a value not of the
    kind ``types`` gives its key (a dict gives a section's); null is unset."""
    extra = set(obj) - set(types)
    if extra:
        raise ValueError(f"{unknown}: {sorted(extra)}")
    fields(obj, where, [(key, _CONFIG_KINDS[dict if isinstance(want, dict) else want])
                        for key, want in types.items() if obj.get(key) is not None])
    for key, want in types.items():
        if isinstance(want, dict) and obj.get(key):
            check_types(obj[key], want, f"{key!r} key ", f"unknown keys in {key!r}")
