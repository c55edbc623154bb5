"""The one way artifacts reach disk: write a temp file beside the target,
then ``os.replace`` it, so a target appears complete or not at all.

A ``.gz`` target is gzip-compressed with a zero timestamp and the target's
own name in its header, so compressed artifacts are byte-reproducible.
There is no fsync: the rename guards against a failed or killed run, not
against a power cut.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
from typing import Iterable, Iterator, TextIO


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
    """One JSON document, keys sorted, non-ASCII kept, newline-terminated."""
    with writing(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=indent)
        fh.write("\n")


def write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """One compact JSON object per line, streamed; returns the row count."""
    n = 0
    with writing(path) as fh:
        for n, row in enumerate(rows, 1):
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return n
