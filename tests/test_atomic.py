"""Artifacts are replaced atomically: a failed write leaves the old file (or
no file) and no temp file; a new file gets the mode open(path, "w") gives.
Reading a .gz through a gunzipping child gives what reading it in this
process gives, and leaves no child behind. The field kinds that every
reader checks with hold at their boundaries."""

import gzip
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate import atomic, cli, corpus, keywords


def _reddit_dump(path, n):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(json.dumps({"id": f"c{i}", "body": f"comment number {i}",
                                 "subreddit": "alpha", "created_utc": 1000 + i,
                                 "author": f"u{i}"}) + "\n")


def _ingest(src, out_dir, *extra):
    return cli.main(["ingest", "--input", str(src), "--output-dir", str(out_dir), *extra])


class TestFailedWrite:
    def test_json_body_raising_keeps_old_artifact(self, tmp_path, monkeypatch):
        path = tmp_path / "keywords.json"
        ks = keywords.KeywordSet(keywords.KeywordMethod.CHI2_I, "g", (("slur", 2.5),))
        keywords.save_keyword_set(ks, str(path))
        before = path.read_bytes()

        def fail(obj, **kwargs):
            raise RuntimeError("disk went away")

        monkeypatch.setattr(json, "dumps", fail)  # raised with the temp file open
        with pytest.raises(RuntimeError, match="disk went away"):
            keywords.save_keyword_set(ks, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["keywords.json"]

    def test_json_body_raising_leaves_no_new_file(self, tmp_path, monkeypatch):
        def fail(obj, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(json, "dumps", fail)
        with pytest.raises(RuntimeError):
            atomic.write_json(str(tmp_path / "new.json"), {"a": 1})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("write", [atomic.write_json, atomic.write_jsonl])
    def test_non_finite_number_is_refused(self, tmp_path, write, value):
        # NaN and Infinity are not JSON: no artifact may hold one.
        with pytest.raises(ValueError, match="not JSON compliant"):
            write(str(tmp_path / "new.json"), [{"w": [1.0, value]}])
        assert os.listdir(tmp_path) == []

    def test_interrupted_gz_ingest_keeps_old_artifacts(self, tmp_path, monkeypatch):
        src = tmp_path / "dump.jsonl"
        _reddit_dump(src, 200)
        out_dir = tmp_path / "out"
        assert _ingest(src, out_dir, "--output", "kept.jsonl.gz") == 0
        before = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        real_iter = corpus.iter_jsonl

        def interrupted(*args, **kwargs):
            for n, comment in enumerate(real_iter(*args, **kwargs)):
                if n == 150:
                    raise KeyboardInterrupt
                yield comment

        monkeypatch.setattr(corpus, "iter_jsonl", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _ingest(src, out_dir, "--output", "kept.jsonl.gz")
        assert {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)} == before
        assert sorted(before) == ["kept.jsonl.gz", "manifest.json"]


@pytest.mark.parametrize("indent", [None, 2])
def test_write_json_bytes_equal_the_json_dump_stream(tmp_path, indent):
    # write_json encodes with json.dumps (the C encoder when indent is None);
    # its file must hold exactly what json.dump's pure-Python encoder streams.
    obj = {"weights": [5e-324, -0.0, 1e16, 0.1, -1.5e-7, 3], "bias": -0.0,
           "terms": {"grüße": 1, "münchen": [2, "ünï"], "😀": None, "a": True}}
    expected = io.StringIO()
    json.dump(obj, expected, ensure_ascii=False, allow_nan=False, sort_keys=True,
              indent=indent)
    path = tmp_path / "out.json"
    atomic.write_json(str(path), obj, indent=indent)
    assert path.read_bytes() == (expected.getvalue() + "\n").encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
@pytest.mark.parametrize("name", ["a.json", "a.jsonl.gz"])
def test_new_artifact_mode_follows_umask(tmp_path, umask, name):
    old = os.umask(umask)
    try:
        atomic.write_jsonl(str(tmp_path / name), [{"x": 1}])
    finally:
        os.umask(old)
    assert os.stat(tmp_path / name).st_mode & 0o777 == 0o666 & ~umask


def test_write_jsonl_counts_rows_and_replaces(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text("stale\n" * 10, encoding="utf-8")
    assert atomic.write_jsonl(str(path), iter([{"b": "é"}, {"a": 2}])) == 2
    assert path.read_text(encoding="utf-8") == '{"b": "é"}\n{"a": 2}\n'
    assert atomic.write_jsonl(str(path), iter([])) == 0
    assert path.read_bytes() == b""


def test_successful_runs_leave_only_manifest_artifacts(tmp_path, capsys):
    synth, model, scored = tmp_path / "synth", tmp_path / "model", tmp_path / "eval"
    pos, neg, dataset = synth / "pos.jsonl", synth / "neg.jsonl", synth / "dataset.jsonl"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"experiments": [
        {"name": "cv", "train_source": str(dataset), "test_source": "cv:2"},
        {"name": "held", "train_source": str(dataset), "test_source": str(dataset),
         "kinds": ["nb"]}]}), encoding="utf-8")
    runs = [
        (synth, ["synth", "--n", "30", "--vocab-core", "4", "--vocab-shared", "4"]),
        (tmp_path / "ingest", ["ingest", "--input", str(pos), "--platform", "other"]),
        (tmp_path / "prep", ["preprocess", "--input", str(pos), "--platform", "other"]),
        (tmp_path / "topics", ["topics", "--pos", str(pos), "--neg", str(neg), "--k", "2",
                               "--platform", "other"]),
        (tmp_path / "keywords", ["keywords", "--method", "chi2_i", "--hate", str(pos),
                                 "--contrast", str(neg), "--k", "2", "--min-df", "1",
                                 "--platform", "other"]),
        (model, ["train", "--pos", str(pos), "--neg", str(neg),
                 "--platform", "other", "--min-df", "1"]),
        (tmp_path / "refit", ["train", "--dataset", str(dataset), "--min-df", "1"]),
        (scored, ["evaluate", "--model", str(model / "model.json"),
                  "--vectorizer", str(model / "vectorizer.json"),
                  "--dataset", str(dataset)]),
        (tmp_path / "exp", ["experiment", "--config", str(config), "--min-df", "1"]),
    ]
    for out_dir, argv in runs:
        assert cli.main(argv + ["--output-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        listed = {os.path.basename(p) for p in manifest["artifacts"]}
        assert sorted(os.listdir(out_dir)) == sorted(listed | {"manifest.json"})
    assert sorted(os.listdir(tmp_path / "refit")) == ["manifest.json", "model.json",
                                                      "vectorizer.json"]
    assert len(os.listdir(tmp_path / "exp")) == 7


def test_in_place_ingest_keeps_every_line(tmp_path, capsys):
    src = tmp_path / "dump.jsonl"
    _reddit_dump(src, 300)
    out_dir = tmp_path / "out"
    assert _ingest(src, out_dir) == 0
    filtered = out_dir / "filtered.jsonl"
    before = filtered.read_bytes()
    assert _ingest(filtered, out_dir) == 0
    assert filtered.read_bytes() == before
    assert len(before.splitlines()) == 300
    assert "ingested 300 comment(s)" in capsys.readouterr().out


def test_gz_artifacts_are_byte_reproducible(tmp_path, monkeypatch, capsys):
    src = tmp_path / "dump.jsonl"
    _reddit_dump(src, 50)
    blobs = []
    for clock in (1_000_000_000.0, 2_000_000_000.0):
        monkeypatch.setattr(time, "time", lambda clock=clock: clock)
        out_dir = tmp_path / f"out{int(clock)}"
        assert _ingest(src, out_dir, "--output", "kept.jsonl.gz") == 0
        blobs.append((out_dir / "kept.jsonl.gz").read_bytes())
    assert blobs[0] == blobs[1]
    header = blobs[0]
    assert header[3] & 0x08  # FNAME present
    # gzip records the name of the uncompressed file: the target's, not a temp file's.
    assert header[10:header.index(b"\0", 10)] == b"kept.jsonl"
    assert len(gzip.decompress(header).splitlines()) == 50


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _read_all(path, strict=False):
    """(values, skipped line numbers, strict-mode error or None) of ``read_jsonl``
    with the values kept as they are."""
    skipped = []
    try:
        values = list(atomic.read_jsonl(str(path), lambda v: v, strict, skipped.append))
    except ValueError as exc:
        return None, skipped, str(exc)
    return values, skipped, None


def _both_ways(path, monkeypatch):
    """The lenient and strict outcomes of reading ``path`` in this process (one
    CPU) and through a gunzipping child (two CPUs), and how often it forked."""
    forks = []
    real = atomic.fork
    monkeypatch.setattr(atomic, "fork", lambda send: forks.append(1) or real(send))
    outcomes = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        outcomes.append((_read_all(path), _read_all(path, strict=True)))
    return outcomes[0], outcomes[1], len(forks)


def _dump_lines(n, width=90):
    return b"".join(json.dumps({"id": str(i), "body": "w" * (i % width + 1),
                                "community": "c"}).encode() + b"\n" for i in range(n))


def _damaged(kind):
    """A gzip blob damaged one way; the text fills the pipe several times."""
    text = _dump_lines(3000)
    blob = bytearray(gzip.compress(text))
    if kind == "truncated":
        return bytes(blob[: len(blob) * 2 // 3])
    if kind == "deflate":  # mid-member, after a full flush, a block of the reserved type 11
        deflate, text = zlib.compressobj(wbits=-15), _dump_lines(20_000)  # many input buffers
        body = deflate.compress(text) + deflate.flush(zlib.Z_FULL_FLUSH) + b"\x07"
        return bytes(blob[:10]) + body + bytes(blob[-8:])
    if kind in ("crc", "isize"):
        at = len(blob) - (8 if kind == "crc" else 4)
        blob[at] ^= 0xFF
        return bytes(blob)
    if kind == "not-gzip":
        return text
    if kind == "empty":
        return b""
    if kind == "multi-member":
        return bytes(blob) + gzip.compress(b'{"id": "second"}\n[1, 2]\n')
    if kind == "no-trailing-newline":
        return gzip.compress(text + b'{"id": "last"}')
    raise AssertionError(kind)


class TestGunzipChild:
    """With two CPUs a .gz is gunzipped in a forked child; reading it in this
    process, with one CPU, is the oracle."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("kind", ["truncated", "deflate", "crc", "isize", "not-gzip",
                                      "empty", "multi-member", "no-trailing-newline"])
    def test_damaged_gzip_reads_as_in_process(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "dump.jsonl.gz"
        path.write_bytes(_damaged(kind))
        in_process, child, forks = _both_ways(path, monkeypatch)
        assert child == in_process
        assert forks == 2  # the lenient and the strict read
        (values, skipped, _), (_, _, message) = in_process
        if kind in ("empty", "multi-member", "no-trailing-newline"):
            assert skipped == [] and message is None
            assert len(values) == {"empty": 0, "multi-member": 3002}.get(kind, 3001)
        else:
            damage = "truncated" if kind == "truncated" else "corrupt"
            assert skipped == [len(values) + 1]
            assert message.startswith(f"{path}: compressed stream {damage} "
                                      f"after line {len(values)}: ")

    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(st.binary(max_size=30) | st.sampled_from(
               [b"", b"{}", b'{"a": [1, 2]}', b"[1", b"\xff"]), max_size=60),
           size=st.integers(1, 30_000), cut=st.floats(0, 1), flip=st.integers(0, 255))
    def test_any_damage_reads_as_in_process(self, lines, size, cut, flip):
        # Wherever the damage lies, the lines kept before it and the fault's
        # line are those that reading in this process gives.
        text = b"".join(line + b"\n" for line in lines) + b"x" * (size % 97)
        text = (text * (size // max(len(text), 1) + 1))[:size]
        blob = bytearray(gzip.compress(text))
        at = int(cut * (len(blob) - 1))
        blob = blob[:at] if flip % 2 else blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "d.jsonl.gz")
            with open(path, "wb") as fh:
                fh.write(bytes(blob))
            in_process, child, forks = _both_ways(path, mp)
        assert child == in_process and forks == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _big(self, tmp_path):
        path = tmp_path / "big.jsonl.gz"
        path.write_bytes(gzip.compress(_dump_lines(20_000)))  # ~1.2 MB, many pipefuls
        return str(path)

    def test_reaped_when_the_consumer_closes_early(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        it = atomic.read_jsonl(self._big(tmp_path), lambda v: v)
        assert [v["id"] for v in itertools.islice(it, 5)] == ["0", "1", "2", "3", "4"]
        it.close()

    def test_reaped_when_the_consumer_raises(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        def consume(path):
            for n, _ in enumerate(corpus.iter_jsonl(path, platform=corpus.Platform.OTHER)):
                if n == 100:
                    raise Stop

        _cpus(monkeypatch, 2)
        with pytest.raises(Stop):
            consume(self._big(tmp_path))

    def test_reaped_while_a_later_child_holds_the_pipe(self, tmp_path, monkeypatch):
        # The second reader's child inherited the first one's pipe, so the first
        # child, blocked on a full pipe, would wait for it forever; it is killed.
        def hang(signum, frame):
            raise TimeoutError("closing the first reader hung")

        _cpus(monkeypatch, 2)
        first, second = (atomic.read_jsonl(self._big(tmp_path), lambda v: v) for _ in "ab")
        assert next(first) == next(second) == {"id": "0", "body": "w", "community": "c"}
        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            first.close()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
            second.close()

    def test_reaped_when_strict_mode_raises(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        path = tmp_path / "bad.jsonl.gz"
        path.write_bytes(gzip.compress(_dump_lines(5000) + b"{oops\n" + _dump_lines(5000)))
        with pytest.raises(ValueError, match=r":5001: malformed record"):
            list(atomic.read_jsonl(str(path), lambda v: v, strict=True))

    @pytest.mark.parametrize("kind", ["clean", "truncated"])
    @pytest.mark.parametrize("blocks,cut", [(0, 0), (1, 0), (1, 1001)],
                             ids=["before-writing", "after-a-block", "mid-line"])
    def test_a_child_that_stops_early_reads_as_in_process(self, tmp_path, monkeypatch,
                                                           kind, blocks, cut):
        # Not damage: the child exits 3 before it writes anything, after its
        # first 64 KiB block, or partway into a line of its second block (as a
        # kill during a write to a full pipe leaves it); this process reads the
        # rest of the file itself.
        class Stopping:
            def __init__(self, out):
                self.out, self.left = out, blocks

            def write(self, data):
                if not self.left:
                    self.out.write(data[:cut])
                    self.out.flush()
                    os._exit(3)
                self.left -= 1
                self.out.write(data)

        path = tmp_path / "dump.jsonl.gz"
        path.write_bytes(gzip.compress(_dump_lines(3000)) if kind == "clean" else _damaged(kind))
        real = atomic.fork
        monkeypatch.setattr(atomic, "fork", lambda send: real(lambda out: send(Stopping(out))))
        in_process, child, forks = _both_ways(path, monkeypatch)
        assert child == in_process and forks == 2
        (values, skipped, _), (_, _, message) = in_process
        if kind == "clean":
            assert (len(values), skipped, message) == (3000, [], None)
        else:
            assert skipped == [len(values) + 1]
            assert message.startswith(f"{path}: compressed stream truncated "
                                      f"after line {len(values)}: ")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_child_ends_when_the_reader_is_killed(self, tmp_path):
        # The child closes its copy of the read end, so once the reading
        # process is gone its next write fails instead of blocking forever.
        code = ("import itertools, os, signal\nfrom commhate import atomic\nreal = atomic.fork\n"
                "def fork(send):\n    pid, fh = real(send)\n    print(pid, flush=True)\n"
                "    return pid, fh\natomic.fork = fork\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                f"list(itertools.islice(atomic.read_jsonl({self._big(tmp_path)!r}, str), 3))\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = os.path.dirname(os.path.dirname(atomic.__file__))
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=src))
        child = int(proc.stdout.readline())
        proc.wait(timeout=60)
        proc.stdout.close()

        def running():
            try:
                with open(f"/proc/{child}/stat") as fh:
                    return fh.read().rpartition(")")[2].split()[0] not in "ZX"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        if running():
            os.kill(child, signal.SIGKILL)
            pytest.fail("the gunzip child outlived the process reading from it")

    def test_one_cpu_and_no_fork_read_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(atomic, "fork", lambda send: pytest.fail("forked"))
        path = self._big(tmp_path)
        _cpus(monkeypatch, 1)
        assert len(list(atomic.read_jsonl(path, lambda v: v))) == 20_000
        _cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert len(list(atomic.read_jsonl(path, lambda v: v))) == 20_000

    def test_gunzip_child_warns_nothing(self, tmp_path, monkeypatch):
        # Python 3.12+ warns when a process with threads forks; see
        # tests/test_evaluation.py::TestForkMap::test_cross_validate_warns_nothing.
        _cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(list(atomic.read_jsonl(self._big(tmp_path), lambda v: v))) == 20_000
        assert [str(w.message) for w in caught] == []


def _loads_loop(path, strict):
    """``read_jsonl`` as it was before it scanned lines itself: every non-blank
    line through ``json.loads``. (values, skipped line numbers, strict error)."""
    values, skipped = [], []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                if strict:
                    return None, skipped, f"{path}:{lineno}: malformed record: {exc}"
                skipped.append(lineno)
                continue
            if value is not None:
                values.append(value)
    return values, skipped, None


_SPACE = st.sampled_from(["", " ", "\t", "\r", " \t", "\u00a0", "\u2028", "\x0b", "\x0c",
                          "\u3000", "\ufeff"])
_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5,
)


def _line(prefix, value, ascii_only, extra, cut, suffix):
    text = json.dumps(value, ensure_ascii=ascii_only)
    return (prefix + text[:cut if cut is not None else len(text)] + extra + suffix).encode()


_LINE = st.one_of(
    st.builds(_line, _SPACE, _VALUE, st.booleans(),
              st.sampled_from(["", "", "", " 1", "{}", "x", ",", "]"]),
              st.none() | st.integers(0, 12), _SPACE),
    st.binary(max_size=10),
    st.sampled_from([b"", b"\r", b"\xef\xbb\xbf{}", b"\xff{}", b"{\"a\": \"\xc3\"}", b"[" * 5000]),
)


class TestLineScan:
    """A line is kept as the JSON scanner reads it from offset 0 when only JSON
    whitespace follows, and goes to ``json.loads`` otherwise; the result is
    what a ``json.loads`` loop gives, with the C scanner and the Python one."""

    @pytest.mark.parametrize("scanner", ["c", "py"])
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(_LINE, max_size=12), crlf=st.booleans(), last_newline=st.booleans())
    def test_equals_a_json_loads_loop(self, scanner, lines, crlf, last_newline):
        make = json.scanner.c_make_scanner if scanner == "c" else json.scanner.py_make_scanner
        if make is None:
            pytest.skip("no C scanner")
        data = (b"\r\n" if crlf else b"\n").join(lines) + (b"\n" if last_newline else b"")
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            # read_jsonl's decoder scans with it, and so does json.loads, in the
            # fallback and in the oracle.
            mp.setattr(json.scanner, "make_scanner", make)
            mp.setattr(json._default_decoder, "scan_once", make(json._default_decoder))
            path = os.path.join(tmp, "lines.jsonl")
            with open(path, "wb") as fh:
                fh.write(data)
            for strict in (False, True):
                assert _read_all(path, strict) == _loads_loop(path, strict)


_NAN, _INF = json.loads("NaN"), json.loads("Infinity")  # the literals json.loads accepts


class TestFieldKinds:
    """The kinds every reader checks its fields with, at their boundaries. A
    message of None means the value is accepted."""

    @pytest.mark.parametrize("kind,value,message", [
        pytest.param(atomic.STRING, "", None, id="string"),
        pytest.param(atomic.STRING, None, "must be a string, got None", id="null-string"),
        pytest.param(atomic.STRING, ["c"], "must be a string, got ['c']", id="list-string"),
        pytest.param(atomic.COUNT, 0, None, id="count-zero"),
        pytest.param(atomic.COUNT, True, "must be a non-negative integer, got True",
                     id="true-count"),
        pytest.param(atomic.COUNT, False, "must be a non-negative integer, got False",
                     id="false-count"),
        pytest.param(atomic.COUNT, 1.0, "must be a non-negative integer, got 1.0",
                     id="float-count"),
        pytest.param(atomic.COUNT, -1, "must be a non-negative integer, got -1",
                     id="negative-count"),
        pytest.param(atomic.NUMBER, 3, None, id="int-number"),
        pytest.param(atomic.NUMBER, -2.5, None, id="float-number"),
        pytest.param(atomic.NUMBER, 10**308, None, id="large-int-number"),
        pytest.param(atomic.NUMBER, True, "must be a finite number, got True", id="true-number"),
        pytest.param(atomic.NUMBER, False, "must be a finite number, got False", id="false-number"),
        pytest.param(atomic.NUMBER, "1", "must be a finite number, got '1'", id="string-number"),
        pytest.param(atomic.NUMBER, 10**400, f"must be a finite number, got {10**400}",
                     id="huge-int"),
        pytest.param(atomic.NUMBER, _NAN, "must be a finite number, got nan", id="nan"),
        pytest.param(atomic.NUMBER, _INF, "must be a finite number, got inf", id="infinity"),
        pytest.param(atomic.NUMBER, -_INF, "must be a finite number, got -inf", id="-infinity"),
        pytest.param(atomic.LIST, [], None, id="list"),
        pytest.param(atomic.LIST, {"a": 1}, "must be a list", id="object-list"),
        pytest.param(atomic.STRINGS, ["a", ""], None, id="strings"),
        pytest.param(atomic.STRINGS, "ab", "must be a list of strings", id="string-strings"),
        pytest.param(atomic.STRINGS, ["a", 1], "must be a list of strings", id="int-in-strings"),
        pytest.param(atomic.NUMBERS, [1, 2.5], None, id="numbers"),
        pytest.param(atomic.NUMBERS, [[1.0]], "must be a list of finite numbers",
                     id="nested-numbers"),
        pytest.param(atomic.NUMBERS, [True], "must be a list of finite numbers",
                     id="bool-in-numbers"),
        pytest.param(atomic.NUMBERS, [_INF], "must be a list of finite numbers",
                     id="inf-in-numbers"),
        pytest.param(atomic.NUMBERS, [10**400], "must be a list of finite numbers",
                     id="huge-int-in-numbers"),
    ])
    def test_kind(self, kind, value, message):
        check = lambda: atomic.fields({"f": value}, "row field ", [("f", kind)])
        if message is None:
            assert check() == [value]
            return
        with pytest.raises(ValueError) as exc:
            check()
        # Word for word: a scalar kind shows the wrong value, a list kind does not.
        assert str(exc.value) == f"row field 'f' {message}"

    def test_values_come_in_kinds_order_and_the_first_fault_is_named(self):
        kinds = [("a", atomic.STRING), ("b", atomic.COUNT), ("c", atomic.NUMBER)]
        assert atomic.fields({"c": 0.5, "b": 2, "a": "x", "d": None}, "", kinds) == ["x", 2, 0.5]
        with pytest.raises(ValueError, match=r"^'b' is missing$"):
            atomic.fields({"c": "bad", "a": "x"}, "", kinds)

    @pytest.mark.parametrize("obj", [None, 3, "a", ["a"]], ids=["null", "int", "string", "list"])
    def test_non_object_record_is_missing_its_first_field(self, obj):
        with pytest.raises(ValueError, match=r"^row field 'a' is missing$"):
            atomic.fields(obj, "row field ", [("a", atomic.STRING), ("b", atomic.COUNT)])

    @pytest.mark.parametrize("want,value,name", [
        pytest.param(int, 3, None, id="integer"),
        pytest.param(int, True, "an integer", id="bool-integer"),
        pytest.param(int, 3.0, "an integer", id="float-integer"),
        pytest.param(float, 3, None, id="int-number"),
        pytest.param(float, 0.5, None, id="number"),
        pytest.param(float, False, "a number", id="bool-number"),
        pytest.param(str, "x", None, id="string"),
        pytest.param(str, 5, "a string", id="int-string"),
        pytest.param(list, [], None, id="list"),
        pytest.param(list, "ab", "a list", id="string-list"),
        pytest.param({"k": int}, {"k": 1}, None, id="section"),
        pytest.param({"k": int}, [1], "a JSON object", id="list-section"),
        pytest.param(int, None, None, id="null-is-unset"),
        pytest.param({"k": int}, None, None, id="null-section-is-unset"),
    ])
    def test_config_kind(self, want, value, name):
        check = lambda: atomic.check_types({"key": value}, {"key": want}, "cfg ", "unknown keys")
        if name is None:
            check()
            return
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == f"cfg 'key' must be {name}"  # the value is never shown
