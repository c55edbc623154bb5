"""Artifacts are replaced atomically: a failed write leaves the old file (or
no file) and no temp file; a new file gets the mode open(path, "w") gives.
The field kinds that every reader checks with hold at their boundaries."""

import gzip
import io
import json
import os
import time

import pytest

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
