import gzip
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate import cli, evaluation, textprep

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

REPO = Path(__file__).resolve().parent.parent


def _run(argv):
    return cli.main(argv)


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r, ensure_ascii=False) + "\n")


def _reddit_rows(community, bodies, prefix):
    return [
        {"id": f"{prefix}{i}", "body": b, "subreddit": community,
         "created_utc": 1000 + i, "author": f"user{i}"}
        for i, b in enumerate(bodies)
    ]


@pytest.fixture()
def corpora(tmp_path):
    pos = tmp_path / "pos.jsonl"
    neg = tmp_path / "neg.jsonl"
    _write_jsonl(pos, _reddit_rows(
        "hateclub", ["slurone slurtwo rant", "slurtwo slurone yelling"] * 6, "h"
    ))
    _write_jsonl(neg, _reddit_rows(
        "kindclub", ["kindone kindtwo chat", "kindtwo kindone banter"] * 6, "k"
    ))
    return pos, neg


class TestEntryPoints:
    def test_console_script_reports_version(self):
        # Runs the `commhate` console script declared in pyproject.toml the way
        # pip's generated wrapper does, against this checkout's src/, so the
        # test needs no install and cannot pick up a stale one from PATH.
        toml = tomllib or pytest.importorskip("tomli")
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = toml.load(fh)["project"]["scripts"]["commhate"]
        module, attr = target.split(":")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {attr}; sys.exit({attr}())",
             "--version"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "commhate 0.1.0"

    def test_cli_import_leaves_statistics_unloaded(self):
        # statistics pulls in decimal and fractions: memory and start-up time
        # on every CLI pass for one median.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, commhate.cli; "
             "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_no_subcommand_is_usage_error(self, capsys):
        assert _run([]) == 1
        assert "subcommand is required" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            _run(["synth", "--bogus"])
        assert exc.value.code == 1

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["synth", "--jobs", "2"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--iterations", "--burn-in"])
    def test_sampler_flags_are_gone(self, corpora, capsys, flag):
        pos, neg = corpora
        with pytest.raises(SystemExit) as exc:
            _run(["topics", "--pos", str(pos), "--neg", str(neg), flag, "2"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            _run(["ingest"])
        assert exc.value.code == 1

    # Every option string of every subcommand, with its dest: the flags that
    # build_parser generates from _SETTINGS must add and drop none.
    _COMMON = {"-h": "help", "--help": "help", "--config": "config", "--seed": "seed",
               "--output-dir": "output_dir"}
    _SOURCE = {"--dataset": "dataset", "--pos": "pos", "--neg": "neg",
               "--platform": "platform", "--stopwords": "stopwords"}
    _OPTIONS = {
        "ingest": {"--input": "input", "--community": "community", "--output": "output",
                   "--strict": "strict", "--platform": "platform"},
        "preprocess": {"--input": "input", "--output": "output", "--platform": "platform",
                       "--stopwords": "stopwords"},
        "topics": {"--pos": "pos", "--neg": "neg", "--k": "k", "--ranking": "ranking",
                   "--platform": "platform", "--stopwords": "stopwords", "--beta": "beta"},
        "keywords": {"--method": "method", "--hate": "hate", "--contrast": "contrast",
                     "--k": "keyword_k", "--min-df": "keyword_min_df",
                     "--target-group": "target_group", "--platform": "platform",
                     "--stopwords": "stopwords", "--beta": "beta"},
        "train": {"--algorithm": "algorithm", "--min-df": "min_df", **_SOURCE,
                  "--l2-lambda": "l2_lambda", "--epochs": "epochs",
                  "--learning-rate": "learning_rate", "--nb-alpha": "nb_alpha"},
        "evaluate": {"--model": "model", "--vectorizer": "vectorizer", **_SOURCE},
        "experiment": {"--min-df": "min_df"},
        "synth": {"--n": "n", "--overlap": "overlap", "--vocab-core": "vocab_core",
                  "--vocab-shared": "vocab_shared", "--doc-len-min": "doc_len_min",
                  "--doc-len-max": "doc_len_max", "--zipf": "zipf"},
    }

    def test_option_strings_are_pinned(self):
        (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        options = {name: {o: a.dest for a in p._actions for o in a.option_strings}
                   for name, p in sub.choices.items()}
        assert options == {name: {**self._COMMON, **own} for name, own in self._OPTIONS.items()}

    # Each bad setting exits 1 with the library's message before any input is
    # opened: every input named here is absent, and reading it would exit 2.
    @pytest.mark.parametrize("argv,message", [
        (["train", "--dataset", "{absent}", "--epochs", "0"], "epochs must be >= 1"),
        (["train", "--dataset", "{absent}", "--l2-lambda", "0"], "l2_lambda must be positive"),
        (["train", "--dataset", "{absent}", "--learning-rate", "0"],
         "learning_rate must be positive"),
        (["train", "--dataset", "{absent}", "--nb-alpha", "0"], "nb_alpha must be positive"),
        (["topics", "--pos", "{absent}", "--neg", "{absent}", "--beta", "0"],
         "beta must be positive and finite"),
        (["train", "--dataset", "{absent}", "--min-df", "0"], "min_df must be >= 1"),
        (["topics", "--pos", "{absent}", "--neg", "{absent}", "--k", "0"], "k must be >= 1"),
        (["keywords", "--method", "chi2_i", "--hate", "{absent}", "--contrast", "{absent}",
          "--k", "0"], "k must be >= 1"),
        (["keywords", "--method", "chi2_i", "--hate", "{absent}", "--contrast", "{absent}",
          "--min-df", "-5"], "min_df must be >= 1"),
        (["train", "--dataset", "{absent}", "--nb-alpha", "1e400"], "nb_alpha must be finite"),
        (["train", "--dataset", "{absent}", "--learning-rate", "nan"],
         "learning_rate must be finite"),
        (["train", "--dataset", "{absent}", "--learning-rate", "inf"],
         "learning_rate must be finite"),
        (["train", "--dataset", "{absent}", "--l2-lambda", "inf"], "l2_lambda must be finite"),
        (["ingest", "--input", "{absent}", "--output", "../escaped.jsonl"],
         "--output '../escaped.jsonl': name must be a plain file name"),
        (["preprocess", "--input", "{absent}", "--output", "{absent}"],
         "--output '{absent}': name must be a plain file name"),
        (["ingest", "--input", "{absent}", "--output", ".."],
         "--output '..': name must be a plain file name"),
        (["preprocess", "--input", "{absent}", "--output", ""],
         "--output '': name must be a plain file name"),
    ], ids=["epochs", "l2-lambda", "learning-rate", "nb-alpha", "beta", "min-df", "topics-k",
            "keywords-k", "keywords-min-df", "nb-alpha-overflow", "learning-rate-nan",
            "learning-rate-inf", "l2-lambda-inf", "output-parent", "output-absolute",
            "output-dotdot", "output-empty"])
    def test_bad_setting_exits_one_before_reading(self, tmp_path, capsys, argv, message):
        out_dir = tmp_path / "out"
        argv = [a.format(absent=tmp_path / "absent.jsonl") for a in argv]
        assert _run(argv + ["--output-dir", str(out_dir)]) == 1
        message = message.format(absent=tmp_path / "absent.jsonl")
        assert capsys.readouterr().err == f"commhate: error: {message}\n"
        assert os.listdir(tmp_path) == []  # no output directory, nothing beside it

    def test_non_finite_rate_in_config_exits_one(self, tmp_path, capsys):
        # JSON reads 1e400 as infinity; naive Bayes smoothed with it would
        # save NaN weights that evaluate then refuses.
        config = tmp_path / "run.json"
        config.write_text('{"train": {"nb_alpha": 1e400}}', encoding="utf-8")
        out_dir = tmp_path / "out"
        assert _run(["train", "--dataset", str(tmp_path / "absent.jsonl"), "--algorithm", "nb",
                     "--config", str(config), "--output-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == "commhate: error: nb_alpha must be finite\n"
        assert not out_dir.exists()

    def test_output_dir_below_a_file_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        assert _run(["synth", "--n", "10", "--output-dir", str(blocker / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("commhate: data error: ") and str(blocker / "out") in err
        assert len(err.splitlines()) == 1


class TestIngest:
    def test_filters_and_skips_malformed(self, tmp_path, capsys):
        src = tmp_path / "dump.jsonl"
        rows = _reddit_rows("alpha", ["keep me", "me too"], "a")
        rows += _reddit_rows("beta", ["other community"], "b")
        with open(src, "w", encoding="utf-8") as fh:
            for r in rows[:2]:
                fh.write(json.dumps(r) + "\n")
            fh.write("{broken\n")
            for r in rows[2:]:
                fh.write(json.dumps(r) + "\n")
        out_dir = tmp_path / "out"
        code = _run(["ingest", "--input", str(src), "--community", "alpha",
                     "--output-dir", str(out_dir)])
        assert code == 0
        lines = (out_dir / "filtered.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.loads(l)["community"] == "alpha" for l in lines)
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "ingest"
        assert manifest["params"]["skipped"] == 1
        assert str(src) in manifest["input_hashes"]

    def test_strict_mode_fails_on_malformed(self, tmp_path, capsys):
        src = tmp_path / "dump.jsonl"
        src.write_text('{"nope": 1}\n', encoding="utf-8")
        code = _run(["ingest", "--input", str(src), "--strict",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_gzip_in_and_out(self, tmp_path):
        src = tmp_path / "dump.jsonl.gz"
        with gzip.open(src, "wt", encoding="utf-8") as fh:
            for r in _reddit_rows("alpha", ["zipped body"], "z"):
                fh.write(json.dumps(r) + "\n")
        out_dir = tmp_path / "out"
        code = _run(["ingest", "--input", str(src), "--output", "kept.jsonl.gz",
                     "--output-dir", str(out_dir)])
        assert code == 0
        with gzip.open(out_dir / "kept.jsonl.gz", "rt", encoding="utf-8") as fh:
            (line,) = fh.read().splitlines()
        assert json.loads(line)["body"] == "zipped body"

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = _run(["ingest", "--input", str(tmp_path / "absent.jsonl")])
        assert code == 2

    def test_in_place_ingest_records_the_input_hash(self, tmp_path, capsys):
        src = tmp_path / "r.jsonl"
        _write_jsonl(src, _reddit_rows("alpha", ["first body", "second body"], "r"))
        before = hashlib.sha256(src.read_bytes()).hexdigest()
        assert _run(["ingest", "--input", str(src), "--output", "r.jsonl",
                     "--output-dir", str(tmp_path)]) == 0
        assert hashlib.sha256(src.read_bytes()).hexdigest() != before  # rewritten
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["input_hashes"] == {str(src): before}

    def test_truncated_gzip_is_skipped_or_named(self, tmp_path, capsys):
        self._check_damaged_gzip(tmp_path, capsys, "truncated")

    @pytest.mark.parametrize("damage", ["deflate", "crc"])
    def test_corrupt_gzip_is_skipped_or_named(self, tmp_path, capsys, damage):
        self._check_damaged_gzip(tmp_path, capsys, damage)

    def _check_damaged_gzip(self, tmp_path, capsys, damage):
        """Lenient ingest keeps every complete line and counts the damage as
        one skip; strict ingest exits 2 naming the last complete line and
        leaves no output behind."""
        bodies = [f"body number {i} " * 6 for i in range(1500)]
        blob = bytearray(gzip.compress("".join(
            json.dumps(r) + "\n" for r in _reddit_rows("alpha", bodies, "a")).encode()))
        if damage == "truncated":
            blob = blob[: len(blob) // 2]
        elif damage == "deflate":
            # Append a second member whose first block has the reserved type 11.
            tail = bytearray(gzip.compress(b'{"id": "late", "body": "x", "subreddit": "alpha"}\n'))
            tail[10] |= 0b110
            blob += tail
        else:
            for i in range(len(blob) - 8, len(blob)):  # CRC32 and ISIZE
                blob[i] ^= 0xFF
        src = tmp_path / "dump.jsonl.gz"
        src.write_bytes(bytes(blob))
        out_dir = tmp_path / "out"
        assert _run(["ingest", "--input", str(src), "--output-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        kept = manifest["params"]["kept"]
        assert manifest["params"]["skipped"] == 1
        assert 0 < kept < len(bodies) if damage == "truncated" else kept == len(bodies)
        capsys.readouterr()
        strict_dir = tmp_path / "strict"
        code = _run(["ingest", "--input", str(src), "--strict", "--output-dir", str(strict_dir)])
        assert code == 2
        err = capsys.readouterr().err
        word = "truncated" if damage == "truncated" else "corrupt"
        assert err.startswith(f"commhate: data error: {src}: compressed stream "
                              f"{word} after line {kept}:")
        assert len(err.splitlines()) == 1
        assert os.listdir(strict_dir) == []

    @pytest.mark.parametrize("bad", [
        b"\xff\xfe\n",
        b'{"id": "x", "body": "b", "subreddit": "alpha", "created_utc": 1e400}\n',
        b"[" * 100_000 + b"\n",
        b'{"id": "x", "body": ["kill", "them"], "subreddit": "alpha"}\n',
    ], ids=["invalid-utf8", "inf-timestamp", "deep-nesting", "list-body"])
    def test_bad_line_is_skipped_or_named(self, tmp_path, capsys, bad):
        rows = [json.dumps(r).encode() + b"\n"
                for r in _reddit_rows("alpha", ["keep me", "me too"], "a")]
        src = tmp_path / "dump.jsonl"
        src.write_bytes(rows[0] + bad + rows[1])
        out_dir = tmp_path / "out"
        assert _run(["ingest", "--input", str(src), "--output-dir", str(out_dir)]) == 0
        lines = (out_dir / "filtered.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(l)["id"] for l in lines] == ["a0", "a1"]
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert (manifest["params"]["skipped"], manifest["params"]["kept"]) == (1, 2)
        capsys.readouterr()
        code = _run(["ingest", "--input", str(src), "--strict",
                     "--output-dir", str(tmp_path / "strict")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"commhate: data error: {src}:2: malformed record")
        assert len(err.splitlines()) == 1


class TestPreprocess:
    def test_writes_token_rows(self, corpora, tmp_path, capsys):
        pos, _ = corpora
        out_dir = tmp_path / "prep"
        assert _run(["preprocess", "--input", str(pos),
                     "--output-dir", str(out_dir)]) == 0
        rows = [
            json.loads(l)
            for l in (out_dir / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert len(rows) == 12
        assert rows[0]["community"] == "hateclub"
        assert "slurone" in rows[0]["tokens"]

    def test_custom_stopwords_apply(self, corpora, tmp_path):
        pos, _ = corpora
        stop = tmp_path / "stop.txt"
        stop.write_text("slurone\nrant\nyelling\n", encoding="utf-8")
        out_dir = tmp_path / "prep2"
        assert _run(["preprocess", "--input", str(pos), "--stopwords", str(stop),
                     "--output-dir", str(out_dir)]) == 0
        rows = [
            json.loads(l)
            for l in (out_dir / "tokens.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert all("slurone" not in r["tokens"] for r in rows)
        assert any("slurtwo" in r["tokens"] for r in rows)

    def test_non_utf8_stopwords_is_data_error(self, corpora, tmp_path, capsys):
        pos, _ = corpora
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\n\xff\xfe\n")
        out_dir = tmp_path / "prep3"
        assert _run(["preprocess", "--input", str(pos), "--stopwords", str(stop),
                     "--output-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"commhate: data error: {stop}: stopword list is not valid UTF-8")
        assert not (out_dir / "tokens.jsonl").exists()


class TestStopwordInput:
    """The stop-word file changes every token, so a run that reads it names
    and hashes it among its inputs; a run without it records no such input."""

    def _argv(self, command, pos, neg, model_dir):
        return {
            "preprocess": ["preprocess", "--input", pos],
            "topics": ["topics", "--pos", pos, "--neg", neg, "--k", "2"],
            "keywords": ["keywords", "--method", "chi2_i", "--hate", pos, "--contrast", neg,
                         "--k", "2", "--min-df", "1"],
            "train": ["train", "--pos", pos, "--neg", neg, "--min-df", "1"],
            "evaluate": ["evaluate", "--model", model_dir / "model.json",
                         "--vectorizer", model_dir / "vectorizer.json", "--pos", pos,
                         "--neg", neg],
        }[command]

    @pytest.mark.parametrize("command", ["preprocess", "topics", "keywords", "train",
                                         "evaluate"])
    def test_manifest_names_and_hashes_the_stopword_file(self, corpora, tmp_path, capsys,
                                                         command):
        pos, neg = corpora
        model_dir = tmp_path / "model"
        assert _run([str(a) for a in self._argv("train", pos, neg, model_dir)
                     + ["--output-dir", model_dir]]) == 0
        stop = tmp_path / "stop.txt"
        stop.write_text("rant\nchat\n", encoding="utf-8")
        argv = [str(a) for a in self._argv(command, pos, neg, model_dir)]
        for name, extra in (("with", ["--stopwords", str(stop)]), ("without", [])):
            out_dir = tmp_path / name
            assert _run(argv + extra + ["--output-dir", str(out_dir)]) == 0
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            if extra:
                assert manifest["inputs"]["stopwords"] == str(stop)
                digest = hashlib.sha256(stop.read_bytes()).hexdigest()
                assert manifest["input_hashes"][str(stop)] == digest
            else:
                assert "stopwords" not in manifest["inputs"]
                assert str(stop) not in manifest["input_hashes"]

    def test_prepared_dataset_records_no_stopword_file(self, tmp_path, capsys):
        # --stopwords does not apply to a dataset that is already tokenized.
        synth_dir = tmp_path / "synth"
        assert _run(["synth", "--n", "20", "--vocab-core", "4", "--vocab-shared", "4",
                     "--output-dir", str(synth_dir)]) == 0
        stop = tmp_path / "stop.txt"
        stop.write_text("rant\n", encoding="utf-8")
        out_dir = tmp_path / "model"
        assert _run(["train", "--dataset", str(synth_dir / "dataset.jsonl"), "--min-df", "1",
                     "--stopwords", str(stop), "--output-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["inputs"]) == ["dataset"]


class TestManifestInputs:
    """A manifest names and hashes exactly the files its command reads: a
    prepared dataset stands in for pos, neg and stopwords, the stop-word file
    appears only where the command tokenizes, and the config only for
    experiment, which reads its specs from it and then their datasets (a
    relative path taken from the config's directory)."""

    @pytest.fixture()
    def files(self, corpora, tmp_path):
        pos, neg = corpora
        model_dir = tmp_path / "model"
        assert _run(["train", "--pos", str(pos), "--neg", str(neg), "--min-df", "1",
                     "--output-dir", str(model_dir)]) == 0
        stop = tmp_path / "stop.txt"
        stop.write_text("rant\n", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"experiments": [
            {"name": "x", "train_source": str(model_dir / "dataset.jsonl"),
             "test_source": "cv:2"},
            {"name": "y", "train_source": str(model_dir / "dataset.jsonl"),
             "test_source": "model/dataset.jsonl", "kinds": ["nb"]}]}), encoding="utf-8")
        return {"input": pos, "pos": pos, "neg": neg, "hate": pos, "contrast": neg,
                "model": model_dir / "model.json", "vectorizer": model_dir / "vectorizer.json",
                "dataset": model_dir / "dataset.jsonl", "stopwords": stop, "config": config,
                "x.train_source": model_dir / "dataset.jsonl",
                "y.train_source": model_dir / "dataset.jsonl",
                "y.test_source": model_dir / "dataset.jsonl"}

    @pytest.mark.parametrize("argv,inputs", [
        ("synth --n 10", ""),
        ("ingest --input {input}", "input"),
        ("preprocess --input {input} --stopwords {stopwords}", "input stopwords"),
        ("topics --pos {pos} --neg {neg} --k 2 --stopwords {stopwords}", "pos neg stopwords"),
        ("keywords --method chi2_i --hate {hate} --contrast {contrast} --k 2 --min-df 1 "
         "--stopwords {stopwords}", "hate contrast stopwords"),
        ("train --pos {pos} --neg {neg} --min-df 1 --stopwords {stopwords}",
         "pos neg stopwords"),
        ("train --dataset {dataset} --pos {pos} --neg {neg} --min-df 1 "
         "--stopwords {stopwords}", "dataset"),
        ("evaluate --model {model} --vectorizer {vectorizer} --pos {pos} --neg {neg} "
         "--stopwords {stopwords}", "model vectorizer pos neg stopwords"),
        ("evaluate --model {model} --vectorizer {vectorizer} --dataset {dataset} "
         "--pos {pos} --neg {neg} --stopwords {stopwords}", "model vectorizer dataset"),
        ("experiment", "config x.train_source y.train_source y.test_source"),
    ], ids=["synth", "ingest", "preprocess", "topics", "keywords", "train-pair",
            "train-dataset", "evaluate-pair", "evaluate-dataset", "experiment"])
    def test_manifest_inputs_are_the_files_read(self, files, tmp_path, capsys, argv, inputs):
        out_dir = tmp_path / "out"
        argv = [a.format(**files) for a in argv.split()]
        assert _run(argv + ["--config", str(files["config"]),
                            "--output-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        expected = {name: str(files[name]) for name in inputs.split()}
        assert manifest["inputs"] == expected
        assert manifest["input_hashes"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in expected.values()}


class TestTopicsAndKeywords:
    def test_topics_artifacts(self, corpora, tmp_path, capsys):
        pos, neg = corpora
        out_dir = tmp_path / "topics"
        code = _run(["topics", "--pos", str(pos), "--neg", str(neg), "--k", "2",
                     "--output-dir", str(out_dir), "--seed", "1"])
        assert code == 0
        report = json.loads((out_dir / "topics.json").read_text(encoding="utf-8"))
        labels = {e["label"] for e in report["topics"]}
        assert labels == {"community", "background"}
        assert (out_dir / "topics.txt").exists()
        assert "JI(" in capsys.readouterr().out
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["params"]["k"] == 2
        assert manifest["params"]["llda"] == {"beta": 0.1}

    # chi-square is symmetric, so perfectly one-sided terms from either corpus
    # can surface; the topic model's distinctiveness ranking is one-sided
    @pytest.mark.parametrize("method,allowed", [
        ("chi2_i", {"slurone", "slurtwo", "kindone", "kindtwo"}),
        ("llda", {"slurone", "slurtwo", "rant", "yelling"}),
    ])
    def test_keyword_artifacts(self, corpora, tmp_path, method, allowed, capsys):
        pos, neg = corpora
        out_dir = tmp_path / f"kw_{method}"
        code = _run(["keywords", "--method", method, "--hate", str(pos),
                     "--contrast", str(neg), "--k", "2", "--min-df", "1",
                     "--output-dir", str(out_dir), "--seed", "1"])
        assert code == 0
        obj = json.loads((out_dir / "keywords.json").read_text(encoding="utf-8"))
        terms = {e["term"] for e in obj["terms"]}
        assert terms <= allowed
        listed = (out_dir / "keywords.txt").read_text(encoding="utf-8").splitlines()
        assert len(listed) == 2

    def test_empty_side_is_data_error(self, corpora, tmp_path, capsys):
        pos, _ = corpora
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = _run(["topics", "--pos", str(pos), "--neg", str(empty),
                     "--output-dir", str(tmp_path / "t2")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["topics", "--pos", "{pos}", "--neg", "{neg}"],
        ["keywords", "--method", "chi2_i", "--hate", "{pos}", "--contrast", "{neg}"],
        ["keywords", "--method", "llda", "--hate", "{pos}", "--contrast", "{neg}"],
    ], ids=["topics", "keywords-chi2_i", "keywords-llda"])
    def test_invalid_beta_is_config_error(self, corpora, tmp_path, capsys, argv):
        pos, neg = corpora
        argv = [a.format(pos=pos, neg=neg) for a in argv]
        out_dir = tmp_path / "out"
        code = _run(argv + ["--beta", "0", "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "commhate: error: beta must be positive and finite\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["topics", "--pos", "{pos}", "--neg", "{neg}"],
        ["keywords", "--method", "chi2_i", "--hate", "{pos}", "--contrast", "{neg}"],
        ["keywords", "--method", "llda", "--hate", "{pos}", "--contrast", "{neg}"],
    ], ids=["topics", "keywords-chi2_i", "keywords-llda"])
    def test_invalid_k_is_config_error(self, corpora, tmp_path, capsys, argv):
        pos, neg = corpora
        argv = [a.format(pos=pos, neg=neg) for a in argv]
        out_dir = tmp_path / "out"
        code = _run(argv + ["--k", "0", "--output-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == "commhate: error: k must be >= 1\n"
        assert not out_dir.exists()


class TestCorpusSides:
    """topics, keywords and train read each side as a stream of comments."""

    @pytest.mark.parametrize("argv,message", [
        (["topics", "--pos", "{pos}", "--neg", "{gone}"],
         "{gone}: corpus is empty after preprocessing"),
        (["keywords", "--method", "chi2_i", "--hate", "{gone}", "--contrast", "{pos}"],
         "{gone}: corpus is empty after preprocessing"),
        (["train", "--pos", "{pos}", "--neg", "{gone}"],
         "the negative side must be non-empty after preprocessing"),
    ], ids=["topics", "keywords", "train"])
    def test_all_deleted_side_is_data_error(self, corpora, tmp_path, capsys, argv,
                                            message):
        pos, _ = corpora
        gone = tmp_path / "gone.jsonl"
        _write_jsonl(gone, _reddit_rows("gone", ["[deleted]", "[removed]"] * 3, "g"))
        argv = [a.format(pos=pos, gone=gone) for a in argv]
        assert _run(argv + ["--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"commhate: data error: {message.format(gone=gone)}\n"

    @pytest.mark.parametrize("command", ["topics", "train"])
    def test_malformed_lines_are_noted_once(self, corpora, tmp_path, capsys, command):
        pos, neg = corpora
        noisy = tmp_path / "noisy.jsonl"
        lines = pos.read_text(encoding="utf-8").splitlines(keepends=True)
        noisy.write_text("{broken\n" + "".join(lines[:5]) + "[1, 2]\n" + "".join(lines[5:]),
                         encoding="utf-8")
        assert _run([command, "--pos", str(noisy), "--neg", str(neg),
                     "--output-dir", str(tmp_path / "out")]) == 0
        notes = [l for l in capsys.readouterr().err.splitlines() if l.startswith("note:")]
        assert notes == [f"note: skipped 2 malformed line(s) in {noisy}"]


class TestSynthTrainEvaluate:
    def _synth(self, out_dir, seed="3", n="40"):
        return _run(["synth", "--n", n, "--vocab-core", "5", "--vocab-shared", "5",
                     "--seed", seed, "--output-dir", str(out_dir)])

    def test_synth_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        assert self._synth(out_dir) == 0
        for name in ("pos.jsonl", "neg.jsonl", "ground_truth.json",
                     "dataset.jsonl", "manifest.json"):
            assert (out_dir / name).exists(), name
        ds_rows = (out_dir / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(ds_rows) == 80
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema_versions"]["model"] == 2
        assert len(manifest["params"]["dataset_fingerprint"]) == 64

    def test_train_then_evaluate_round_trip(self, tmp_path, capsys):
        synth_dir = tmp_path / "synth"
        assert self._synth(synth_dir) == 0
        dataset = synth_dir / "dataset.jsonl"
        train_dir = tmp_path / "model"
        code = _run(["train", "--algorithm", "lr", "--dataset", str(dataset),
                     "--min-df", "1", "--output-dir", str(train_dir), "--seed", "5"])
        assert code == 0
        assert (train_dir / "model.json").exists()
        assert (train_dir / "vectorizer.json").exists()
        manifest = json.loads((train_dir / "manifest.json").read_text(encoding="utf-8"))
        assert str(dataset) in manifest["input_hashes"]

        eval_dir = tmp_path / "eval"
        code = _run(["evaluate", "--model", str(train_dir / "model.json"),
                     "--vectorizer", str(train_dir / "vectorizer.json"),
                     "--dataset", str(dataset), "--output-dir", str(eval_dir)])
        assert code == 0
        payload = json.loads((eval_dir / "evaluation.json").read_text(encoding="utf-8"))
        assert payload["algorithm"] == "lr"
        assert payload["metrics"]["accuracy"] == 1.0
        assert "kappa 1.00" in capsys.readouterr().out

    def test_evaluate_rejects_foreign_vectorizer(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._synth(a / "synth", seed="3") == 0
        assert self._synth(b / "synth", seed="4", n="60") == 0
        for d in (a, b):
            assert _run(["train", "--dataset", str(d / "synth" / "dataset.jsonl"),
                         "--min-df", "1", "--output-dir", str(d / "model")]) == 0
        code = _run(["evaluate", "--model", str(a / "model" / "model.json"),
                     "--vectorizer", str(b / "model" / "vectorizer.json"),
                     "--dataset", str(a / "synth" / "dataset.jsonl"),
                     "--output-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "different vectorizer" in capsys.readouterr().err

    @pytest.mark.parametrize("model,message", [
        ({"version": 2, "algorithm": "lr"}, "model field 'weights' is missing"),
        ([1, 2], "model file must hold a JSON object, got list"),
        ({"version": 2, "algorithm": "lr", "weights": ["1"], "bias": 0},
         "model field 'weights' must be a list of finite numbers"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": "0"},
         "model field 'bias' must be a finite number"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": 0},
         "has 1 weights but the vectorizer has 10 terms"),
        ({"version": 2, "algorithm": "lr", "weights": [1.0], "bias": 0, "vectorizer_hash": None},
         "model field 'vectorizer_hash' must be a string, got None"),
    ], ids=["missing-field", "not-an-object", "non-numeric-weights",
            "non-numeric-bias", "wrong-dimension", "null-vectorizer-hash"])
    def test_evaluate_malformed_model_is_data_error(self, tmp_path, capsys, model, message):
        synth_dir, train_dir = tmp_path / "synth", tmp_path / "model"
        assert self._synth(synth_dir) == 0
        assert _run(["train", "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--min-df", "1", "--output-dir", str(train_dir)]) == 0
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        capsys.readouterr()
        eval_dir = tmp_path / "eval"
        code = _run(["evaluate", "--model", str(bad),
                     "--vectorizer", str(train_dir / "vectorizer.json"),
                     "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--output-dir", str(eval_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("commhate: data error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not eval_dir.exists()

    def test_evaluate_checks_every_input_before_reading_any(self, tmp_path, capsys):
        # The model is malformed, but the missing dataset is found first.
        synth_dir, train_dir = tmp_path / "synth", tmp_path / "model"
        assert self._synth(synth_dir) == 0
        assert _run(["train", "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--min-df", "1", "--output-dir", str(train_dir)]) == 0
        bad = tmp_path / "bad_model.json"
        bad.write_text("{", encoding="utf-8")
        absent = tmp_path / "absent.jsonl"
        capsys.readouterr()
        assert _run(["evaluate", "--model", str(bad),
                     "--vectorizer", str(train_dir / "vectorizer.json"),
                     "--dataset", str(absent), "--output-dir", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == f"commhate: data error: input file not found: {absent}\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_min_df_below_one_is_usage_error(self, tmp_path, capsys, command):
        # Checked before any input is read: the dataset named here is absent.
        absent = tmp_path / "absent.jsonl"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"experiments": [
            {"name": "x", "train_source": str(absent), "test_source": "cv:2"}]}),
            encoding="utf-8")
        argv = {"train": ["train", "--dataset", str(absent)],
                "experiment": ["experiment", "--config", str(config)]}[command]
        out_dir = tmp_path / "out"
        assert _run(argv + ["--min-df", "0", "--output-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == "commhate: error: min_df must be >= 1\n"
        assert not out_dir.exists()

    def test_train_divergence_is_data_error(self, tmp_path, capsys):
        synth_dir, train_dir = tmp_path / "synth", tmp_path / "model"
        assert self._synth(synth_dir) == 0
        capsys.readouterr()
        code = _run(["train", "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--learning-rate", "1e20", "--l2-lambda", "1",
                     "--output-dir", str(train_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("commhate: data error: lr training diverged: non-finite "
                       "parameters after epoch 1\n")
        assert not (train_dir / "model.json").exists()

    _VECTORIZER = {"version": 1, "n_docs": 80, "min_df": 1,
                   "terms": [{"term": "a", "df": 1}]}

    @pytest.mark.parametrize("vec,message", [
        ([1], "vectorizer file must hold a JSON object, got list"),
        ({"version": 1}, "vectorizer field 'terms' is missing"),
        ({k: v for k, v in _VECTORIZER.items() if k != "n_docs"},
         "vectorizer field 'n_docs' is missing"),
        ({k: v for k, v in _VECTORIZER.items() if k != "min_df"},
         "vectorizer field 'min_df' is missing"),
        ({**_VECTORIZER, "terms": [{"df": 1}]}, "vectorizer terms[0] field 'term' is missing"),
        ({**_VECTORIZER, "terms": [{"term": "a", "df": "1"}]},
         "vectorizer terms[0] field 'df' must be a non-negative integer"),
        ({**_VECTORIZER, "terms": [{"term": t, "df": 1} for t in ("a", "a", "b")]},
         "vocabulary must be sorted and free of duplicates"),
    ], ids=["not-an-object", "missing-terms", "missing-n_docs", "missing-min_df",
            "term-without-term", "non-integer-df", "repeated-term"])
    def test_evaluate_malformed_vectorizer_is_data_error(self, tmp_path, capsys, vec, message):
        synth_dir, train_dir = tmp_path / "synth", tmp_path / "model"
        assert self._synth(synth_dir) == 0
        assert _run(["train", "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--min-df", "1", "--output-dir", str(train_dir)]) == 0
        bad = tmp_path / "bad_vectorizer.json"
        bad.write_text(json.dumps(vec), encoding="utf-8")
        capsys.readouterr()
        eval_dir = tmp_path / "eval"
        code = _run(["evaluate", "--model", str(train_dir / "model.json"),
                     "--vectorizer", str(bad),
                     "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--output-dir", str(eval_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"commhate: data error: {bad}: ") and message in err
        assert len(err.splitlines()) == 1
        assert not eval_dir.exists()

    def test_train_without_source_exits_one(self, tmp_path, capsys):
        code = _run(["train", "--output-dir", str(tmp_path)])
        assert code == 1
        assert "either --dataset or both" in capsys.readouterr().err

    def test_train_missing_dataset_exits_two(self, tmp_path, capsys):
        code = _run(["train", "--dataset", str(tmp_path / "none.jsonl"),
                     "--output-dir", str(tmp_path)])
        assert code == 2


class TestExperimentCommand:
    def _setup(self, tmp_path):
        synth_dir = tmp_path / "synth"
        assert _run(["synth", "--n", "30", "--vocab-core", "4", "--vocab-shared", "4",
                     "--seed", "2", "--output-dir", str(synth_dir)]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "seed": 4,
            "experiments": [{
                "name": "cvrun",
                "train_source": "synth/dataset.jsonl",
                "test_source": "cv:2",
                "kinds": ["nb", "lr"],
            }],
        }), encoding="utf-8")
        return config

    def test_runs_specs_from_config(self, tmp_path, capsys):
        config = self._setup(tmp_path)
        out_dir = tmp_path / "reports"
        code = _run(["experiment", "--config", str(config),
                     "--output-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "cvrun.json").read_text(encoding="utf-8"))
        assert set(report["results"]) == {"nb", "lr"}
        assert (out_dir / "cvrun.txt").exists()
        assert (out_dir / "cvrun.csv").exists()
        assert "# cvrun" in capsys.readouterr().out

    def test_reports_reproducible_minus_timestamp(self, tmp_path, capsys):
        config = self._setup(tmp_path)
        payloads = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert _run(["experiment", "--config", str(config),
                         "--output-dir", str(out_dir)]) == 0
            obj = json.loads((out_dir / "cvrun.json").read_text(encoding="utf-8"))
            obj.pop("timestamp")
            payloads.append(json.dumps(obj, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_no_experiments_in_config_exits_one(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        code = _run(["experiment", "--config", str(config)])
        assert code == 1
        assert "no experiments defined" in capsys.readouterr().err

    def test_unknown_experiment_key_exits_one(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "experiments": [{"name": "x", "train_source": "a", "test_source": "cv:2",
                             "mystery": True}],
        }), encoding="utf-8")
        code = _run(["experiment", "--config", str(config)])
        assert code == 1
        assert "unknown experiment config keys" in capsys.readouterr().err

    def test_failed_spec_leaves_no_reports(self, tmp_path, capsys):
        config = self._setup(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        obj["experiments"].append({"name": "broken", "train_source": "absent.jsonl",
                                   "test_source": "cv:2"})
        config.write_text(json.dumps(obj), encoding="utf-8")
        out_dir = tmp_path / "reports"
        code = _run(["experiment", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("commhate: data error: experiment 'broken': [Errno 2] ")
        assert "absent.jsonl" in err and len(err.splitlines()) == 1
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("names,message", [
        (["cvrun", "cvrun"], "experiment 'cvrun': name is used twice"),
        (["../escaped"], "experiment '../escaped': name must be a plain file name"),
        (["{tmp}/abs"], "experiment '{tmp}/abs': name must be a plain file name"),
        (["a/b"], "experiment 'a/b': name must be a plain file name"),
        (["."], "experiment '.': name must be a plain file name"),
        ([".."], "experiment '..': name must be a plain file name"),
    ], ids=["duplicate", "parent", "absolute", "subdir", "dot", "dotdot"])
    def test_name_that_is_no_single_file_name_is_config_error(self, tmp_path, capsys,
                                                              names, message):
        # Each spec writes <output-dir>/<name>.{json,txt,csv}: a repeated name
        # would overwrite, a path would write elsewhere.
        config = self._setup(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        obj["experiments"] = [{**obj["experiments"][0], "name": n.format(tmp=tmp_path)}
                              for n in names]
        config.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        out_dir = tmp_path / "reports" / "inner"
        code = _run(["experiment", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == 1
        message = message.format(tmp=tmp_path)
        assert capsys.readouterr().err == f"commhate: error: {config}: {message}\n"
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("field", ["train_source", "test_source"])
    def test_every_dataset_is_checked_before_any_spec_runs(self, tmp_path, capsys,
                                                          monkeypatch, field):
        config = self._setup(tmp_path)
        obj = json.loads(config.read_text(encoding="utf-8"))
        obj["experiments"].append({"name": "broken", "train_source": "synth/dataset.jsonl",
                                   "test_source": "synth/dataset.jsonl", field: "absent.jsonl"})
        config.write_text(json.dumps(obj), encoding="utf-8")
        ran = []
        real = evaluation.run_experiment
        monkeypatch.setattr(evaluation, "run_experiment",
                            lambda spec, **kw: ran.append(spec.name) or real(spec, **kw))
        code = _run(["experiment", "--config", str(config),
                     "--output-dir", str(tmp_path / "reports")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"commhate: data error: experiment 'broken': [Errno 2] No such file or "
            f"directory: '{tmp_path / 'absent.jsonl'}'\n")
        assert ran == []

    def test_missing_dataset_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "experiments": [{"name": "x", "train_source": "absent.jsonl",
                             "test_source": "cv:2"}],
        }), encoding="utf-8")
        code = _run(["experiment", "--config", str(config)])
        assert code == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    assert _run(["synth", "--n", "20", "--vocab-core", "4", "--vocab-shared", "4",
                 "--output-dir", str(root / "synth")]) == 0
    assert _run(["train", "--dataset", str(root / "synth" / "dataset.jsonl"),
                 "--min-df", "1", "--output-dir", str(root / "model")]) == 0
    return root


_GOOD_ROW = b'{"tokens": ["a"], "label": "positive", "id": "1", "community": "c"}\n'


class TestMalformedJsonInput:
    """Every JSON or JSONL file a command reads ends in one exit-2 line that
    names the file (and the line, for JSONL), never in a traceback."""

    def _fails(self, trained, tmp_path, capsys, command, option, bad):
        """Run ``command`` with ``bad`` as ``option``; return its one stderr line."""
        inputs = {"--dataset": trained / "synth" / "dataset.jsonl",
                  "--model": trained / "model" / "model.json",
                  "--vectorizer": trained / "model" / "vectorizer.json", option: bad}
        argv = [command]
        if command == "train":
            argv += ["--dataset", bad]
        elif command == "evaluate":
            argv += [arg for pair in inputs.items() for arg in pair]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"experiments": [
                {"name": "x", "train_source": bad.name, "test_source": "cv:2"}]}),
                encoding="utf-8")
            argv += ["--config", config]
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert _run([str(a) for a in argv + ["--output-dir", out_dir]]) == 2
        assert not out_dir.exists() or not any(out_dir.iterdir())
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        return err

    @pytest.mark.parametrize("data,lineno", [
        (b"[" * 100_000 + b"\n", 1),
        (_GOOD_ROW + b'{"tokens": ["\xff"], "label": "positive", "id": "2", '
                     b'"community": "c"}\n', 2),
        (_GOOD_ROW + b'{"tokens": "hate", "label": "negative", "id": "2", '
                     b'"community": "c"}\n', 2),
        (_GOOD_ROW + b'{"tokens": {"a": 1}, "label": "negative", "id": "2", '
                     b'"community": "c"}\n', 2),
        (_GOOD_ROW + b'{"tokens": ["b"], "label": "negative", "id": null, '
                     b'"community": "c"}\n', 2),
    ], ids=["deep-nesting", "non-utf8", "string-tokens", "object-tokens", "null-id"])
    @pytest.mark.parametrize("command,option", [
        ("train", "--dataset"), ("evaluate", "--dataset"), ("evaluate", "--model"),
        ("evaluate", "--vectorizer"), ("experiment", "train_source"),
    ])
    def test_bad_file_exits_two_naming_it(self, trained, tmp_path, capsys, command, option,
                                          data, lineno):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        err = self._fails(trained, tmp_path, capsys, command, option, bad)
        where = "experiment 'x': " if command == "experiment" else ""
        if option in ("--model", "--vectorizer"):
            where += f"{bad}: not valid JSON: "
        else:
            where += f"{bad}:{lineno}: malformed record: "
        assert err.startswith(f"commhate: data error: {where}")

    def test_directory_train_source_exits_two(self, trained, tmp_path, capsys):
        bad = tmp_path / "data"
        bad.mkdir()
        err = self._fails(trained, tmp_path, capsys, "experiment", "train_source", bad)
        assert err.startswith(f"commhate: data error: experiment 'x': {bad}: cannot read: ")


@pytest.fixture(scope="module")
def setting_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("settings")
    assert _run(["synth", "--n", "20", "--vocab-core", "4", "--vocab-shared", "4",
                 "--output-dir", str(root)]) == 0
    (root / "one.txt").write_text("the\n", encoding="utf-8")
    (root / "three.txt").write_text("a\nb\nc\n", encoding="utf-8")
    return root


def _param(*path):
    """Reader of one manifest param; None when the run wrote no manifest."""
    def read(run_dir):
        manifest = run_dir / "manifest.json"
        if not manifest.exists():
            return None
        value = json.loads(manifest.read_text(encoding="utf-8"))["params"]
        for key in path:
            value = value[key]
        return value
    return read


def _manifest_dir(run_dir):
    return next((d for d in ("flagdir", "cfgdir", ".")
                 if (run_dir / d / "manifest.json").exists()), None)


def _setting_cases(d):
    """Per setting id: argv, the flag (None if there is none), the config,
    the value read back under (flag + config, config only, neither), and
    the reader. Defaults are written out as literals, so that a default
    moved in the library fails here."""
    synth = ["synth", "--n", "10", "--vocab-core", "3", "--vocab-shared", "3"]
    train = ["train", "--dataset", str(d / "dataset.jsonl"), "--min-df", "1"]
    topics = ["topics", "--pos", str(d / "pos.jsonl"), "--neg", str(d / "neg.jsonl")]
    kw = ["keywords", "--method", "chi2_i", "--hate", str(d / "pos.jsonl"),
          "--contrast", str(d / "neg.jsonl")]
    return {
        "seed": (synth, ["--seed", "9"], {"seed": 5}, (9, 5, 0), _param("seed")),
        "output_dir": (synth, ["--output-dir", "flagdir"], {"output_dir": "cfgdir"},
                       ("flagdir", "cfgdir", "."), _manifest_dir),
        "min_df": (["train", "--dataset", str(d / "dataset.jsonl")], ["--min-df", "3"],
                   {"min_df": 1, "keywords": {"min_df": 4}}, (3, 1, 2), _param("min_df")),
        "stopwords_path": (["preprocess", "--input", str(d / "pos.jsonl")],
                           ["--stopwords", str(d / "one.txt")],
                           {"stopwords_path": str(d / "three.txt")},
                           (1, 3, len(textprep.default_config().stopwords)),
                           _param("stopwords")),
        "experiments": (["experiment"], None,
                        {"experiments": [{"name": "e", "test_source": "cv:2", "kinds": ["nb"],
                                          "train_source": str(d / "dataset.jsonl")}]},
                        (None, ["e"], None), _param("experiments")),
        "train.l2_lambda": (train, ["--l2-lambda", "0.01"], {"train": {"l2_lambda": 1}},
                            (0.01, 1.0, 1e-4), _param("l2_lambda")),
        "train.epochs": (train, ["--epochs", "2"], {"train": {"epochs": 3}}, (2, 3, 20),
                         _param("epochs")),
        "train.learning_rate": (train, ["--learning-rate", "0.2"],
                                {"train": {"learning_rate": 1}}, (0.2, 1.0, 0.1),
                                _param("learning_rate")),
        "train.nb_alpha": (train, ["--nb-alpha", "0.5"], {"train": {"nb_alpha": 2}},
                           (0.5, 2.0, 1.0), _param("nb_alpha")),
        "llda.beta": (topics, ["--beta", "0.5"], {"llda": {"beta": 2}}, (0.5, 2.0, 0.1),
                      _param("llda", "beta")),
        "keywords.k": (kw, ["--k", "3"], {"keywords": {"k": 6}}, (3, 6, 30), _param("k")),
        "keywords.min_df": (kw, ["--min-df", "3"], {"keywords": {"min_df": 1}, "min_df": 4},
                            (3, 1, 5), _param("min_df")),
    }


def _setting_id(row):
    section, key = row[:2]
    return f"{section}.{key}" if section else key


class TestConfigPrecedence:
    @pytest.mark.filterwarnings("ignore:requested 30 keywords")
    @pytest.mark.parametrize("row", cli._SETTINGS, ids=_setting_id)
    def test_flag_beats_config_beats_default(self, row, setting_inputs, tmp_path,
                                             monkeypatch, capsys):
        argv, flag, config, expected, read = _setting_cases(setting_inputs)[_setting_id(row)]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        runs = {"config": argv + ["--config", str(path)], "default": argv}
        if flag:
            runs["flag"] = argv + flag + ["--config", str(path)]
        want = dict(zip(("flag", "config", "default"), expected))
        for name, run_argv in runs.items():
            run_dir = tmp_path / name
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # the default output dir is "."
            assert _run(run_argv) == (1 if want[name] is None else 0), name
            assert repr(read(run_dir)) == repr(want[name]), name  # 1.0 is not 1

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sede": 5}), encoding="utf-8")
        code = _run(["synth", "--n", "10", "--config", str(config),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"train": {"momentum": 0.9}}), encoding="utf-8")
        code = _run(["synth", "--n", "10", "--config", str(config),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert "unknown keys in 'train'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    @pytest.mark.parametrize("config,message", [
        ({"train": 5}, "'train' must be a JSON object"),
        ({"llda": 5}, "'llda' must be a JSON object"),
        ({"keywords": [1]}, "'keywords' must be a JSON object"),
        ({"experiments": [5]}, "each experiment must be a JSON object"),
        ({"experiments": 0}, "'experiments' must be a list"),
        ({"llda": {"alpha": 0.5}}, "unknown keys in 'llda': ['alpha']"),
        ({"llda": {"iterations": 10, "burn_in": 2}},
         "unknown keys in 'llda': ['burn_in', 'iterations']"),
        ({"seed": [1]}, "'seed' must be an integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"output_dir": 5}, "'output_dir' must be a string"),
        ({"train": {"epochs": [1]}}, "'train' key 'epochs' must be an integer"),
        ({"train": {"epochs": "3"}}, "'train' key 'epochs' must be an integer"),
        ({"llda": {"beta": False}}, "'llda' key 'beta' must be a number"),
        ({"experiments": [{"name": "e", "train_source": "d.jsonl", "test_source": "cv:2",
                           "seed": [1]}]}, "experiment key 'seed' must be an integer"),
    ], ids=["train", "llda", "keywords", "experiment", "experiments", "alpha", "schedule",
            "seed-list", "seed-bool", "output-dir", "epochs-list", "epochs-string",
            "beta-bool", "experiment-seed"])
    def test_ill_typed_or_removed_config_exits_one(self, tmp_path, capsys, command,
                                                   config, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["synth", "--n", "10"] if command == "synth" else ["experiment"]
        code = _run(argv + ["--config", str(path), "--output-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"commhate: error: {path}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_integer_accepted_where_number_expected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"l2_lambda": 1}, "llda": {"beta": 2}}),
                        encoding="utf-8")
        cfg = cli.load_run_config(str(path))
        assert (cfg["l2_lambda"], cfg["beta"]) == (1, 2)

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("{oops", encoding="utf-8")
        code = _run(["synth", "--n", "10", "--config", str(config),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2

    def test_config_directory_exits_two(self, tmp_path, capsys):
        config = tmp_path / "cdir"
        config.mkdir()
        code = _run(["synth", "--n", "5", "--config", str(config),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"commhate: data error: {config}: cannot read: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("data,reason", [
        (b'{"seed": 1, "output_dir": "\xff"}', "'utf-8' codec can't decode"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["non-utf8", "deep-nesting"])
    def test_undecodable_config_exits_two(self, tmp_path, capsys, data, reason):
        config = tmp_path / "run.json"
        config.write_bytes(data)
        code = _run(["synth", "--n", "10", "--config", str(config),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"commhate: data error: {config}: not valid JSON: {reason}")
        assert not (tmp_path / "o").exists()

    def test_train_section_applies(self, tmp_path, capsys):
        synth_dir = tmp_path / "synth"
        assert _run(["synth", "--n", "20", "--vocab-core", "4", "--vocab-shared", "4",
                     "--output-dir", str(synth_dir)]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"train": {"epochs": 3}}), encoding="utf-8")
        out_dir = tmp_path / "model"
        assert _run(["train", "--dataset", str(synth_dir / "dataset.jsonl"),
                     "--min-df", "1", "--config", str(config),
                     "--output-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["params"]["epochs"] == 3


def _readme_settings():
    """(config key, flag, default) per row of README's settings table."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    rows, inside = [], False
    for line in text.splitlines():
        if line.startswith("| config key"):
            inside = True
        elif inside and not line.startswith("|"):
            break
        elif inside and not line.startswith("| ---"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return [(key.strip("`"), flag.split("`")[1] if "`" in flag else None, default)
            for key, flag, default, _read_by in rows]


def test_readme_settings_table_matches_the_settings():
    readme = _readme_settings()
    assert [key for key, _f, _d in readme] == [_setting_id(row) for row in cli._SETTINGS]
    for (key, flag, default), row in zip(readme, cli._SETTINGS):
        assert flag == row[5], key
        try:
            assert float(default) == row[4], key
        except ValueError:  # a word, not a number: `.`, "built-in list", "none"
            assert default in (f"`{row[4]}`", "built-in list", "none"), key


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _typed(typ):
    """Values of the JSON type ``typ`` most of the time, anything otherwise."""
    return {int: st.integers(), float: st.floats() | st.integers(),
            str: st.text(max_size=8), list: st.lists(_JSON, max_size=2)}[typ] | _JSON


def _object(values: dict):
    """A JSON object over some of the keys of ``values``, now and then with
    unknown keys besides."""
    return st.builds(lambda known, unknown: {**unknown, **known},
                     st.fixed_dictionaries({}, optional=values),
                     st.just({}) | st.dictionaries(st.text(max_size=6), _JSON, max_size=2))


_SPEC_EXTRAS = st.sampled_from(["cv:2", "cv:1", "cv:x", "d.jsonl"]) | st.lists(
    st.sampled_from(["nb", "lr", "svm", "knn"]), max_size=3)
_EXPERIMENT = _object({k: _typed(t) | _SPEC_EXTRAS for k, t in evaluation._SPEC_TYPES.items()})
_SECTIONS: dict = {}
for _section, _key, _type, *_ in cli._SETTINGS:
    if _section:
        _SECTIONS.setdefault(_section, {})[_key] = _typed(_type)
_CONFIGS = _object({
    **{key: _typed(typ) for sec, key, typ, *_ in cli._SETTINGS if sec is None},
    **{sec: _object(values) | _JSON for sec, values in _SECTIONS.items()},
    "experiments": st.lists(_EXPERIMENT, max_size=3) | _JSON,
})


def _check_config_bytes(data: bytes) -> None:
    """load_run_config either returns table-typed settings or raises a
    UsageError (bad content) or ValueError (unreadable file) whose message
    starts with the path."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.json")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            cfg = cli.load_run_config(path)
        except (cli.UsageError, ValueError) as exc:
            assert str(exc).startswith(f"{path}: ")
            return
    types = {dest: typ for _sec, _key, typ, dest, *_ in cli._SETTINGS}
    for dest, value in cfg.items():
        if dest == "experiments":
            assert all(isinstance(e, evaluation.ExperimentSpec) for e in value)
        else:
            want = (int, float) if types[dest] is float else types[dest]
            assert isinstance(value, want) and not isinstance(value, bool), (dest, value)


class TestConfigFuzz:
    @given(st.binary(max_size=40) | _JSON.map(lambda v: json.dumps(v).encode()))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes(self, data):
        _check_config_bytes(data)

    @given(_CONFIGS)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_objects_over_the_settings_keys(self, obj):
        _check_config_bytes(json.dumps(obj).encode())
