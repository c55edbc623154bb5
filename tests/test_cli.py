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
    ], ids=["invalid-utf8", "inf-timestamp"])
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
    ], ids=["missing-field", "not-an-object", "non-numeric-weights",
            "non-numeric-bias", "wrong-dimension"])
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
    ], ids=["not-an-object", "missing-terms", "missing-n_docs", "missing-min_df",
            "term-without-term", "non-integer-df"])
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

    def test_missing_dataset_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "experiments": [{"name": "x", "train_source": "absent.jsonl",
                             "test_source": "cv:2"}],
        }), encoding="utf-8")
        code = _run(["experiment", "--config", str(config)])
        assert code == 2


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
    ValueError/DataError whose message starts with the path."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.json")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            cfg = cli.load_run_config(path)
        except (ValueError, cli.DataError) as exc:
            assert str(exc).startswith(f"{path}: ")
            return
    types = {dest: typ for _sec, _key, typ, dest, _default in cli._SETTINGS}
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
