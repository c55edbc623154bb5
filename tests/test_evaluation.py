import csv
import hashlib
import io
import json
import math
import os
import random
import re
import warnings
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commhate import evaluation
from commhate.classifiers import Algorithm, TrainConfig
from commhate.corpus import NEGATIVE, POSITIVE, LabeledDataset, kfold_split, write_dataset
from commhate.evaluation import (
    ConfusionCounts,
    ExperimentSpec,
    compute_metrics,
    cross_validate,
    experiment_from_dict,
    experiment_to_dict,
    format_metrics_table,
    mean_of,
    metrics_from_counts,
    pooled_of,
    report_to_csv,
    run_experiment,
    save_report,
    tally_counts,
    train_and_eval,
    vectors_for,
)
from commhate.seeding import derive_seed
from commhate.vectorizer import fit_tfidf, model_fingerprint


def _kappa_reference(tp, fp, tn, fn):
    """Direct p_o / p_e formulation, floats all the way."""
    n = tp + fp + tn + fn
    po = (tp + tn) / n
    pe = ((tp + fp) / n) * ((tp + fn) / n) + ((fn + tn) / n) * ((fp + tn) / n)
    if pe == 1.0:
        return 1.0 if po == 1.0 else 0.0
    return (po - pe) / (1 - pe)


class TestMetrics:
    def test_worked_example_is_exact(self):
        m = metrics_from_counts(ConfusionCounts(tp=40, fp=20, tn=30, fn=10))
        assert m.accuracy == 0.7
        assert m.precision == 40 / 60
        assert m.recall == 0.8
        assert m.f1 == 80 / 110
        assert m.kappa == 0.4  # 2000/5000, no rounding anywhere

    def test_perfect_prediction(self):
        m = metrics_from_counts(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
        assert (m.accuracy, m.precision, m.recall, m.f1, m.kappa) == (1, 1, 1, 1, 1)

    def test_total_disagreement(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, fp=5, tn=0, fn=5))
        assert m.accuracy == 0.0 and m.kappa == -1.0

    def test_zero_division_conventions(self):
        m = metrics_from_counts(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
        assert m.accuracy == 0.6 and m.kappa == 0.0

    def test_all_positive_unanimous(self):
        # p_e = 1 with perfect agreement: kappa 1 by convention
        m = metrics_from_counts(ConfusionCounts(tp=7, fp=0, tn=0, fn=0))
        assert m.kappa == 1.0 and m.accuracy == 1.0

    @given(st.tuples(*[st.integers(0, 200)] * 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_float_reference(self, counts):
        tp, fp, tn, fn = counts
        if tp + fp + tn + fn == 0:
            return
        m = metrics_from_counts(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        assert m.kappa == pytest.approx(_kappa_reference(tp, fp, tn, fn), abs=1e-12)
        assert -1.0 - 1e-12 <= m.kappa <= 1.0 + 1e-12
        assert 0.0 <= m.f1 <= 1.0

    def test_counts_validation(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            ConfusionCounts(tp=-1, fp=0, tn=1, fn=0)
        with pytest.raises(ValueError, match="non-negative integer"):
            ConfusionCounts(tp=1.0, fp=0, tn=0, fn=0)
        with pytest.raises(ValueError, match="at least one"):
            ConfusionCounts(tp=0, fp=0, tn=0, fn=0)


class TestTally:
    def test_maps_all_four_cells(self):
        predicted = [POSITIVE, POSITIVE, NEGATIVE, NEGATIVE]
        expected = [POSITIVE, NEGATIVE, POSITIVE, NEGATIVE]
        c = tally_counts(predicted, expected)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            tally_counts([POSITIVE], [POSITIVE, NEGATIVE])
        with pytest.raises(ValueError, match="empty"):
            tally_counts([], [])
        with pytest.raises(ValueError, match="unknown label"):
            tally_counts(["yes"], [POSITIVE])

    def test_compute_metrics_is_tally_then_counts(self):
        predicted = [POSITIVE, NEGATIVE, POSITIVE]
        expected = [POSITIVE, NEGATIVE, NEGATIVE]
        assert compute_metrics(predicted, expected) == metrics_from_counts(
            tally_counts(predicted, expected)
        )


class TestAggregation:
    def _folds(self):
        return [
            metrics_from_counts(ConfusionCounts(tp=4, fp=0, tn=4, fn=2)),
            metrics_from_counts(ConfusionCounts(tp=6, fp=2, tn=2, fn=0)),
        ]

    def test_mean_is_unweighted_average(self):
        folds = self._folds()
        s = mean_of(folds)
        assert s.accuracy == pytest.approx((folds[0].accuracy + folds[1].accuracy) / 2)
        assert s.kappa == pytest.approx((folds[0].kappa + folds[1].kappa) / 2)

    def test_mean_sums_left_to_right(self):
        # Ten folds of accuracy 0.1: a plain running sum gives
        # 0.9999999999999999, a compensated one (sum() from Python 3.12) 1.0.
        fold = metrics_from_counts(ConfusionCounts(tp=1, fp=9, tn=0, fn=0))
        assert fold.accuracy == 0.1
        assert mean_of([fold] * 10).accuracy == 0.9999999999999999 / 10

    def test_pooled_sums_counts_first(self):
        pooled = pooled_of(self._folds())
        assert (pooled.counts.tp, pooled.counts.fp) == (10, 2)
        assert pooled == metrics_from_counts(ConfusionCounts(tp=10, fp=2, tn=6, fn=2))

    def test_mean_of_empty_rejected(self):
        with pytest.raises(ValueError, match="no fold metrics"):
            mean_of([])


def _toy_dataset(n_per_side=12, seed=0, flip=False):
    rng = random.Random(seed)
    docs, labels, prov = [], [], []
    for i in range(n_per_side):
        docs.append(tuple(rng.choice(["hata", "hatb", "hatc"]) for _ in range(5)))
        labels.append(POSITIVE if not flip else NEGATIVE)
        prov.append((f"p{i}", "hateland"))
    for i in range(n_per_side):
        docs.append(tuple(rng.choice(["supa", "supb", "supc"]) for _ in range(5)))
        labels.append(NEGATIVE if not flip else POSITIVE)
        prov.append((f"n{i}", "supportland"))
    return LabeledDataset(tuple(docs), tuple(labels), tuple(prov))


class TestTrainingPlumbing:
    def test_vectors_for_nb_gets_counts(self):
        vec = fit_tfidf([["a", "a", "b"], ["b", "c"]], min_df=1)
        counts = vectors_for(Algorithm.NB, vec, [["a", "a", "b"]])
        assert 2.0 in counts.data  # raw occurrence counts, not tf-idf
        tfidf = vectors_for(Algorithm.LR, vec, [["a", "a", "b"]])
        assert math.sqrt(sum(v * v for v in tfidf.data)) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", list(Algorithm))
    def test_separable_holdout_is_perfect(self, kind):
        m, fingerprint = train_and_eval(
            _toy_dataset(12, seed=0), _toy_dataset(6, seed=9), kind, seed=1
        )
        assert m.accuracy == 1.0 and m.kappa == 1.0
        assert isinstance(fingerprint, str) and len(fingerprint) == 64

    def test_vectorizer_fit_on_training_split_only(self):
        train_ds, test_ds = _toy_dataset(8, seed=0), _toy_dataset(4, seed=5)
        # Premise: the test side has a term the training side lacks, so a fit
        # that saw the test side has a fingerprint of its own.
        test_ds = LabeledDataset(tuple(doc + ("unseen",) for doc in test_ds.documents),
                                 test_ds.labels, test_ds.provenance)
        assert set(chain(*test_ds.documents)) - set(chain(*train_ds.documents))
        _, fingerprint = train_and_eval(train_ds, test_ds, Algorithm.LR, seed=1)
        assert fingerprint == model_fingerprint(fit_tfidf(train_ds.documents, min_df=2))
        joint = fit_tfidf(list(train_ds.documents) + list(test_ds.documents), min_df=2)
        assert fingerprint != model_fingerprint(joint)


class TestCrossValidate:
    def test_separable_dataset_scores_perfectly(self):
        ds = _toy_dataset(20, seed=2)
        results = cross_validate(ds, 4, list(Algorithm), seed=0)
        assert sorted(results) == sorted(Algorithm, key=lambda a: a.value)
        for res in results.values():
            assert len(res.per_fold) == 4
            assert len(res.vectorizer_fingerprints) == 4
            assert res.mean.accuracy == 1.0
            assert res.pooled.counts.total == len(ds)

    def test_duplicate_kinds_deduplicated(self):
        ds = _toy_dataset(8, seed=2)
        results = cross_validate(ds, 2, ["lr", "lr", Algorithm.LR], seed=0)
        assert list(results) == [Algorithm.LR]

    def test_no_kinds_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            cross_validate(_toy_dataset(4), 2, [], seed=0)

    def test_deterministic(self):
        ds = _toy_dataset(10, seed=3)
        a = cross_validate(ds, 2, [Algorithm.SVM], seed=7)[Algorithm.SVM]
        b = cross_validate(ds, 2, [Algorithm.SVM], seed=7)[Algorithm.SVM]
        assert a == b


def _noisy_dataset(n_per_side=30, seed=0):
    """Two sides that share most of their vocabulary, so folds differ."""
    rng = random.Random(seed)
    docs, labels, prov = [], [], []
    for label, own in ((POSITIVE, "hat"), (NEGATIVE, "sup")):
        for i in range(n_per_side):
            docs.append(tuple(rng.choice([own, "both", "also", "more", f"{own}x"])
                              for _ in range(rng.randint(2, 6))))
            labels.append(label)
            prov.append((f"{own}{i}", own))
    return LabeledDataset(tuple(docs), tuple(labels), tuple(prov))


def _pid_unless(bad, i):
    """The worker's pid, or a ValueError naming ``i`` when ``i`` is in ``bad``."""
    if i in bad:
        raise ValueError(f"task {i} failed in process {os.getpid()}")
    return os.getpid()


class TestForkMap:
    """cross_validate's tasks run in one process per CPU the process may run
    on; a CPU set stands in for ``taskset`` here."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch):
        ds = _noisy_dataset()
        runs = []
        for n in (1, 3):
            self._cpus(monkeypatch, n)
            runs.append(cross_validate(ds, 4, list(Algorithm), seed=5))
        assert runs[0] == runs[1]
        assert len({m.accuracy for r in runs[0].values() for m in r.per_fold}) > 1

    @pytest.mark.parametrize("cpus,n_items,workers", [(1, 7, 1), (3, 7, 3), (3, 2, 2)])
    def test_items_are_dealt_round_robin(self, monkeypatch, cpus, n_items, workers):
        self._cpus(monkeypatch, cpus)
        pids = evaluation._fork_map(lambda i: _pid_unless((), i), list(range(n_items)))
        assert len(set(pids)) == workers
        assert pids == [pids[i % workers] for i in range(n_items)]
        assert pids[0] == os.getpid()

    def test_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pids = evaluation._fork_map(lambda i: _pid_unless((), i), [0, 1, 2])
        assert pids[0] == pids[2] == os.getpid() != pids[1]

    def test_without_fork_runs_in_process(self, monkeypatch):
        self._cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        pids = evaluation._fork_map(lambda i: _pid_unless((), i), [0, 1, 2])
        assert pids == [os.getpid()] * 3

    @pytest.mark.parametrize("bad,first,in_child", [
        ({4, 5}, 4, True), ({5, 3}, 3, False), ({1, 6}, 1, True)])
    def test_first_failure_in_item_order_is_raised(self, monkeypatch, bad, first, in_child):
        # With 3 workers, items 0, 3 and 6 run here, the rest in two children.
        self._cpus(monkeypatch, 3)
        with pytest.raises(ValueError, match=f"^task {first} failed in process ") as err:
            evaluation._fork_map(lambda i: _pid_unless(bad, i), list(range(7)))
        assert (str(err.value).split()[-1] != str(os.getpid())) == in_child

    def test_child_failure_in_cross_validate_keeps_its_message(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        parent = os.getpid()

        def score(**kwargs):
            if os.getpid() != parent:
                raise ValueError(f"{kwargs['kind'].value} training diverged: non-finite "
                                 "parameters")
            return real(**kwargs)
        real = evaluation.train_and_eval
        monkeypatch.setattr(evaluation, "train_and_eval", score)
        with pytest.raises(ValueError, match="^lr training diverged: non-finite parameters$"):
            cross_validate(_toy_dataset(8), 2, [Algorithm.LR, Algorithm.SVM])

    def test_child_that_dies_is_one_line_error(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        parent = os.getpid()
        with pytest.raises(OSError) as err:
            evaluation._fork_map(lambda i: os._exit(3) if os.getpid() != parent else i,
                                 [0, 1, 2])
        assert str(err.value) == "worker process exited with status 3 before sending its results"

    def test_children_are_reaped_when_this_process_is_interrupted(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        def fn(i):
            if os.getpid() == parent:
                raise Interrupt
            return i
        self._cpus(monkeypatch, 3)
        parent = os.getpid()
        with pytest.raises(Interrupt):
            evaluation._fork_map(fn, list(range(6)))

    def test_child_that_dies_makes_the_cli_exit_two(self, monkeypatch, tmp_path, capsys):
        from commhate import cli
        write_dataset(_toy_dataset(8), str(tmp_path / "train.jsonl"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"experiments": [
            {"name": "cv", "train_source": "train.jsonl", "test_source": "cv:2"}]}))
        self._cpus(monkeypatch, 2)
        parent = os.getpid()
        real = evaluation.train_and_eval
        monkeypatch.setattr(evaluation, "train_and_eval", lambda **kw: os._exit(3)
                            if os.getpid() != parent else real(**kw))
        out_dir = tmp_path / "reports"
        assert cli.main(["experiment", "--config", str(config),
                         "--output-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            "commhate: data error: experiment 'cv': worker process exited with status 3 "
            "before sending its results\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_fold_equals_a_fold_counted_on_its_own(self, monkeypatch, cpus):
        # cross_validate counts the dataset once and hands each task its
        # rows; train_and_eval alone counts each side itself.
        self._cpus(monkeypatch, cpus)
        ds, seed = _noisy_dataset(), 5
        results = cross_validate(ds, 4, list(Algorithm), seed=seed)
        splits = kfold_split(ds, 4, derive_seed(seed, "cv", "folds"))
        for kind, res in results.items():
            for f, (train, test) in enumerate(splits):
                alone = train_and_eval(ds.subset(train), ds.subset(test), kind,
                                       seed=derive_seed(seed, "cv", kind.value, f))
                assert (res.per_fold[f], res.vectorizer_fingerprints[f]) == alone
        assert len({fp for r in results.values() for fp in r.vectorizer_fingerprints}) == 4

    def test_cross_validate_warns_nothing(self, monkeypatch):
        # Python 3.12+ warns when a process with threads forks. Under
        # simplefilter("error") os.fork drops that warning instead of
        # raising it, so every warning is recorded and none may be.
        self._cpus(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cross_validate(_toy_dataset(8), 2, list(Algorithm))
        assert [str(w.message) for w in caught] == []


class TestExperimentSpec:
    def test_cv_k_parsing(self):
        spec = ExperimentSpec(name="x", train_source="d.jsonl", test_source="cv:10")
        assert spec.cv_k == 10
        holdout = ExperimentSpec(name="x", train_source="a", test_source="b.jsonl")
        assert holdout.cv_k is None

    def test_default_kinds_cover_all_three(self):
        spec = ExperimentSpec(name="x", train_source="a", test_source="cv:2")
        assert spec.kinds == (Algorithm.NB, Algorithm.LR, Algorithm.SVM)

    @pytest.mark.parametrize("kwargs,match", [
        ({"name": ""}, "name"),
        ({"train_source": ""}, "non-empty"),
        ({"test_source": ""}, "non-empty"),
        ({"test_source": "cv:1"}, ">= 2"),
        ({"test_source": "cv:x"}, "malformed"),
        ({"test_source": "cv:5", "imbalance_ratio": 2}, "held-out"),
        ({"imbalance_ratio": 0}, ">= 1"),
        ({"kinds": ()}, "at least one"),
    ])
    def test_validation(self, kwargs, match):
        base = dict(name="x", train_source="a", test_source="b")
        base.update(kwargs)
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**base)

    def test_from_dict_round_trip_and_unknown_keys(self):
        obj = {
            "name": "e1",
            "train_source": "train.jsonl",
            "test_source": "cv:3",
            "kinds": ["nb", "svm"],
            "seed": 5,
        }
        spec = experiment_from_dict(obj)
        assert spec.kinds == (Algorithm.NB, Algorithm.SVM) and spec.seed == 5
        echo = experiment_to_dict(spec)
        assert experiment_from_dict(echo) == spec
        with pytest.raises(ValueError, match="unknown experiment config keys"):
            experiment_from_dict({**obj, "extra": 1})
        with pytest.raises(ValueError, match="missing experiment config keys"):
            experiment_from_dict({"name": "e1"})


class TestRunExperiment:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        write_dataset(_toy_dataset(12, seed=0), str(tmp_path / "train.jsonl"))
        write_dataset(_toy_dataset(8, seed=4), str(tmp_path / "test.jsonl"))
        return tmp_path

    def test_holdout_report(self, data_dir):
        spec = ExperimentSpec(
            name="holdout", train_source="train.jsonl", test_source="test.jsonl",
            kinds=(Algorithm.LR,),
        )
        report = run_experiment(spec, base_dir=str(data_dir))
        assert report["version"] == 1 and report["name"] == "holdout"
        assert report["datasets"]["train"]["n"] == 24
        assert report["datasets"]["test"]["n_pos"] == 8
        entry = report["results"]["lr"]
        assert entry["mode"] == "holdout"
        assert entry["metrics"]["accuracy"] == 1.0
        assert len(entry["vectorizer_fingerprint"]) == 64

    def test_holdout_fits_one_vectorizer_for_every_kind(self, data_dir, monkeypatch):
        fits = []

        def counted(*args, **kwargs):
            fits.append(1)
            return fit_tfidf(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_tfidf", counted)
        spec = ExperimentSpec(name="holdout", train_source="train.jsonl",
                              test_source="test.jsonl", kinds=tuple(Algorithm))
        report = run_experiment(spec, base_dir=str(data_dir))
        assert len(fits) == 1
        fingerprints = {entry["vectorizer_fingerprint"] for entry in report["results"].values()}
        assert len(report["results"]) == 3 and len(fingerprints) == 1

    def test_cv_report(self, data_dir):
        spec = ExperimentSpec(
            name="cv", train_source="train.jsonl", test_source="cv:3",
            kinds=(Algorithm.NB,),
        )
        report = run_experiment(spec, base_dir=str(data_dir))
        entry = report["results"]["nb"]
        assert entry["mode"] == "cv:3"
        assert len(entry["per_fold"]) == 3
        assert set(entry["mean"]) == {"accuracy", "precision", "recall", "f1", "kappa"}
        assert entry["pooled"]["counts"]["tp"] + entry["pooled"]["counts"]["fn"] == 12
        assert "test" not in report["datasets"]

    def test_imbalance_resamples_test_set(self, data_dir):
        # all positives are kept, so the pool needs ratio x positives negatives
        wide = _toy_dataset(12, seed=4)
        skewed = wide.subset(list(range(4)) + list(range(12, 24)))
        write_dataset(skewed, str(data_dir / "skewed.jsonl"))
        spec = ExperimentSpec(
            name="imb", train_source="train.jsonl", test_source="skewed.jsonl",
            kinds=(Algorithm.LR,), imbalance_ratio=2,
        )
        report = run_experiment(spec, base_dir=str(data_dir))
        entry = report["datasets"]["test"]
        assert (entry["n_pos"], entry["n_neg"], entry["n"]) == (4, 8, 12)

    def test_reports_identical_up_to_timestamp(self, data_dir, tmp_path):
        spec = ExperimentSpec(
            name="det", train_source="train.jsonl", test_source="cv:2",
            kinds=(Algorithm.SVM,), seed=3,
        )
        reports = []
        for i in range(2):
            path = tmp_path / f"det{i}.json"
            save_report(run_experiment(spec, base_dir=str(data_dir)), str(path))
            data, n = re.subn(rb'\n  "timestamp": "[^"\n]*",', b"", path.read_bytes())
            assert n == 1
            reports.append(data)
        assert reports[0] == reports[1]

    def test_save_report(self, data_dir, tmp_path):
        spec = ExperimentSpec(
            name="s", train_source="train.jsonl", test_source="cv:2",
            kinds=(Algorithm.NB,),
        )
        report = run_experiment(spec, base_dir=str(data_dir))
        out = tmp_path / "report.json"
        save_report(report, str(out))
        assert json.loads(out.read_text(encoding="utf-8")) == report


class TestRendering:
    def _cv_report(self, tmp_path):
        write_dataset(_toy_dataset(8, seed=0), str(tmp_path / "train.jsonl"))
        spec = ExperimentSpec(
            name="r", train_source="train.jsonl", test_source="cv:2",
            kinds=(Algorithm.NB, Algorithm.LR),
        )
        return run_experiment(spec, base_dir=str(tmp_path))

    def test_table(self, tmp_path):
        text = format_metrics_table(self._cv_report(tmp_path))
        lines = text.splitlines()
        assert lines[0].startswith("algorithm")
        assert any(line.startswith("lr") for line in lines)
        assert any(line.startswith("nb") for line in lines)

    def test_csv_round_trips_metric_values(self, tmp_path):
        report = self._cv_report(tmp_path)
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert rows[0] == ["algorithm", "accuracy", "precision", "recall", "f1", "kappa"]
        by_kind = {r[0]: r for r in rows[1:]}
        assert float(by_kind["nb"][1]) == report["results"]["nb"]["mean"]["accuracy"]


class TestClaimPipelines:
    def test_overlap_curve_small_scale(self):
        curve = evaluation.overlap_curve(
            overlaps=(0.0, 0.7), n_docs=60, k=5, vocab_core=5, vocab_shared=8
        )
        assert [pt["overlap_weight"] for pt in curve] == [0.0, 0.7]
        assert curve[0]["jaccard"] == 0.0
        assert curve[1]["jaccard"] > 0.0

    def test_gap_pipeline_structure_and_determinism(self):
        run = evaluation.community_vs_keyword_gap(seed=0, n_docs_per_side=600)
        assert set(run) == {"seed", "keywords", "community", "baseline",
                            "precision_gap"}
        assert run["precision_gap"] == pytest.approx(
            run["community"]["precision"] - run["baseline"]["precision"]
        )
        assert run["community"]["precision"] > 0.8
        again = evaluation.community_vs_keyword_gap(seed=0, n_docs_per_side=600)
        assert run == again

    # Digests of each pipeline's whole output, sort_keys JSON. The metrics
    # come from integer confusion counts, so a refactor that changes which
    # documents either pipeline reads or how it reads them moves them.
    @pytest.mark.parametrize("run,digest", [
        (lambda: evaluation.community_vs_keyword_gap(seed=0, n_docs_per_side=600),
         "246c27c8834a70923e4b357765d0cbf99c6079f64356c4d8dce1d1bc9c6a3502"),
        (lambda: evaluation.overlap_curve(seed=0, n_docs=200),
         "bc5334e4ad361be45285a0b6eb862d555c6f0e5c7161ce74e01ac3cfc598493e"),
    ], ids=["gap", "overlap-curve"])
    def test_pipeline_output_is_pinned(self, run, digest):
        out = json.dumps(run(), sort_keys=True).encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_gap_rejects_tiny_corpora(self):
        with pytest.raises(ValueError, match="too small"):
            evaluation.community_vs_keyword_gap(n_docs_per_side=10)

    def test_median_over_seeds(self):
        out = evaluation.median_precision_gap(seeds=(0, 1), n_docs_per_side=600)
        assert len(out["runs"]) == 2
        gaps = sorted(r["precision_gap"] for r in out["runs"])
        assert out["median_precision_gap"] == pytest.approx(sum(gaps) / 2)

