"""Which ``commhate`` functions the traced run wraps, and the per-layer
metrics derived from the spans and counts they record.

Span names are the layer names. Every span's self time belongs to exactly
one metric: a layer's ``<name>.s``, ``cli.self.s`` (the ``cli.<subcommand>``
spans and the pass itself: argument parsing, manifest hashing and writes
outside any layer) or ``trace.hook_s`` (counting done by the tracer after a
span closes). So the self-time metrics add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter

from tracing import Tracer, ancestors, self_times

SUBCOMMANDS = ("ingest", "topics", "keywords", "train", "evaluate", "experiment", "synth")

# Self-time metrics, one per span name.
LAYER_SPANS = (
    "corpus.iter_jsonl", "corpus.build_balanced", "corpus.dataset_io",
    "corpus.kfold_split", "corpus.dataset_fingerprint",
    "textprep.preprocess",
    "vectorizer.fit", "vectorizer.transform", "vectorizer.fingerprint", "vectorizer.io",
    "classifiers.train.nb", "classifiers.train.lr", "classifiers.train.svm",
    "classifiers.predict", "classifiers.io",
    "topics.fit", "topics.report",
    "keywords.chi2",
    "evaluation.cross_validate", "evaluation.compute_metrics",
    "synthgen.generate",
)

# name -> (unit, better); the order is the order of the report.
METRICS = {f"{span}.s": ("s", "lower") for span in LAYER_SPANS}
METRICS.update({
    "corpus.iter_jsonl.lines_per_s": ("lines/s", "higher"),
    "corpus.iter_jsonl.skipped": ("count", "lower"),
    "textprep.preprocess.docs_per_s": ("docs/s", "higher"),
    "textprep.calls_per_comment": ("ratio", "lower"),
    "vectorizer.fit.calls": ("count", "lower"),
    "vectorizer.transform.docs_per_s": ("docs/s", "higher"),
    "vectorizer.transform.nnz": ("count", "lower"),
    "vectorizer.vocab": ("terms", "lower"),
    "classifiers.train.sgd_steps_per_s": ("steps/s", "higher"),
    "topics.fit.tokens_per_s": ("tokens/s", "higher"),
    "keywords.chi2.terms": ("count", "lower"),
    "evaluation.fits_per_fold": ("ratio", "lower"),
    "synthgen.tokens_per_s": ("tokens/s", "higher"),
})
METRICS.update({f"cli.{sub}.s": ("s", "lower") for sub in SUBCOMMANDS})
METRICS.update({
    "cli.self.s": ("s", "lower"),
    "trace.hook_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def _first(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer, line_counts: dict) -> None:
    """Wrap the public functions of every layer module. ``line_counts``
    maps each JSONL path the pass reads to its number of lines.

    A function the program no longer has is skipped, and its layer reads 0:
    the program changes under this benchmark, and a traced run must still
    run it unchanged."""
    counts = tracer.counts
    bodies: set = set()

    def lines(t, args, kwargs, _n):
        counts["iter_jsonl.lines"] += line_counts.get(_first(args, kwargs, 0, "path"), 0)

    def distinct_body(t, args, kwargs, _tokens):
        bodies.add(_first(args, kwargs, 0, "body"))
        counts["preprocess.distinct"] = len(bodies)

    def vocab(t, args, kwargs, model):
        counts["fit.vocab_sum"] += model.dim

    def vectors(t, args, kwargs, result):
        if hasattr(result, "indptr"):  # one sparse batch in place of a list
            counts["transform.docs"] += len(result.indptr) - 1
            counts["transform.nnz"] += len(result.indices)
        else:
            counts["transform.docs"] += len(result)
            counts["transform.nnz"] += sum(len(v.indices) for v in result)

    def train_name(*args, **kwargs):
        try:
            return f"classifiers.train.{_first(args, kwargs, 2, 'config').algorithm.value}"
        except (IndexError, KeyError, AttributeError):
            return "classifiers.train"  # unattributed: lands in cli.self.s

    def sgd_steps(t, args, kwargs, model):
        vecs, config = _first(args, kwargs, 0, "vectors"), _first(args, kwargs, 2, "config")
        if config.algorithm.value != "nb":
            counts["sgd.steps"] += config.epochs * len(vecs)

    def llda_tokens(t, args, kwargs, model):
        counts["topics.tokens"] += sum(len(d) for d in _first(args, kwargs, 0, "documents"))

    def chi2_terms(t, args, kwargs, scores):
        counts["chi2.terms"] += len(scores)

    def folds(t, args, kwargs, result):
        counts["cv.folds"] += _first(args, kwargs, 1, "k")

    def synth_tokens(t, args, kwargs, result):
        pos, neg, _ = result
        counts["synth.tokens"] += sum(len(c.body.split()) for s in (pos, neg) for c in s.comments)

    def counting_skips(iter_jsonl):
        """iter_jsonl with a skip counter chained onto its on_skip callback."""
        sig = inspect.signature(iter_jsonl)
        if "on_skip" not in sig.parameters:
            return iter_jsonl

        @functools.wraps(iter_jsonl)
        def adapted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            chained = bound.arguments.get("on_skip")

            def on_skip(lineno):
                counts["iter_jsonl.skipped"] += 1
                if chained is not None:
                    chained(lineno)
            bound.arguments["on_skip"] = on_skip
            yield from iter_jsonl(*bound.args, **bound.kwargs)
        return adapted

    # (module, attribute path, span name, count hook, adapter)
    table = [
        ("corpus", "iter_jsonl", "corpus.iter_jsonl", lines, counting_skips),
        ("corpus", "build_balanced", "corpus.build_balanced", None, None),
        ("corpus", "write_dataset", "corpus.dataset_io", None, None),
        ("corpus", "load_dataset", "corpus.dataset_io", None, None),
        ("corpus", "write_jsonl", "corpus.dataset_io", None, None),
        ("corpus", "kfold_split", "corpus.kfold_split", None, None),
        ("corpus", "dataset_fingerprint", "corpus.dataset_fingerprint", None, None),
        ("textprep", "preprocess", "textprep.preprocess", distinct_body, None),
        ("vectorizer", "fit_tfidf", "vectorizer.fit", vocab, None),
        ("vectorizer", "TfidfModel.transform_all", "vectorizer.transform", vectors, None),
        ("vectorizer", "TfidfModel.transform_counts_all", "vectorizer.transform", vectors, None),
        ("vectorizer", "model_fingerprint", "vectorizer.fingerprint", None, None),
        ("vectorizer", "save_tfidf", "vectorizer.io", None, None),
        ("vectorizer", "load_tfidf", "vectorizer.io", None, None),
        ("classifiers", "train", train_name, sgd_steps, None),
        ("classifiers", "NaiveBayesModel.predict_all", "classifiers.predict", None, None),
        ("classifiers", "LinearModel.predict_all", "classifiers.predict", None, None),
        ("classifiers", "save_model", "classifiers.io", None, None),
        ("classifiers", "load_model", "classifiers.io", None, None),
        ("topics", "fit_two_sides", "topics.fit", None, None),
        ("topics", "fit_llda", "topics.fit", llda_tokens, None),
        ("topics", "topic_report", "topics.report", None, None),
        ("topics", "format_topic_table", "topics.report", None, None),
        ("keywords", "chi2_scores", "keywords.chi2", chi2_terms, None),
        ("evaluation", "cross_validate", "evaluation.cross_validate", folds, None),
        ("evaluation", "compute_metrics", "evaluation.compute_metrics", None, None),
        ("synthgen", "generate", "synthgen.generate", synth_tokens, None),
    ]
    for module, path, name, count, adapt in table:
        owner = importlib.import_module(f"commhate.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is not None and callable(getattr(owner, attr, None)):
            tracer.patch(owner, attr, name, count, modules_prefix="commhate", adapt=adapt)


def derive(spans: list, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``),
    plus ``accounted_s`` (the sum of every self-time metric),
    ``unattributed`` (span names charged to ``cli.self.s`` that are not CLI
    spans) and ``hook_errors`` (count hooks that raised)."""
    selfs = self_times(spans)
    self_by = Counter()
    calls = Counter()
    inclusive = Counter()
    for (name, start, end, _), st in zip(spans, selfs):
        self_by[name] += st
        calls[name] += 1
        inclusive[name] += end - start
    m = {f"{span}.s": self_by[span] for span in LAYER_SPANS}
    m.update({f"cli.{sub}.s": inclusive[f"cli.{sub}"] for sub in SUBCOMMANDS})
    # Spans with no layer of their own (say, a function that changed shape
    # so its layer could not be told) count as CLI self time.
    unattributed = sorted(set(self_by) - set(LAYER_SPANS) - {"trace.hook"})
    m["cli.self.s"] = sum(self_by[k] for k in unattributed)
    m["trace.hook_s"] = self_by["trace.hook"]
    fits = calls["vectorizer.fit"]
    cv_fits = sum(1 for i, s in enumerate(spans) if s[0] == "vectorizer.fit"
                  and "evaluation.cross_validate" in ancestors(spans, i))
    sgd_s = self_by["classifiers.train.lr"] + self_by["classifiers.train.svm"]
    m.update({
        "corpus.iter_jsonl.lines_per_s": _rate(counts["iter_jsonl.lines"], self_by["corpus.iter_jsonl"]),
        "corpus.iter_jsonl.skipped": counts["iter_jsonl.skipped"],
        "textprep.preprocess.docs_per_s": _rate(calls["textprep.preprocess"],
                                                self_by["textprep.preprocess"]),
        "textprep.calls_per_comment": _rate(calls["textprep.preprocess"],
                                            counts["preprocess.distinct"]),
        "vectorizer.fit.calls": fits,
        "vectorizer.transform.docs_per_s": _rate(counts["transform.docs"],
                                                 self_by["vectorizer.transform"]),
        "vectorizer.transform.nnz": counts["transform.nnz"],
        "vectorizer.vocab": _rate(counts["fit.vocab_sum"], fits),
        "classifiers.train.sgd_steps_per_s": _rate(counts["sgd.steps"], sgd_s),
        "topics.fit.tokens_per_s": _rate(counts["topics.tokens"], self_by["topics.fit"]),
        "keywords.chi2.terms": counts["chi2.terms"],
        "evaluation.fits_per_fold": _rate(cv_fits, counts["cv.folds"]),
        "synthgen.tokens_per_s": _rate(counts["synth.tokens"], self_by["synthgen.generate"]),
    })
    m["accounted_s"] = (sum(m[f"{span}.s"] for span in LAYER_SPANS)
                        + m["cli.self.s"] + m["trace.hook_s"])
    m["unattributed"] = [k for k in unattributed if k != "pass" and not k.startswith("cli.")]
    m["hook_errors"] = counts["trace.hook_errors"]
    return m
