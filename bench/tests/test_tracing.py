"""The tracer: self-time arithmetic, transparency of wrapped calls, and the
per-layer accounting built on it.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import io
import os
import sys
import types
from collections import Counter
from contextlib import redirect_stdout

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import tracing  # noqa: E402


def test_self_times_on_a_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    #      b1 [5, 6]   b2 [7, 8.5]
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b1", 5.0, 6.0, 3],
        ["b2", 7.0, 8.5, 3],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    assert sum(tracing.self_times(spans)) == 10.0
    assert list(tracing.ancestors(spans, 5)) == ["b", "root"]


def _ticking_clock():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]
    return clock


def test_wrapped_function_returns_and_raises_unchanged():
    tracer = tracing.Tracer(clock=_ticking_clock())

    def divide(a, b=1):
        return a / b

    traced = tracer.wrap(divide, "div")
    assert traced(7, b=2) == divide(7, b=2)
    with pytest.raises(ZeroDivisionError) as raised:
        traced(1, 0)
    with pytest.raises(ZeroDivisionError) as direct:
        divide(1, 0)
    assert type(raised.value) is type(direct.value) and raised.value.args == direct.value.args
    assert [s[0] for s in tracer.spans] == ["div", "div"]
    assert all(s[2] is not None for s in tracer.spans)
    assert traced.__name__ == "divide"


def test_wrapped_generator_times_each_next_and_yields_the_same():
    tracer = tracing.Tracer()

    def numbers(n, fail_at=None):
        for i in range(n):
            if i == fail_at:
                raise ValueError(f"bad line {i}")
            yield i * i

    seen = []
    traced = tracer.wrap(numbers, "gen", count=lambda t, a, k, n: seen.append(n))
    assert list(traced(4)) == list(numbers(4))
    assert [s[0] for s in tracer.spans].count("gen") == 5  # 4 items + the final StopIteration
    assert seen == [4]
    with pytest.raises(ValueError, match="bad line 2"):
        list(traced(5, fail_at=2))
    assert tracer._stack == []


def test_hook_time_is_its_own_span_and_results_pass_through():
    tracer = tracing.Tracer(clock=_ticking_clock())
    traced = tracer.wrap(lambda xs: sorted(xs), "sort",
                         count=lambda t, args, kwargs, result: t.counts.update(n=len(result)))
    assert traced([3, 1, 2]) == [1, 2, 3]
    assert [s[0] for s in tracer.spans] == ["sort", "trace.hook"]
    assert tracer.counts["n"] == 3
    broken = tracer.wrap(lambda xs: sorted(xs), "sort", count=lambda t, a, k, r: r.missing)
    assert broken([2, 1]) == [1, 2]
    assert tracer.counts["trace.hook_errors"] == 1


def test_patch_reaches_from_import_bindings_and_unpatch_restores():
    tracer = tracing.Tracer()
    lib = types.ModuleType("fakepkg.lib")

    def fit(xs):
        return sum(xs)
    lib.fit = fit
    user = types.ModuleType("fakepkg.user")
    user.fit = fit  # as `from .lib import fit` would bind it
    other = types.ModuleType("elsewhere")
    other.fit = fit
    sys.modules.update({"fakepkg.lib": lib, "fakepkg.user": user, "elsewhere": other})
    try:
        tracer.patch(lib, "fit", "lib.fit", modules_prefix="fakepkg")
        assert lib.fit is user.fit is not fit
        assert other.fit is fit
        assert user.fit([1, 2]) == 3
        assert [s[0] for s in tracer.spans] == ["lib.fit"]
        tracer.unpatch()
        assert lib.fit is fit and user.fit is fit
    finally:
        for name in ("fakepkg.lib", "fakepkg.user", "elsewhere"):
            sys.modules.pop(name)


def test_layer_self_times_account_for_the_pass():
    spans = [
        ["pass", 0.0, 10.0, -1],
        ["cli.train", 0.5, 9.0, 0],
        ["corpus.build_balanced", 1.0, 3.0, 1],
        ["textprep.preprocess", 1.5, 2.0, 2],
        ["vectorizer.fit", 3.0, 4.0, 1],
        ["trace.hook", 4.0, 4.25, 1],
        ["classifiers.train.svm", 5.0, 8.0, 1],
    ]
    m = layers.derive(spans, Counter({"preprocess.distinct": 1, "fit.vocab_sum": 40}))
    assert m["corpus.build_balanced.s"] == 1.5
    assert m["textprep.preprocess.s"] == 0.5
    assert m["cli.train.s"] == 8.5
    assert m["cli.self.s"] == 1.5 + 2.25
    assert m["trace.hook_s"] == 0.25
    assert m["vectorizer.vocab"] == 40
    assert m["accounted_s"] == 10.0
    assert m["unattributed"] == []
    m = layers.derive(spans + [["mystery", 9.0, 9.5, 0]], Counter())
    assert m["cli.self.s"] == 1.0 + 2.25 + 0.5
    assert m["unattributed"] == ["mystery"]
    assert m["accounted_s"] == 10.0


def test_install_skips_what_the_program_no_longer_has(monkeypatch):
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    from commhate import topics

    monkeypatch.delattr(topics, "fit_llda")
    tracer = tracing.Tracer()
    layers.install(tracer, {})
    try:
        assert hasattr(topics.fit_two_sides, "__wrapped__")
        assert not hasattr(topics, "fit_llda")
    finally:
        tracer.unpatch()
    assert not hasattr(topics.fit_two_sides, "__wrapped__")


def test_traced_pipeline_writes_the_same_artifacts(tmp_path, monkeypatch):
    """The layers the benchmark wraps return what the unwrapped code returns:
    a small CLI pipeline leaves byte-identical artifacts either way."""
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    import commhate.cli as cli

    steps = [
        ["synth", "--n", "40", "--overlap", "0.3", "--zipf", "--seed", "3", "--output-dir", "s"],
        ["train", "--dataset", "s/dataset.jsonl", "--algorithm", "svm", "--output-dir", "m"],
        ["evaluate", "--model", "m/model.json", "--vectorizer", "m/vectorizer.json",
         "--dataset", "s/dataset.jsonl", "--output-dir", "e"],
        ["experiment", "--config", "cv.json", "--output-dir", "r"],
    ]

    def run(where, tracer=None):
        os.makedirs(where)
        monkeypatch.chdir(where)
        with open("cv.json", "w") as fh:
            fh.write('{"experiments": [{"name": "cv", "train_source": "s/dataset.jsonl",'
                     ' "test_source": "cv:3"}]}')
        if tracer:
            layers.install(tracer, {})
        try:
            with redirect_stdout(io.StringIO()):
                assert [cli.main(argv) for argv in steps] == [0, 0, 0, 0]
        finally:
            if tracer:
                tracer.unpatch()
        out = {}
        for dirpath, _, files in os.walk("."):
            for name in files:
                text = open(os.path.join(dirpath, name), encoding="utf-8").read()
                out[os.path.join(dirpath, name)] = [ln for ln in text.splitlines()
                                                    if '"timestamp"' not in ln]
        return out

    tracer = tracing.Tracer()
    plain = run(tmp_path / "plain")
    traced = run(tmp_path / "traced", tracer)
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"synthgen.generate", "vectorizer.transform", "classifiers.train.svm",
            "evaluation.cross_validate", "corpus.kfold_split"} <= names
    assert layers.derive(tracer.spans, tracer.counts)["evaluation.fits_per_fold"] == 3.0
