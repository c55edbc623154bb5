"""The benchmark's workloads: the CLI steps of one pass and their output checks.

Every path in a step is relative to the pass directory, which is the
working directory of the pass process, so the artifacts of two passes
(manifests included) are byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

from gen import HATE, SUPPORT

# Accuracy floors, set below what the seed commit reaches on seeds 1-10
# (dump_pipeline held-out SVM 0.81-0.85, quickstart_zipf held-out LR 1.0,
# cv10 fold means 0.74-0.81) so that a numerics change that breaks the
# classifiers fails the run while ordinary seed-to-seed variation does not.
DUMP_ACCURACY_FLOOR = 0.75
QUICKSTART_ACCURACY_FLOOR = 0.95
CV_ACCURACY_FLOOR = {"nb": 0.65, "lr": 0.65, "svm": 0.65}


@dataclass(frozen=True)
class Step:
    argv: list
    out: str  # the step's output directory, compared across passes
    check: Callable[[str], list] | None = None  # (pass dir) -> error messages


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple | None  # (generator kind, sizes) or None
    main_report: str
    # (seed, input dir relative to the pass dir, generator counts)
    #   -> ([Step], {JSONL path read by the pass: its number of lines})
    steps: Callable


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _derived(seed: int, tag: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "big")


def _ingest_check(out: str, output: str, expected: dict) -> Callable:
    def check(pass_dir: str) -> list:
        with open(os.path.join(pass_dir, out, output), encoding="utf-8") as fh:
            kept = sum(1 for line in fh if line.strip())
        skipped = _read_json(os.path.join(pass_dir, out, "manifest.json"))["params"]["skipped"]
        if isinstance(skipped, dict):  # skip counts broken down by reason
            skipped = sum(skipped.values())
        got = {"kept": kept, "skipped": skipped}
        return [] if got == expected else [f"{out}: ingest counts {got}, generator recorded {expected}"]
    return check


def _accuracy_check(report: str, floor: float) -> Callable:
    def check(pass_dir: str) -> list:
        acc = _read_json(os.path.join(pass_dir, report))["metrics"]["accuracy"]
        return [] if acc >= floor else [f"{report}: held-out accuracy {acc:.4f} < floor {floor}"]
    return check


def _cv_check(report: str) -> Callable:
    def check(pass_dir: str) -> list:
        results = _read_json(os.path.join(pass_dir, report))["results"]
        errors = [f"{report}: kind {k!r} missing" for k in CV_ACCURACY_FLOOR if k not in results]
        for kind, res in results.items():
            acc = res["mean"]["accuracy"]
            if acc < CV_ACCURACY_FLOOR[kind]:
                errors.append(f"{report}: {kind} CV mean accuracy {acc:.4f} "
                              f"< floor {CV_ACCURACY_FLOOR[kind]}")
        return errors
    return check


def dump_steps(seed: int, inp: str, counts: dict) -> tuple:
    steps = []
    corpora = {}
    line_counts = {}
    for month in ("train", "heldout"):
        line_counts[f"{inp}/{month}.jsonl.gz"] = counts[month]["lines"]
        for side in (HATE, SUPPORT):
            out = f"ingest_{month}_{side}"
            corpora[month, side] = f"{out}/{side}.jsonl"
            line_counts[corpora[month, side]] = counts[month]["kept"][side]
            expected = {"kept": counts[month]["kept"][side], "skipped": counts[month]["malformed"]}
            steps.append(Step(["ingest", "--input", f"{inp}/{month}.jsonl.gz", "--community", side,
                               "--output", f"{side}.jsonl", "--output-dir", out],
                              out, _ingest_check(out, f"{side}.jsonl", expected)))
    pos, neg = corpora["train", HATE], corpora["train", SUPPORT]
    steps += [
        Step(["topics", "--pos", pos, "--neg", neg, "--k", "15", "--seed", str(seed),
              "--output-dir", "topics"], "topics"),
        Step(["keywords", "--method", "chi2_ii", "--hate", pos, "--contrast", neg,
              "--seed", str(seed), "--output-dir", "keywords"], "keywords"),
        Step(["train", "--pos", pos, "--neg", neg, "--algorithm", "svm", "--seed", str(seed),
              "--output-dir", "model"], "model"),
        Step(["evaluate", "--model", "model/model.json", "--vectorizer", "model/vectorizer.json",
              "--pos", corpora["heldout", HATE], "--neg", corpora["heldout", SUPPORT],
              "--seed", str(seed), "--output-dir", "eval"],
             "eval", _accuracy_check("eval/evaluation.json", DUMP_ACCURACY_FLOOR)),
    ]
    return steps, line_counts


def cv10_steps(seed: int, inp: str, counts: dict) -> tuple:
    # run_experiment resolves train_source against the config file's
    # directory, so the config sits next to the generated dataset.
    return [Step(["experiment", "--config", f"{inp}/cv10.json", "--output-dir", "reports"],
                 "reports", _cv_check("reports/cv10.json"))], {}


def quickstart_steps(seed: int, inp: str, counts: dict) -> tuple:
    synth = ["synth", "--n", "600", "--overlap", "0.3", "--vocab-core", "500",
             "--vocab-shared", "500", "--doc-len-min", "10", "--doc-len-max", "40", "--zipf"]
    return [
        Step(synth + ["--seed", str(_derived(seed, "train")), "--output-dir", "synth_train"],
             "synth_train"),
        Step(synth + ["--seed", str(_derived(seed, "heldout")), "--output-dir", "synth_heldout"],
             "synth_heldout"),
        Step(["train", "--dataset", "synth_train/dataset.jsonl", "--algorithm", "lr",
              "--seed", str(seed), "--output-dir", "model"], "model"),
        Step(["evaluate", "--model", "model/model.json", "--vectorizer", "model/vectorizer.json",
              "--dataset", "synth_heldout/dataset.jsonl", "--output-dir", "eval"],
             "eval", _accuracy_check("eval/evaluation.json", QUICKSTART_ACCURACY_FLOOR)),
    ], {}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dump_pipeline",
            "gzip Reddit dumps (16k+6k lines, dirty text) through 4x ingest, topics, keywords "
            "chi2_ii, train svm, evaluate: the only workload that ingests and preprocesses",
            ("dumps", {"train": 16000, "heldout": 6000}), "eval/evaluation.json", dump_steps),
        Workload(
            "cv10",
            "10-fold CV of nb, lr and svm on a 2x300-doc pre-tokenized dataset: 30 small "
            "vectorizer fits and 20 SGD fits, no ingest or preprocessing",
            ("dataset", {"per_side": 300}), "reports/cv10.json", cv10_steps),
        Workload(
            "quickstart_zipf",
            "README quickstart with --zipf: synth 2x600 docs twice (vocab 500+500), train lr, "
            "evaluate; synthgen dominates and the vocabulary is small",
            None, "eval/evaluation.json", quickstart_steps),
    )
}
