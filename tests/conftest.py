"""Collects the release-gate criteria results and prints one PASS/FAIL line
per criterion in the terminal summary, where pytest's output capture cannot
swallow it; also provides the label-shuffling helper the chance-level
checks use and the finite-difference SGD reference the trainer is checked
against."""

import math
import random

import numpy as np
import pytest

from commhate.corpus import POSITIVE, LabeledDataset
from commhate.seeding import derive_seed

_RESULTS: dict[str, tuple[bool, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    cid, description = marker.args
    if report.when == "call":
        _RESULTS[cid] = (report.passed, description)
    elif report.failed:  # setup/teardown crash still counts as a failure
        _RESULTS[cid] = (False, description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_RESULTS, key=lambda c: int(c.lstrip("C"))):
        passed, description = _RESULTS[cid]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {cid} {verdict}: {description}")


@pytest.fixture()
def shuffle_labels():
    """Permute labels relative to documents; destroys any real signal while
    preserving both marginals."""

    def shuffle(dataset: LabeledDataset, seed: int = 0) -> LabeledDataset:
        idx = list(range(len(dataset)))
        random.Random(seed).shuffle(idx)
        return LabeledDataset(
            dataset.documents,
            tuple(dataset.labels[i] for i in idx),
            dataset.provenance,
        )

    return shuffle


def _instance_loss(algorithm: str, weights, bias: float, indices, values,
                   label: str, l2_lambda: float) -> float:
    """Per-instance regularized loss of one CSR row: log loss (``lr``) or
    hinge loss (``svm``) of the margin y(w.x + b), plus lambda/2 ||w||^2."""
    y = 1.0 if label == POSITIVE else -1.0
    m = y * (bias + float(np.dot(weights[indices], values)))
    if algorithm == "svm":
        loss = max(0.0, 1.0 - m)
    elif m > 0:
        loss = math.log1p(math.exp(-m))
    else:
        loss = -m + math.log1p(math.exp(m))
    return loss + 0.5 * l2_lambda * float(np.dot(weights, weights))


@pytest.fixture()
def sgd_epoch_reference():
    """One SGD epoch computed from finite differences, for checking
    ``classifiers.train_linear`` against."""
    return _sgd_epoch_reference


def _sgd_epoch_reference(batch, labels, cfg, h: float = 1e-6):
    """w <- w - eta_t grad_w f_i and b <- b - eta_t df_i/db for each row i in
    the trainer's shuffle order, with f_i = ``_instance_loss`` and each
    gradient taken by central finite differences with step h.

    Returns (weights, bias, near_kink); near_kink is True when some hinge
    margin y z lies within the largest change a step of h makes to z of the
    kink at 1, where the difference quotient is not the hinge's gradient.
    """
    algorithm = cfg.algorithm.value
    order = list(range(len(labels)))
    random.Random(derive_seed(cfg.seed, "sgd", algorithm)).shuffle(order)
    w, b, near_kink = np.zeros(batch.dim), 0.0, False
    for t, i in enumerate(order, start=1):
        eta = cfg.learning_rate / (1.0 + cfg.learning_rate * cfg.l2_lambda * t)
        idx = batch.indices[batch.indptr[i]:batch.indptr[i + 1]]
        val = batch.data[batch.indptr[i]:batch.indptr[i + 1]]

        def loss(wv, bv):
            return _instance_loss(algorithm, wv, bv, idx, val, labels[i], cfg.l2_lambda)

        if algorithm == "svm":
            y = 1.0 if labels[i] == POSITIVE else -1.0
            m = y * (b + float(np.dot(w[idx], val)))
            near_kink |= abs(m - 1.0) <= h * max(1.0, float(val.max(initial=0.0)))
        grad_w = np.empty(batch.dim)
        for j in range(batch.dim):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            grad_w[j] = (loss(wp, b) - loss(wm, b)) / (2 * h)
        grad_b = (loss(w, b + h) - loss(w, b - h)) / (2 * h)
        w, b = w - eta * grad_w, b - eta * grad_b
    return w, b, near_kink
