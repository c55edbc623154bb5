"""Binary text classifiers: multinomial naive Bayes, logistic regression,
and a linear SVM, all scored through one linear model.

Naive Bayes is fit in closed form from Laplace-smoothed term masses; its
decision function is already linear in the term counts. The two
linear models share one SGD loop over sparse inputs with L2 regularization
applied through a lazily maintained global scale, so each update touches only
the nonzero coordinates of the current instance. The learning rate decays as

    eta_t = eta0 / (1 + eta0 * lambda * t)

which makes the accumulated shrink factor telescope to 1 / (1 + eta0*lambda*T)
after T updates; the scale can never collapse to zero in finite time.
Each step's dot product is summed left to right in Python floats, never by a
BLAS kernel, so the weights do not depend on which kernel the CPU selects.
Each epoch visits the rows in a fresh order that reproduces
``random.Random.shuffle`` draw for draw, so a seed gives the weights that
method would.

Labels are the dataset's "positive"/"negative" strings; scores are signed,
and a score of exactly zero predicts negative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import atomic
from .corpus import NEGATIVE, POSITIVE
from .seeding import derive_seed
from .vectorizer import CsrBatch

MODEL_SCHEMA_VERSION = 2


class Algorithm(str, Enum):
    NB = "nb"
    LR = "lr"
    SVM = "svm"


@dataclass(frozen=True)
class TrainConfig:
    algorithm: Algorithm = Algorithm.LR
    l2_lambda: float = 1e-4
    epochs: int = 20
    learning_rate: float = 0.1
    nb_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # All rates finite and strictly positive: the decay schedule divides
        # by 1 + eta0*lambda*t and NB smoothing must keep likelihoods finite.
        for name in ("learning_rate", "l2_lambda", "nb_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _signs(labels: Sequence[str]) -> np.ndarray:
    y = np.empty(len(labels))
    for i, label in enumerate(labels):
        if label == POSITIVE:
            y[i] = 1.0
        elif label == NEGATIVE:
            y[i] = -1.0
        else:
            raise ValueError(f"unknown label {label!r}")
    if len(labels) == 0 or abs(y.sum()) == len(labels):
        raise ValueError("training data must contain both classes")
    return y


# ---------------------------------------------------------------------------
# Linear model (the decision function of all three algorithms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Dense weight vector plus unregularized bias. All three algorithms
    score a document x as bias + weights . x; NB's weights and bias are its
    log-likelihood-ratio and log-prior-ratio."""

    weights: np.ndarray
    bias: float
    algorithm: Algorithm

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def dim(self) -> int:
        return self.weights.size

    def score_all(self, batch: CsrBatch) -> np.ndarray:
        if batch.dim != self.dim:
            raise ValueError("vector dimension does not match model")
        n = len(batch)
        terms = batch.data * self.weights[batch.indices]
        # bincount adds in input order, so listing each row's bias before its
        # terms gives every row the sum a left-to-right loop from the bias gives.
        return np.bincount(np.concatenate([np.arange(n), batch.row_ids()]),
                           weights=np.concatenate([np.full(n, self.bias), terms]), minlength=n)

    def predict_all(self, batch: CsrBatch) -> list[str]:
        return [POSITIVE if s > 0.0 else NEGATIVE for s in self.score_all(batch)]


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------


def train_nb(vectors: CsrBatch, labels: Sequence[str], config: TrainConfig) -> LinearModel:
    """Closed-form multinomial NB fit, returned as its linear decision function.

    The conditional term masses are whatever the vectors carry; the intended
    input is raw counts, under which this is textbook Laplace-smoothed NB.
    """
    y = _signs(labels)
    if len(vectors) != len(y):
        raise ValueError("vectors and labels must have equal length")
    dim, alpha, n = vectors.dim, config.nb_alpha, len(y)
    positive = y[vectors.row_ids()] > 0
    log_prior, log_cond = {}, {}
    for sign, mask in ((1.0, positive), (-1.0, ~positive)):
        mass = np.bincount(vectors.indices[mask], weights=vectors.data[mask], minlength=dim)
        log_prior[sign] = math.log(np.count_nonzero(y == sign) / n)
        log_cond[sign] = np.log(mass + alpha) - math.log(mass.sum() + alpha * dim)
    return LinearModel(
        weights=log_cond[1.0] - log_cond[-1.0],
        bias=log_prior[1.0] - log_prior[-1.0],
        algorithm=Algorithm.NB,
    )


# ---------------------------------------------------------------------------
# Linear models (logistic regression, linear SVM)
# ---------------------------------------------------------------------------


def _stable_sigmoid_neg(m: float) -> float:
    """sigma(-m) computed without overflow for any finite m."""
    if m >= 0:
        e = math.exp(-m)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(m))


def _shuffle(order: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``order`` in place with ``random.Random.shuffle``'s exact draws
    and swaps, ``getrandbits`` being that generator's bound method. Inlining
    its ``_randbelow`` saves one Python call per draw."""
    for i in range(len(order) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]


def train_linear(vectors: CsrBatch, labels: Sequence[str], config: TrainConfig) -> LinearModel:
    """SGD for logistic or hinge loss with lazily scaled L2 shrinkage.

    The weight vector is represented as scale * direction; regularization
    multiplies the scale, the data term updates only the instance's nonzero
    coordinates. After every epoch the parameters are checked for NaN/Inf so
    a diverging run fails loudly, naming the epoch.
    """
    if config.algorithm not in (Algorithm.LR, Algorithm.SVM):
        raise ValueError(f"train_linear got algorithm {config.algorithm.value!r}")
    y = _signs(labels)
    if len(vectors) != len(y):
        raise ValueError("vectors and labels must have equal length")
    # Each row is one flat list [j0, v0, j1, v1, ...] of Python objects,
    # walked by one iterator and next(): a step builds no iterator pair, and a
    # row costs one list header where separate index and value lists cost two.
    # Python objects because, per step, numpy call overhead on a ~15-term row
    # costs more than the arithmetic. Rows share one int object per
    # coordinate; ``values * 2`` allocates each row at its final length.
    bounds, indices, data = vectors.indptr.tolist(), vectors.indices, vectors.data
    coords = list(range(vectors.dim))
    rows = []
    for lo, hi in zip(bounds, bounds[1:]):
        values = data[lo:hi].tolist()
        row = values * 2
        row[::2] = [coords[j] for j in indices[lo:hi].tolist()]
        row[1::2] = values
        rows.append(row)
    y = y.tolist()

    def diverged(epoch: int) -> ValueError:
        return ValueError(f"{config.algorithm.value} training diverged: non-finite "
                          f"parameters after epoch {epoch + 1}")

    hinge = config.algorithm is Algorithm.SVM
    eta0, lam = config.learning_rate, config.l2_lambda
    direction = [0.0] * vectors.dim
    scale = 1.0
    bias = 0.0
    t = 0
    order = list(range(len(y)))
    rng = random.Random(derive_seed(config.seed, "sgd", config.algorithm.value))
    for epoch in range(config.epochs):
        _shuffle(order, rng.getrandbits)
        for i in order:
            t += 1
            eta = eta0 / (1.0 + eta0 * lam * t)
            row = rows[i]
            dot = 0.0
            it = iter(row)
            for j in it:
                dot += direction[j] * next(it)
            z = bias + scale * dot
            sign = y[i]
            if hinge:
                step = sign if sign * z < 1.0 else 0.0
            else:
                step = sign * _stable_sigmoid_neg(sign * z)
            scale *= 1.0 - eta * lam
            if step != 0.0:
                if row:
                    if scale == 0.0:
                        # Dividing by the underflowed scale makes the row's
                        # coordinates non-finite, which the epoch check reports.
                        raise diverged(epoch)
                    c = eta * step / scale
                    it = iter(row)
                    for j in it:
                        direction[j] += c * next(it)
                bias += eta * step
        if not (math.isfinite(scale) and math.isfinite(bias)
                and all(map(math.isfinite, direction))):
            raise diverged(epoch)
    return LinearModel(weights=scale * np.asarray(direction), bias=bias,
                       algorithm=config.algorithm)


# ---------------------------------------------------------------------------
# Dispatch and persistence
# ---------------------------------------------------------------------------


def train(vectors: CsrBatch, labels: Sequence[str], config: TrainConfig) -> LinearModel:
    """Train the configured classifier. Representation-agnostic: callers pass
    count vectors for NB and tf-idf vectors for the linear models."""
    if config.algorithm is Algorithm.NB:
        return train_nb(vectors, labels, config)
    return train_linear(vectors, labels, config)


def model_to_dict(model: LinearModel, vectorizer_hash: str = "") -> dict:
    return {
        "version": MODEL_SCHEMA_VERSION,
        "algorithm": model.algorithm.value,
        "vectorizer_hash": vectorizer_hash,
        "weights": model.weights.tolist(),
        "bias": model.bias,
    }


def model_from_dict(obj: dict) -> tuple[LinearModel, str]:
    """Returns (model, vectorizer_hash recorded at save time, "" if none
    was). A missing or ill-typed field raises ValueError naming it."""
    atomic.check_header(obj, "model", MODEL_SCHEMA_VERSION)
    algorithm, weights, bias, vectorizer_hash = atomic.fields(
        {"vectorizer_hash": "", **obj}, "model field ",
        (("algorithm", atomic.STRING), ("weights", atomic.NUMBERS), ("bias", atomic.NUMBER),
         ("vectorizer_hash", atomic.STRING)))
    try:
        algorithm = Algorithm(algorithm)
    except ValueError as exc:
        raise ValueError(f"model field 'algorithm': {exc}") from None
    return LinearModel(weights=weights, bias=float(bias), algorithm=algorithm), vectorizer_hash


def save_model(model: LinearModel, path: str, vectorizer_hash: str = "") -> None:
    atomic.write_json(path, model_to_dict(model, vectorizer_hash))


def load_model(path: str) -> tuple[LinearModel, str]:
    return atomic.read_record(path, model_from_dict)
