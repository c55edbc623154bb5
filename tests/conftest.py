"""Collects the release-gate criteria results and prints one PASS/FAIL line
per criterion in the terminal summary, where pytest's output capture cannot
swallow it; also provides the label-shuffling helper the chance-level
checks use."""

import random

import pytest

from commhate.corpus import LabeledDataset

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
            dataset.seed,
        )

    return shuffle
