"""End-to-end output pins: one small pipeline driven through ``cli.main``.

Each entry is the sha256 of an artifact's bytes. JSON experiment reports
have their ``timestamp`` line removed first, the one field C10 allows to
vary. Pinned are the artifacts made of tokens, counts, terms and metrics,
``vectorizer.json`` among them: it holds only terms and integer counts.
``model.json`` is not, because its weights go through ``np.log`` (idf, and
NB's likelihoods), whose SIMD kernel can differ between CPUs (the SGD weights
are tied to ``TestSgdOracle`` instead). A change that moves a digest updates
it in the same change and says which output moved and why.
"""

import hashlib
import json
import re

import pytest

from commhate import cli

SYNTH = ["--n", "120", "--overlap", "0.9", "--vocab-core", "60", "--vocab-shared", "60",
         "--doc-len-min", "3", "--doc-len-max", "10", "--zipf"]

# Reddit-style bodies with URLs, stopwords, digits, punctuation, underscores,
# a deleted sentinel and non-ASCII text, so the tokens pin preprocessing.
DIRTY_BODIES = [
    "Check HTTP://x.com THE 123 cats!! and don't miss www.example.org/page",
    "snake_case words, Grüße aus MÜNCHEN; it's 2017 and we're here",
    "[deleted]",
    "visit example.com/path?q=1 or example.com for 4chan-style rants…",
    "I am not sure: is the ½ price ² real?  Totally_fake_NEWS",
    "Emoji 😀 stripped; Ünïcödé kept; tabs\tand\nnewlines split",
]

GOLDEN = {
    "train/dataset.jsonl": "e3a7fbad25c9b99f7cc506b640141844e58c44c357960fa4b6cbcf287004bae6",
    "prep/tokens.jsonl": "7cf0581b14ae03b199c50f639a45790fdfdee9959107b27fca3037e3f37ab91d",
    "topics/topics.json": "bc9a33c3f9cb9030a8595d6f73cebb352cb7de3fc9430b6c0476c9d99c933336",
    "topics/topics.txt": "36367c54e674dba46c12fbe9e22d5d0d7cdfce1e5bd7e5ad3b3df07c0af1a897",
    "kw_llda/keywords.json": "216610fd644841ac5b7e324de11e46a7ca7cdd23343e20dbe0dfe1e161700cc5",
    "kw_llda/keywords.txt": "873d1e1b9542197f55b733b011223267f85f10c8dbdefde1ea1d906f13275deb",
    "kw_chi2_ii/keywords.json": "b045c52ee54d0cb1b136faff3b2a6b25b1397388f5183164d6fa9eb098e1f6d8",
    "kw_chi2_ii/keywords.txt": "5bfb52b7fd3af09f807c4fb227a0aa0a1d9564a4c0c26916db423332f96640ba",
    "model_lr/vectorizer.json": "15f56adb499a9a5c879c6e0bf326fb558aafc0e5516fc6f0bdd29171e564401f",
    "eval_nb/evaluation.json": "b59769b6c2e73fe5aab5c11f896c1f281bc724e6417bdbc6166d6ebc17fecbff",
    "eval_lr/evaluation.json": "26e891e17dec852a80a63cd248bcea6ea0b63ae7a9a585aa449fd6c7907fda6c",
    "eval_svm/evaluation.json": "d201890f193dce1b9a099e36611adc349f86656efe5c0f9483bf2c8c1abca18f",
    "exp/cv5.json": "7e6d3428f63cd358876e986583664a120a0d9c0bc2fc153b205a4841655afd33",
    "exp/cv5.txt": "af18497408e7771bf10fcd906f65f700744674ba18769431fcf9b0e89c2d45c2",
    "exp/cv5.csv": "eca6335fd317a4123fbafeaa6a69cf6bdc9b6efbe83b4139ce5b739ede7fb997",
    "exp/imb5.json": "fbe4ff3801d33759c657bf6c31fb126fd16ef3556e33bc6c8e8eb672057e19b5",
    "exp/imb5.txt": "43567d5732aadd9b15d909d0e4cdcc7f6bef33ed7e15dd8bccf4aa30c8743448",
    "exp/imb5.csv": "6bef83ccdbe100096e00cc184ba6298a7898371af6e17e401bd83a17b5c657ad",
}


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


def _digest(path):
    data = path.read_bytes()
    if path.parent.name == "exp" and path.suffix == ".json":
        data, n = re.subn(rb'\n  "timestamp": "[^"\n]*",', b"", data)
        assert n == 1, path
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _run("synth", *SYNTH, "--seed", 11, "--output-dir", root / "train")
    _run("synth", *SYNTH, "--seed", 12, "--output-dir", root / "test")
    pos, neg = root / "train" / "pos.jsonl", root / "train" / "neg.jsonl"

    dirty = root / "dirty.jsonl"
    dirty.write_text("".join(
        json.dumps({"id": f"d{i}", "body": b, "subreddit": "mixed", "author": "u"},
                   ensure_ascii=False) + "\n"
        for i, b in enumerate(DIRTY_BODIES)), encoding="utf-8")
    _run("preprocess", "--input", dirty, "--output-dir", root / "prep")

    _run("topics", "--pos", pos, "--neg", neg, "--k", 40, "--seed", 3,
         "--output-dir", root / "topics")
    for method in ("llda", "chi2_ii"):
        _run("keywords", "--method", method, "--hate", pos, "--contrast", neg,
             "--k", 30, "--min-df", 2, "--seed", 3, "--output-dir", root / f"kw_{method}")

    for kind in ("nb", "lr", "svm"):
        _run("train", "--algorithm", kind, "--dataset", root / "train" / "dataset.jsonl",
             "--min-df", 2, "--seed", 5, "--output-dir", root / f"model_{kind}")
        _run("evaluate", "--model", root / f"model_{kind}" / "model.json",
             "--vectorizer", root / f"model_{kind}" / "vectorizer.json",
             "--dataset", root / "test" / "dataset.jsonl", "--output-dir", root / f"eval_{kind}")

    # The held-out set keeps 8 positives and every negative, so a 1:5
    # imbalance spec has negatives to draw from.
    rows = (root / "test" / "dataset.jsonl").read_text(encoding="utf-8").splitlines()
    positives = [r for r in rows if json.loads(r)["label"] == "positive"]
    kept = positives[:8] + [r for r in rows if json.loads(r)["label"] == "negative"]
    (root / "imbalanced.jsonl").write_text("\n".join(kept) + "\n", encoding="utf-8")
    config = root / "run.json"
    config.write_text(json.dumps({"experiments": [
        {"name": "cv5", "train_source": "train/dataset.jsonl", "test_source": "cv:5",
         "seed": 2},
        {"name": "imb5", "train_source": "train/dataset.jsonl",
         "test_source": "imbalanced.jsonl", "imbalance_ratio": 5, "seed": 4},
    ]}), encoding="utf-8")
    _run("experiment", "--config", config, "--output-dir", root / "exp")

    return {name: _digest(root / name) for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(digests, name):
    assert digests[name] == GOLDEN[name]
