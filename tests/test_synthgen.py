import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from commhate import cli
from commhate.seeding import derive_seed
from commhate.synthgen import (
    NEG_COMMUNITY,
    POS_COMMUNITY,
    SynthSpec,
    _sampler,
    _term_block,
    generate,
    write_ground_truth,
)
from commhate.textprep import PreprocessConfig, builtin_stopwords, preprocess


class TestSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert (spec.n_docs, spec.vocab_core, spec.vocab_shared) == (500, 50, 50)
        assert spec.overlap_weight == 0.0
        assert (spec.doc_len_min, spec.doc_len_max) == (5, 15)
        assert spec.zipf is False

    @pytest.mark.parametrize("kwargs", [
        {"n_docs": 0},
        {"vocab_core": 0},
        {"vocab_shared": 0},
        {"overlap_weight": -0.1},
        {"overlap_weight": 1.1},
        {"doc_len_min": 0},
        {"doc_len_min": 6, "doc_len_max": 5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)


class TestGenerate:
    def test_ground_truth_vocabularies(self):
        _, _, gt = generate(SynthSpec(n_docs=2, vocab_core=3, vocab_shared=2))
        assert gt["positive_terms"] == ["hata", "hatb", "hatc"]
        assert gt["negative_terms"] == ["supa", "supb", "supc"]
        assert gt["shared_terms"] == ["shra", "shrb"]
        assert gt["n_docs_per_side"] == 2 and gt["seed"] == 0

    def test_wide_blocks_use_two_letter_suffixes(self):
        _, _, gt = generate(SynthSpec(n_docs=1, vocab_core=30, vocab_shared=1))
        assert gt["positive_terms"][0] == "hataa"
        assert gt["positive_terms"][26] == "hatba"
        assert len(set(gt["positive_terms"])) == 30

    def test_metadata(self):
        pos, neg, _ = generate(SynthSpec(n_docs=3, vocab_core=4, vocab_shared=4))
        assert [c.id for c in pos.comments] == ["pos000000", "pos000001", "pos000002"]
        assert {c.community for c in pos.comments} == {POS_COMMUNITY}
        assert {c.community for c in neg.comments} == {NEG_COMMUNITY}
        assert all(c.author == "synthgen" for c in pos.comments)
        assert [c.created_at for c in neg.comments] == [0, 1, 2]

    def test_deterministic_and_seed_sensitive(self):
        spec = SynthSpec(n_docs=20, vocab_core=5, vocab_shared=5, overlap_weight=0.4)
        a_pos, a_neg, a_gt = generate(spec)
        b_pos, b_neg, b_gt = generate(spec)
        assert a_pos == b_pos and a_neg == b_neg and a_gt == b_gt
        c_pos, _, _ = generate(
            SynthSpec(n_docs=20, vocab_core=5, vocab_shared=5,
                      overlap_weight=0.4, seed=1)
        )
        assert [c.body for c in a_pos.comments] != [c.body for c in c_pos.comments]

    def test_core_terms_never_cross_sides(self):
        pos, neg, gt = generate(
            SynthSpec(n_docs=50, vocab_core=5, vocab_shared=5, overlap_weight=0.5)
        )
        neg_core = set(gt["negative_terms"])
        pos_core = set(gt["positive_terms"])
        for c in pos.comments:
            assert not neg_core & set(c.body.split())
        for c in neg.comments:
            assert not pos_core & set(c.body.split())

    def test_overlap_weight_extremes(self):
        pos0, _, _ = generate(SynthSpec(n_docs=30, vocab_core=4, vocab_shared=4))
        assert all("shr" not in c.body for c in pos0.comments)
        pos1, _, gt1 = generate(
            SynthSpec(n_docs=30, vocab_core=4, vocab_shared=4, overlap_weight=1.0)
        )
        shared = set(gt1["shared_terms"])
        for c in pos1.comments:
            assert set(c.body.split()) <= shared

    def test_document_lengths_in_range(self):
        pos, neg, _ = generate(
            SynthSpec(n_docs=40, vocab_core=3, vocab_shared=3,
                      doc_len_min=2, doc_len_max=7)
        )
        for c in list(pos.comments) + list(neg.comments):
            assert 2 <= len(c.body.split()) <= 7

    def test_zipf_skews_term_frequencies(self):
        pos, _, gt = generate(
            SynthSpec(n_docs=300, vocab_core=5, vocab_shared=1, zipf=True)
        )
        counts = Counter(t for c in pos.comments for t in c.body.split())
        first, last = gt["positive_terms"][0], gt["positive_terms"][-1]
        assert counts[first] > 2 * counts[last]

    def test_tokens_survive_preprocessing(self):
        pos, _, _ = generate(SynthSpec(n_docs=10, vocab_core=6, vocab_shared=6,
                                       overlap_weight=0.3))
        cfg = PreprocessConfig(stopwords=builtin_stopwords())
        for c in pos.comments:
            assert preprocess(c.body, cfg) == c.body.split()


def _oracle_pick(block, rng, zipf):
    """The original O(block) draw: rebuild the 1/(r+1) weights, then take the
    first term whose running sum exceeds x, else the last term."""
    if not zipf:
        return block[rng.randrange(len(block))]
    weights = [1.0 / (r + 1) for r in range(len(block))]
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for term, w in zip(block, weights):
        acc += w
        if x < acc:
            return term
    return block[-1]


def _oracle_bodies(spec, gt):
    """Comment bodies as the original generate loop drew them."""
    shared = tuple(gt["shared_terms"])
    sides = []
    for side_name, core in (("pos", tuple(gt["positive_terms"])),
                            ("neg", tuple(gt["negative_terms"]))):
        rng = random.Random(derive_seed(spec.seed, "synthgen", side_name))
        bodies = []
        for _ in range(spec.n_docs):
            length = rng.randint(spec.doc_len_min, spec.doc_len_max)
            tokens = []
            for _ in range(length):
                if rng.random() < spec.overlap_weight:
                    tokens.append(_oracle_pick(shared, rng, spec.zipf))
                else:
                    tokens.append(_oracle_pick(core, rng, spec.zipf))
            bodies.append(" ".join(tokens))
        sides.append(bodies)
    return sides


class _FixedRandom:
    """Stands in for random.Random: random() replays the given values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _alpha_suffix(i: int, width: int) -> str:
    """Base-26 alphabetic rendering of i, zero-padded with 'a' to width: the
    suffix rule term blocks were first built with."""
    digits = []
    while i:
        i, r = divmod(i, 26)
        digits.append(chr(ord("a") + r))
    s = "".join(reversed(digits)) or "a"
    return "a" * (width - len(s)) + s


class TestTermBlock:
    @pytest.mark.parametrize("count,width", [(1, 1), (26, 1), (27, 2), (676, 2), (677, 3),
                                             (2000, 3)])
    def test_suffixes_equal_base26_rendering(self, count, width):
        assert _term_block("hat", count) == tuple(
            "hat" + _alpha_suffix(i, width) for i in range(count))


class TestSamplerMatchesOracle:
    @pytest.mark.parametrize("block_size", [1, 2, 26, 27, 500, 2000])
    @pytest.mark.parametrize("overlap", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_zipf_bodies_equal_original_draws(self, block_size, overlap, seed):
        spec = SynthSpec(n_docs=25, vocab_core=block_size, vocab_shared=block_size,
                         overlap_weight=overlap, doc_len_min=1, doc_len_max=20,
                         seed=seed, zipf=True)
        pos, neg, gt = generate(spec)
        assert [[c.body for c in pos.comments],
                [c.body for c in neg.comments]] == _oracle_bodies(spec, gt)

    @pytest.mark.parametrize("block_size", [1, 27, 500])
    def test_uniform_bodies_equal_original_draws(self, block_size):
        spec = SynthSpec(n_docs=25, vocab_core=block_size, vocab_shared=3,
                         overlap_weight=0.3, doc_len_min=1, doc_len_max=20, seed=3)
        pos, neg, gt = generate(spec)
        assert [[c.body for c in pos.comments],
                [c.body for c in neg.comments]] == _oracle_bodies(spec, gt)

    @pytest.mark.parametrize("block_size", [1, 2, 27, 500])
    def test_draws_on_partial_sum_boundaries(self, block_size):
        # u chosen so that x = u * total lands on (or next to) each partial
        # sum, plus the ends of [0, 1] and past it, where the old loop fell
        # through to the last term.
        block = tuple(f"t{i}" for i in range(block_size))
        weights = [1.0 / (r + 1) for r in range(block_size)]
        total = sum(weights)
        us = [0.0, 5e-324, 1.0 - 2**-53, 1.0, 1.5]
        for acc in itertools.accumulate(weights):
            u = acc / total
            us += [u, max(u - 2**-53, 0.0), u + 2**-53]
        draw = _sampler(block, zipf=True)
        got = [draw(_FixedRandom([u])) for u in us]
        assert got == [_oracle_pick(block, _FixedRandom([u]), True) for u in us]


class TestGoldenCorpus:
    # Digests of `commhate synth` output before the sampler was rewritten;
    # any change to the draws, their order or the writers changes them.
    GOLDEN = {
        "pos.jsonl": "e047aa3cffdbb5d3e888ee61258eec466e7ca19d356c599fe5cea26125a08e8d",
        "neg.jsonl": "82ed2b89e4248bd7faacf47be204d73754fdc542e03e205fffba1913e9312b41",
        "dataset.jsonl": "098cae728e898ad42e8cef3c55371c0f82a7badda4427c113d56edab4c1efb4c",
        "ground_truth.json": "0dfc761586d7c6b5c608e8c8a8a4204ce7aa34660332cc2d2fbce683cb490e24",
    }

    def test_zipf_quickstart_corpus_is_byte_identical(self, tmp_path, capsys):
        code = cli.main(["synth", "--n", "600", "--overlap", "0.3",
                         "--vocab-core", "500", "--vocab-shared", "500",
                         "--doc-len-min", "10", "--doc-len-max", "40", "--zipf",
                         "--seed", "7", "--output-dir", str(tmp_path)])
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN}
        assert digests == self.GOLDEN


class TestGroundTruthFile:
    def test_write_round_trip(self, tmp_path):
        _, _, gt = generate(SynthSpec(n_docs=2, vocab_core=2, vocab_shared=2))
        p = tmp_path / "gt.json"
        write_ground_truth(gt, str(p))
        assert json.loads(p.read_text(encoding="utf-8")) == gt
