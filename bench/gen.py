"""Seeded input generator for the benchmark workloads.

Independent of ``commhate``: the program under test only ever sees the
files written here. Two kinds of input are produced:

* Reddit-schema monthly dumps (gzip JSONL) with ~200 background
  communities plus one hate and one support community, dirty text and a
  known number of malformed lines;
* a pre-tokenized two-class dataset in the program's dataset format, for
  cross-validation.

One fixed vocabulary (seeded by ``VOCAB_SEED``, not by the workload seed)
is shared by every month and every workload seed; only the documents are
drawn from the workload seed. A per-dump vocabulary would leave a held-out
month sharing no words with the training month.

The hate and support sides share a block of topical terms and leak a little
of each other's vocabulary, so held-out accuracy sits clearly below 1.0 and
hinge-loss SGD keeps meeting margin violations.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import itertools
import json
import os
import random
import shutil

GEN_VERSION = 1
VOCAB_SEED = 20170928

HATE = "hategroup"
SUPPORT = "supportgroup"
N_BACKGROUND = 200

N_GENERAL = 20000
N_SIDE_TOPIC = 300
N_SHARED_TOPIC = 200

# Planted stopwords: all are on any English stopword list.
STOPWORDS = (
    "the", "a", "and", "is", "to", "of", "it", "that", "you", "i", "in",
    "this", "for", "but", "with", "not", "was", "are", "be", "have", "they",
    "on", "just", "so", "if", "or", "what", "about", "don't", "it's",
)
PUNCT = (",", ".", "!", "?", "!!", "...", ":)", ";", " -", "…")
AUTOMOD_BODY = (
    "Your comment has been removed because it links to a banned domain. "
    "Please see rule 3 in the sidebar. *I am a bot, and this action was "
    "performed automatically.*"
)

# Block mixture per side: (general, hate topic, support topic, shared topic).
MIX = {
    HATE: (0.76, 0.12, 0.02, 0.10),
    SUPPORT: (0.76, 0.02, 0.12, 0.10),
    "background": (0.97, 0.01, 0.01, 0.01),
}
SIDE_SHARE = 0.10  # of the lines in a month, for each of hate and support
MALFORMED_SHARE = 0.001
DELETED_SHARE = 0.02
AUTOMOD_SHARE = 0.01
DOC_LEN = (4, 40)  # content tokens per comment, before stopwords and noise


def _pseudo_words(n: int, rng: random.Random) -> list[str]:
    consonants, vowels = "bcdfghjklmnprstvwz", "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    syllables += [s + c for s in syllables[:40] for c in "nrs"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        w = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


class Vocabulary:
    """The fixed word blocks with cumulative Zipf weights (P(rank r) ~ 1/(r+1))."""

    def __init__(self) -> None:
        words = _pseudo_words(N_GENERAL + 2 * N_SIDE_TOPIC + N_SHARED_TOPIC,
                              random.Random(VOCAB_SEED))
        cuts = list(itertools.accumulate((N_GENERAL, N_SIDE_TOPIC, N_SIDE_TOPIC)))
        self.blocks = (words[:cuts[0]], words[cuts[0]:cuts[1]],
                       words[cuts[1]:cuts[2]], words[cuts[2]:])
        self.cum = tuple(
            list(itertools.accumulate(1.0 / (r + 1) for r in range(len(b))))
            for b in self.blocks
        )

    def draw(self, rng: random.Random, side: str, length: int) -> list[str]:
        """Content tokens of one comment: a Zipf draw from each block in the
        side's mixture, shuffled together."""
        per_block = rng.choices(range(4), weights=MIX[side], k=length)
        tokens: list[str] = []
        for b in range(4):
            k = per_block.count(b)
            if k:
                tokens += rng.choices(self.blocks[b], cum_weights=self.cum[b], k=k)
        rng.shuffle(tokens)
        return tokens


def render(tokens: list[str], rng: random.Random) -> str:
    """Dirty surface text for clean content tokens: stopwords, mixed case,
    punctuation, digits and the odd URL."""
    out: list[str] = []
    for tok in tokens:
        if rng.random() < 0.3:
            out.append(rng.choice(STOPWORDS))
        r = rng.random()
        if r < 0.05:
            tok = tok.upper()
        elif r < 0.15:
            tok = tok.capitalize()
        if rng.random() < 0.1:
            tok += rng.choice(PUNCT)
        out.append(tok)
        if rng.random() < 0.03:
            out.append(str(rng.randint(0, 2020)))
    if rng.random() < 0.05:
        out.insert(rng.randrange(len(out) + 1),
                   f"https://www.example.com/r/{rng.choice(tokens)}/{rng.randint(1, 99999)}")
    if out:
        out[0] = out[0].capitalize()
    return " ".join(out)


def _malformed(rng: random.Random, record: dict) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        line = json.dumps(record, ensure_ascii=False)
        return line[: rng.randint(1, len(line) - 1)]  # truncated JSON
    if kind == 1:
        return json.dumps({k: v for k, v in record.items() if k != "body"})
    if kind == 2:
        return json.dumps(dict(record, id=""))
    if kind == 3:
        return json.dumps([record["id"], record["body"]])
    return "null"


def month_dump(vocab: Vocabulary, seed: int, month: str, n_lines: int) -> tuple[bytes, dict]:
    """One month of comments as gzip JSONL bytes, plus the counts an ingest
    must reproduce: per-community kept lines and the file's malformed lines."""
    rng = random.Random(f"commhate-bench:{GEN_VERSION}:{seed}:{month}")
    communities = [f"bg{i:03d}" for i in range(N_BACKGROUND)]
    counts = {"lines": n_lines, "malformed": 0,
              "kept": {HATE: 0, SUPPORT: 0}, "deleted": {HATE: 0, SUPPORT: 0},
              "automod": {HATE: 0, SUPPORT: 0}}
    t0 = 1483228800 if month == "train" else 1485907200
    lines = []
    for i in range(n_lines):
        r = rng.random()
        side = HATE if r < SIDE_SHARE else SUPPORT if r < 2 * SIDE_SHARE else "background"
        community = side if side != "background" else communities[rng.randrange(N_BACKGROUND)]
        author = f"user{rng.randrange(5000)}"
        u = rng.random()
        if u < DELETED_SHARE:
            body, author, what = rng.choice(("[deleted]", "[removed]")), "[deleted]", "deleted"
        elif u < DELETED_SHARE + AUTOMOD_SHARE:
            body, author, what = AUTOMOD_BODY, "AutoModerator", "automod"
        else:
            body, what = render(vocab.draw(rng, side, rng.randint(*DOC_LEN)), rng), None
        created = t0 + i * 60 + rng.randrange(60)
        record = {
            "author": author, "body": body, "controversiality": 0,
            "created_utc": str(created) if rng.random() < 0.1 else created,
            "distinguished": None, "edited": False, "gilded": 0,
            "id": f"{month[0]}{seed:x}x{i:07d}", "link_id": f"t3_{rng.randrange(36**5):x}",
            "parent_id": f"t1_{rng.randrange(36**6):x}", "score": rng.randint(-20, 500),
            "stickied": False, "subreddit": community,
            "subreddit_id": f"t5_{community}",
        }
        if rng.random() < MALFORMED_SHARE:
            lines.append(_malformed(rng, record))
            counts["malformed"] += 1
            continue
        lines.append(json.dumps(record, ensure_ascii=False))
        if side != "background":
            counts["kept"][side] += 1
            if what:
                counts[what][side] += 1
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    buf = io.BytesIO()
    # Fixed mtime and no file name keep the gzip header byte-identical.
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0, compresslevel=6) as gz:
        gz.write(raw)
    return buf.getvalue(), counts


def token_dataset(vocab: Vocabulary, seed: int, n_per_side: int) -> bytes:
    """A pre-tokenized balanced dataset in the program's dataset JSONL format."""
    rng = random.Random(f"commhate-bench:{GEN_VERSION}:{seed}:dataset")
    rows = []
    for side, label in ((HATE, "positive"), (SUPPORT, "negative")):
        for i in range(n_per_side):
            tokens = vocab.draw(rng, side, rng.randint(*DOC_LEN))
            rows.append(json.dumps({"tokens": tokens, "label": label,
                                    "id": f"{side[0]}{i:06d}", "community": side}))
    return ("\n".join(rows) + "\n").encode("utf-8")


def build(kind: str, seed: int, sizes: dict, out_dir: str) -> None:
    """Write one workload's input files and ``counts.json`` into out_dir."""
    vocab = Vocabulary()
    os.makedirs(out_dir)
    counts: dict = {"kind": kind, "seed": seed, "sizes": sizes, "version": GEN_VERSION}
    if kind == "dumps":
        for month in ("train", "heldout"):
            blob, c = month_dump(vocab, seed, month, sizes[month])
            with open(os.path.join(out_dir, f"{month}.jsonl.gz"), "wb") as fh:
                fh.write(blob)
            counts[month] = c
    elif kind == "dataset":
        with open(os.path.join(out_dir, "dataset.jsonl"), "wb") as fh:
            fh.write(token_dataset(vocab, seed, sizes["per_side"]))
        experiment = {"name": "cv10", "train_source": "dataset.jsonl", "test_source": "cv:10"}
        with open(os.path.join(out_dir, "cv10.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "experiments": [experiment]}, fh, sort_keys=True)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    with open(os.path.join(out_dir, "counts.json"), "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True, indent=1)


def cached(cache_root: str, kind: str, seed: int, sizes: dict) -> tuple[str, dict]:
    """Directory holding the inputs for (kind, seed, sizes, GEN_VERSION),
    generating them on first use; returns (directory, recorded counts)."""
    key = hashlib.sha256(json.dumps([kind, seed, sizes, GEN_VERSION],
                                    sort_keys=True).encode()).hexdigest()[:16]
    final = os.path.join(cache_root, f"{kind}-v{GEN_VERSION}-s{seed}-{key}")
    if not os.path.isdir(final):
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(kind, seed, sizes, tmp)
        os.replace(tmp, final)
    with open(os.path.join(final, "counts.json"), encoding="utf-8") as fh:
        return final, json.load(fh)
