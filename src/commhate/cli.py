"""Command-line driver: ingest | preprocess | topics | keywords | train |
evaluate | experiment | synth.

Conventions shared by every subcommand:

* exit 0 on success, 1 on a bad flag or config value (found before any
  input is read), 2 on anything that fails while the command runs;
* flag > config file > built-in default, with unknown config keys rejected;
* one global --seed, stretched into per-stage seeds by hashing stage names,
  so any stage can be rerun in isolation and reproduce its output;
* every run drops a manifest.json (resolved parameters, input file hashes,
  seeds, schema versions) next to its artifacts. A subcommand only computes,
  takes each output path from _artifact and returns its params; main checks
  and hashes its inputs before it runs and writes the manifest after.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

from . import __version__, atomic, classifiers, corpus, evaluation, keywords, synthgen, textprep, topics, vectorizer
from .seeding import derive_seed


class UsageError(Exception):
    """A bad flag or config value: exit 1, raised before any input is read."""


# ---------------------------------------------------------------------------
# Settings: flag > config file > default
# ---------------------------------------------------------------------------

# One row per setting: config section (None at top level), config key, JSON
# type, the argparse dest the key stands in for, the default, taken from the
# library that uses it, and the flag with the subcommands that take it ("*"
# is every subcommand). "experiments" has no flag.
_SETTINGS = (
    (None, "seed", int, "seed", 0, "--seed", "*"),
    (None, "output_dir", str, "output_dir", ".", "--output-dir", "*"),
    (None, "min_df", int, "min_df", vectorizer.DEFAULT_MIN_DF, "--min-df", "train experiment"),
    (None, "stopwords_path", str, "stopwords", None, "--stopwords",
     "preprocess topics keywords train evaluate"),
    (None, "experiments", list, "experiments", (), None, ""),
    ("train", "l2_lambda", float, "l2_lambda", classifiers.TrainConfig.l2_lambda,
     "--l2-lambda", "train"),
    ("train", "epochs", int, "epochs", classifiers.TrainConfig.epochs, "--epochs", "train"),
    ("train", "learning_rate", float, "learning_rate", classifiers.TrainConfig.learning_rate,
     "--learning-rate", "train"),
    ("train", "nb_alpha", float, "nb_alpha", classifiers.TrainConfig.nb_alpha,
     "--nb-alpha", "train"),
    ("llda", "beta", float, "beta", topics.LldaConfig.beta, "--beta", "topics keywords"),
    ("keywords", "k", int, "keyword_k", keywords.DEFAULT_K, "--k", "keywords"),
    ("keywords", "min_df", int, "keyword_min_df", keywords.DEFAULT_MIN_DF, "--min-df",
     "keywords"),
)


def _is_file_name(name: str) -> bool:
    """True when ``name`` joined onto a directory names a file directly in it."""
    return name not in ("", ".", "..") and os.path.basename(name) == name


def load_run_config(path: str) -> dict:
    """The settings a config file sets, keyed by argparse dest, with the
    experiments parsed into specs. Keys and types are checked against
    ``_SETTINGS``; null means unset and is left out. A file that cannot be
    read raises OSError or ValueError, a bad value UsageError."""
    try:
        obj = atomic.read_json(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    types: dict = {}
    for section, key, typ, *_ in _SETTINGS:
        (types.setdefault(section, {}) if section else types)[key] = typ
    try:  # the file parsed, so every ValueError from here on is about its content
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        atomic.check_types(obj, types, "", "unknown config keys")
        values = {}
        for section, key, _typ, dest, *_ in _SETTINGS:
            value = ((obj.get(section) or {}) if section else obj).get(key)
            if value is not None:
                values[dest] = value
        experiments = values.get("experiments", [])
        if not all(isinstance(e, dict) for e in experiments):
            raise ValueError("each experiment must be a JSON object")
        values["experiments"] = [evaluation.experiment_from_dict(e) for e in experiments]
        names = [spec.name for spec in values["experiments"]]
        for i, name in enumerate(names):
            # Each spec writes <output_dir>/<name>.{json,txt,csv}.
            if not _is_file_name(name):
                raise ValueError(f"experiment {name!r}: name must be a plain file name")
            if name in names[:i]:
                raise ValueError(f"experiment {name!r}: name is used twice")
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return values


def _resolve(args, config: dict) -> None:
    """Give every setting the command line left unset its config value, or
    else its default, coerced to the setting's type. Then check them all,
    with the library's own checks where it has them: a bad value fails every
    command, before any input is read."""
    for _section, _key, typ, dest, default, *_ in _SETTINGS:
        value = getattr(args, dest, None)
        if value is None:
            value = config.get(dest, default)
        setattr(args, dest, None if value is None else typ(value))
    # topics --k (terms per side) has no config key; keywords' --k has one.
    for name, value in (("min_df", args.min_df), ("min_df", args.keyword_min_df),
                        ("k", args.keyword_k), ("k", getattr(args, "k", 1))):
        if value < 1:
            raise UsageError(f"{name} must be >= 1")
    # ingest and preprocess write <output_dir>/<output>.
    if hasattr(args, "output") and not _is_file_name(args.output):
        raise UsageError(f"--output {args.output!r}: name must be a plain file name")
    try:
        args.train_config = classifiers.TrainConfig(
            l2_lambda=args.l2_lambda, epochs=args.epochs,
            learning_rate=args.learning_rate, nb_alpha=args.nb_alpha)
        args.llda_config = topics.LldaConfig(beta=args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _inputs(args) -> dict:
    """The manifest's inputs: each input flag the subcommand reads (its
    ``reads``) that is set, with its sha256. Every file is checked and
    hashed before any is read, since an artifact may replace its own input.
    A prepared --dataset stands in for --pos, --neg and --stopwords, and
    experiment also reads each spec's datasets, as <name>.<field>."""
    reads = args.reads.split()
    if "dataset" in reads:
        if args.dataset:
            reads = [name for name in reads if name not in ("pos", "neg", "stopwords")]
        elif not (args.pos and args.neg):
            raise UsageError("provide either --dataset or both --pos and --neg")
    inputs = {name: getattr(args, name) for name in reads if getattr(args, name)}
    for path in inputs.values():
        if not os.path.isfile(path):
            raise FileNotFoundError(f"input file not found: {path}")
    if args.command == "experiment":
        for spec in args.experiments:
            base_dir = os.path.dirname(args.config)  # specs come from the config file
            for field, path in evaluation.dataset_paths(spec, base_dir).items():
                try:
                    atomic.open_read(path).close()
                except (ValueError, OSError) as exc:
                    raise ValueError(f"experiment {spec.name!r}: {exc}") from None
                inputs[f"{spec.name}.{field}"] = path
    return {"inputs": inputs,
            "input_hashes": {p: _sha256_file(p) for p in inputs.values()}}


def _write_manifest(output_dir: str, command: str, params: dict, hashed_inputs: dict,
                    artifacts: list[str]) -> None:
    manifest = {
        "version": 1,
        "tool": {"name": "commhate", "version": __version__},
        "command": command,
        "params": params,
        **hashed_inputs,
        "artifacts": sorted(artifacts),
        "schema_versions": {
            "vectorizer": vectorizer.SCHEMA_VERSION,
            "model": classifiers.MODEL_SCHEMA_VERSION,
            "keywords": keywords.KEYWORD_SCHEMA_VERSION,
            "report": evaluation.REPORT_SCHEMA_VERSION,
        },
    }
    atomic.write_json(os.path.join(output_dir, "manifest.json"), manifest, indent=2)


def _prep_config(args) -> textprep.PreprocessConfig:
    path = args.stopwords
    if path is None:
        return textprep.default_config()
    try:
        return textprep.PreprocessConfig(stopwords=textprep.load_stopwords(path))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: stopword list is not valid UTF-8: {exc}") from None


def _comments(args, path: str):
    """Stream one corpus side's comments, then note its skipped malformed lines."""
    skipped = []
    yield from corpus.iter_jsonl(path, platform=corpus.Platform(args.platform),
                                 on_skip=skipped.append)
    if skipped:
        print(f"note: skipped {len(skipped)} malformed line(s) in {path}", file=sys.stderr)


def _documents(args, path: str, prep) -> list[list[str]]:
    """One corpus side's token lists."""
    rows, _dropped = corpus.tokenize(_comments(args, path), prep)
    if not rows:
        raise ValueError(f"{path}: corpus is empty after preprocessing")
    return [tokens for _id, _community, tokens in rows]


def _artifact(args, name: str) -> str:
    """The path of artifact ``name`` in --output-dir, which it makes, listed
    for the run's manifest."""
    os.makedirs(args.output_dir, exist_ok=True)
    path = os.path.join(args.output_dir, name)
    args.artifacts.append(path)
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> dict:
    platform = corpus.Platform(args.platform)
    communities = set(args.community) if args.community else None
    out_path = _artifact(args, args.output)
    skipped = []
    n = corpus.write_jsonl(corpus.iter_jsonl(
        args.input, community_filter=communities, platform=platform,
        strict=args.strict, on_skip=skipped.append,
    ), out_path)
    print(f"ingested {n} comment(s) -> {out_path} ({len(skipped)} malformed skipped)")
    return {"platform": platform.value, "communities": sorted(communities or []),
            "strict": args.strict, "skipped": len(skipped), "kept": n}


def cmd_preprocess(args) -> dict:
    prep = _prep_config(args)
    out_path = _artifact(args, args.output)
    rows, dropped = corpus.tokenize(_comments(args, args.input), prep)
    atomic.write_jsonl(out_path, ({"id": cid, "community": community, "tokens": tokens}
                                  for cid, community, tokens in rows))
    print(f"preprocessed {len(rows)} comment(s) -> {out_path} ({dropped} dropped)")
    return {"kept": len(rows), "dropped": dropped, "stopwords": len(prep.stopwords)}


def cmd_topics(args) -> dict:
    prep = _prep_config(args)
    llda_cfg = dataclasses.replace(args.llda_config, seed=derive_seed(args.seed, "topics"))
    pos_docs = _documents(args, args.pos, prep)
    neg_docs = _documents(args, args.neg, prep)
    model = topics.fit_two_sides(pos_docs, neg_docs, llda_cfg)
    report = topics.topic_report(model, args.k, ranking=args.ranking)
    atomic.write_json(_artifact(args, "topics.json"), report, indent=2)
    table = topics.format_topic_table(report)
    atomic.write_text(_artifact(args, "topics.txt"), table)
    print(table, end="")
    return {"k": args.k, "ranking": args.ranking, "seed": args.seed,
            "llda": {"beta": llda_cfg.beta}}


def cmd_keywords(args) -> dict:
    prep = _prep_config(args)
    method = keywords.KeywordMethod(args.method)
    llda_cfg = dataclasses.replace(args.llda_config, seed=derive_seed(args.seed, "keywords"))
    ks = keywords.build_keyword_set(
        method, _documents(args, args.hate, prep), _documents(args, args.contrast, prep),
        k=args.keyword_k, target_group=args.target_group, min_df=args.keyword_min_df,
        llda_config=llda_cfg,
    )
    json_path = _artifact(args, "keywords.json")
    keywords.save_keyword_set(ks, json_path)
    atomic.write_text(_artifact(args, "keywords.txt"), keywords.format_keyword_list(ks))
    print(f"{ks.k} keyword(s) [{method.value}] -> {json_path}")
    return {"method": method.value, "k": args.keyword_k, "min_df": args.keyword_min_df,
            "target_group": args.target_group, "seed": args.seed}


def _assemble_dataset(args, seed: int):
    """Dataset from either a prepared file or a pos/neg corpus pair."""
    if args.dataset:
        return corpus.load_dataset(args.dataset), None
    prep = _prep_config(args)
    return corpus.build_balanced(_comments(args, args.pos), _comments(args, args.neg),
                                 seed=seed, config=prep)


def cmd_train(args) -> dict:
    ds, dropped = _assemble_dataset(args, derive_seed(args.seed, "train", "dataset"))
    train_cfg = dataclasses.replace(args.train_config, algorithm=args.algorithm,
                                    seed=derive_seed(args.seed, "train", "fit"))
    counts = vectorizer.count_terms(ds.documents)
    vec = vectorizer.fit_tfidf(counts, min_df=args.min_df)
    model = classifiers.train(evaluation.vectors_for(train_cfg.algorithm, vec, counts),
                              ds.labels, train_cfg)
    if dropped is not None:
        corpus.write_dataset(ds, _artifact(args, "dataset.jsonl"))
    vectorizer.save_tfidf(vec, _artifact(args, "vectorizer.json"))
    model_path = _artifact(args, "model.json")
    classifiers.save_model(model, model_path, vectorizer.model_fingerprint(vec))
    n_pos, n_neg = ds.counts()
    print(f"trained {train_cfg.algorithm.value} on {len(ds)} docs "
          f"({n_pos} pos / {n_neg} neg, vocab {vec.dim}) -> {model_path}")
    return {"algorithm": train_cfg.algorithm.value, "min_df": args.min_df, "seed": args.seed,
            "epochs": train_cfg.epochs, "l2_lambda": train_cfg.l2_lambda,
            "learning_rate": train_cfg.learning_rate, "nb_alpha": train_cfg.nb_alpha,
            "n_docs": len(ds), "dropped": dropped,
            "dataset_fingerprint": corpus.dataset_fingerprint(ds)}


def cmd_evaluate(args) -> dict:
    vec = vectorizer.load_tfidf(args.vectorizer)
    model, recorded_hash = classifiers.load_model(args.model)
    actual = vectorizer.model_fingerprint(vec)
    if recorded_hash and recorded_hash != actual:
        raise ValueError(
            f"model {args.model} was trained against a different vectorizer "
            f"(recorded {recorded_hash[:12]}, got {actual[:12]})"
        )
    if model.dim != vec.dim:
        raise ValueError(
            f"model {args.model} has {model.dim} weights but the vectorizer has "
            f"{vec.dim} terms"
        )
    ds, _ = _assemble_dataset(args, derive_seed(args.seed, "evaluate", "dataset"))
    kind = model.algorithm
    predicted = model.predict_all(evaluation.vectors_for(kind, vec, ds.documents))
    metrics = evaluation.compute_metrics(predicted, ds.labels)
    payload = {
        "version": evaluation.REPORT_SCHEMA_VERSION,
        "algorithm": kind.value,
        "metrics": dataclasses.asdict(metrics),
        "dataset_fingerprint": corpus.dataset_fingerprint(ds),
        "vectorizer_fingerprint": actual,
    }
    atomic.write_json(_artifact(args, "evaluation.json"), payload, indent=2)
    print(f"{kind.value}: acc {metrics.accuracy:.2f} prec {metrics.precision:.2f} "
          f"rec {metrics.recall:.2f} f1 {metrics.f1:.2f} kappa {metrics.kappa:.2f}")
    return {"algorithm": kind.value, "seed": args.seed, "n_docs": len(ds)}


def cmd_experiment(args) -> dict:
    if not args.experiments:
        raise UsageError(
            "no experiments defined; put an 'experiments' list in the config file"
        )
    base_dir = os.path.dirname(args.config)  # specs name datasets relative to it
    reports = []
    for spec in args.experiments:
        try:
            reports.append(evaluation.run_experiment(spec, base_dir=base_dir,
                                                     min_df=args.min_df))
        except (ValueError, OSError) as exc:
            raise ValueError(f"experiment {spec.name!r}: {exc}") from None
    # Every spec runs before any report is written, so a failure leaves none.
    for spec, report in zip(args.experiments, reports):
        evaluation.save_report(report, _artifact(args, spec.name + ".json"))
        table = evaluation.format_metrics_table(report)
        atomic.write_text(_artifact(args, spec.name + ".txt"), table)
        atomic.write_text(_artifact(args, spec.name + ".csv"), evaluation.report_to_csv(report))
        print(f"# {spec.name}")
        print(table, end="")
    return {"experiments": [s.name for s in args.experiments], "min_df": args.min_df}


def cmd_synth(args) -> dict:
    try:
        spec = synthgen.SynthSpec(
            n_docs=args.n, vocab_core=args.vocab_core, vocab_shared=args.vocab_shared,
            overlap_weight=args.overlap, doc_len_min=args.doc_len_min,
            doc_len_max=args.doc_len_max, seed=args.seed, zipf=args.zipf,
        )
    except ValueError as exc:
        raise UsageError(f"invalid synth parameters: {exc}") from None
    pos, neg, gt = synthgen.generate(spec)
    corpus.write_jsonl(pos, _artifact(args, "pos.jsonl"))
    corpus.write_jsonl(neg, _artifact(args, "neg.jsonl"))
    synthgen.write_ground_truth(gt, _artifact(args, "ground_truth.json"))
    ds, _ = corpus.build_balanced(pos, neg, seed=derive_seed(args.seed, "synth", "dataset"))
    corpus.write_dataset(ds, _artifact(args, "dataset.jsonl"))
    print(f"generated {len(pos)}+{len(neg)} comments -> {args.output_dir}")
    return {"n": args.n, "overlap": args.overlap, "vocab_core": args.vocab_core,
            "vocab_shared": args.vocab_shared, "doc_len": [args.doc_len_min, args.doc_len_max],
            "zipf": args.zipf, "seed": args.seed,
            "dataset_fingerprint": corpus.dataset_fingerprint(ds)}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data
    errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_platform(p: argparse.ArgumentParser) -> None:
    p.add_argument("--platform", default="reddit",
                   choices=[pl.value for pl in corpus.Platform],
                   help="field mapping for input JSONL (default reddit)")


def _add_dataset_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default=None, help="prepared dataset JSONL")
    p.add_argument("--pos", default=None, help="positive-side corpus JSONL")
    p.add_argument("--neg", default=None, help="negative-side corpus JSONL")
    _add_platform(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="commhate",
                     description="community-labeled hateful-speech pipeline")
    parser.add_argument("--version", action="version", version=f"commhate {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    # Each subcommand's reads: the flags naming the files it reads, which
    # main checks and hashes before the subcommand runs.
    p = sub.add_parser("ingest", help="filter a JSONL dump by community")
    p.set_defaults(reads="input")
    p.add_argument("--input", required=True, help="JSONL or JSONL.gz dump")
    p.add_argument("--community", action="append", default=None,
                   help="community to keep (repeatable; default: all)")
    p.add_argument("--output", default="filtered.jsonl",
                   help="output file name inside --output-dir")
    p.add_argument("--strict", action="store_true",
                   help="fail on malformed lines instead of skipping")
    _add_platform(p)

    p = sub.add_parser("preprocess", help="tokenize a corpus")
    p.set_defaults(reads="input stopwords")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="tokens.jsonl")
    _add_platform(p)

    p = sub.add_parser("topics", help="two-sided topic model and overlap")
    p.set_defaults(reads="pos neg stopwords")
    p.add_argument("--pos", required=True, help="community corpus JSONL")
    p.add_argument("--neg", required=True, help="background corpus JSONL")
    p.add_argument("--k", type=int, default=15, help="terms per side (default 15)")
    p.add_argument("--ranking", choices=["distinctiveness", "phi"],
                   default="distinctiveness")
    _add_platform(p)

    p = sub.add_parser("keywords", help="extract a keyword set")
    p.set_defaults(reads="hate contrast stopwords")
    p.add_argument("--method", required=True,
                   choices=[m.value for m in keywords.KeywordMethod])
    p.add_argument("--hate", required=True, help="hate corpus JSONL")
    p.add_argument("--contrast", required=True,
                   help="background (chi2_i) or support (chi2_ii) corpus JSONL")
    p.add_argument("--target-group", default="")
    _add_platform(p)

    p = sub.add_parser("train", help="train a classifier")
    p.set_defaults(reads="dataset pos neg stopwords")
    p.add_argument("--algorithm", default="lr",
                   choices=[a.value for a in classifiers.Algorithm])
    _add_dataset_source(p)

    p = sub.add_parser("evaluate", help="score a trained model on a dataset")
    p.set_defaults(reads="model vectorizer dataset pos neg stopwords")
    p.add_argument("--model", required=True)
    p.add_argument("--vectorizer", required=True)
    _add_dataset_source(p)

    p = sub.add_parser("experiment", help="run experiment specs from a config")
    p.set_defaults(reads="config")

    p = sub.add_parser("synth", help="generate a synthetic two-sided corpus")
    p.set_defaults(reads="")
    p.add_argument("--n", type=int, default=500, help="documents per side")
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--vocab-core", dest="vocab_core", type=int, default=50)
    p.add_argument("--vocab-shared", dest="vocab_shared", type=int, default=50)
    p.add_argument("--doc-len-min", dest="doc_len_min", type=int, default=5)
    p.add_argument("--doc-len-max", dest="doc_len_max", type=int, default=15)
    p.add_argument("--zipf", action="store_true",
                   help="draw terms within each block with P(rank r) proportional "
                   "to 1/(r+1)")

    for name, p in sub.choices.items():
        p.set_defaults(func=globals()[f"cmd_{name}"])
        p.add_argument("--config", help="JSON config file (flags take precedence)")
    for section, key, typ, dest, default, flag, commands in _SETTINGS:
        text = f"config key {section}.{key}" if section else f"config key {key}"
        if default is not None:
            text += f" (default {default})"
        for command in sub.choices if commands == "*" else commands.split():
            sub.choices[command].add_argument(flag, dest=dest, type=typ, default=None,
                                              metavar=flag[2:].upper().replace("-", "_"),
                                              help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("commhate: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        _resolve(args, load_run_config(args.config) if args.config else {})
        inputs = _inputs(args)
        args.artifacts = []
        params = args.func(args)
        _write_manifest(args.output_dir, args.command, params, inputs, args.artifacts)
    except UsageError as exc:
        print(f"commhate: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"commhate: data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
