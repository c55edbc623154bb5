"""Command-line driver: ingest | preprocess | topics | keywords | train |
evaluate | experiment | synth.

Conventions shared by every subcommand:

* exit 0 on success, 1 on usage/config errors, 2 on data errors (missing or
  malformed files, insufficient samples);
* flag > config file > built-in default, with unknown config keys rejected;
* one global --seed, stretched into per-stage seeds by hashing stage names,
  so any stage can be rerun in isolation and reproduce its output;
* every run drops a manifest.json (resolved parameters, input file hashes,
  seeds, schema versions) next to its artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__, atomic, classifiers, corpus, evaluation, keywords, synthgen, textprep, topics, vectorizer
from .seeding import derive_seed


class DataError(Exception):
    """File-level problem: missing inputs, malformed records, short pools."""


# ---------------------------------------------------------------------------
# Settings: flag > config file > default
# ---------------------------------------------------------------------------

# One row per setting: config section (None at top level), config key, JSON
# type, the argparse dest the key stands in for, and the default, taken from
# the library that uses it. "experiments" has no flag.
_SETTINGS = (
    (None, "seed", int, "seed", 0),
    (None, "output_dir", str, "output_dir", "."),
    (None, "min_df", int, "min_df", vectorizer.DEFAULT_MIN_DF),
    (None, "stopwords_path", str, "stopwords", None),
    (None, "experiments", list, "experiments", ()),
    ("train", "l2_lambda", float, "l2_lambda", classifiers.TrainConfig.l2_lambda),
    ("train", "epochs", int, "epochs", classifiers.TrainConfig.epochs),
    ("train", "learning_rate", float, "learning_rate", classifiers.TrainConfig.learning_rate),
    ("train", "nb_alpha", float, "nb_alpha", classifiers.TrainConfig.nb_alpha),
    ("llda", "beta", float, "beta", topics.LldaConfig.beta),
    ("keywords", "k", int, "keyword_k", keywords.DEFAULT_K),
    ("keywords", "min_df", int, "keyword_min_df", keywords.DEFAULT_MIN_DF),
)


def load_run_config(path: str) -> dict:
    """The settings a config file sets, keyed by argparse dest, with the
    experiments parsed into specs. Keys and types are checked against
    ``_SETTINGS``; null means unset and is left out."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    types: dict = {}
    for section, key, typ, _dest, _default in _SETTINGS:
        (types.setdefault(section, {}) if section else types)[key] = typ
    unknown = set(obj) - set(types)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    evaluation.check_types(obj, types, f"{path}: ")
    for section, keys in types.items():
        if isinstance(keys, dict):
            bad = set(obj.get(section) or {}) - set(keys)
            if bad:
                raise ValueError(f"{path}: unknown keys in {section!r}: {sorted(bad)}")
            evaluation.check_types(obj.get(section) or {}, keys, f"{path}: {section!r} key ")
    values = {}
    for section, key, _typ, dest, _default in _SETTINGS:
        value = ((obj.get(section) or {}) if section else obj).get(key)
        if value is not None:
            values[dest] = value
    experiments = values.get("experiments", [])
    if not all(isinstance(e, dict) for e in experiments):
        raise ValueError(f"{path}: each experiment must be a JSON object")
    try:
        values["experiments"] = [evaluation.experiment_from_dict(e) for e in experiments]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return values


def _resolve(args, config: dict) -> None:
    """Give every setting the command line left unset its config value, or
    else its default, coerced to the setting's type."""
    for _section, _key, typ, dest, default in _SETTINGS:
        value = getattr(args, dest, None)
        if value is None:
            value = config.get(dest, default)
        setattr(args, dest, None if value is None else typ(value))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _require_files(*paths: str) -> None:
    for p in paths:
        if not os.path.isfile(p):
            raise DataError(f"input file not found: {p}")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_inputs(inputs: dict) -> dict:
    """The manifest's inputs with their sha256. Commands take this before
    writing any artifact, since an artifact may replace its own input."""
    return {"inputs": inputs,
            "input_hashes": {p: _sha256_file(p) for p in inputs.values() if p}}


def _write_manifest(out_dir: str, command: str, params: dict, hashed_inputs: dict,
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
    atomic.write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=2)


def _prep_config(args) -> textprep.PreprocessConfig:
    path = args.stopwords
    if path is None:
        return textprep.default_config()
    _require_files(path)
    try:
        return textprep.PreprocessConfig(stopwords=textprep.load_stopwords(path))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: stopword list is not valid UTF-8: {exc}") from None


def _load_corpus(path: str, platform: corpus.Platform, communities=None):
    _require_files(path)
    try:
        slice_, skipped = corpus.load_jsonl(
            path, community_filter=communities, platform=platform
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    if skipped:
        print(f"note: skipped {skipped} malformed line(s) in {path}", file=sys.stderr)
    return slice_


def _tokenize_corpus(slice_, prep) -> list[list[str]]:
    kept, _dropped = corpus._tokenized(slice_, prep)
    if not kept:
        raise DataError("corpus is empty after preprocessing")
    return [toks for _c, toks in kept]


def _out_dir(args) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def _source_inputs(args) -> dict:
    return {"dataset": args.dataset} if args.dataset else {"pos": args.pos, "neg": args.neg}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    _require_files(args.input)
    inputs = _hash_inputs({"input": args.input})
    platform = corpus.Platform(args.platform)
    communities = set(args.community) if args.community else None
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, args.output)
    skipped = []
    try:
        n = corpus.write_jsonl(corpus.iter_jsonl(
            args.input, community_filter=communities, platform=platform,
            strict=args.strict, on_skip=skipped.append,
        ), out_path)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    _write_manifest(
        out_dir, "ingest",
        {"platform": platform.value, "communities": sorted(communities or []),
         "strict": args.strict, "skipped": len(skipped), "kept": n},
        inputs, [out_path],
    )
    print(f"ingested {n} comment(s) -> {out_path} ({len(skipped)} malformed skipped)")
    return 0


def cmd_preprocess(args) -> int:
    _require_files(args.input)
    inputs = _hash_inputs({"input": args.input})
    prep = _prep_config(args)
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, args.output)
    slice_ = _load_corpus(args.input, corpus.Platform(args.platform))
    kept, dropped = corpus._tokenized(slice_, prep)
    atomic.write_jsonl(out_path, ({"id": c.id, "community": c.community, "tokens": toks}
                                  for c, toks in kept))
    _write_manifest(
        out_dir, "preprocess",
        {"kept": len(kept), "dropped": dropped, "stopwords": len(prep.stopwords)},
        inputs, [out_path],
    )
    print(f"preprocessed {len(kept)} comment(s) -> {out_path} ({dropped} dropped)")
    return 0


def cmd_topics(args) -> int:
    prep = _prep_config(args)
    llda_cfg = topics.LldaConfig(beta=args.beta, seed=derive_seed(args.seed, "topics"))
    pos = _load_corpus(args.pos, corpus.Platform(args.platform))
    neg = _load_corpus(args.neg, corpus.Platform(args.platform))
    inputs = _hash_inputs({"pos": args.pos, "neg": args.neg})
    pos_docs = _tokenize_corpus(pos, prep)
    neg_docs = _tokenize_corpus(neg, prep)
    try:
        model = topics.fit_two_sides(pos_docs, neg_docs, llda_cfg)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    report = topics.topic_report(model, args.k, ranking=args.ranking)
    out_dir = _out_dir(args)
    json_path = os.path.join(out_dir, "topics.json")
    txt_path = os.path.join(out_dir, "topics.txt")
    atomic.write_json(json_path, report, indent=2)
    table = topics.format_topic_table(report)
    atomic.write_text(txt_path, table)
    _write_manifest(
        out_dir, "topics",
        {"k": args.k, "ranking": args.ranking, "seed": args.seed,
         "llda": {"beta": llda_cfg.beta}},
        inputs, [json_path, txt_path],
    )
    print(table, end="")
    return 0


def cmd_keywords(args) -> int:
    prep = _prep_config(args)
    method = keywords.KeywordMethod(args.method)
    hate = _load_corpus(args.hate, corpus.Platform(args.platform))
    contrast = _load_corpus(args.contrast, corpus.Platform(args.platform))
    inputs = _hash_inputs({"hate": args.hate, "contrast": args.contrast})
    try:
        ks = keywords.build_keyword_set(
            method,
            _tokenize_corpus(hate, prep),
            _tokenize_corpus(contrast, prep),
            k=args.keyword_k, target_group=args.target_group, min_df=args.keyword_min_df,
            llda_config=topics.LldaConfig(beta=args.beta,
                                          seed=derive_seed(args.seed, "keywords")),
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = _out_dir(args)
    json_path = os.path.join(out_dir, "keywords.json")
    txt_path = os.path.join(out_dir, "keywords.txt")
    keywords.save_keyword_set(ks, json_path)
    atomic.write_text(txt_path, keywords.format_keyword_list(ks))
    _write_manifest(
        out_dir, "keywords",
        {"method": method.value, "k": args.keyword_k, "min_df": args.keyword_min_df,
         "target_group": args.target_group, "seed": args.seed},
        inputs, [json_path, txt_path],
    )
    print(f"{ks.k} keyword(s) [{method.value}] -> {json_path}")
    return 0


def _assemble_dataset(args, seed: int):
    """Dataset from either a prepared file or a pos/neg corpus pair."""
    if args.dataset:
        _require_files(args.dataset)
        try:
            return corpus.load_dataset(args.dataset), None
        except ValueError as exc:
            raise DataError(str(exc)) from None
    if not (args.pos and args.neg):
        raise ValueError("provide either --dataset or both --pos and --neg")
    prep = _prep_config(args)
    pos = _load_corpus(args.pos, corpus.Platform(args.platform))
    neg = _load_corpus(args.neg, corpus.Platform(args.platform))
    try:
        ds, dropped = corpus.build_balanced(pos, neg, seed=seed, config=prep)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    return ds, dropped


def cmd_train(args) -> int:
    ds, dropped = _assemble_dataset(args, derive_seed(args.seed, "train", "dataset"))
    inputs = _hash_inputs(_source_inputs(args))
    train_cfg = classifiers.TrainConfig(
        algorithm=args.algorithm, l2_lambda=args.l2_lambda, epochs=args.epochs,
        learning_rate=args.learning_rate, nb_alpha=args.nb_alpha,
        seed=derive_seed(args.seed, "train", "fit"),
    )
    try:
        vec = vectorizer.fit_tfidf(ds.documents, min_df=args.min_df)
        model = classifiers.train(
            evaluation.vectors_for(train_cfg.algorithm, vec, ds.documents),
            ds.labels, train_cfg,
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = _out_dir(args)
    artifacts = []
    if dropped is not None:
        ds_path = os.path.join(out_dir, "dataset.jsonl")
        corpus.write_dataset(ds, ds_path)
        artifacts.append(ds_path)
    vec_path = os.path.join(out_dir, "vectorizer.json")
    model_path = os.path.join(out_dir, "model.json")
    vectorizer.save_tfidf(vec, vec_path)
    classifiers.save_model(model, model_path, vectorizer.model_fingerprint(vec))
    artifacts += [vec_path, model_path]
    _write_manifest(
        out_dir, "train",
        {"algorithm": train_cfg.algorithm.value, "min_df": args.min_df, "seed": args.seed,
         "epochs": train_cfg.epochs, "l2_lambda": train_cfg.l2_lambda,
         "learning_rate": train_cfg.learning_rate, "nb_alpha": train_cfg.nb_alpha,
         "n_docs": len(ds), "dropped": dropped,
         "dataset_fingerprint": corpus.dataset_fingerprint(ds)},
        inputs, artifacts,
    )
    n_pos, n_neg = ds.counts()
    print(f"trained {train_cfg.algorithm.value} on {len(ds)} docs "
          f"({n_pos} pos / {n_neg} neg, vocab {vec.dim}) -> {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    _require_files(args.model, args.vectorizer)
    try:
        vec = vectorizer.load_tfidf(args.vectorizer)
        model, recorded_hash = classifiers.load_model(args.model)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    actual = vectorizer.model_fingerprint(vec)
    if recorded_hash and recorded_hash != actual:
        raise DataError(
            f"model {args.model} was trained against a different vectorizer "
            f"(recorded {recorded_hash[:12]}, got {actual[:12]})"
        )
    if model.dim != vec.dim:
        raise DataError(
            f"model {args.model} has {model.dim} weights but the vectorizer has "
            f"{vec.dim} terms"
        )
    ds, _ = _assemble_dataset(args, derive_seed(args.seed, "evaluate", "dataset"))
    inputs = _hash_inputs({"model": args.model, "vectorizer": args.vectorizer,
                           **_source_inputs(args)})
    kind = model.algorithm
    predicted = model.predict_all(evaluation.vectors_for(kind, vec, ds.documents))
    try:
        metrics = evaluation.compute_metrics(predicted, ds.labels)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = _out_dir(args)
    out_path = os.path.join(out_dir, "evaluation.json")
    payload = {
        "version": evaluation.REPORT_SCHEMA_VERSION,
        "algorithm": kind.value,
        "metrics": evaluation.metrics_to_dict(metrics),
        "dataset_fingerprint": corpus.dataset_fingerprint(ds),
        "vectorizer_fingerprint": actual,
    }
    atomic.write_json(out_path, payload, indent=2)
    _write_manifest(out_dir, "evaluate",
                    {"algorithm": kind.value, "seed": args.seed, "n_docs": len(ds)},
                    inputs, [out_path])
    print(f"{kind.value}: acc {metrics.accuracy:.2f} prec {metrics.precision:.2f} "
          f"rec {metrics.recall:.2f} f1 {metrics.f1:.2f} kappa {metrics.kappa:.2f}")
    return 0


def cmd_experiment(args) -> int:
    if not args.experiments:
        raise ValueError(
            "no experiments defined; put an 'experiments' list in the config file"
        )
    inputs = _hash_inputs({"config": args.config} if args.config else {})
    base_dir = os.path.dirname(os.path.abspath(args.config)) if args.config else "."
    out_dir = _out_dir(args)
    artifacts = []
    for spec in args.experiments:
        try:
            report = evaluation.run_experiment(spec, base_dir=base_dir, min_df=args.min_df)
        except (ValueError, FileNotFoundError) as exc:
            raise DataError(f"experiment {spec.name!r}: {exc}") from None
        stem = os.path.join(out_dir, spec.name)
        evaluation.save_report(report, stem + ".json")
        table = evaluation.format_metrics_table(report)
        atomic.write_text(stem + ".txt", table)
        atomic.write_text(stem + ".csv", evaluation.report_to_csv(report))
        artifacts += [stem + ".json", stem + ".txt", stem + ".csv"]
        print(f"# {spec.name}")
        print(table, end="")
    _write_manifest(
        out_dir, "experiment",
        {"experiments": [s.name for s in args.experiments], "min_df": args.min_df},
        inputs, artifacts,
    )
    return 0


def cmd_synth(args) -> int:
    try:
        spec = synthgen.SynthSpec(
            n_docs=args.n, vocab_core=args.vocab_core, vocab_shared=args.vocab_shared,
            overlap_weight=args.overlap, doc_len_min=args.doc_len_min,
            doc_len_max=args.doc_len_max, seed=args.seed, zipf=args.zipf,
        )
    except ValueError as exc:
        raise ValueError(f"invalid synth parameters: {exc}") from None
    pos, neg, gt = synthgen.generate(spec)
    out_dir = _out_dir(args)
    pos_path = os.path.join(out_dir, "pos.jsonl")
    neg_path = os.path.join(out_dir, "neg.jsonl")
    gt_path = os.path.join(out_dir, "ground_truth.json")
    ds_path = os.path.join(out_dir, "dataset.jsonl")
    corpus.write_jsonl(pos, pos_path)
    corpus.write_jsonl(neg, neg_path)
    synthgen.write_ground_truth(gt, gt_path)
    ds, _ = corpus.build_balanced(pos, neg, seed=derive_seed(args.seed, "synth", "dataset"))
    corpus.write_dataset(ds, ds_path)
    _write_manifest(
        out_dir, "synth",
        {"n": args.n, "overlap": args.overlap, "vocab_core": args.vocab_core,
         "vocab_shared": args.vocab_shared, "doc_len": [args.doc_len_min, args.doc_len_max],
         "zipf": args.zipf, "seed": args.seed,
         "dataset_fingerprint": corpus.dataset_fingerprint(ds)},
        _hash_inputs({}), [pos_path, neg_path, gt_path, ds_path],
    )
    print(f"generated {len(pos)}+{len(neg)} comments -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data
    errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--seed", type=int, default=None, help="global seed (default 0)")
    p.add_argument("--output-dir", default=None, help="artifact directory (default .)")


def _add_platform(p: argparse.ArgumentParser) -> None:
    p.add_argument("--platform", default="reddit",
                   choices=[pl.value for pl in corpus.Platform],
                   help="field mapping for input JSONL (default reddit)")


def _add_prep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stopwords", default=None,
                   help="stopword list file, one lowercase word per line")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l2-lambda", dest="l2_lambda", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--nb-alpha", dest="nb_alpha", type=float, default=None)


def _add_llda_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=None)


def _add_dataset_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default=None, help="prepared dataset JSONL")
    p.add_argument("--pos", default=None, help="positive-side corpus JSONL")
    p.add_argument("--neg", default=None, help="negative-side corpus JSONL")
    _add_platform(p)
    _add_prep_flags(p)


def build_parser() -> _Parser:
    parser = _Parser(prog="commhate",
                     description="community-labeled hateful-speech pipeline")
    parser.add_argument("--version", action="version", version=f"commhate {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("ingest", parents=[], help="filter a JSONL dump by community",
                       add_help=True)
    p.add_argument("--input", required=True, help="JSONL or JSONL.gz dump")
    p.add_argument("--community", action="append", default=None,
                   help="community to keep (repeatable; default: all)")
    p.add_argument("--output", default="filtered.jsonl",
                   help="output file name inside --output-dir")
    p.add_argument("--strict", action="store_true",
                   help="fail on malformed lines instead of skipping")
    _add_platform(p)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="tokenize a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="tokens.jsonl")
    _add_platform(p)
    _add_prep_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("topics", help="two-sided topic model and overlap")
    p.add_argument("--pos", required=True, help="community corpus JSONL")
    p.add_argument("--neg", required=True, help="background corpus JSONL")
    p.add_argument("--k", type=int, default=15, help="terms per side (default 15)")
    p.add_argument("--ranking", choices=["distinctiveness", "phi"],
                   default="distinctiveness")
    _add_platform(p)
    _add_prep_flags(p)
    _add_llda_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("keywords", help="extract a keyword set")
    p.add_argument("--method", required=True,
                   choices=[m.value for m in keywords.KeywordMethod])
    p.add_argument("--hate", required=True, help="hate corpus JSONL")
    p.add_argument("--contrast", required=True,
                   help="background (chi2_i) or support (chi2_ii) corpus JSONL")
    p.add_argument("--k", dest="keyword_k", metavar="K", type=int, default=None)
    p.add_argument("--min-df", dest="keyword_min_df", metavar="MIN_DF", type=int,
                   default=None)
    p.add_argument("--target-group", default="")
    _add_platform(p)
    _add_prep_flags(p)
    _add_llda_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_keywords)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--algorithm", default="lr",
                   choices=[a.value for a in classifiers.Algorithm])
    p.add_argument("--min-df", dest="min_df", type=int, default=None)
    _add_dataset_source(p)
    _add_train_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--vectorizer", required=True)
    _add_dataset_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run experiment specs from a config")
    p.add_argument("--min-df", dest="min_df", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic two-sided corpus")
    p.add_argument("--n", type=int, default=500, help="documents per side")
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--vocab-core", dest="vocab_core", type=int, default=50)
    p.add_argument("--vocab-shared", dest="vocab_shared", type=int, default=50)
    p.add_argument("--doc-len-min", dest="doc_len_min", type=int, default=5)
    p.add_argument("--doc-len-max", dest="doc_len_max", type=int, default=15)
    p.add_argument("--zipf", action="store_true",
                   help="draw terms within each block with P(rank r) proportional "
                   "to 1/(r+1)")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

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
        return args.func(args)
    except DataError as exc:
        print(f"commhate: data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"commhate: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"commhate: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
