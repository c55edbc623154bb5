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
from dataclasses import dataclass, field

from . import __version__, atomic, classifiers, corpus, evaluation, keywords, synthgen, textprep, topics, vectorizer
from .seeding import derive_seed


class DataError(Exception):
    """File-level problem: missing inputs, malformed records, short pools."""


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

# Every config key with the JSON type of its value; a dict is a section.
_CONFIG_TYPES = {
    "seed": int, "output_dir": str, "min_df": int, "stopwords_path": str,
    "train": {"l2_lambda": float, "epochs": int, "learning_rate": float, "nb_alpha": float},
    "llda": {"beta": float},
    "keywords": {"k": int, "min_df": int},
    "experiments": list,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int | None = None
    output_dir: str | None = None
    min_df: int | None = None
    stopwords_path: str | None = None
    train: dict = field(default_factory=dict)
    llda: dict = field(default_factory=dict)
    keywords: dict = field(default_factory=dict)
    experiments: tuple[evaluation.ExperimentSpec, ...] = ()


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(obj) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    evaluation.check_types(obj, _CONFIG_TYPES, f"{path}: ")
    for section, types in _CONFIG_TYPES.items():
        if isinstance(types, dict):
            bad = set(obj.get(section) or {}) - set(types)
            if bad:
                raise ValueError(f"{path}: unknown keys in {section!r}: {sorted(bad)}")
            evaluation.check_types(obj.get(section) or {}, types, f"{path}: {section!r} key ")
    experiments = obj.get("experiments") or []
    if not all(isinstance(e, dict) for e in experiments):
        raise ValueError(f"{path}: each experiment must be a JSON object")
    try:
        specs = tuple(evaluation.experiment_from_dict(e) for e in experiments)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return RunConfig(
        seed=obj.get("seed"),
        output_dir=obj.get("output_dir"),
        min_df=obj.get("min_df"),
        stopwords_path=obj.get("stopwords_path"),
        train=dict(obj.get("train") or {}),
        llda=dict(obj.get("llda") or {}),
        keywords=dict(obj.get("keywords") or {}),
        experiments=specs,
    )


def _pick(flag_value, config_value, default):
    if flag_value is not None:
        return flag_value
    if config_value is not None:
        return config_value
    return default


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


def _write_manifest(out_dir: str, command: str, params: dict, inputs: dict,
                    artifacts: list[str]) -> None:
    manifest = {
        "version": 1,
        "tool": {"name": "commhate", "version": __version__},
        "command": command,
        "params": params,
        "input_hashes": {p: _sha256_file(p) for p in inputs.values() if p},
        "inputs": inputs,
        "artifacts": sorted(artifacts),
        "schema_versions": {
            "vectorizer": vectorizer.SCHEMA_VERSION,
            "model": classifiers.MODEL_SCHEMA_VERSION,
            "keywords": keywords.KEYWORD_SCHEMA_VERSION,
            "report": evaluation.REPORT_SCHEMA_VERSION,
        },
    }
    atomic.write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=2)


def _prep_config(args, cfg: RunConfig) -> textprep.PreprocessConfig:
    path = _pick(getattr(args, "stopwords", None), cfg.stopwords_path, None)
    if path is None:
        return textprep.default_config()
    _require_files(path)
    return textprep.PreprocessConfig(stopwords=textprep.load_stopwords(path))


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


def _out_dir(args, cfg: RunConfig) -> str:
    out = _pick(getattr(args, "output_dir", None), cfg.output_dir, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _seed(args, cfg: RunConfig) -> int:
    return _pick(getattr(args, "seed", None), cfg.seed, 0)


def _train_config(args, cfg: RunConfig, algorithm: str, seed: int) -> classifiers.TrainConfig:
    t = cfg.train
    return classifiers.TrainConfig(
        algorithm=classifiers.Algorithm(algorithm),
        l2_lambda=float(_pick(getattr(args, "l2_lambda", None), t.get("l2_lambda"), 1e-4)),
        epochs=_pick(getattr(args, "epochs", None), t.get("epochs"), 20),
        learning_rate=float(
            _pick(getattr(args, "learning_rate", None), t.get("learning_rate"), 0.1)
        ),
        nb_alpha=float(_pick(getattr(args, "nb_alpha", None), t.get("nb_alpha"), 1.0)),
        seed=seed,
    )


def _llda_config(args, cfg: RunConfig, seed: int) -> topics.LldaConfig:
    beta = _pick(getattr(args, "beta", None), cfg.llda.get("beta"), 0.1)
    return topics.LldaConfig(beta=float(beta), seed=seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: RunConfig) -> int:
    _require_files(args.input)
    platform = corpus.Platform(args.platform)
    communities = set(args.community) if args.community else None
    out_dir = _out_dir(args, cfg)
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
        {"input": args.input}, [out_path],
    )
    print(f"ingested {n} comment(s) -> {out_path} ({len(skipped)} malformed skipped)")
    return 0


def cmd_preprocess(args, cfg: RunConfig) -> int:
    _require_files(args.input)
    prep = _prep_config(args, cfg)
    out_dir = _out_dir(args, cfg)
    out_path = os.path.join(out_dir, args.output)
    slice_ = _load_corpus(args.input, corpus.Platform(args.platform))
    kept, dropped = corpus._tokenized(slice_, prep)
    atomic.write_jsonl(out_path, ({"id": c.id, "community": c.community, "tokens": toks}
                                  for c, toks in kept))
    _write_manifest(
        out_dir, "preprocess",
        {"kept": len(kept), "dropped": dropped, "stopwords": len(prep.stopwords)},
        {"input": args.input}, [out_path],
    )
    print(f"preprocessed {len(kept)} comment(s) -> {out_path} ({dropped} dropped)")
    return 0


def cmd_topics(args, cfg: RunConfig) -> int:
    prep = _prep_config(args, cfg)
    seed = _seed(args, cfg)
    llda_cfg = _llda_config(args, cfg, derive_seed(seed, "topics"))
    pos = _load_corpus(args.pos, corpus.Platform(args.platform))
    neg = _load_corpus(args.neg, corpus.Platform(args.platform))
    pos_docs = _tokenize_corpus(pos, prep)
    neg_docs = _tokenize_corpus(neg, prep)
    try:
        model = topics.fit_two_sides(pos_docs, neg_docs, llda_cfg)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    report = topics.topic_report(model, args.k, ranking=args.ranking)
    out_dir = _out_dir(args, cfg)
    json_path = os.path.join(out_dir, "topics.json")
    txt_path = os.path.join(out_dir, "topics.txt")
    atomic.write_json(json_path, report, indent=2)
    table = topics.format_topic_table(report)
    atomic.write_text(txt_path, table)
    _write_manifest(
        out_dir, "topics",
        {"k": args.k, "ranking": args.ranking, "seed": seed,
         "llda": {"beta": llda_cfg.beta}},
        {"pos": args.pos, "neg": args.neg}, [json_path, txt_path],
    )
    print(table, end="")
    return 0


def cmd_keywords(args, cfg: RunConfig) -> int:
    prep = _prep_config(args, cfg)
    seed = _seed(args, cfg)
    method = keywords.KeywordMethod(args.method)
    hate = _load_corpus(args.hate, corpus.Platform(args.platform))
    contrast = _load_corpus(args.contrast, corpus.Platform(args.platform))
    k = _pick(args.k, cfg.keywords.get("k"), keywords.DEFAULT_K)
    min_df = _pick(args.min_df, cfg.keywords.get("min_df"), keywords.DEFAULT_MIN_DF)
    try:
        ks = keywords.build_keyword_set(
            method,
            _tokenize_corpus(hate, prep),
            _tokenize_corpus(contrast, prep),
            k=k, target_group=args.target_group, min_df=min_df,
            llda_config=_llda_config(args, cfg, derive_seed(seed, "keywords")),
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = _out_dir(args, cfg)
    json_path = os.path.join(out_dir, "keywords.json")
    txt_path = os.path.join(out_dir, "keywords.txt")
    keywords.save_keyword_set(ks, json_path)
    atomic.write_text(txt_path, keywords.format_keyword_list(ks))
    _write_manifest(
        out_dir, "keywords",
        {"method": method.value, "k": k, "min_df": min_df,
         "target_group": args.target_group, "seed": seed},
        {"hate": args.hate, "contrast": args.contrast}, [json_path, txt_path],
    )
    print(f"{ks.k} keyword(s) [{method.value}] -> {json_path}")
    return 0


def _assemble_dataset(args, cfg: RunConfig, seed: int):
    """Dataset from either a prepared file or a pos/neg corpus pair."""
    if args.dataset:
        _require_files(args.dataset)
        try:
            return corpus.load_dataset(args.dataset), None
        except ValueError as exc:
            raise DataError(str(exc)) from None
    if not (args.pos and args.neg):
        raise ValueError("provide either --dataset or both --pos and --neg")
    prep = _prep_config(args, cfg)
    pos = _load_corpus(args.pos, corpus.Platform(args.platform))
    neg = _load_corpus(args.neg, corpus.Platform(args.platform))
    try:
        ds, dropped = corpus.build_balanced(pos, neg, seed=seed, config=prep)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    return ds, dropped


def cmd_train(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    ds, dropped = _assemble_dataset(args, cfg, derive_seed(seed, "train", "dataset"))
    min_df = _pick(args.min_df, cfg.min_df, 2)
    train_cfg = _train_config(args, cfg, args.algorithm, derive_seed(seed, "train", "fit"))
    try:
        vec = vectorizer.fit_tfidf(ds.documents, min_df=min_df)
        model = classifiers.train(
            evaluation.vectors_for(train_cfg.algorithm, vec, ds.documents),
            ds.labels, train_cfg,
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = _out_dir(args, cfg)
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
    inputs = {"dataset": args.dataset} if args.dataset else {"pos": args.pos, "neg": args.neg}
    _write_manifest(
        out_dir, "train",
        {"algorithm": train_cfg.algorithm.value, "min_df": min_df, "seed": seed,
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


def cmd_evaluate(args, cfg: RunConfig) -> int:
    _require_files(args.model, args.vectorizer)
    seed = _seed(args, cfg)
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
    ds, _ = _assemble_dataset(args, cfg, derive_seed(seed, "evaluate", "dataset"))
    kind = model.algorithm
    predicted = model.predict_all(evaluation.vectors_for(kind, vec, ds.documents))
    try:
        metrics = evaluation.compute_metrics(predicted, ds.labels)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    out_dir = _out_dir(args, cfg)
    out_path = os.path.join(out_dir, "evaluation.json")
    payload = {
        "version": evaluation.REPORT_SCHEMA_VERSION,
        "algorithm": kind.value,
        "metrics": evaluation.metrics_to_dict(metrics),
        "dataset_fingerprint": corpus.dataset_fingerprint(ds),
        "vectorizer_fingerprint": actual,
    }
    atomic.write_json(out_path, payload, indent=2)
    inputs = {"model": args.model, "vectorizer": args.vectorizer}
    if args.dataset:
        inputs["dataset"] = args.dataset
    else:
        inputs.update({"pos": args.pos, "neg": args.neg})
    _write_manifest(out_dir, "evaluate",
                    {"algorithm": kind.value, "seed": seed, "n_docs": len(ds)},
                    inputs, [out_path])
    print(f"{kind.value}: acc {metrics.accuracy:.2f} prec {metrics.precision:.2f} "
          f"rec {metrics.recall:.2f} f1 {metrics.f1:.2f} kappa {metrics.kappa:.2f}")
    return 0


def cmd_experiment(args, cfg: RunConfig) -> int:
    if not cfg.experiments:
        raise ValueError(
            "no experiments defined; put an 'experiments' list in the config file"
        )
    base_dir = os.path.dirname(os.path.abspath(args.config)) if args.config else "."
    out_dir = _out_dir(args, cfg)
    min_df = _pick(args.min_df, cfg.min_df, 2)
    artifacts = []
    for spec in cfg.experiments:
        try:
            report = evaluation.run_experiment(spec, base_dir=base_dir, min_df=min_df)
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
        {"experiments": [s.name for s in cfg.experiments], "min_df": min_df},
        {"config": args.config} if args.config else {}, artifacts,
    )
    return 0


def cmd_synth(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    try:
        spec = synthgen.SynthSpec(
            n_docs=args.n, vocab_core=args.vocab_core, vocab_shared=args.vocab_shared,
            overlap_weight=args.overlap, doc_len_min=args.doc_len_min,
            doc_len_max=args.doc_len_max, seed=seed, zipf=args.zipf,
        )
    except ValueError as exc:
        raise ValueError(f"invalid synth parameters: {exc}") from None
    pos, neg, gt = synthgen.generate(spec)
    out_dir = _out_dir(args, cfg)
    pos_path = os.path.join(out_dir, "pos.jsonl")
    neg_path = os.path.join(out_dir, "neg.jsonl")
    gt_path = os.path.join(out_dir, "ground_truth.json")
    ds_path = os.path.join(out_dir, "dataset.jsonl")
    corpus.write_jsonl(pos, pos_path)
    corpus.write_jsonl(neg, neg_path)
    synthgen.write_ground_truth(gt, gt_path)
    ds, _ = corpus.build_balanced(pos, neg, seed=derive_seed(seed, "synth", "dataset"))
    corpus.write_dataset(ds, ds_path)
    _write_manifest(
        out_dir, "synth",
        {"n": args.n, "overlap": args.overlap, "vocab_core": args.vocab_core,
         "vocab_shared": args.vocab_shared, "doc_len": [args.doc_len_min, args.doc_len_max],
         "zipf": args.zipf, "seed": seed,
         "dataset_fingerprint": corpus.dataset_fingerprint(ds)},
        {}, [pos_path, neg_path, gt_path, ds_path],
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
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--min-df", dest="min_df", type=int, default=None)
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
    cfg = RunConfig()
    try:
        if args.config:
            cfg = load_run_config(args.config)
        return args.func(args, cfg)
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
