"""Command-line surface.

Subcommands: gen-data, train, calibrate, eval, zero-shot, gradcheck, report.
Exit codes: 0 success, 1 usage, 2 data/format/config error, OS error or out
of memory, 3 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from .calibrators import CALIBRATOR_VARIANTS
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (FeatureDataset, SyntheticSpec, generate_synthetic_lt,
                   load_features, load_text_table, read_text_rows,
                   save_features)
from .decoder import DecoderConfig
from .exceptions import (ConfigError, DataError, DivergenceError, DomainError,
                         FormatError, ShapeError, StateError)
from .gradsuite import MODULES, run_gradcheck
from .losses import VARIANTS, build_class_stats
from .numerics import make_rng
from .training import (TrainConfig, evaluate, metrics_from_predictions,
                       parse_run_config, render_report, report_json,
                       TextClassEmbeddings, train_stage1, train_stage2,
                       zero_shot_classify)

_USAGE_EXIT = 1
_DATA_EXIT = 2
_DIVERGENCE_EXIT = 3
# gen-data's optional flags: the SyntheticSpec fields that have a default
_GEN_OPTIONS = [f for f in fields(SyntheticSpec) if f.default is not MISSING]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lthead",
                     description="Long-tailed classifier heads over frozen "
                                 "embeddings: training, calibration, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic long-tailed dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--head-count", type=int, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    for f in _GEN_OPTIONS:
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=f.default)
    p.add_argument("--out", required=True,
                   help="writes OUT.train and OUT.test feature files")

    p = sub.add_parser("train", help="stage-one training")
    p.add_argument("--features", required=True)
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--loss", choices=VARIANTS, help="override the config loss")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="loss table path (default OUT.losses.csv)")

    p = sub.add_parser("calibrate", help="stage-two calibrator training")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True, help="training feature file")
    p.add_argument("--method", choices=CALIBRATOR_VARIANTS,
                   help="override the config's stage2_method")
    p.add_argument("--config", help="optional run config for optimizer fields "
                                    "and stage2_method")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output checkpoint path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", required=True,
                   help="text report path; JSON lands at REPORT.json")

    p = sub.add_parser("zero-shot", help="cosine zero-shot classification")
    p.add_argument("--image-embs", required=True,
                   help="IMBF feature file or labeled text table")
    p.add_argument("--class-embs", required=True,
                   help="text matrix, one row of D values per class")
    p.add_argument("--test-labels",
                   help="one integer per line; overrides labels in the image file")
    p.add_argument("--report", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--module", choices=MODULES, default="all")
    p.add_argument("--tol", type=float, default=1e-5)

    p = sub.add_parser("report", help="summarize checkpoints")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    return parser


def _load_feature_file(path) -> FeatureDataset:
    if str(path).endswith((".txt", ".csv")):
        return load_text_table(path)
    return load_features(path)


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(num_classes=args.classes, head_count=args.head_count,
                         imbalance_ratio=args.ratio, dim=args.dim,
                         **{f.name: getattr(args, f.name) for f in _GEN_OPTIONS})
    train, test = generate_synthetic_lt(spec)
    save_features(train, f"{args.out}.train")
    save_features(test, f"{args.out}.test")
    counts = train.class_counts
    print(f"wrote {args.out}.train ({train.num_samples} samples, "
          f"head {counts.max()}, tail {counts.min()}) and "
          f"{args.out}.test ({test.num_samples} samples)")
    return 0


def _cmd_train(args) -> int:
    with open(args.config) as fh:
        cfg = parse_run_config(fh.read())
    if args.loss:
        cfg = replace(cfg, loss=args.loss)
    ds = _load_feature_file(args.features)
    decoder_config = DecoderConfig(dim=ds.dim, num_classes=ds.num_classes,
                                   depth=cfg.depth, heads=cfg.heads,
                                   mlp_ratio=cfg.mlp_ratio, dropout=cfg.dropout)
    head, log = train_stage1(ds, cfg, decoder_config, make_rng(cfg.seed))
    save_checkpoint(args.out, head, ds.class_counts)
    log_path = args.log or f"{args.out}.losses.csv"
    with open(log_path, "w") as fh:
        fh.write("iteration,loss\n")
        for it, value in enumerate(log):
            fh.write(f"{it},{float(value)!r}\n")
    print(f"trained {cfg.total_iters} iterations with loss={cfg.loss}; "
          f"checkpoint {args.out}, losses {log_path}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = TrainConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_run_config(fh.read())
    method = args.method or cfg.stage2_method
    if method is None:
        print("lthead calibrate: error: name a variant with --method or "
              "stage2_method in --config", file=sys.stderr)
        return _USAGE_EXIT
    head, _, _ = load_checkpoint(args.ckpt)
    ds = _load_feature_file(args.features)
    cal, _ = train_stage2(head, ds, cfg, method, make_rng(args.seed))
    save_checkpoint(args.out, head, ds.class_counts, calibrator=cal)
    print(f"calibrated with {method} for {cfg.stage2_iters} iterations; "
          f"checkpoint {args.out}")
    return 0


def _write_report(path, report) -> int:
    """Write the text report to PATH and stdout, and the JSON to PATH.json."""
    text = render_report(report)
    with open(path, "w") as fh:
        fh.write(text)
    with open(f"{path}.json", "w") as fh:
        fh.write(report_json(report))
    sys.stdout.write(text)
    return 0


def _cmd_eval(args) -> int:
    head, stats, cal = load_checkpoint(args.ckpt)
    test = _load_feature_file(args.test)
    return _write_report(args.report, evaluate(head, cal, test, stats))


def _cmd_zero_shot(args) -> int:
    _, class_matrix = read_text_rows(args.class_embs)
    embeddings = TextClassEmbeddings(class_matrix)
    images = _load_feature_file(args.image_embs)
    if images.tokens_per_sample != 1:
        raise DataError("zero-shot expects one embedding per image (T=1)")
    labels = images.labels
    if args.test_labels:
        labels, _ = read_text_rows(args.test_labels, labeled=True, width=0)
    k = class_matrix.shape[0]
    predictions = zero_shot_classify(images.features[:, 0, :], embeddings)
    # pad so every class exists; only group tags depend on these counts.
    # These two calls reject labels outside [0, k) or not one per image.
    stats = build_class_stats(np.concatenate([np.arange(k), labels]), k)
    return _write_report(args.report, metrics_from_predictions(
        predictions, labels, stats, fingerprint="zero-shot"))


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.module, args.tol)
    failed = 0
    for res in results:
        status = "PASS" if res.report.passed else "FAIL"
        print(f"{status} {res.name}: max_rel_err={res.report.max_rel_err:.3e}")
        failed += not res.report.passed
    print(f"{len(results) - failed}/{len(results)} checks passed at tol {args.tol}")
    return 0 if failed == 0 else _DATA_EXIT


def _cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        head, stats, cal = load_checkpoint(path)
        cfg = head.config
        rows.append({
            "checkpoint": str(path),
            "depth": cfg.depth, "heads": cfg.heads, "dim": cfg.dim,
            "classes": cfg.num_classes, "dropout": cfg.dropout,
            "params": head.params.vector.size,
            "calibrator": "-" if cal is None else cal.variant,
            "train_samples": int(stats.counts.sum()),
        })
    if args.format == "machine":
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "eval": _cmd_eval,
    "zero-shot": _cmd_zero_shot,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, DataError, ConfigError, ShapeError, DomainError,
            StateError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _DATA_EXIT
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DIVERGENCE_EXIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
