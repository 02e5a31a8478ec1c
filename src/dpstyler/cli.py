"""Command-line entry point.

Commands::

    dpstyler train --config run.yaml [--out DIR] [--seed N]
    dpstyler eval --config run.yaml [--fusion max|average] CKPT [CKPT ...]
    dpstyler zeroshot --config run.yaml
    dpstyler export-embeddings --config run.yaml --out-file emb.csv [--checkpoint CKPT]
    dpstyler info --config run.yaml

Exit codes: 0 success, 1 a bug, shown with its traceback, 2 usage/config
error (an ``InputError``, ``OSError`` or ``MemoryError``), 3 runtime
numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, RunConfig, load_run_config
from .core import InputError, atomic_write
from .evaluation import (
    FUSION_MODES,
    ZEROSHOT_PATTERNS,
    EnsembleBundle,
    ensemble_predict,
    evaluate,
    export_embeddings,
    load_manifest,
    zeroshot_predictor,
)
from .trainer import (
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train_one_model,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(args) -> RunConfig:
    return load_run_config(  # a command lacks the flags of settings it does not read
        args.config,
        seed_override=getattr(args, "seed", None),
        out_override=getattr(args, "out", None),
        fusion_override=getattr(args, "fusion", None),
    )


def _load_checkpoint_for(path, cfg: RunConfig, backend):
    """The checkpoint at ``path``, refused unless it was trained at ``backend``'s widths
    and, when its config snapshot records one, at ``cfg``'s ``backend.seed``."""
    ckpt = load_checkpoint(path)
    checked = [("dim_joint", ckpt.dim_joint, backend.dim_joint),
               ("dim_token", ckpt.dim_token, backend.dim_token)]
    snapshot = ckpt.config_snapshot.get("backend")
    if isinstance(snapshot, dict) and "seed" in snapshot:  # a snapshot built in code may lack it
        checked.append(("backend.seed", snapshot["seed"], cfg.backend_spec.seed))
    for name, trained, configured in checked:
        if type(trained) is not int or trained != configured:  # True == 1, yet is no seed
            raise ConfigError(f"checkpoint {path} has {name} {trained!r}, "
                              f"the configured backend {configured!r}")
    return ckpt


def _load_for_manifest(args):
    """The config, its backend and its ``eval.manifest``, for a command that reads one."""
    cfg = _load_config(args)
    backend = cfg.build_backend()
    if not cfg.eval_manifest:
        raise ConfigError("eval.manifest is required for this command")
    if not os.path.exists(cfg.eval_manifest):
        raise ConfigError(f"manifest path not found: {cfg.eval_manifest}")
    return cfg, backend, load_manifest(cfg.eval_manifest)


def _report_pass(cfg: RunConfig, backend, manifest, predict, name: str, tag: str,
                 heading: str = "") -> None:
    """Evaluate ``predict`` on ``manifest``, print the heading (if any) and the table,
    and write the report to ``report-<tag>-<fingerprint>.json`` atomically."""
    report = evaluate(manifest, backend, cfg.task, predict, config_fingerprint=cfg.fingerprint,
                      seed=cfg.train.seed, predictor_name=name)
    if heading:
        print(heading)
    print(report.table())
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, f"report-{tag}-{cfg.fingerprint}.json")
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    backend = cfg.build_backend()
    lexicon = cfg.build_lexicon(backend)
    os.makedirs(cfg.output_dir, exist_ok=True)
    snapshot = cfg.raw
    for template in cfg.templates:
        result = train_one_model(
            cfg.task,
            backend,
            template,
            cfg.train,
            lexicon=lexicon,
            backend_tag=cfg.backend_variant,
            config_snapshot=snapshot,
        )
        stem = f"{template.id}-{cfg.fingerprint}"
        ckpt_path = os.path.join(cfg.output_dir, f"{stem}.ckpt")
        save_checkpoint(result.checkpoint, ckpt_path)
        with atomic_write(os.path.join(cfg.output_dir, f"{stem}.metrics.jsonl")) as fh:
            for row in result.metrics:
                fh.write(row.to_json() + "\n")
        final = result.metrics[-1]
        print(
            f"trained {template.pattern!r}: L_total {final.loss_total:.4f} "
            f"-> {ckpt_path}"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, backend, manifest = _load_for_manifest(args)
    members = tuple(_load_checkpoint_for(p, cfg, backend) for p in args.checkpoints)
    for ckpt in members:
        if ckpt.class_names != cfg.task.class_names:
            raise ConfigError("checkpoint class names do not match the configured task")
    bundle = EnsembleBundle(members=members, fusion=cfg.fusion)
    _report_pass(cfg, backend, manifest, lambda emb: ensemble_predict(emb, bundle),
                 f"ensemble-{cfg.fusion}-n{len(members)}", f"eval-{cfg.fusion}")
    return EXIT_OK


def cmd_zeroshot(args) -> int:
    cfg, backend, manifest = _load_for_manifest(args)
    for style in ZEROSHOT_PATTERNS:
        _report_pass(cfg, backend, manifest, zeroshot_predictor(backend, cfg.task, style),
                     f"zeroshot-{style}", f"zeroshot-{style}", f"zero-shot ({style}):")
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    cfg, backend, manifest = _load_for_manifest(args)
    out_dir = os.path.dirname(os.path.abspath(args.out_file))
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory does not exist: {out_dir}")
    checkpoint = _load_checkpoint_for(args.checkpoint, cfg, backend) if args.checkpoint else None
    rows, failures = export_embeddings(manifest, backend, checkpoint, args.out_file)
    print(f"wrote {rows} embedding rows to {args.out_file}; decode errors: {failures}")
    return EXIT_OK


def cmd_info(args) -> int:
    cfg = _load_config(args)
    print(json.dumps(cfg.raw, indent=2, sort_keys=True))
    print(f"fingerprint: {cfg.fingerprint}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpstyler", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, overrides=True):
        p.add_argument("--config", required=True, help="path to the YAML run config")
        if overrides:  # export-embeddings reads neither output_dir nor train.seed
            p.add_argument("--out", help="output directory override")
            p.add_argument("--seed", type=int, help="train.seed override")

    p = sub.add_parser("train", help="train one model per prompt template")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate an ensemble of checkpoints")
    common(p)
    p.add_argument("--fusion", choices=FUSION_MODES, help="fusion mode override")
    p.add_argument("checkpoints", nargs="+", help="checkpoint files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("zeroshot", help="run the zero-shot baselines (C and PC)")
    common(p)
    p.set_defaults(func=cmd_zeroshot)

    # No abbreviations, so --out is refused rather than read as --out-file.
    p = sub.add_parser("export-embeddings", help="dump raw/removed embeddings to CSV",
                       allow_abbrev=False)
    common(p, overrides=False)
    p.add_argument("--checkpoint", help="optional checkpoint for removed embeddings")
    p.add_argument("--out-file", required=True, help="CSV output path")
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("info", help="print the config after default-merging")
    common(p)
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
