"""What one workload sets up, runs as a unit of work, and checks.

The runners call dpstyler only through public module attributes, in the
order the CLI does (``load_run_config`` -> ``build_backend`` /
``build_lexicon`` -> ``train_one_model`` -> ``save_checkpoint``;
``load_manifest`` -> ``load_checkpoint`` -> ``evaluate``), so that the
span recorder's patches see every call.  ``adopt`` is the recorder's
hook for objects whose methods should be traced, or the identity.

A check failure is counted against the operations of its unit: one per
training unit, one per manifest record per evaluation pass, one per
loaded ensemble member.  ``rates`` names each throughput by what it
counts; the first one a runner returns is the workload's ``items_per_s``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from dpstyler import config, evaluation, trainer

from . import inputs, oracles
from .workloads import Shape


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    MAX_NOTES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, notes=()) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        room = self.MAX_NOTES - len(self.notes)
        self.notes.extend(list(notes)[: max(room, 0)])


@dataclass
class Setup:
    cfg: object
    backend: object
    lexicon: object = None
    manifest: object = None
    bundle: object = None
    zeroshot_manifest: object = None


class TrainRunner:
    """One template model: ``train_one_model`` for the configured epochs, then save."""

    def __init__(self, inputs_dir: str, shape: Shape, scratch: str):
        self.config_path = os.path.join(inputs_dir, inputs.CONFIG_FILE)
        self.checkpoint_path = os.path.join(scratch, "model.ckpt")
        self.ops_per_unit = 1
        self._first_blob: bytes | None = None
        self.details: dict = {}

    def setup(self, adopt) -> Setup:
        cfg = adopt(config.load_run_config(self.config_path))
        backend = adopt(cfg.build_backend())
        return Setup(cfg=cfg, backend=backend, lexicon=cfg.build_lexicon(backend))

    def check_setup(self, s: Setup, tally: Tally) -> None:
        pass

    def unit(self, s: Setup):
        cfg = s.cfg
        result = trainer.train_one_model(
            cfg.task, s.backend, cfg.templates[0], cfg.train, lexicon=s.lexicon,
            backend_tag=cfg.backend_variant, config_snapshot=cfg.raw,
        )
        trainer.save_checkpoint(result.checkpoint, self.checkpoint_path)
        return result

    def rates(self, s: Setup, result, seconds: float) -> dict[str, float]:
        """Prompts encoded and trained on per second: epochs x M x K per unit."""
        prompts = len(result.metrics) * s.cfg.task.num_classes * s.cfg.train.num_styles
        return {"train_prompts_per_s": prompts / seconds}

    def check(self, s: Setup, result, tally: Tally) -> None:
        notes = []
        losses = [(m.loss_uncertainty, m.loss_classification) for m in result.metrics]
        if len(losses) != s.cfg.train.epochs:
            notes.append(f"{len(losses)} epoch records for {s.cfg.train.epochs} epochs")
        if not np.all(np.isfinite(losses)):
            notes.append(f"non-finite epoch loss: {losses}")
        loaded = trainer.load_checkpoint(self.checkpoint_path)
        diffs = oracles.checkpoint_differences(result.checkpoint, loaded)
        if diffs:
            notes.append(f"checkpoint round trip changed {diffs}")
        with open(self.checkpoint_path, "rb") as fh:
            blob = fh.read()
        if self._first_blob is None:
            self._first_blob = blob
        elif blob != self._first_blob:
            notes.append("checkpoint bytes differ between identical training runs")
        tally.record(1, 1 if notes else 0, notes)
        self.details = {
            "train_final_loss": result.metrics[-1].loss_total,
            "epoch_losses": [m.loss_total for m in result.metrics],
            "checkpoint_bytes": len(blob),
        }


class EvalRunner:
    """The max-fusion ensemble over the whole manifest, then the C and PC
    zero-shot baselines over a small subset of it (so that their 345 text
    encodes per image do not swamp the unit)."""

    def __init__(self, inputs_dir: str, shape: Shape, scratch: str):
        self.inputs_dir = inputs_dir
        self.config_path = os.path.join(inputs_dir, inputs.CONFIG_FILE)
        with open(os.path.join(inputs_dir, inputs.META_FILE), encoding="utf-8") as fh:
            meta = json.load(fh)
        self.malformed = set(meta["malformed"])
        self.member_paths = [os.path.join(inputs_dir, m) for m in meta["members"]]
        self.member_digests = meta["member_digests"]
        self._text: dict[str, np.ndarray] = {}
        self._expected: dict[str, tuple] = {}
        self.ops_per_unit = 0
        self.details: dict = {"near_ties_excepted": 0, "decoded_per_pass": {}}

    def setup(self, adopt) -> Setup:
        cfg = adopt(config.load_run_config(self.config_path))
        backend = adopt(cfg.build_backend())
        manifest = evaluation.load_manifest(os.path.join(self.inputs_dir, cfg.eval_manifest))
        zeroshot = evaluation.load_manifest(os.path.join(self.inputs_dir, inputs.ZEROSHOT_MANIFEST))
        members = tuple(trainer.load_checkpoint(p) for p in self.member_paths)
        bundle = evaluation.EnsembleBundle(members=members, fusion=cfg.fusion)
        return Setup(cfg=cfg, backend=backend, manifest=manifest, bundle=bundle,
                     zeroshot_manifest=zeroshot)

    def _passes(self, s: Setup):
        """(predictor name, metric it feeds, manifest, predict(embedding))."""
        yield (f"ensemble-{s.cfg.fusion}-n{len(s.bundle.members)}", "eval_images_per_s",
               s.manifest, lambda emb: evaluation.ensemble_predict(emb, s.bundle))
        for style in ("C", "PC"):
            yield (f"zeroshot-{style}", "zeroshot_images_per_s", s.zeroshot_manifest,
                   lambda emb, style=style: evaluation.zeroshot_predict(
                       emb, s.backend, s.cfg.task, style))

    def _expectations(self, s: Setup, name: str, manifest):
        """(records, injected malformed count, [(domain, label) of decodable records])."""
        if name not in self._expected:
            index = {c: i for i, c in enumerate(s.cfg.task.class_names)}
            entries = sorted(manifest.entries)
            good = [
                (domain, index[cls]) for path, domain, cls in entries
                if os.path.relpath(path, self.inputs_dir) not in self.malformed
            ]
            self._expected[name] = (len(entries), len(entries) - len(good), good)
        return self._expected[name]

    def check_setup(self, s: Setup, tally: Tally) -> None:
        self.ops_per_unit = sum(
            self._expectations(s, name, manifest)[0] for name, _, manifest, _ in self._passes(s)
        )
        notes = []
        for path, member, want in zip(self.member_paths, s.bundle.members, self.member_digests):
            got = inputs.weight_digests(member)
            diffs = [name for name in want if got[name] != want[name]]
            if diffs:
                notes.append(f"{os.path.basename(path)}: loaded {diffs} differ from the saved arrays")
        tally.record(len(self.member_paths), len(notes), notes)
        self.details["checkpoint_bytes"] = float(
            np.mean([os.path.getsize(p) for p in self.member_paths])
        )

    def unit(self, s: Setup):
        passes = []
        for name, metric, manifest, predict_one in self._passes(s):
            captured = []

            def predict(emb, predict_one=predict_one):
                label = predict_one(emb)
                captured.append((emb, label))
                return label

            start = perf_counter()
            report = evaluation.evaluate(
                manifest, s.backend, s.cfg.task, predict,
                config_fingerprint=s.cfg.fingerprint, seed=s.cfg.train.seed,
                predictor_name=name,
            )
            passes.append((name, metric, manifest, report, captured, perf_counter() - start))
        return passes

    def rates(self, s: Setup, passes, seconds: float) -> dict[str, float]:
        """Images decoded, encoded and classified per second, per predictor kind."""
        count: dict[str, int] = {}
        seconds: dict[str, float] = {}
        for _, metric, _, _, captured, elapsed in passes:
            count[metric] = count.get(metric, 0) + len(captured)
            seconds[metric] = seconds.get(metric, 0.0) + elapsed
        return {metric: count[metric] / seconds[metric] for metric in count}

    def _reference(self, s: Setup, name: str, embeddings: np.ndarray):
        if name.startswith("ensemble"):
            # The members' weights were checked bitwise against the generated ones.
            members = [(m.remover.W1, m.remover.W2, m.head.weights) for m in s.bundle.members]
            return oracles.ensemble_reference(embeddings, members)
        style = name.split("-", 1)[1]
        if style not in self._text:
            pattern = evaluation.ZEROSHOT_PATTERNS[style]
            self._text[style] = np.stack(
                [s.backend.text_encode(pattern, c, None) for c in s.cfg.task.class_names]
            )
        return oracles.zeroshot_reference(embeddings, self._text[style])

    def check(self, s: Setup, passes, tally: Tally) -> None:
        for name, _, manifest, report, captured, _ in passes:
            records, injected, good = self._expectations(s, name, manifest)
            notes, failed = [], 0
            if report.decode_errors != injected:
                failed += max(1, abs(report.decode_errors - injected))
                notes.append(f"{name}: {report.decode_errors} decode errors, injected {injected}")
            if len(captured) != len(good):
                tally.record(records, records, notes + [
                    f"{name}: {len(captured)} predictions for {len(good)} decodable records"
                ])
                continue
            embeddings = np.stack([emb for emb, _ in captured])
            predicted = np.array([label for _, label in captured])
            reference, class_scores = self._reference(s, name, embeddings)
            bad, ties = oracles.mismatches(predicted, reference, class_scores)
            self.details["near_ties_excepted"] += ties
            if bad:
                failed += bad
                notes.append(f"{name}: {bad} predictions differ from the reference")
            counts: dict[str, list[int]] = {}
            for (domain, label), pred in zip(good, predicted):
                c = counts.setdefault(domain, [0, 0])
                c[0] += int(pred == label)
                c[1] += 1
            if {d: tuple(c) for d, c in counts.items()} != report.per_domain_counts:
                failed += 1
                notes.append(f"{name}: per-domain counts disagree with the predictions")
            tally.record(records, failed, notes)
            self.details["decoded_per_pass"][name] = len(good)


RUNNERS = {"train": TrainRunner, "eval": EvalRunner}
