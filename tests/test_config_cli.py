"""Run-config parsing and the command-line workflow end to end."""
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpstyler.cli import main
from dpstyler.config import _KEYS, ConfigError, load_run_config
from dpstyler.styles import LEXICON_STRATEGIES, STRATEGIES
from dpstyler.trainer import CheckpointError, load_checkpoint, save_checkpoint

SMALL_CONFIG = """
backend:
  variant: toy
  dim_joint: 64
  dim_token: 32
  seed: 11
  noise_level: 0.0
task:
  class_names: [cat, dog, fish]
train:
  epochs: 3
  seed: 7
styles:
  num_styles: 4
  strategy: random_mix
eval:
  manifest: {manifest}
output_dir: {out}
"""


@pytest.fixture
def workspace(tmp_path):
    """Config file plus a small noiseless toy dataset on disk."""
    from dpstyler.backends import ToyBackend, ToyBackendSpec
    from dpstyler.core import TaskDefinition
    from dpstyler.toydata import make_toy_dataset

    names = ("cat", "dog", "fish")
    backend = ToyBackend(ToyBackendSpec(seed=11, noise_level=0.0), names)
    data = tmp_path / "data"
    make_toy_dataset(
        data, TaskDefinition(names), backend, domains=("art", "photo"),
        images_per_domain=6, seed=3,
    )
    out = tmp_path / "out"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(SMALL_CONFIG.format(manifest=data, out=out))
    return cfg, data, out


class TestRunConfig:
    def test_defaults_applied(self, workspace):
        cfg_path, _, _ = workspace
        rc = load_run_config(cfg_path)
        assert rc.train.learning_rate == 0.008
        assert rc.train.momentum == 0.9
        assert rc.train.batch_size == 128
        assert rc.train.arcface.scale == 5.0
        assert rc.train.arcface.margin == 0.5
        assert rc.train.style_gen.num_styles == 4
        assert len(rc.templates) == 3

    def test_fingerprint_stable(self, workspace):
        cfg_path, _, _ = workspace
        assert load_run_config(cfg_path).fingerprint == load_run_config(cfg_path).fingerprint
        assert len(load_run_config(cfg_path).fingerprint) == 8

    def test_seed_override(self, workspace):
        cfg_path, _, _ = workspace
        rc = load_run_config(cfg_path, seed_override=99)
        assert rc.train.seed == 99

    def test_fusion_override(self, workspace):
        cfg_path, _, _ = workspace
        assert load_run_config(cfg_path, fusion_override="average").fusion == "average"

    @pytest.mark.parametrize("out", ["elsewhere", ""], ids=["path", "empty"])
    def test_out_override_is_applied_like_the_seed_and_fusion(self, workspace, tmp_path, out):
        # --out and output_dir in the YAML pass one check, so they agree:
        # both keep a path, and both refuse an empty one.
        cfg_path, _, _ = workspace
        same = tmp_path / "same.yaml"
        same.write_text(f"task: {{class_names: [a, b]}}\noutput_dir: '{out}'\n")
        for load in (lambda: load_run_config(cfg_path, out_override=out),
                     lambda: load_run_config(same)):
            if out:
                assert load().output_dir == out
            else:
                with pytest.raises(ConfigError, match="output_dir must be a path string, got ''"):
                    load()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.yaml")

    def test_bad_template_pattern(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "backend: {variant: toy}\ntask: {class_names: [a, b]}\n"
            "templates: ['no placeholders here']\n"
        )
        with pytest.raises(ConfigError):
            load_run_config(p)

    def test_external_backend_is_contract_only(self, tmp_path, capsys):
        p = tmp_path / "ext.yaml"
        p.write_text(
            "backend: {variant: external, external_variant: resnet50}\n"
            "task: {class_names: [a, b]}\n"
        )
        with pytest.raises(ConfigError, match="variant"):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err


def _perfbench_shaped_config(classes: int = 345) -> str:
    """A DomainNet-shaped config as ``yaml.safe_dump`` writes it: one line per class."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    names = [syllables[i % 70] + syllables[i // 70] + "x" for i in range(classes)]
    return yaml.safe_dump({
        "backend": {"variant": "toy", "dim_joint": 1024, "dim_token": 512,
                    "max_classes": classes, "seed": 1540794701},
        "task": {"class_names": names},
        "train": {"epochs": 1, "batch_size": 128, "seed": 77},
        "styles": {"num_styles": 80, "strategy": "random_mix"},
        "templates": ["a [class] in a S* style"],
        "eval": {"fusion": "max", "manifest": "data"},
    }, sort_keys=True)


# Every valid config document the suite writes, with its placeholders filled.
LOADER_CONFIGS = {
    "small": SMALL_CONFIG.format(manifest="/data/set", out="/tmp/out"),
    "stylemix": SMALL_CONFIG.format(manifest="/data/set", out="/tmp/out").replace(
        "strategy: random_mix", "strategy: stylemix\n  lexicon: /data/lex.txt"),
    "random_mix-lexicon": SMALL_CONFIG.format(manifest="/data/set", out="/tmp/out").replace(
        "strategy: random_mix", "strategy: random_mix\n  lexicon: /data/lex.txt"),
    "flow-style": "backend: {variant: toy}\ntask: {class_names: [a, b]}\n"
                  "templates: ['a [class] in a S* style', 'a S* style of a [class]']\n",
    "perfbench-345": _perfbench_shaped_config(),
}


def _readme_config() -> str:
    """The README's example config: its first YAML block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```yaml\n", 1)[1].split("```", 1)[0]


# Every key the loader honours: the merged document holds each of them.
HONOURED_KEYS = {
    "backend.variant", "backend.dim_joint", "backend.dim_token", "backend.max_classes",
    "backend.noise_level", "backend.seed", "task.class_names", "train.seed",
    "train.epochs", "train.learning_rate", "train.momentum", "train.batch_size", "train.ratio",
    "train.arcface_scale", "train.arcface_margin", "styles.num_styles", "styles.strategy",
    "styles.alpha", "styles.lexicon", "templates", "eval.manifest",
    "eval.fusion", "output_dir",
}


def _flat_keys(raw: dict) -> set:
    return {f"{s}.{k}" for s, sec in raw.items() if isinstance(sec, dict) for k in sec} | {
        k for k, v in raw.items() if not isinstance(v, dict)}


class TestMergedDocument:
    """``raw`` (what ``info`` prints) is a complete config that loads back unchanged."""

    @pytest.mark.parametrize("name", sorted(LOADER_CONFIGS) + ["readme"])
    def test_raw_round_trips(self, tmp_path, name):
        p = tmp_path / "run.yaml"
        p.write_text(_readme_config() if name == "readme" else LOADER_CONFIGS[name])
        rc = load_run_config(p)
        assert _flat_keys(rc.raw) == HONOURED_KEYS
        again = tmp_path / "again.yaml"
        again.write_text(yaml.safe_dump(rc.raw))
        back = load_run_config(again)
        assert back.raw == rc.raw and back.fingerprint == rc.fingerprint
        assert back == rc  # every built object: backend spec, task, train, templates, paths

    def test_info_output_loads_back(self, workspace, tmp_path, capsys):
        cfg_path, _, _ = workspace
        assert main(["info", "--config", str(cfg_path), "--seed", "5"]) == 0
        printed = tmp_path / "info.yaml"
        printed.write_text(capsys.readouterr().out)
        assert load_run_config(printed) == load_run_config(cfg_path, seed_override=5)

    def test_backend_seed_does_not_follow_the_master_seed(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("task: {class_names: [a, b]}\ntrain: {seed: 12}\n")
        rc = load_run_config(p, seed_override=31)
        assert (rc.train.seed, rc.backend_spec.seed) == (31, 0)
        p.write_text("task: {class_names: [a, b]}\nbackend: {seed: 4}\n")
        rc = load_run_config(p, seed_override=31)
        assert (rc.train.seed, rc.backend_spec.seed) == (31, 4)

    def test_info_prints_the_backend_seed_apart_from_the_master_seed(self, tmp_path, capsys):
        p = tmp_path / "run.yaml"
        p.write_text("task: {class_names: [a, b]}\ntrain: {seed: 12}\n")
        assert main(["info", "--config", str(p), "--seed", "31"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["train"]["seed"], doc["backend"]["seed"]) == (31, 0)
        assert "seed" not in doc

    def test_seed_option_help_names_train_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        assert "train.seed override" in capsys.readouterr().out

    def test_readme_strategy_comment_names_every_strategy(self):
        line = next(line for line in _readme_config().splitlines()
                    if line.strip().startswith("strategy:"))
        assert tuple(name.strip() for name in line.split("#", 1)[1].split("|")) == STRATEGIES

    def test_exponent_without_dot_is_a_float(self, tmp_path):
        # PyYAML reads 1e-3 as the string "1e-3"; float keys take numeric strings.
        p = tmp_path / "run.yaml"
        p.write_text("task: {class_names: [a, b]}\ntrain: {learning_rate: 1e-3}\n")
        assert load_run_config(p).train.learning_rate == 0.001


class TestYamlLoaders:
    """libyaml's loader (when PyYAML has it) and the pure-Python one agree."""

    @staticmethod
    def _without_libyaml(monkeypatch):
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)

    @pytest.mark.parametrize("name", sorted(LOADER_CONFIGS))
    def test_same_raw_and_fingerprint(self, tmp_path, monkeypatch, name):
        p = tmp_path / "run.yaml"
        p.write_text(LOADER_CONFIGS[name])
        fast = load_run_config(p)
        self._without_libyaml(monkeypatch)
        slow = load_run_config(p)
        assert fast.raw == slow.raw
        assert fast.fingerprint == slow.fingerprint
        assert fast.task == slow.task and fast.templates == slow.templates

    def test_libyaml_used_when_available(self, tmp_path, monkeypatch):
        seen = []
        real_load = yaml.load

        def spy(stream, Loader):
            seen.append(Loader)
            return real_load(stream, Loader=Loader)

        monkeypatch.setattr(yaml, "load", spy)
        p = tmp_path / "run.yaml"
        p.write_text(LOADER_CONFIGS["small"])
        preferred = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        load_run_config(p)
        self._without_libyaml(monkeypatch)
        load_run_config(p)
        # The loader is a subclass that rejects repeated keys; its parser is the base's.
        assert [loader.__bases__ for loader in seen] == [(preferred,), (yaml.SafeLoader,)]

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    @pytest.mark.parametrize(
        "doc",
        ["task: {class_names: [a, b]\n", "task:\n  class_names: [a\n   - b\n", "a: b: c\n",
         "task: !!python/object:os.system {}\n", "\t- tab\n",
         b"task: {class_names: [a, b]}\n# \xff\n"],
        ids=["unclosed-flow", "bad-indent", "nested-mapping", "unsafe-tag", "tab", "not-utf8"],
    )
    def test_malformed_yaml_exits_2(self, tmp_path, monkeypatch, capsys, libyaml, doc):
        if not libyaml:
            self._without_libyaml(monkeypatch)
        p = tmp_path / "bad.yaml"
        p.write_bytes(doc.encode() if isinstance(doc, str) else doc)
        with pytest.raises(ConfigError, match=r"cannot parse .*bad\.yaml: "):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    @pytest.mark.parametrize(
        "doc, key",
        [("task: {class_names: [a, b], class_names: [c, d]}\n", "class_names"),
         ("task: {class_names: [a, b]}\ntrain: {epochs: 3}\ntrain: {batch_size: 8}\n", "train"),
         ("task:\n  class_names: [a, b]\ntrain:\n  epochs: 3\n  epochs: 4\n", "epochs")],
        ids=["in-flow-mapping", "section", "in-block-mapping"],
    )
    def test_repeated_key_exits_2(self, tmp_path, monkeypatch, capsys, libyaml, doc, key):
        if not libyaml:
            self._without_libyaml(monkeypatch)
        p = tmp_path / "repeated.yaml"
        p.write_text(doc)
        with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    @pytest.mark.parametrize(
        "doc",
        ["train: {<<: {epochs: 3, epochs: 5}}\n",
         "train: {<<: [{batch_size: 8}, {epochs: 3, epochs: 5}]}\n",
         "train: {<<: {<<: {epochs: 3, epochs: 5}, batch_size: 8}}\n"],
        ids=["merged-mapping", "merged-sequence", "nested-merge"],
    )
    def test_repeated_key_in_merged_mapping_exits_2(self, tmp_path, monkeypatch, libyaml, doc):
        if not libyaml:
            self._without_libyaml(monkeypatch)
        p = tmp_path / "merge.yaml"
        p.write_text("task: {class_names: [a, b]}\n" + doc)
        with pytest.raises(ConfigError, match="repeated key 'epochs'"):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    def test_merged_anchor_reused_after_override(self, tmp_path, monkeypatch, libyaml):
        # A mapping that overrides a merged key, itself merged or aliased
        # again later: PyYAML has flattened it by then, which must not
        # read as a repeated key.
        if not libyaml:
            self._without_libyaml(monkeypatch)
        p = tmp_path / "merge.yaml"
        p.write_text("task: {class_names: [a, b]}\n"
                     "styles: &s {<<: {num_styles: 4}, num_styles: 6}\n"
                     "train: {<<: {epochs: 2}, epochs: 3}\n"
                     "eval: {<<: *s}\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(p)  # eval.num_styles; the merge itself is accepted

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    def test_merged_key_may_be_overridden(self, tmp_path, monkeypatch, libyaml):
        if not libyaml:
            self._without_libyaml(monkeypatch)
        p = tmp_path / "merge.yaml"
        p.write_text("task: {class_names: [a, b]}\n"
                     "train: {<<: {epochs: 3, batch_size: 8}, epochs: 4}\n")
        train = load_run_config(p).train
        assert (train.epochs, train.batch_size) == (4, 8)


class TestCliWorkflow:
    def test_train_writes_three_checkpoints(self, workspace):
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpts = sorted(out.glob("*.ckpt"))
        metrics = sorted(out.glob("*.metrics.jsonl"))
        assert len(ckpts) == 3 and len(metrics) == 3
        for m in metrics:
            lines = m.read_text().splitlines()
            assert len(lines) == 3
            json.loads(lines[0])

    def test_train_out_replaces_the_configured_output_dir(self, workspace, tmp_path):
        cfg_path, _, out = workspace
        other = tmp_path / "elsewhere"
        assert main(["train", "--config", str(cfg_path), "--out", str(other)]) == 0
        assert not out.exists()
        assert len(list(other.glob("*.ckpt"))) == 3
        assert len(list(other.glob("*.metrics.jsonl"))) == 3

    def test_eval_and_report(self, workspace, capsys):
        cfg_path, _, out = workspace
        main(["train", "--config", str(cfg_path)])
        ckpts = [str(p) for p in sorted(out.glob("*.ckpt"))]
        assert main(["eval", "--config", str(cfg_path), *ckpts]) == 0
        text = capsys.readouterr().out
        assert "average" in text
        reports = list(out.glob("report-eval-*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert set(payload["per_domain_accuracy"]) == {"art", "photo"}

    def test_single_checkpoint_max_equals_average(self, workspace):
        cfg_path, _, out = workspace
        main(["train", "--config", str(cfg_path)])
        ckpt = str(sorted(out.glob("*.ckpt"))[0])
        assert main(["eval", "--config", str(cfg_path), "--fusion", "max", ckpt]) == 0
        assert main(["eval", "--config", str(cfg_path), "--fusion", "average", ckpt]) == 0
        max_report = json.loads(next(out.glob("report-eval-max-*.json")).read_text())
        avg_report = json.loads(next(out.glob("report-eval-average-*.json")).read_text())
        assert max_report["per_domain_accuracy"] == avg_report["per_domain_accuracy"]

    def test_zeroshot_reports_both_modes(self, workspace, capsys):
        cfg_path, _, out = workspace
        assert main(["zeroshot", "--config", str(cfg_path)]) == 0
        text = capsys.readouterr().out
        assert "zero-shot (C):" in text and "zero-shot (PC):" in text
        # Noiseless toy data: both baselines are perfect.
        for tag in ("C", "PC"):
            payload = json.loads(next(out.glob(f"report-zeroshot-{tag}-*.json")).read_text())
            assert payload["average_accuracy"] == 100.0

    def test_zeroshot_encodes_the_class_prompts_once_per_pass(self, workspace, monkeypatch):
        from dpstyler.backends import ToyBackend
        from dpstyler.evaluation import ZEROSHOT_PATTERNS, load_manifest

        real, patterns = ToyBackend.encode_prompt_rows, []

        def counting(self, pattern, *args):
            patterns.append(pattern)
            return real(self, pattern, *args)

        monkeypatch.setattr(ToyBackend, "encode_prompt_rows", counting)
        cfg_path, data, _ = workspace
        assert len(load_manifest(data).entries) == 12  # one call per record would make 24
        assert main(["zeroshot", "--config", str(cfg_path)]) == 0
        assert patterns == [ZEROSHOT_PATTERNS["C"], ZEROSHOT_PATTERNS["PC"]]

    def test_export_embeddings_with_and_without_checkpoint(self, workspace, tmp_path, capsys):
        cfg_path, data, out = workspace
        main(["train", "--config", str(cfg_path)])
        ckpt = str(sorted(out.glob("*.ckpt"))[0])
        raw_csv = tmp_path / "raw.csv"
        both_csv = tmp_path / "both.csv"
        (data / "art" / "cat" / "broken.json").write_text("not an image")
        capsys.readouterr()
        assert main(["export-embeddings", "--config", str(cfg_path), "--out-file", str(raw_csv)]) == 0
        assert f"wrote 12 embedding rows to {raw_csv}; decode errors: 1" in capsys.readouterr().out
        assert main([
            "export-embeddings", "--config", str(cfg_path),
            "--checkpoint", ckpt, "--out-file", str(both_csv),
        ]) == 0
        raw_header = raw_csv.read_text().splitlines()[0]
        both_header = both_csv.read_text().splitlines()[0]
        assert "removed_0" not in raw_header
        assert "removed_0" in both_header

    def test_stylemix_with_a_three_word_lexicon(self, workspace, tmp_path):
        cfg_path, _, out = workspace
        lex = tmp_path / "lex.txt"
        lex.write_text("white\nsketchy\nbright\n")
        run = tmp_path / "stylemix.yaml"
        run.write_text(cfg_path.read_text().replace(
            "strategy: random_mix", f"strategy: stylemix\n  lexicon: {lex}"
        ))
        assert main(["train", "--config", str(run)]) == 0
        assert len(list(out.glob("*.ckpt"))) == 3

    def test_info(self, workspace, capsys):
        cfg_path, _, _ = workspace
        assert main(["info", "--config", str(cfg_path)]) == 0
        json.loads(capsys.readouterr().out)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
            | st.sampled_from(["yes", "no", "1e-3", "0x1f", "1_000", ".nan", "-.inf", "~",
                               "2001-12-14", "[class] S*", "'a [class] in S*'"]))


class TestArbitraryConfigValues:
    """Any YAML value in any honoured key: ``info`` exits 0 or 2, never a traceback."""

    @pytest.mark.parametrize("section, key", [row[:2] for row in _KEYS],
                             ids=[f"{s}.{k}" if s else k for s, k, *_ in _KEYS])
    @settings(max_examples=40)
    @given(value=_SCALARS | st.lists(_SCALARS, max_size=3))
    @example(value=10**400)
    def test_info_exits_0_or_2(self, tmp_path_factory, section, key, value):
        doc = {"task": {"class_names": ["a", "b"]}}
        (doc.setdefault(section, {}) if section else doc)[key] = value
        text = yaml.safe_dump(doc)
        if isinstance(value, str):  # also as a plain YAML scalar: yes, 1e-3, ~, a date
            text = text.replace(yaml.safe_dump(value).removesuffix("\n...\n").strip(), value, 1)
        p = tmp_path_factory.getbasetemp() / "fuzz-config.yaml"
        p.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["info", "--config", str(p)])
        assert code in (0, 2), err.getvalue()


class TestCliErrors:
    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.yaml")]) == 2

    @staticmethod
    def _train_and_edit_config(workspace, tmp_path, old, new):
        """A trained checkpoint, and the workspace config with ``old`` replaced by ``new``."""
        cfg_path, data, out = workspace
        main(["train", "--config", str(cfg_path)])
        other_cfg = tmp_path / "other.yaml"
        other_cfg.write_text(
            SMALL_CONFIG.format(manifest=data, out=tmp_path / "out2").replace(old, new))
        return other_cfg, str(sorted(out.glob("*.ckpt"))[0])

    @pytest.mark.parametrize(
        "old, new, field",
        [("[cat, dog, fish]", "[ant, bee, cow]", "class names"),
         ("dim_token: 32", "dim_token: 16", "dim_token"),
         ("dim_joint: 64", "dim_joint: 32", "dim_joint"),
         ("  seed: 11\n", "  seed: 12\n", "backend.seed 11, the configured backend 12")],
        ids=["class_names", "dim_token", "dim_joint", "backend_seed"],
    )
    def test_mismatched_checkpoint_classes_exit_2(self, workspace, tmp_path, capsys,
                                                  old, new, field):
        other_cfg, ckpt = self._train_and_edit_config(workspace, tmp_path, old, new)
        capsys.readouterr()
        assert main(["eval", "--config", str(other_cfg), ckpt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err

    def test_a_bool_snapshot_seed_is_not_backend_seed_1(self, workspace, tmp_path, capsys):
        # True == 1 in Python, so only an exact int passes as the trained seed.
        _, data, _ = workspace
        cfg_path = tmp_path / "seed1.yaml"
        cfg_path.write_text(SMALL_CONFIG.format(manifest=data, out=tmp_path / "out")
                            .replace("  seed: 11\n", "  seed: 1\n"))
        ckpt = tmp_path / "bool-seed.ckpt"
        ckpt.write_bytes(_checkpoint_blob({"backend": {"seed": True}}))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), str(ckpt)]) == 2
        assert "has backend.seed True, the configured backend 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, field",
        [("dim_token: 32", "dim_token: 16", "dim_token"),
         ("dim_joint: 64", "dim_joint: 32", "dim_joint"),
         ("  seed: 11\n", "  seed: 12\n", "backend.seed 11, the configured backend 12")],
        ids=["dim_token", "dim_joint", "backend_seed"],
    )
    def test_export_refuses_a_checkpoint_of_another_width(self, workspace, tmp_path, capsys,
                                                          old, new, field):
        other_cfg, ckpt = self._train_and_edit_config(workspace, tmp_path, old, new)
        capsys.readouterr()
        out_file = tmp_path / "emb.csv"
        assert main(["export-embeddings", "--config", str(other_cfg), "--checkpoint", ckpt,
                     "--out-file", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not out_file.exists()

    def test_zero_training_prompt_row_exits_3(self, workspace, capsys, monkeypatch):
        # A numeric failure named by its source, not loss_gradients' bare
        # "zero-norm feature in batch", which would exit 2 as a config error.
        from dpstyler.backends import ToyBackend
        from dpstyler.config import RunConfig

        class ZeroRowBackend(ToyBackend):
            def encode_prompt_rows(self, pattern, class_names, styles, index):
                rows = super().encode_prompt_rows(pattern, class_names, styles, index)
                rows[0] = 0.0
                return rows

        monkeypatch.setattr(RunConfig, "build_backend",
                            lambda cfg: ZeroRowBackend(cfg.backend_spec, cfg.task.class_names))
        cfg_path, _, out = workspace
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: encode_prompt_rows row 0 is zero (class ")
        assert err.endswith(") at epoch 0, batch 0\n")
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("command", ["train", "info"])
    def test_repeated_template_exits_2(self, workspace, capsys, command):
        # A template listed twice would train twice into one checkpoint file.
        cfg_path, _, out = workspace
        cfg_path.write_text(cfg_path.read_text() + "templates:\n"
                            "  - 'a [class] in a S* style'\n"
                            "  - 'a S* style of a [class]'\n"
                            "  - 'a [class] in a S* style'\n")
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr() == ("", "config error: invalid config: templates lists "
                                           "'a [class] in a S* style' more than once\n")
        assert not list(out.glob("*.ckpt"))

    def test_checkpoint_without_a_recorded_seed_is_unchecked(self, workspace, tmp_path):
        # A checkpoint built in code may carry an empty config snapshot.
        other_cfg, ckpt = self._train_and_edit_config(workspace, tmp_path, "  seed: 11\n",
                                                      "  seed: 12\n")
        checkpoint = load_checkpoint(ckpt)
        checkpoint.config_snapshot = {}
        save_checkpoint(checkpoint, ckpt)
        assert main(["eval", "--config", str(other_cfg), ckpt]) == 0

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--out", "elsewhere"]],
                             ids=["seed", "out"])
    def test_export_refuses_out_and_seed(self, workspace, tmp_path, capsys, flag):
        # Export reads neither train.seed nor output_dir, so it takes no
        # override of them; --out is not read as an abbreviated --out-file.
        cfg_path, _, _ = workspace
        out_file = tmp_path / "emb.csv"
        with pytest.raises(SystemExit) as info:
            main(["export-embeddings", "--config", str(cfg_path), *flag,
                  "--out-file", str(out_file)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out_file.exists()

    def test_eval_seed_does_not_change_the_encoder(self, tmp_path):
        # No backend.seed: the encoder is backend seed 0 whatever --seed says,
        # so the checkpoint is scored against the encoder it was trained on.
        from dpstyler.backends import ToyBackend, ToyBackendSpec
        from dpstyler.core import TaskDefinition
        from dpstyler.toydata import make_toy_dataset

        names = ("cat", "dog", "fish")
        backend = ToyBackend(ToyBackendSpec(noise_level=0.0), names)
        data = tmp_path / "data"
        make_toy_dataset(data, TaskDefinition(names), backend, domains=("art", "photo"),
                         images_per_domain=6, seed=3)
        out = tmp_path / "out"
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SMALL_CONFIG.format(manifest=data, out=out).replace("  seed: 11\n", "")
                       .replace("epochs: 3", "epochs: 40"))
        assert main(["train", "--config", str(cfg), "--seed", "1"]) == 0
        ckpts = [str(p) for p in sorted(out.glob("*.ckpt"))]
        counts = {}
        for seed in ("1", "2"):
            assert main(["eval", "--config", str(cfg), "--seed", seed, *ckpts]) == 0
            fingerprint = load_run_config(cfg, seed_override=int(seed)).fingerprint
            report = json.loads((out / f"report-eval-max-{fingerprint}.json").read_text())
            counts[seed] = report["per_domain_counts"]
        assert counts["1"] == counts["2"] == {"art": [6, 6], "photo": [6, 6]}

    def test_missing_lexicon_exits_2(self, workspace, tmp_path):
        cfg_path, data, out = workspace
        doc = cfg_path.read_text().replace(
            "strategy: random_mix",
            f"strategy: stylemix\n  lexicon: {tmp_path / 'missing.txt'}",
        )
        bad = tmp_path / "bad.yaml"
        bad.write_text(doc)
        assert main(["train", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            "task: {class_names: [a, b]}\ntrain: {seed: null}\n",
            "task: {class_names: [a, b]}\ntrain: {seed: [1]}\n",
            "task: {class_names: 5}\n",
            "task: {class_names: [a, b]}\ntemplates: 5\n",
            "task: {class_names: [a, b]}\ntrain: {ratio: 0}\n",
            "task: {class_names: [a, b]}\nbackend: {dim_token: 0}\n",
            "task: {class_names: [a, b]}\ntrain: {momentum: 1.5}\n",
            "task: {class_names: [a, b]}\nbackend: {noise_level: -1}\n",
            "task: {class_names: [a, b]}\ntrain: {epochs: 2.7}\n",
            "task: {class_names: [a, b]}\ntrain: {epochs: true}\n",
            "task: {class_names: [a, b]}\ntrain: {batch_size: '64'}\n",
            "task: {class_names: [a, b]}\ntrain: {learning_rate: .nan}\n",
            "task: {class_names: [a, b]}\ntrain: {momentum: .inf}\n",
            "task: {class_names: [a, b]}\nstyles: {alpha: .nan}\n",
            "task: {class_names: [yes, no]}\n",
            "task: {class_names: [a, b]}\nbackend: 5\n",
            "task: {class_names: [a, b]}\ntrain: {seed: -1}\n",
            "task: {class_names: [a, b]}\nbackend: {seed: -3}\n",
            "task: {class_names: [a, b]}\nbackend: {dim_joint: 8}\n",
            "task: {class_names: [a, b]}\nstyles: {strategy: gaussian}\n",
        ],
        ids=["train-seed-null", "train-seed-list", "class_names-int", "templates-int",
             "ratio-0", "dim_token-0", "momentum-1.5", "noise_level-negative", "epochs-float",
             "epochs-bool", "batch_size-str", "learning_rate-nan", "momentum-inf", "alpha-nan",
             "class_names-bool", "backend-not-a-mapping", "train-seed-negative",
             "backend-seed-negative", "ratio-above-dim_joint", "strategy-gaussian"],
    )
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.yaml"
        p.write_text(doc)
        with pytest.raises(ConfigError):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ("backend: {style_strength: 3.0}\n", "backend.style_strength"),
            ("backend: {output_gain: 1.0}\n", "backend.output_gain"),
            ("task: {class_names: [a, b], classes: [c, d]}\n", "task.classes"),
            ("train: {epoch: 3}\n", "train.epoch"),
            ("styles: {strateg: stylemix}\n", "styles.strateg"),
            ("eval: {fusoin: average}\n", "eval.fusoin"),
            ("evl: {fusion: average}\n", "evl"),
            ("outputdir: runs\n", "outputdir"),
            ("seed: 12\n", "seed"),
            ("styles: {gaussian_std: 0.02}\n", "styles.gaussian_std"),
        ],
        ids=["backend", "backend-gain", "task", "train", "styles", "eval", "section", "top-level",
             "top-level-seed", "styles-gaussian_std"],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, doc, key):
        p = tmp_path / "bad.yaml"
        p.write_text(doc if doc.startswith("task") else "task: {class_names: [a, b]}\n" + doc)
        with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            "output_dir: 5\n",
            "output_dir: null\n",
            "styles: {lexicon: 5}\n",
            "styles: {strategy: stylemix, lexicon: 0}\n",
            "eval: {manifest: [data]}\n",
            "output_dir: ''\n",
            "styles: {lexicon: ''}\n",
            "eval: {manifest: ''}\n",
        ],
        ids=["output_dir-int", "output_dir-null", "lexicon-int", "lexicon-stdin",
             "manifest-list", "output_dir-empty", "lexicon-empty", "manifest-empty"],
    )
    def test_non_string_path_exits_2(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.yaml"
        p.write_text("task: {class_names: [a, b]}\ntrain: {epochs: 1}\n" + doc)
        with pytest.raises(ConfigError, match="must be a path string"):
            load_run_config(p)
        assert main(["train", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_oversized_csv_manifest_field_exits_2(self, workspace, tmp_path, capsys):
        cfg_path, _, _ = workspace
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,domain,class\n" + "x" * 131_073 + ",art,cat\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text(SMALL_CONFIG.format(manifest=manifest, out=tmp_path / "out"))
        assert main(["zeroshot", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "m.csv" in err and "Traceback" not in err

    def test_backend_returning_a_short_image_batch_exits_2(self, workspace, capsys,
                                                           monkeypatch):
        from dpstyler.backends import ToyBackend

        real = ToyBackend.encode_images
        monkeypatch.setattr(ToyBackend, "encode_images", lambda self, ims: real(self, ims)[:-1])
        cfg_path, _, _ = workspace
        assert main(["zeroshot", "--config", str(cfg_path)]) == 2
        assert "encode_images returned shape (11, 64), expected (12, 64)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "zeroshot", "export-embeddings"])
    @pytest.mark.parametrize("row", ["nan", "inf", "zero"])
    def test_unscorable_image_row_is_counted(self, workspace, tmp_path, capsys, monkeypatch,
                                             command, row):
        from dpstyler.backends import ToyBackend
        from dpstyler.evaluation import load_manifest

        cfg_path, data, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpts = [str(p) for p in sorted(out.glob("*.ckpt"))]
        first = load_manifest(data).entries[0][0]  # the first row of the only chunk
        if row == "zero":  # no content, no style and, at noise_level 0, no noise
            record = json.loads(Path(first).read_text())
            record.update(content_strength=0, nuisance=[0.0] * len(record["nuisance"]))
            Path(first).write_text(json.dumps(record))
        else:
            real = ToyBackend.encode_images

            def poisoned(self, images):
                rows = real(self, images)
                rows[0, 0] = np.nan if row == "nan" else np.inf
                return rows

            monkeypatch.setattr(ToyBackend, "encode_images", poisoned)
        emb = tmp_path / "emb.csv"
        argv = {"eval": ["eval", "--config", str(cfg_path), *ckpts],
                "zeroshot": ["zeroshot", "--config", str(cfg_path)],
                "export-embeddings": ["export-embeddings", "--config", str(cfg_path),
                                      "--checkpoint", ckpts[0], "--out-file", str(emb)]}
        capsys.readouterr()
        assert main(argv[command]) == 0, capsys.readouterr().err
        if command == "export-embeddings":
            assert f"wrote 11 embedding rows to {emb}; decode errors: 1" in capsys.readouterr().out
            paths = [line.split(",")[0] for line in emb.read_text().splitlines()[1:]]
            assert len(paths) == 11 and first not in paths
        else:
            reports = sorted(out.glob("report-*.json"))
            assert len(reports) == (1 if command == "eval" else 2)
            for report in reports:
                payload = json.loads(report.read_text())
                assert payload["decode_errors"] == 1
                assert sum(n for _, n in payload["per_domain_counts"].values()) == 11

    def test_non_finite_class_prompt_row_exits_2(self, workspace, capsys, monkeypatch):
        from dpstyler.backends import ToyBackend

        real = ToyBackend.encode_prompt_rows

        def poisoned(self, *args):
            rows = real(self, *args)
            rows[-1, 0] = np.nan
            return rows

        monkeypatch.setattr(ToyBackend, "encode_prompt_rows", poisoned)
        cfg_path, _, out = workspace
        assert main(["zeroshot", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "encode_prompt_rows returned a non-finite class-prompt row" in err
        assert "Traceback" not in err and not list(out.glob("report-*"))

    def test_zero_class_prompt_row_exits_2(self, workspace, capsys, monkeypatch):
        from dpstyler.backends import ToyBackend

        real = ToyBackend.encode_prompt_rows

        def zeroed(self, *args):
            rows = real(self, *args)
            rows[1] = 0.0
            return rows

        monkeypatch.setattr(ToyBackend, "encode_prompt_rows", zeroed)
        cfg_path, _, out = workspace
        assert main(["zeroshot", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "encode_prompt_rows returned a zero class-prompt row: row 1 ('dog')" in err
        assert "Traceback" not in err and not list(out.glob("report-*"))

    def test_lexicon_of_the_wrong_width_exits_2(self, workspace, capsys, monkeypatch):
        from dpstyler.backends import ToyBackend

        real = ToyBackend.token_embedding_lookup
        monkeypatch.setattr(ToyBackend, "token_embedding_lookup",
                            lambda self, word: np.append(real(self, word), 0.0))
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "token_embedding_lookup returned shape (8, 33), expected (8, 32)" in err
        assert "Traceback" not in err and not list(out.glob("*.ckpt"))

    def test_diverged_training_exits_3(self, workspace, capsys, monkeypatch):
        from dpstyler.backends import ToyBackend

        real = ToyBackend.encode_prompt_rows
        monkeypatch.setattr(ToyBackend, "encode_prompt_rows",
                            lambda self, *args: np.full_like(real(self, *args), np.nan))
        cfg_path, _, out = workspace
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "Traceback" not in err
        assert list(out.iterdir()) == []  # no checkpoint, no metrics.jsonl

    def test_last_step_overflow_exits_3(self, workspace, capsys):
        # One epoch of one batch: no forward pass sees the weights the only
        # SGD step leaves, and their head row norms overflow float32.
        cfg_path, _, out = workspace
        cfg_path.write_text(cfg_path.read_text().replace(
            "epochs: 3", "epochs: 1\n  learning_rate: 1e38"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and err.endswith("at epoch 0\n")
        assert not list(out.glob("*.ckpt"))

    def test_gate_overflow_of_a_diverging_run_exits_3(self, workspace, capsys):
        # The learning rate is finite in float32, so the run starts; its gate's
        # second product then overflows, which is the typed divergence below,
        # not a RuntimeWarning (this suite turns one into an error).
        cfg_path, _, out = workspace
        cfg_path.write_text(cfg_path.read_text().replace(
            "epochs: 3", "epochs: 2\n  learning_rate: 1.0e+30"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == ("numeric failure: non-finite weights (head row norm "
                                           "overflows float32) at epoch 1\n")
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_non_finite_gate_output_exits_2(self, workspace, tmp_path, capsys, command):
        # Finite float32 weights: the first layer overflows to +-inf, and inf * 0
        # in the second is NaN.  No such output is scored as a class or written.
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = sorted(out.glob("*.ckpt"))[0]
        checkpoint = load_checkpoint(ckpt)
        checkpoint.remover.W1[:, 0::2] = 3e38
        checkpoint.remover.W1[:, 1::2] = -3e38
        checkpoint.remover.W2[...] = 0.0
        save_checkpoint(checkpoint, ckpt)
        emb = tmp_path / "emb.csv"
        argv = {"eval": ["eval", "--config", str(cfg_path), str(ckpt)],
                "export-embeddings": ["export-embeddings", "--config", str(cfg_path),
                                      "--checkpoint", str(ckpt), "--out-file", str(emb)]}
        capsys.readouterr()
        assert main(argv[command]) == 2
        assert capsys.readouterr() == ("", f"error: the gate of the checkpoint for "
                                           f"{checkpoint.template_pattern!r} gives a non-finite "
                                           "output\n")
        assert not list(out.glob("report-*")) and not list(tmp_path.glob("emb.csv*"))

    @pytest.mark.parametrize("command", ["train", "eval", "zeroshot", "export-embeddings"])
    def test_dims_beyond_the_address_space_exit_2(self, workspace, tmp_path, capsys, command):
        # NumPy refuses the encoder's (C, D) matrix at once: it is 71.1 PiB.
        cfg_path, _, _ = workspace
        cfg_path.write_text(cfg_path.read_text().replace("dim_joint: 64", "dim_joint: 100000000")
                            .replace("dim_token: 32", "dim_token: 100000000"))
        argv = {"train": ["train", "--config", str(cfg_path)],
                "eval": ["eval", "--config", str(cfg_path), str(tmp_path / "none.ckpt")],
                "zeroshot": ["zeroshot", "--config", str(cfg_path)],
                "export-embeddings": ["export-embeddings", "--config", str(cfg_path),
                                      "--out-file", str(tmp_path / "emb.csv")]}
        capsys.readouterr()
        assert main(argv[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    def test_untyped_value_error_is_a_traceback(self, workspace, monkeypatch):
        # A ValueError that no refusal typed is a bug: main lets it through, so the
        # console script shows its traceback and exits 1, not 2 as for a bad input.
        import dpstyler
        from dpstyler import cli

        def stage(*args, **kwargs):
            raise ValueError("a bug, not a bad input")

        cfg_path, _, out = workspace
        argv = ["train", "--config", str(cfg_path)]
        monkeypatch.setattr(cli, "train_one_model", stage)
        with pytest.raises(ValueError, match="a bug, not a bad input"):
            main(argv)
        script = ("import sys\nfrom dpstyler import cli\n"
                  "def stage(*args, **kwargs):\n    raise ValueError('a bug, not a bad input')\n"
                  f"cli.train_one_model = stage\nsys.exit(cli.main({argv!r}))\n")
        src = str(Path(dpstyler.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback (most recent call last):\n")
        assert proc.stderr.endswith("\nValueError: a bug, not a bad input\n")
        assert not list(out.glob("*.ckpt"))

    def test_export_to_missing_directory_exits_2(self, workspace, tmp_path):
        cfg_path, _, _ = workspace
        assert main([
            "export-embeddings", "--config", str(cfg_path),
            "--out-file", str(tmp_path / "no" / "dir" / "x.csv"),
        ]) == 2

    def test_padded_class_name_exits_2(self, workspace, tmp_path):
        cfg_path, _, _ = workspace
        bad = tmp_path / "bad.yaml"
        bad.write_text(cfg_path.read_text().replace("[cat, dog, fish]", '["cat ", dog, fish]'))
        with pytest.raises(ConfigError, match="whitespace"):
            load_run_config(bad)
        assert main(["train", "--config", str(bad)]) == 2

    def test_non_object_checkpoint_header_exits_2(self, workspace, tmp_path):
        cfg_path, _, _ = workspace
        header = b"[1,2]"
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"DPSTYLR1" + len(header).to_bytes(4, "little") + header)
        assert main(["eval", "--config", str(cfg_path), str(ckpt)]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.update(ratio="4"),
            lambda h: h.update(class_names=3),
            lambda h: h.update(ratio=0),
        ],
        ids=["ratio-str", "class_names-int", "ratio-zero"],
    )
    def test_bad_checkpoint_value_exits_2(self, workspace, capsys, edit):
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = sorted(out.glob("*.ckpt"))[0]
        blob = ckpt.read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:end])
        edit(header)
        new_header = json.dumps(header).encode()
        ckpt.write_bytes(blob[:8] + len(new_header).to_bytes(4, "little") + new_header + blob[end:])
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), str(ckpt)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_width_gate_checkpoint_exits_2(self, workspace, capsys):
        # ratio > dim_joint with the body that goes with it: a gate with
        # no hidden units, which remover_init refuses to build.
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = sorted(out.glob("*.ckpt"))[0]
        blob = ckpt.read_bytes()
        end = 12 + int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:end])
        C, M = header["dim_joint"], len(header["class_names"])
        header["ratio"] = C + 1
        new_header = json.dumps(header).encode()
        head = blob[len(blob) - 4 * M * C :]
        ckpt.write_bytes(blob[:8] + len(new_header).to_bytes(4, "little") + new_header + head)
        with pytest.raises(CheckpointError, match="ratio .* exceeds dim_joint"):
            load_checkpoint(ckpt)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), str(ckpt)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["W1-first-nan", "trailing-bytes", "one-more-class"])
    def test_misplaced_or_non_finite_array_exits_2(self, workspace, capsys, case):
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = sorted(out.glob("*.ckpt"))[0]
        blob = bytearray(ckpt.read_bytes())
        end = 12 + int.from_bytes(blob[8:12], "little")
        if case == "W1-first-nan":  # W1 is the first array of the body
            blob[end : end + 4] = struct.pack("<f", float("nan"))
        elif case == "trailing-bytes":
            blob += bytes(8)
        else:  # the header's class count no longer fits the head it is saved with
            header = json.loads(blob[12:end])
            header["class_names"].append("zebra")
            new_header = json.dumps(header).encode()
            blob[8:end] = len(new_header).to_bytes(4, "little") + new_header
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), str(ckpt)]) == 2
        assert "Traceback" not in capsys.readouterr().err


# The inputs each command reads.  Every command is run against every
# malformed input: one it reads must exit 2 and name the fault, one it
# ignores must not stop it, and neither may leave a traceback.
READS = {
    "train": {"config", "lexicon"},
    "eval": {"config", "manifest", "checkpoint"},
    "zeroshot": {"config", "manifest"},
    "export-embeddings": {"config", "manifest", "checkpoint"},
    "info": {"config"},
}


def _checkpoint_blob(snapshot: dict) -> bytes:
    """A well-formed checkpoint at ``SMALL_CONFIG``'s widths and classes, with
    ``snapshot`` as the config it records."""
    header = json.dumps({
        "format_version": 2, "dim_joint": 64, "dim_token": 32, "ratio": 16,
        "template_pattern": "a [class] in a S* style", "class_names": ["cat", "dog", "fish"],
        "backend_tag": "toy", "seed": 7, "config": snapshot,
    }).encode("utf-8")
    body = np.full(64 * 4 + 4 * 64 + 3 * 64, 0.125, dtype="<f4").tobytes()  # W1, W2, head
    return b"DPSTYLR1" + struct.pack("<I", len(header)) + header + body


# (kind, variant) -> (the malformed file's contents, the refusal's message).
# None for contents: no file at the path.
MALFORMED = {
    ("config", "epochs-list"): ("task: {class_names: [cat, dog, fish]}\ntrain: {epochs: [3]}\n",
                                "train.epochs must be an integer"),
    ("config", "unclosed-flow"): ("task: {class_names: [cat, dog\n", "cannot parse"),
    ("config", "top-level-list"): ("- task\n- train\n", "top level must be a mapping"),
    ("config", "no-class-names"): ("train: {epochs: 1}\n", "task.class_names is required"),
    ("config", "not-utf8"): (b"task: {class_names: [cat, dog, fish]}\n# \xff\xfe\n",
                             "malformed-config: 'utf-8' codec can't decode"),
    # float32, the dtype training casts both to, overflows above 3.4028235e+38.
    ("config", "learning-rate-beyond-float32"): (
        "task: {class_names: [cat, dog, fish]}\ntrain: {learning_rate: 1.0e+39}\n",
        "learning_rate must be > 0 and at most 3.4028234663852886e+38"),
    ("config", "arcface-scale-beyond-float32"): (
        "task: {class_names: [cat, dog, fish]}\ntrain: {arcface_scale: 1.0e+39}\n",
        "scale must be > 0 and at most 3.4028234663852886e+38"),
    ("manifest", "unset"): (None, "eval.manifest is required"),  # eval.manifest left empty
    ("manifest", "no-such-file"): (None, "manifest path not found"),
    ("manifest", "label-not-in-task"): ("path,domain,class\nimg.json,art,zebra\n",
                                        "manifest labels not in task: ['zebra']"),
    ("manifest", "nothing-decodes"): ("path,domain,class\nimg.json,art,cat\n",
                                      "no image in the manifest could be decoded"),
    ("manifest", "bad-header"): ("path,domain\nimg.json,art\n",
                                 "manifest header must be 'path,domain,class'"),
    ("manifest", "short-row"): ("path,domain,class\nimg.json,art\n", "malformed manifest row"),
    ("manifest", "not-utf8"): (b"path,domain,class\n\xff\xfe,art,cat\n",
                               "malformed-manifest: 'utf-8' codec can't decode"),
    ("manifest", "header-only"): ("path,domain,class\n", "malformed-manifest: manifest is empty"),
    ("checkpoint", "truncated"): (b"DPSTYLR1\x10\x00", "truncated file"),
    ("checkpoint", "bad-magic"): (b"not a checkpoint at all", "bad magic"),
    ("checkpoint", "format-v1"): (b"DPSTYLR1\x15\x00\x00\x00" + b'{"format_version": 1}',
                                  "unsupported format version 1 (expected 2)"),
    ("checkpoint", "other-encoder-seed"): (_checkpoint_blob({"backend": {"seed": 12}}),
                                           "has backend.seed 12, the configured backend 11"),
    ("checkpoint", "bool-encoder-seed"): (_checkpoint_blob({"backend": {"seed": True}}),
                                          "has backend.seed True, the configured backend 11"),
    ("checkpoint", "string-encoder-seed"): (_checkpoint_blob({"backend": {"seed": "11"}}),
                                            "has backend.seed '11', the configured backend 11"),
    ("lexicon", "one-word"): ("white  # and nothing else\n",
                              "malformed-lexicon: lexicon needs at least 2 entries"),
    ("lexicon", "repeated-word"): ("white\nsketchy\nwhite\n",
                                   "malformed-lexicon: lexicon labels must be unique"),
    ("lexicon", "two-token-word"): ("white\noil painting\n", "must be single tokens"),
    ("lexicon", "not-utf8"): (b"white\n\xff\xfe\n",
                              "malformed-lexicon: 'utf-8' codec can't decode"),
}
# export-embeddings reads no label space: it writes each record it decodes
# under the manifest's own label, so it refuses this row only because its
# record does not exist.
EXPORT_MESSAGES = {("manifest", "label-not-in-task"): "no image in the manifest could be decoded"}


def _command_line(command, config, checkpoint, out_dir):
    return {
        "train": ["train", "--config", config],
        "eval": ["eval", "--config", config, checkpoint],
        "zeroshot": ["zeroshot", "--config", config],
        "export-embeddings": ["export-embeddings", "--config", config, "--checkpoint",
                              checkpoint, "--out-file", str(out_dir / "emb.csv")],
        "info": ["info", "--config", config],
    }[command]


def _write_malformed(tmp_path, kind, variant) -> Path | str:
    """The path the config names for the input; '' (a YAML null) when it is unset."""
    if variant == "unset":
        return ""
    contents, _ = MALFORMED[kind, variant]
    bad = tmp_path / f"malformed-{kind}"
    if isinstance(contents, bytes):
        bad.write_bytes(contents)
    elif contents is not None:
        bad.write_text(contents, encoding="utf-8")
    return bad


def _small_config(inputs, out) -> str:
    return SMALL_CONFIG.format(manifest=inputs["manifest"], out=out).replace(
        "strategy: random_mix", f"strategy: random_mix\n  lexicon: {inputs['lexicon']}")


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """A readable manifest, lexicon and checkpoint for ``SMALL_CONFIG``."""
    from dpstyler.backends import ToyBackend, ToyBackendSpec
    from dpstyler.core import TaskDefinition
    from dpstyler.toydata import make_toy_dataset

    root = tmp_path_factory.mktemp("good-inputs")
    names = ("cat", "dog", "fish")
    backend = ToyBackend(ToyBackendSpec(seed=11, noise_level=0.0), names)
    make_toy_dataset(root / "data", TaskDefinition(names), backend, domains=("art", "photo"),
                     images_per_domain=3, seed=3)
    (root / "lexicon.txt").write_text("white\nsketchy\nbright\n")
    inputs = {"manifest": root / "data", "lexicon": root / "lexicon.txt"}
    config = root / "run.yaml"
    config.write_text(_small_config(inputs, root / "train-out"))
    assert main(["train", "--config", str(config)]) == 0
    inputs["checkpoint"] = sorted((root / "train-out").glob("*.ckpt"))[0]
    return inputs


class TestMalformedInputs:
    @pytest.mark.parametrize("command", list(READS))
    @pytest.mark.parametrize("kind, variant", list(MALFORMED),
                             ids=[f"{kind}-{variant}" for kind, variant in MALFORMED])
    def test_exits_2_or_3_without_traceback(self, good_inputs, tmp_path, capsys,
                                            command, kind, variant):
        inputs = dict(good_inputs)
        inputs[kind] = bad = _write_malformed(tmp_path, kind, variant)
        config = bad if kind == "config" else tmp_path / "run.yaml"
        if kind != "config":
            config.write_text(_small_config(inputs, tmp_path / "out"))
        capsys.readouterr()
        code = main(_command_line(command, str(config), str(inputs["checkpoint"]), tmp_path))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if kind in READS[command]:
            message = MALFORMED[kind, variant][1]
            if command == "export-embeddings":
                message = EXPORT_MESSAGES.get((kind, variant), message)
            assert code == 2, err
            assert message in err
            assert not list(tmp_path.glob("emb.csv*"))  # export leaves no file behind
        else:
            assert code == 0, err

    @pytest.mark.parametrize("strategy", sorted(set(STRATEGIES) - set(LEXICON_STRATEGIES)))
    @pytest.mark.parametrize("variant", [v for kind, v in MALFORMED if kind == "lexicon"])
    def test_train_reads_no_lexicon_for_a_strategy_without_one(self, good_inputs, tmp_path,
                                                               capsys, strategy, variant):
        inputs = dict(good_inputs, lexicon=_write_malformed(tmp_path, "lexicon", variant))
        config = tmp_path / "run.yaml"
        config.write_text(_small_config(inputs, tmp_path / "out").replace(
            "strategy: random_mix", f"strategy: {strategy}"))
        assert main(["train", "--config", str(config)]) == 0, capsys.readouterr().err



# One fixed config with relative paths, so its fingerprint does not
# depend on where it runs.
PINNED_CONFIG = """\
backend: {dim_joint: 16, dim_token: 8, noise_level: 0.3, seed: 11}
task: {class_names: [cat, dog, fish]}
train: {epochs: 2, batch_size: 8, seed: 7}
styles: {num_styles: 3, strategy: random_mix}
templates: ['a [class] in a S* style', 'a S* style of a [class]']
eval: {manifest: data}
output_dir: out
"""
PINNED_FINGERPRINT = "933ddbc5"
PINNED_INFO_SHA256 = "66c9fbf0d2c1f23e23a9e5942554fb58888c2f42347f2da3b7af5da7e30dddc6"
PINNED_METRICS = {  # each template's metrics.jsonl rows, without wall_time_s
    "tpl-5c468f8a": [
        {"epoch": 0, "loss_uncertainty": -1.090601, "loss_classification": 2.918816,
         "loss_total": 1.828215},
        {"epoch": 1, "loss_uncertainty": -1.090938, "loss_classification": 2.668971,
         "loss_total": 1.578034},
    ],
    "tpl-cf0fc483": [
        {"epoch": 0, "loss_uncertainty": -1.090764, "loss_classification": 3.10652,
         "loss_total": 2.015755},
        {"epoch": 1, "loss_uncertainty": -1.090986, "loss_classification": 2.871443,
         "loss_total": 1.780457},
    ],
}
PINNED_REPORT_SHA256 = "f38adfa46afa75b91857763c697cacb251dabc9e3fed88fdec9247765f5fefbe"


class TestPinnedWorkflow:
    """What ``info``, ``train`` and ``eval`` write for ``PINNED_CONFIG``, byte for byte."""

    def test_outputs_are_pinned(self, tmp_path, monkeypatch, capsys):
        from dpstyler.backends import ToyBackend, ToyBackendSpec
        from dpstyler.core import TaskDefinition
        from dpstyler.toydata import make_toy_dataset

        monkeypatch.chdir(tmp_path)
        names = ("cat", "dog", "fish")
        backend = ToyBackend(ToyBackendSpec(dim_joint=16, dim_token=8, seed=11), names)
        make_toy_dataset("data", TaskDefinition(names), backend, domains=("art", "photo"),
                         images_per_domain=6, seed=3, confusion=1.5)
        Path("run.yaml").write_text(PINNED_CONFIG)
        assert load_run_config("run.yaml").fingerprint == PINNED_FINGERPRINT

        assert main(["info", "--config", "run.yaml"]) == 0
        info = capsys.readouterr()
        assert hashlib.sha256(info.out.encode()).hexdigest() == PINNED_INFO_SHA256
        assert info.err == f"fingerprint: {PINNED_FINGERPRINT}\n"

        assert main(["train", "--config", "run.yaml"]) == 0
        stems = [f"{tpl}-{PINNED_FINGERPRINT}" for tpl in PINNED_METRICS]
        assert sorted(p.name for p in Path("out").iterdir()) == sorted(
            f"{stem}.{ext}" for stem in stems for ext in ("ckpt", "metrics.jsonl"))
        for tpl, stem in zip(PINNED_METRICS, stems):
            lines = Path("out", f"{stem}.metrics.jsonl").read_text().splitlines()
            rows = [json.loads(line) for line in lines]
            assert [{k: v for k, v in row.items() if k != "wall_time_s"}
                    for row in rows] == PINNED_METRICS[tpl]

        assert main(["eval", "--config", "run.yaml", *(f"out/{s}.ckpt" for s in stems)]) == 0
        report = Path("out", f"report-eval-max-{PINNED_FINGERPRINT}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == PINNED_REPORT_SHA256

    def test_config_built_in_code_describes_itself(self, tmp_path, capsys):
        # ``info`` on the document ``raw`` prints that document back,
        # with the fingerprint of the config built in code.
        from dpstyler.backends import ToyBackendSpec
        from dpstyler.config import RunConfig
        from dpstyler.core import TaskDefinition
        from dpstyler.styles import StyleGenConfig
        from dpstyler.trainer import TrainConfig

        rc = RunConfig(
            backend_spec=ToyBackendSpec(dim_joint=16, dim_token=8, seed=3),
            task=TaskDefinition(("cat", "dog")),
            train=TrainConfig(epochs=4, seed=3, style_gen=StyleGenConfig(strategy="frozen")),
            output_dir="out",
        )
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(rc.raw))
        assert main(["info", "--config", str(path)]) == 0
        printed = capsys.readouterr()
        assert json.loads(printed.out) == rc.raw
        assert printed.err == f"fingerprint: {rc.fingerprint}\n"
        assert load_run_config(path) == rc

    def test_every_backend_field_has_a_key(self):
        # A field with no key would not be in ``raw``, so the fingerprint (and
        # every output file name) could not tell two backends apart by it.
        from dataclasses import fields

        from dpstyler.backends import ToyBackendSpec

        keyed = {name for *_, cls, name in _KEYS if cls is ToyBackendSpec}
        assert keyed == {f.name for f in fields(ToyBackendSpec)}
