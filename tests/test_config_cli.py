"""Run-config parsing and the command-line workflow end to end."""
import csv
import json
import struct

import pytest
import yaml

from dpstyler.cli import main
from dpstyler.config import ConfigError, load_run_config

SMALL_CONFIG = """
backend:
  variant: toy
  dim_joint: 64
  dim_token: 32
  seed: 11
  noise_level: 0.0
  style_strength: 3.0
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
    backend = ToyBackend(
        ToyBackendSpec(seed=11, noise_level=0.0, style_strength=3.0), names
    )
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
    "flow-style": "backend: {variant: toy}\ntask: {class_names: [a, b]}\n"
                  "templates: ['a [class] in a S* style', 'a S* style of a [class]']\n",
    "top-level-seed": "task: {class_names: [a, b]}\nseed: 12\ntrain: {epochs: 1}\n",
    "perfbench-345": _perfbench_shaped_config(),
}


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
        assert seen == [preferred, yaml.SafeLoader]

    @pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
    @pytest.mark.parametrize(
        "doc",
        ["task: {class_names: [a, b]\n", "task:\n  class_names: [a\n   - b\n", "a: b: c\n",
         "task: !!python/object:os.system {}\n", "\t- tab\n"],
        ids=["unclosed-flow", "bad-indent", "nested-mapping", "unsafe-tag", "tab"],
    )
    def test_malformed_yaml_exits_2(self, tmp_path, monkeypatch, capsys, libyaml, doc):
        if not libyaml:
            self._without_libyaml(monkeypatch)
        p = tmp_path / "bad.yaml"
        p.write_text(doc)
        with pytest.raises(ConfigError, match="cannot parse"):
            load_run_config(p)
        assert main(["info", "--config", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err


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

    def test_export_embeddings_with_and_without_checkpoint(self, workspace, tmp_path):
        cfg_path, _, out = workspace
        main(["train", "--config", str(cfg_path)])
        ckpt = str(sorted(out.glob("*.ckpt"))[0])
        raw_csv = tmp_path / "raw.csv"
        both_csv = tmp_path / "both.csv"
        assert main(["export-embeddings", "--config", str(cfg_path), "--out-file", str(raw_csv)]) == 0
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


class TestCliErrors:
    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.yaml")]) == 2

    def test_mismatched_checkpoint_classes_exit_2(self, workspace, tmp_path):
        cfg_path, data, out = workspace
        main(["train", "--config", str(cfg_path)])
        other_cfg = tmp_path / "other.yaml"
        other_cfg.write_text(
            SMALL_CONFIG.format(manifest=data, out=tmp_path / "out2").replace(
                "[cat, dog, fish]", "[ant, bee, cow]"
            )
        )
        ckpt = str(sorted(out.glob("*.ckpt"))[0])
        assert main(["eval", "--config", str(other_cfg), ckpt]) == 2

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
            "task: {class_names: [a, b]}\nseed: [1]\n",
            "task: {class_names: 5}\n",
            "task: {class_names: [a, b]}\ntemplates: 5\n",
        ],
        ids=["train-seed-null", "seed-list", "class_names-int", "templates-int"],
    )
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, doc):
        p = tmp_path / "bad.yaml"
        p.write_text(doc)
        with pytest.raises(ConfigError):
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
        ],
        ids=["output_dir-int", "output_dir-null", "lexicon-int", "lexicon-stdin",
             "manifest-list"],
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
            lambda h: h["arrays"][0].update(offset=-40),
        ],
        ids=["ratio-str", "class_names-int", "negative-offset"],
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

    @pytest.mark.parametrize("case", ["W1-offset-1", "W1-first-nan"])
    def test_misplaced_or_non_finite_array_exits_2(self, workspace, capsys, case):
        cfg_path, _, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = sorted(out.glob("*.ckpt"))[0]
        blob = bytearray(ckpt.read_bytes())
        end = 12 + int.from_bytes(blob[8:12], "little")
        if case == "W1-offset-1":
            header = json.loads(blob[12:end])
            header["arrays"][0]["offset"] = 1
            new_header = json.dumps(header).encode()
            blob[8:end] = len(new_header).to_bytes(4, "little") + new_header
        else:  # W1 is the first array of the body
            blob[end : end + 4] = struct.pack("<f", float("nan"))
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), str(ckpt)]) == 2
        assert "Traceback" not in capsys.readouterr().err
