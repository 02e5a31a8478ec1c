"""Tests of the benchmark itself, at tiny shapes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from dpbench import bench
from dpbench.workloads import BATCH_SIZE, DOMAINS, WORKLOADS
from dpstyler import evaluation, trainer

from conftest import PERFBENCH, REPO


def _run(root, capsys, workload, trace=0, seed=3):
    status = bench.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        root, scale="tiny",
    )
    last = capsys.readouterr().out.rstrip("\n").split("\n")[-1]
    return status, json.loads(last)


def _details(root, workload, trace, seed=3):
    path = os.path.join(root, bench.WORK_DIR, "results",
                        f"{workload}-tiny-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _declared(section):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_declared_workloads_match_the_table():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(bench_root, capsys, workload):
    status, summary = _run(bench_root, capsys, workload)
    assert status == 0
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == _declared("end_to_end")
    for value in summary["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_emits_every_per_layer_metric(bench_root, capsys, workload):
    status, summary = _run(bench_root, capsys, workload, trace=1)
    assert status == 0 and summary["correct"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == _declared("per_layer")


def test_traced_counts_match_the_training_shape(bench_root, capsys):
    _run(bench_root, capsys, "train-domainnet", trace=1)
    metrics = _details(bench_root, "train-domainnet", 1)["metrics"]
    shape = WORKLOADS["train-domainnet"].tiny
    prompts = shape.num_classes * shape.num_styles
    assert shape.epochs == 1
    assert metrics["backends.text_encode_calls"] == prompts
    assert metrics["backends.style_text_encode_calls"] == shape.num_styles
    assert metrics["losses.loss_gradients_calls"] == math.ceil(prompts / BATCH_SIZE)
    assert metrics["remover.remover_forward_rows"] == prompts


def test_traced_counts_match_the_ensemble(bench_root, capsys):
    _run(bench_root, capsys, "eval-domainnet", trace=1)
    result = _details(bench_root, "eval-domainnet", 1)
    decoded = result["details"]["decoded_per_pass"]
    shape = WORKLOADS["eval-domainnet"].tiny
    ensemble = decoded["ensemble-max-n3"]
    assert ensemble == shape.images_per_domain * len(DOMAINS) - shape.malformed
    assert result["metrics"]["evaluation.predict_scores_calls"] == shape.templates * ensemble
    assert result["metrics"]["evaluation.zeroshot_predict_calls"] == (
        decoded["zeroshot-C"] + decoded["zeroshot-PC"]
    )


def test_same_seed_gives_same_inputs(tmp_path):
    def generate(seed, out):
        subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "generate.py"), "--workload",
             "eval-domainnet", "--scale", "tiny", "--seed", str(seed), "--out", str(out)],
            check=True, timeout=120,
        )
        files = {}
        for dirpath, _, names in os.walk(out):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = fh.read()
        return files

    first = generate(5, tmp_path / "a")
    assert first == generate(5, tmp_path / "b")
    assert first != generate(6, tmp_path / "c")


def _off_by_one(predict):
    def wrong(*args, **kwargs):
        return (predict(*args, **kwargs) + 1) % WORKLOADS["eval-domainnet"].tiny.num_classes
    return wrong


@pytest.mark.parametrize("attr", ["ensemble_predict", "zeroshot_predict"])
def test_wrong_predictor_is_caught(bench_root, capsys, monkeypatch, attr):
    monkeypatch.setattr(evaluation, attr, _off_by_one(getattr(evaluation, attr)))
    status, summary = _run(bench_root, capsys, "eval-domainnet")
    assert status != 0
    assert not summary["correct"] and summary["failed"] > 0


def _flip_last_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0x40]))


def test_corrupted_checkpoint_is_caught_in_training(bench_root, capsys, monkeypatch):
    save = trainer.save_checkpoint

    def save_corrupted(checkpoint, path):
        save(checkpoint, path)
        _flip_last_byte(path)

    monkeypatch.setattr(trainer, "save_checkpoint", save_corrupted)
    status, summary = _run(bench_root, capsys, "train-pacs")
    assert status != 0
    assert not summary["correct"] and summary["failed"] > 0


def test_corrupted_checkpoint_is_caught_in_evaluation(bench_root, capsys):
    status, _ = _run(bench_root, capsys, "eval-domainnet")
    assert status == 0
    inputs_dir = os.path.join(bench_root, bench.WORK_DIR, "inputs", "eval-domainnet-tiny-seed3")
    _flip_last_byte(os.path.join(inputs_dir, "member1.ckpt"))
    status, summary = _run(bench_root, capsys, "eval-domainnet")
    assert status != 0
    assert not summary["correct"] and summary["failed"] > 0


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-pacs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
