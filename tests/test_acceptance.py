"""Acceptance gate: one test per acceptance criterion, each printing an
explicit PASS/FAIL line.

Thresholds for the end-to-end toy pipeline (criterion 6) were frozen
after pilot calibration runs: the seeded toy backend below yields a
trained ensemble at ~98% on the 200-image synthetic manifest, zero-shot
baselines at ~93%, and a held-out domain-uncertainty improvement of
~2e-3 (two orders of magnitude above the measurement noise floor).
"""
import hashlib
import sys
import time

import numpy as np

from dpstyler.core import l2_normalize, softmax
from dpstyler.evaluation import (
    EnsembleBundle,
    ensemble_predict,
    evaluate,
    load_manifest,
    zeroshot_predict,
)
from dpstyler.losses import (
    ArcFaceConfig,
    ClassifierHead,
    arcface_loss,
    domain_uncertainty_loss,
    loss_gradients,
)
from dpstyler.remover import StyleRemoverParams, remover_backward, remover_forward
from dpstyler.styles import (
    STRATEGIES,
    StyleGenConfig,
    refresh_bank,
    stylemix_style,
)
from dpstyler.trainer import (
    encode_probe,
    load_checkpoint,
    save_checkpoint,
    train_one_model,
)

from conftest import E2E_NUM_STYLES, e2e_train_config, encode_grid


def _verdict(criterion: str, ok: bool) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    print("\n" + line)
    # Also bypass pytest's capture so the verdict lines land in plain
    # `pytest -v` output.
    print(line, file=sys.__stdout__)
    assert ok, f"acceptance criterion failed: {criterion}"


# --------------------------------------------------------------------------
# 1. Gradient oracle
# --------------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    """Analytic gradients of the full objective, taken through the removal
    gate, match central finite differences on 100 random small instances
    (C=8, K=4, M=3, bottleneck ratio 2) to relative error < 1e-5 in 64-bit."""
    rng = np.random.default_rng(2024)
    C, K, M, ratio, B = 8, 4, 3, 2, 3
    cfg = ArcFaceConfig(scale=5.0, margin=0.5)
    eps = 1e-6
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        params = StyleRemoverParams(
            W1=rng.standard_normal((C, C // ratio)),
            W2=rng.standard_normal((C // ratio, C)),
            ratio=ratio,
        )
        probe = l2_normalize(rng.standard_normal((K, C)))
        head = ClassifierHead(weights=rng.standard_normal((M, C)))
        feats = rng.standard_normal((B, C))
        targets = rng.integers(M, size=B)

        def objective(raw, W1, W2, weights):
            p = StyleRemoverParams(W1=W1, W2=W2, ratio=ratio)
            removed = remover_forward(raw, p)
            h = ClassifierHead(weights=weights)
            lu = np.mean([
                domain_uncertainty_loss(softmax(l2_normalize(f) @ probe.T))
                for f in removed
            ])
            lc = np.mean([arcface_loss(f, h, int(t), cfg)[0] for f, t in zip(removed, targets)])
            return lu + lc

        removed = remover_forward(feats, params)
        breakdown = loss_gradients(removed, probe, head, targets, cfg)
        d_feats, d_W1, d_W2 = remover_backward(feats, params, breakdown.d_features)

        for analytic, base, rebuild in (
            (d_feats, feats, lambda x: objective(x, params.W1, params.W2, head.weights)),
            (d_W1, params.W1, lambda x: objective(feats, x, params.W2, head.weights)),
            (d_W2, params.W2, lambda x: objective(feats, params.W1, x, head.weights)),
            (breakdown.d_head, head.weights, lambda x: objective(feats, params.W1, params.W2, x)),
        ):
            flat = base.ravel()
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                bump = flat.copy()
                bump[i] += eps
                hi = rebuild(bump.reshape(base.shape))
                bump[i] -= 2 * eps
                lo = rebuild(bump.reshape(base.shape))
                numeric[i] = (hi - lo) / (2 * eps)
            denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
            worst = max(worst, float(np.abs(analytic.ravel() - numeric).max() / denom))
    elapsed = time.perf_counter() - start
    print(f"\n  worst relative error {worst:.3e} over 100 instances in {elapsed:.1f}s")
    _verdict("1 (gradient oracle)", worst < 1e-5 and elapsed < 30.0)


# --------------------------------------------------------------------------
# 2. Loss invariants
# --------------------------------------------------------------------------

def test_criterion_2_loss_invariants():
    rng = np.random.default_rng(7)
    ok = True
    # Extremal entropy values.
    ok &= abs(domain_uncertainty_loss(np.full(80, 1 / 80)) - (-4.38203)) < 1e-4
    onehot = np.zeros(80)
    onehot[3] = 1.0
    ok &= domain_uncertainty_loss(onehot) == 0.0
    for k in (2, 8, 80):
        for _ in range(200):
            p = rng.dirichlet(np.ones(k))
            v = domain_uncertainty_loss(p)
            ok &= -np.log(k) - 1e-6 <= v <= 1e-9
    # m=0 reduction to a direct cross-entropy oracle.
    clamp = 1.0 - 1e-7
    for _ in range(100):
        head = ClassifierHead(weights=rng.standard_normal((4, 8)))
        f = rng.standard_normal(8)
        t = int(rng.integers(4))
        loss, _ = arcface_loss(f, head, t, ArcFaceConfig(scale=5.0, margin=0.0))
        wn = head.weights / np.linalg.norm(head.weights, axis=1, keepdims=True)
        logits = 5.0 * np.clip(wn @ (f / np.linalg.norm(f)), -clamp, clamp)
        expected = float(-np.log(softmax(logits)[t]))
        ok &= abs(loss - expected) < 1e-6
    # Cosine scale invariance of both losses.
    probe = l2_normalize(rng.standard_normal((6, 8)))
    for _ in range(50):
        f = rng.standard_normal(8)
        c = float(rng.uniform(0.01, 100))
        head = ClassifierHead(weights=rng.standard_normal((4, 8)))
        a1, _ = arcface_loss(f, head, 1, ArcFaceConfig(5.0, 0.5))
        a2, _ = arcface_loss(c * f, head, 1, ArcFaceConfig(5.0, 0.5))
        ok &= abs(a1 - a2) < 1e-6
        z1 = l2_normalize(f) @ probe.T
        z2 = l2_normalize(c * f) @ probe.T
        ok &= np.abs(z1 - z2).max() < 1e-6
    _verdict("2 (loss invariant suite)", bool(ok))


# --------------------------------------------------------------------------
# 3. Style-SE structural suite
# --------------------------------------------------------------------------

def test_criterion_3_gate_structure():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(100):
        C = int(rng.integers(2, 32))
        hidden = max(1, C // 4)
        p = StyleRemoverParams(
            W1=rng.standard_normal((C, hidden)),
            W2=rng.standard_normal((hidden, C)),
            ratio=4,
        )
        v = rng.standard_normal(C)
        v[rng.integers(C)] = 0.0
        out = remover_forward(v, p)
        nz = v != 0
        ratio = out[nz] / v[nz]
        # Gate lives in (1, 2) mathematically; float saturation may touch
        # the endpoints exactly.
        ok &= bool(np.all(ratio >= 1.0) and np.all(ratio <= 2.0))
        ok &= bool(np.all(np.sign(out[nz]) == np.sign(v[nz])))
        ok &= bool(np.all(out[~nz] == 0.0))
    # W = 0 identity.
    z = StyleRemoverParams(W1=np.zeros((8, 2)), W2=np.zeros((2, 8)), ratio=4)
    v = rng.standard_normal(8)
    ok &= bool(np.array_equal(remover_forward(v, z), 1.5 * v))
    # Hand-computed C=2 instance.
    p = StyleRemoverParams(W1=np.array([[1.0], [0.0]]), W2=np.array([[1.0, 0.0]]), ratio=2)
    got = remover_forward(np.array([1.0, 1.0]), p)
    ok &= bool(np.abs(got - np.array([1.731059, 1.5])).max() < 1e-6)
    _verdict("3 (style gate structural suite)", bool(ok))


# --------------------------------------------------------------------------
# 4. Style generation statistics
# --------------------------------------------------------------------------

def test_criterion_4_style_generation(monkeypatch):
    import dpstyler.styles as styles_mod

    rng = np.random.default_rng(17)
    start = time.perf_counter()
    ok = True
    # StyleMix: convex-hull bounds over 1e4 draws, and unit weight sum via
    # the constant-lexicon identity.
    lex = rng.standard_normal((8, 16))
    lo, hi = lex.min(axis=0) - 1e-6, lex.max(axis=0) + 1e-6
    draw_rng = np.random.default_rng(18)
    for _ in range(10_000):
        v = stylemix_style(lex, 0.1, draw_rng)
        ok &= bool(np.all(v >= lo) and np.all(v <= hi))
    c = rng.standard_normal(16)
    const_lex = np.tile(c, (3, 1))
    for seed in range(100):
        v = stylemix_style(const_lex, 0.1, np.random.default_rng(seed))
        ok &= bool(np.abs(v - c).max() < 1e-6)
    # Random-Mix coin over 1e4 epochs.  Both branches draw from the same
    # (seed, epoch) stream, so each epoch's bank equals exactly one branch's
    # bank, and the coin is read from which.
    random_epochs = 0
    for e in range(10_000):
        mixed, random_bank, stylemix_bank = (
            refresh_bank(StyleGenConfig(num_styles=1, strategy=s), 16, 5, e, lexicon=lex)
            for s in ("random_mix", "random", "stylemix")
        )
        is_random = np.array_equal(mixed, random_bank)
        ok &= is_random != np.array_equal(mixed, stylemix_bank)
        random_epochs += is_random
    coin = random_epochs / 10_000
    ok &= abs(coin - 0.5) <= 0.02
    # Five-distribution selection over >= 1e4 draws.
    picked = []
    real = styles_mod.random_style

    def spy(dist, dim, r):
        picked.append(dist)
        return real(dist, dim, r)

    monkeypatch.setattr(styles_mod, "random_style", spy)
    rcfg = StyleGenConfig(num_styles=10, strategy="random")
    for e in range(1000):
        refresh_bank(rcfg, 16, 6, e)
    monkeypatch.undo()
    freqs = {d: picked.count(d) / len(picked) for d in styles_mod.RANDOM_DISTRIBUTIONS}
    ok &= len(picked) >= 10_000
    ok &= all(abs(f - 0.2) <= 0.02 for f in freqs.values())
    # Bit-identical determinism.
    for strategy in STRATEGIES:
        scfg = StyleGenConfig(num_styles=8, strategy=strategy)
        a = refresh_bank(scfg, 16, 9, 4, lexicon=lex)
        b = refresh_bank(scfg, 16, 9, 4, lexicon=lex)
        ok &= bool(np.array_equal(a, b))
    elapsed = time.perf_counter() - start
    print(f"\n  coin frequency {coin:.3f}; distribution spread {freqs}")
    _verdict("4 (style-generation suite)", bool(ok) and elapsed < 60.0)


# --------------------------------------------------------------------------
# 5. Ensemble fusion oracle
# --------------------------------------------------------------------------

def test_criterion_5_ensemble_oracle(monkeypatch):
    import dpstyler.evaluation as ev

    rng = np.random.default_rng(23)
    ok = True
    for _ in range(10_000):
        N = int(rng.integers(1, 5))
        M = int(rng.integers(2, 7))
        scores = rng.standard_normal((N, M))
        if rng.uniform() < 0.3:  # force ties
            flat = scores.ravel()
            i, j = rng.choice(flat.size, size=2, replace=False)
            flat[i] = flat[j]

        rows = iter(scores)
        monkeypatch.setattr(ev, "predict_scores", lambda e, m, _r=rows: next(_r))
        member = _stub_checkpoint(M)
        bundle = EnsembleBundle(tuple(member for _ in range(N)), fusion="max")
        got_max = ensemble_predict(np.zeros(4), bundle)
        rows = iter(scores)
        monkeypatch.setattr(ev, "predict_scores", lambda e, m, _r=rows: next(_r))
        bundle_avg = EnsembleBundle(tuple(member for _ in range(N)), fusion="average")
        got_avg = ensemble_predict(np.zeros(4), bundle_avg)

        # Brute-force scans with the documented tie order.
        best = None
        for mi in range(N):
            for ci in range(M):
                key = (-scores[mi, ci], ci, mi)
                if best is None or key < best:
                    best = key
        ok &= got_max == best[1]
        means = scores.mean(axis=0)
        expect_avg = min(range(M), key=lambda ci: (-means[ci], ci))
        ok &= got_avg == expect_avg
        if not ok:
            break
    _verdict("5 (ensemble oracle)", bool(ok))


def _stub_checkpoint(M):
    from dpstyler.losses import ClassifierHead
    from dpstyler.trainer import Checkpoint

    C = 4
    return Checkpoint(
        remover=StyleRemoverParams(W1=np.zeros((C, 1)), W2=np.zeros((1, C)), ratio=C),
        head=ClassifierHead(weights=np.eye(M, C) + 1e-3),
        template_pattern="a [class] in a S* style",
        class_names=tuple(f"c{i}" for i in range(M)),
        backend_tag="toy",
        dim_token=4,
        seed=0,
    )


# --------------------------------------------------------------------------
# 6. End-to-end toy pipeline
# --------------------------------------------------------------------------

def test_criterion_6_end_to_end(task, templates, e2e_backend, e2e_lexicon, trained_models,
                                toy_dataset_root):
    # Wall time per model, re-measured on a fresh single-template run so
    # the session fixture's cost does not hide a regression.
    start = time.perf_counter()
    train_one_model(task, e2e_backend, templates[0], e2e_train_config(), lexicon=e2e_lexicon)
    per_model = time.perf_counter() - start

    manifest = load_manifest(toy_dataset_root)
    assert len(manifest.entries) == 200
    bundle = EnsembleBundle(
        tuple(r.checkpoint for r in trained_models), fusion="max"
    )
    ensemble = evaluate(
        manifest, e2e_backend, task, lambda e: ensemble_predict(e, bundle)
    ).average_accuracy
    zeroshot = {
        mode: evaluate(
            manifest, e2e_backend, task,
            lambda e: zeroshot_predict(e, e2e_backend, task, mode),
        ).average_accuracy
        for mode in ("C", "PC")
    }

    # Domain-uncertainty effect on a held-out style bank.
    held = refresh_bank(
        StyleGenConfig(num_styles=E2E_NUM_STYLES, strategy="frozen"),
        e2e_backend.dim_token,
        9999,
        epoch=0,
    )
    tn = encode_probe(e2e_backend, held, 0)
    feats = encode_grid(e2e_backend, templates[0].pattern, task.class_names, held)
    feats = feats.reshape(-1, e2e_backend.dim_joint)

    def mean_lu(x):
        p = softmax(l2_normalize(x) @ tn.T)
        return float(np.mean(np.sum(p * np.log(p), axis=1)))

    lu_raw = mean_lu(feats)
    lu_removed = mean_lu(remover_forward(feats, trained_models[0].checkpoint.remover))

    print(f"\n  per-model wall time  {per_model:.2f}s (< 60s)")
    print(f"  ensemble top-1       {ensemble:.1f}% (>= 95%)")
    print(f"  zero-shot C / PC     {zeroshot['C']:.1f}% / {zeroshot['PC']:.1f}% (strictly below)")
    print(f"  mean L_U raw/removed {lu_raw:.5f} / {lu_removed:.5f} (removed strictly lower)")
    ok = (
        per_model < 60.0
        and ensemble >= 95.0
        and zeroshot["C"] < ensemble
        and zeroshot["PC"] < ensemble
        and lu_removed < lu_raw
    )
    _verdict("6 (end-to-end toy pipeline)", ok)


# --------------------------------------------------------------------------
# 7. Determinism and persistence
# --------------------------------------------------------------------------

def test_criterion_7_determinism(task, templates, e2e_backend, e2e_lexicon, tmp_path):
    cfg = e2e_train_config(epochs=10)

    def encoder_hash():
        h = hashlib.sha256()
        probe_rng = np.random.default_rng(99)
        for _ in range(10):
            s = probe_rng.standard_normal(e2e_backend.dim_token)
            row = e2e_backend.encode_prompt_rows(
                templates[0].pattern, task.class_names[:1], s[None], np.arange(1))[0]
            h.update(row.tobytes())
            h.update(e2e_backend.encode_style_prompts(s[None])[0].tobytes())
        return h.hexdigest()

    before = encoder_hash()
    a = train_one_model(task, e2e_backend, templates[0], cfg, lexicon=e2e_lexicon)
    b = train_one_model(task, e2e_backend, templates[0], cfg, lexicon=e2e_lexicon)
    after = encoder_hash()

    identical = (
        np.array_equal(a.checkpoint.remover.W1, b.checkpoint.remover.W1)
        and np.array_equal(a.checkpoint.remover.W2, b.checkpoint.remover.W2)
        and np.array_equal(a.checkpoint.head.weights, b.checkpoint.head.weights)
    )
    path = tmp_path / "det.ckpt"
    save_checkpoint(a.checkpoint, path)
    back = load_checkpoint(path)
    round_trip = (
        np.array_equal(back.remover.W1, a.checkpoint.remover.W1)
        and np.array_equal(back.remover.W2, a.checkpoint.remover.W2)
        and np.array_equal(back.head.weights, a.checkpoint.head.weights)
    )
    _verdict(
        "7 (determinism and persistence)",
        identical and round_trip and before == after,
    )


# --------------------------------------------------------------------------
# 8. Full-scale reproduction is documentation-only
# --------------------------------------------------------------------------

def test_criterion_8_integration_recipe_documented():
    """Benchmark-scale accuracy reproduction needs external pretrained
    weights and datasets; the repository documents the recipe and its
    tolerance instead of running it.  This test checks the documentation
    exists and never downloads anything."""
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = "Integration recipe" in text and "±1.0" in text
    _verdict("8 (integration recipe documented, never run in CI)", ok)
