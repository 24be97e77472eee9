"""Acceptance suite: one test per load-bearing guarantee of the package.

Each criterion prints a ``CRITERION-n PASS/FAIL`` line (surfaced in the
pytest terminal summary by conftest). Training-based criteria share one
module-scoped fixture so the 60-epoch runs happen once.
"""

import dataclasses
import json
import math
import statistics

import numpy as np
import pytest

from oat import autodiff as ad
from oat.adversary import AttackSpec, pgd_attack
from oat.autodiff import Value
from oat.corruption import (ClassCounts, CorruptionSpec, apply_exponential_imbalance,
                            apply_symmetric_noise, class_counts, compute_nr,
                            corrupt, exponential_targets)
from oat.dataio import SyntheticSpec, gen_synthetic
from oat.evalcli import cli
from oat.evaluation import evaluate, distribution_error
from oat.models import (AT_MODEL, ORACLE, ArchSpec, forward_features,
                        forward_logits, detached, init_model, load_model,
                        project_predict)
from oat.oracle import (KnnIndex, knn_split,
                        oracle_interaction_loss, oracle_supervised_loss,
                        predict_probs)
from oat.rng import SplitMix64
from oat.trainer import TrainConfig, adjust_logits, at_model_loss, train

from helpers import (SMALL_RUN_AUGMENT, brute_force_knn_majority, cw_margin_loss,
                     fd_max_rel_error, readme_block, readme_quickstart)

CRITERION_LINES: list[str] = []


def _criterion(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION-{number} {verdict}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient soundness
# ---------------------------------------------------------------------------

GRAD_ARCH = ArchSpec(input_dim=5, encoder_widths=(7,), feature_dim=6, num_classes=3,
                     projector_hidden=8, projector_out=4,
                     predictor_hidden=8, predictor_out=4)


def _loss_suite(seed: int):
    """Every loss in the package as (name, loss_fn, params) closures."""
    rng = SplitMix64(seed).fork("gradcheck")
    oracle = init_model(GRAD_ARCH, ORACLE, seed=seed * 2 + 1)
    at = init_model(GRAD_ARCH, AT_MODEL, seed=seed * 2 + 2)
    x = rng.uniform(4 * 5).reshape(4, 5)
    x_adv = np.clip(x + rng.uniform_range(4 * 5, -0.05, 0.05).reshape(4, 5), 0, 1)
    view1 = np.clip(x + rng.uniform_range(4 * 5, -0.03, 0.03).reshape(4, 5), 0, 1)
    view2 = np.clip(x + rng.uniform_range(4 * 5, -0.06, 0.06).reshape(4, 5), 0, 1)
    y = np.array([rng.randint(3) for _ in range(4)])
    dist = ClassCounts((7, 2, 11))

    # stop-gradient targets are held constant while differencing: reverse mode
    # differentiates the loss with the detached branch frozen at its value
    frozen = detached(oracle)
    cos_target = project_predict(frozen, forward_features(frozen, view1), False).data.copy()
    align_target = project_predict(frozen, forward_features(frozen, x), False).data.copy()

    def loss_cos_oracle():
        online = project_predict(oracle, forward_features(oracle, view2), True)
        return ad.cosine_loss(Value(cos_target), online)

    def loss_ce_oracle():
        return oracle_supervised_loss(oracle, x, y)

    def loss_mse_oracle():
        return oracle_interaction_loss(oracle, at, x)

    soft = predict_probs(oracle, x)
    cfg_plain = TrainConfig(interaction_enabled=False, adjustment_enabled=False)
    cfg_adjusted = TrainConfig(interaction_enabled=False, adjustment_enabled=True)

    def loss_soft_ce():
        return at_model_loss(at, oracle, x, x_adv, soft, dist, cfg_plain)[0]

    def loss_soft_ce_adjusted():
        return at_model_loss(at, oracle, x, x_adv, soft, dist, cfg_adjusted)[0]

    def loss_cos_model():
        online = project_predict(detached(oracle), forward_features(at, x_adv), True)
        return ad.cosine_loss(Value(align_target), online)

    def loss_cw():
        return cw_margin_loss(forward_logits(at, x_adv), y)

    return [
        ("contrastive(oracle)", loss_cos_oracle, oracle.parameters()),
        ("supervised(oracle)", loss_ce_oracle, oracle.parameters()),
        ("divergence(oracle)", loss_mse_oracle, oracle.parameters()),
        ("soft_ce", loss_soft_ce, at.parameters()),
        ("soft_ce+adjust", loss_soft_ce_adjusted, at.parameters()),
        ("feature_align", loss_cos_model, at.parameters()),
        ("cw_margin", loss_cw, at.parameters()),
    ]


def test_criterion_1_gradient_soundness():
    worst = 0.0
    worst_name = ""
    for seed in range(50):
        for name, loss_fn, params in _loss_suite(seed):
            err = fd_max_rel_error(loss_fn, params, h=1e-5, coords_per_tensor=4,
                                   rng=SplitMix64(seed).fork(name))
            if err > worst:
                worst, worst_name = err, f"{name}@seed{seed}"
    _criterion(1, worst < 1e-4,
               f"max FD relative error {worst:.3g} ({worst_name}), bound 1e-4, "
               f"50 seeds x 7 losses")


# ---------------------------------------------------------------------------
# criterion 2: corruption exactness
# ---------------------------------------------------------------------------

def test_criterion_2_corruption_exactness():
    ds = gen_synthetic(SyntheticSpec(num_classes=10, dim=6, per_class=100,
                                     cluster_spread=0.05, seed=7))
    problems = []
    for nr in (0.0, 0.2, 0.4, 0.6, 0.8):
        noisy = apply_symmetric_noise(ds, nr, seed=3)
        expected = math.floor(nr * len(ds) + 0.5) / len(ds)
        if compute_nr(noisy) != expected:
            problems.append(f"NR {nr}: {compute_nr(noisy)} != {expected}")

    if exponential_targets(5000, 0.1, 10)[3] != 2321:
        problems.append("closed-form K_3 for (5000, 0.1) is not 2321")

    noisy = apply_symmetric_noise(ds, 0.8, seed=3)
    for ir in (1.0, 0.1, 0.05, 0.02):
        out = apply_exponential_imbalance(noisy, ir, seed=4)
        counts = sorted(class_counts(out).counts, reverse=True)
        before = sorted(class_counts(noisy).counts, reverse=True)
        # subsampling cannot grow a class, so profile entries cap at the
        # rank's available count
        expected = [min(t, c) for t, c in
                    zip(exponential_targets(before[0], ir, 10), before)]
        if counts != expected:
            problems.append(f"IR {ir}: profile {counts} != closed form {expected}")
        for cls in range(10):
            pre = (noisy.observed_labels == cls) & (noisy.observed_labels == noisy.gt_labels)
            post = (out.observed_labels == cls) & (out.observed_labels == out.gt_labels)
            if pre.sum() > 0 and post.sum() == 0:
                problems.append(f"IR {ir}: class {cls} lost its correct sample")
    _criterion(2, not problems,
               problems[0] if problems else
               "exact NR on {0,.2,.4,.6,.8}; exponential profile closed-form on "
               "IR {1,.1,.05,.02}; correct-sample guarantee held")


# ---------------------------------------------------------------------------
# criterion 3: k-NN oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_knn_brute_force_equivalence():
    rng = SplitMix64(2024).fork("knn_instances")
    mismatches = 0
    for trial in range(100):
        n = 20 + rng.randint(981)       # up to 1000
        d = 2 + rng.randint(31)         # up to 32
        num_classes = 2 + rng.randint(7)
        k = 1 + rng.randint(min(25, n - 1))
        pts = rng.uniform(n * d).reshape(n, d)
        labels = np.array([rng.randint(num_classes) for _ in range(n)], dtype=np.int64)
        split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
        majority = brute_force_knn_majority(pts, labels, k, num_classes)
        expected_clean = np.flatnonzero(majority == labels)
        if not np.array_equal(split.clean_idx, expected_clean):
            mismatches += 1
    _criterion(3, mismatches == 0,
               f"{mismatches}/100 random instances disagree with brute force "
               f"(n<=1000, d<=32)")


# ---------------------------------------------------------------------------
# criterion 4: attack contracts
# ---------------------------------------------------------------------------

def test_criterion_4_attack_contracts():
    arch = ArchSpec(input_dim=4, encoder_widths=(6,), feature_dim=5, num_classes=3,
                    projector_hidden=4, projector_out=2, predictor_hidden=4,
                    predictor_out=2)
    rng = SplitMix64(77).fork("attack_draws")
    problems = []

    models = [init_model(arch, AT_MODEL, seed=s) for s in range(10)]
    for trial in range(1000):
        model = models[trial % 10]
        x = rng.uniform(3 * 4).reshape(3, 4)
        y = np.array([rng.randint(3) for _ in range(3)])
        eps = 0.005 + 0.25 * float(rng.uniform(1)[0])
        spec = AttackSpec(epsilon=eps, alpha=eps / 3, steps=1 + trial % 4,
                          loss_kind="cw_margin" if trial % 5 == 0 else "cross_entropy")
        prior = ClassCounts((1, 4, 2)) if trial % 7 == 0 else None
        adv = pgd_attack(model, x, y, spec, rng.fork("t", trial), prior)
        if np.max(np.abs(adv - x)) > eps + 1e-9:
            problems.append(f"trial {trial}: eps ball violated")
            break
        if adv.min() < 0.0 or adv.max() > 1.0:
            problems.append(f"trial {trial}: box violated")
            break

    # one-step closed form on a 2-class linear model
    linear_arch = ArchSpec(input_dim=3, encoder_widths=(), feature_dim=3,
                           num_classes=2, projector_hidden=4, projector_out=2,
                           predictor_hidden=4, predictor_out=2)
    lm = init_model(linear_arch, AT_MODEL, seed=5)
    weight = lm.encoder[0][0].data @ lm.head[0].data
    bias = lm.encoder[0][1].data @ lm.head[0].data + lm.head[1].data
    x = np.array([[0.4, 0.5, 0.6]])
    adv = pgd_attack(lm, x, np.array([0]),
                     AttackSpec(epsilon=0.1, alpha=0.05, steps=1, random_start=False))
    z = x @ weight + bias
    p = np.exp(z - z.max())
    p /= p.sum()
    expected = np.clip(x + 0.05 * np.sign((p - np.array([[1.0, 0.0]])) @ weight.T), 0, 1)
    if not np.allclose(adv, expected, atol=1e-12):
        problems.append("one-step linear attack disagrees with closed-form gradient")

    # uniform prior must be a bitwise no-op
    for trial in range(25):
        model = models[trial % 10]
        x = rng.uniform(4 * 4).reshape(4, 4)
        y = np.array([rng.randint(3) for _ in range(4)])
        spec = AttackSpec(epsilon=0.06, alpha=0.02, steps=5)
        a = pgd_attack(model, x, y, spec, SplitMix64(trial).fork("u"))
        b = pgd_attack(model, x, y, spec, SplitMix64(trial).fork("u"), ClassCounts((9, 9, 9)))
        if not np.array_equal(a, b):
            problems.append(f"uniform adjustment changed attack bits (trial {trial})")
            break

    _criterion(4, not problems,
               problems[0] if problems else
               "1000 draws inside eps-ball and box; one-step matches closed form; "
               "uniform prior bitwise no-op")


# ---------------------------------------------------------------------------
# criterion 5: adjustment semantics
# ---------------------------------------------------------------------------

def test_criterion_5_adjustment_semantics():
    rng = SplitMix64(5).fork("rows")
    rows = rng.uniform_range(10_000 * 6, -8.0, 8.0).reshape(10_000, 6)
    uniform = ClassCounts((37,) * 6)
    adjusted = adjust_logits(Value(rows), uniform)
    invariant = np.array_equal(adjusted.data.argmax(axis=1), rows.argmax(axis=1))

    flip = adjust_logits(Value(np.array([[0.0, 2.0]])),
                         ClassCounts((900, 100)))
    expected = np.array([[math.log(900.0), 2.0 + math.log(100.0)]])  # independent arithmetic
    flip_ok = (np.allclose(flip.data, expected, atol=1e-12)
               and round(flip.data[0, 0], 4) == 6.8024
               and round(flip.data[0, 1], 4) == 6.6052
               and flip.data[0].argmax() == 0)
    _criterion(5, invariant and flip_ok,
               "uniform-prior argmax invariance on 10^4 rows; [0,2]+log[900,100] "
               "-> [6.8024, 6.6052], argmax class 0")


# ---------------------------------------------------------------------------
# criteria 6-8 share one set of training runs
# ---------------------------------------------------------------------------

SEEDS = (1, 2, 3)


def _acceptance_data():
    clean = gen_synthetic(SyntheticSpec(num_classes=10, dim=16, per_class=200,
                                        cluster_spread=0.10, seed=11))
    corrupted, provenance = corrupt(clean, CorruptionSpec("symmetric", 0.4, 0.1, seed=5))
    test = gen_synthetic(SyntheticSpec(num_classes=10, dim=16, per_class=40,
                                       cluster_spread=0.10, seed=99))
    return corrupted, test, provenance


def _acceptance_config(method="oat", seed=1, interaction=True, adjustment=True):
    # TrainConfig's defaults are the acceptance config
    return TrainConfig(method=method, seed=seed, interaction_enabled=interaction,
                       adjustment_enabled=adjustment)


EVAL_ATTACK = TrainConfig().eval_attack  # the acceptance runs' per-epoch PGD-20


@pytest.fixture(scope="module")
def training_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_runs")
    corrupted, test, _ = _acceptance_data()
    runs = {}
    for method in ("oat", "pgd_at"):
        for seed in SEEDS:
            out = root / f"{method}_{seed}"
            state = train(_acceptance_config(method=method, seed=seed),
                          corrupted, test, out)
            runs[(method, seed)] = (out, state)
    for interaction, adjustment in ((False, True), (True, False), (False, False)):
        out = root / f"ablate_{int(interaction)}{int(adjustment)}"
        state = train(_acceptance_config(seed=1, interaction=interaction,
                                         adjustment=adjustment),
                      corrupted, test, out)
        runs[("ablate", interaction, adjustment)] = (out, state)
    return {"root": root, "runs": runs, "test": test, "train": corrupted}


def _records(run_dir):
    return [json.loads(line) for line in
            (run_dir / "metrics.jsonl").read_text().splitlines()]


def _best(records):
    return max(records, key=lambda r: next(iter(r["robust_accuracy"].values())))


def test_criterion_6_label_correction(training_runs):
    refnrs, est_errors, prior_errors = [], [], []
    for seed in SEEDS:
        records = _records(training_runs["runs"][("oat", seed)][0])
        last = records[-1]
        refnrs.append(last["refurbished_nr"])
        est_errors.append(last["dist_l1_estimated"])
        prior_errors.append(last["dist_l1_prior"])
    refnr = statistics.median(refnrs)
    est, prior = statistics.median(est_errors), statistics.median(prior_errors)
    _criterion(6, refnr < 0.1 and est < prior,
               f"median refurbished-NR {refnr:.4f} (< 0.1); distribution error "
               f"estimated {est:.4f} < prior {prior:.4f}")


def test_criterion_7_method_ordering(training_runs):
    def medians(method):
        bests = [_best(_records(training_runs["runs"][(method, s)][0])) for s in SEEDS]
        return (statistics.median(b["clean_accuracy"] for b in bests),
                statistics.median(b["robust_accuracy"]["pgd20"] for b in bests))
    oat_ca, oat_ra = medians("oat")
    base_ca, base_ra = medians("pgd_at")
    gap = (oat_ca - base_ca) * 100.0
    _criterion(7, gap >= 5.0 and oat_ra >= base_ra,
               f"clean accuracy gap {gap:.1f}pp (>= 5); robust accuracy "
               f"{oat_ra:.3f} >= {base_ra:.3f}")


def test_criterion_8_ablation_wiring(training_runs, tmp_path):
    expected_keys = {
        (True, True): {"contrastive", "supervised", "divergence", "oracle_total",
                       "soft_ce", "feature_align", "model_total"},
        (False, True): {"contrastive", "supervised", "oracle_total",
                        "soft_ce", "model_total"},
        (True, False): {"contrastive", "supervised", "divergence", "oracle_total",
                        "soft_ce", "feature_align", "model_total"},
        (False, False): {"contrastive", "supervised", "oracle_total",
                         "soft_ce", "model_total"},
    }
    problems = []
    for (interaction, adjustment), keys in expected_keys.items():
        if (interaction, adjustment) == (True, True):
            run_dir = training_runs["runs"][("oat", 1)][0]
        else:
            run_dir = training_runs["runs"][("ablate", interaction, adjustment)][0]
        records = _records(run_dir)
        if len(records) != 60:
            problems.append(f"({interaction},{adjustment}) did not complete")
            continue
        for record in records:
            if set(record["losses"]) != keys:
                problems.append(f"({interaction},{adjustment}) loss keys "
                                f"{sorted(record['losses'])}")
                break
            if record["adjustment_enabled"] != adjustment:
                problems.append(f"({interaction},{adjustment}) adjustment flag wrong")
                break
            if not all(np.isfinite(v) for v in record["losses"].values()):
                problems.append(f"({interaction},{adjustment}) non-finite loss")
                break

    # both toggles off on a clean balanced set: the loop degenerates to
    # soft-label adversarial training and must still complete
    clean = gen_synthetic(SyntheticSpec(num_classes=5, dim=8, per_class=40,
                                        cluster_spread=0.06, seed=21))
    test = gen_synthetic(SyntheticSpec(num_classes=5, dim=8, per_class=10,
                                       cluster_spread=0.06, seed=22))
    config = TrainConfig(epochs=15, batch_size=64, lr=0.005, momentum=0.9,
                         lr_decay_epochs=(10,), theta_r=0.8, k=20,
                         attack=AttackSpec(epsilon=0.05, alpha=0.0125, steps=5),
                         method="oat", interaction_enabled=False,
                         adjustment_enabled=False, seed=4,
                         encoder_widths=(32,), feature_dim=16,
                         augment=SMALL_RUN_AUGMENT,
                         eval_steps=5)
    state = train(config, clean, test, tmp_path / "degenerate")
    degenerate = _records(tmp_path / "degenerate")
    if len(degenerate) != 15:
        problems.append("degenerate clean-balanced run did not complete")
    if set(degenerate[-1]["losses"]) != expected_keys[(False, False)]:
        problems.append("degenerate run recorded unexpected loss terms")

    _criterion(8, not problems,
               problems[0] if problems else
               "4 toggle combinations completed with exactly the enabled loss "
               "terms; clean-balanced degenerate run completed")


def test_criterion_9_determinism_and_persistence(training_runs, tmp_path):
    corrupted, test = training_runs["train"], training_runs["test"]
    config = TrainConfig(epochs=3, batch_size=128, lr=0.005, momentum=0.9,
                         lr_decay_epochs=(), theta_r=0.8, k=50,
                         attack=AttackSpec(epsilon=0.1, alpha=0.025, steps=4),
                         method="oat", seed=13, encoder_widths=(32,),
                         feature_dim=16,
                         augment=SMALL_RUN_AUGMENT,
                         eval_steps=4)
    train(config, corrupted, test, tmp_path / "first")
    train(config, corrupted, test, tmp_path / "second")
    identical = ((tmp_path / "first" / "metrics.jsonl").read_text()
                 == (tmp_path / "second" / "metrics.jsonl").read_text())

    run_dir, state = training_runs["runs"][("oat", 1)]
    reload_ok = True
    for name in ("best", "last"):
        a = evaluate(load_model(run_dir / name), test, [EVAL_ATTACK], seed=3)
        b = evaluate(load_model(run_dir / name), test, [EVAL_ATTACK], seed=3)
        if a.clean_accuracy != b.clean_accuracy or a.robust_accuracy != b.robust_accuracy:
            reload_ok = False
    best_reload = evaluate(load_model(run_dir / "best"), test, [EVAL_ATTACK], seed=0)
    _criterion(9, identical and reload_ok,
               f"repeated runs byte-identical: {identical}; checkpoints re-evaluate "
               f"identically: {reload_ok} (best CA {best_reload.clean_accuracy:.3f})")


def test_monotone_threat_on_trained_model(training_runs):
    # more attack iterations never help the defender (within sampling slack)
    run_dir, _ = training_runs["runs"][("oat", 1)]
    model = load_model(run_dir / "best")
    test = training_runs["test"]
    record = evaluate(model, test, [EVAL_ATTACK, dataclasses.replace(EVAL_ATTACK, steps=100)],
                      seed=17)
    assert record.robust_accuracy["pgd100"] <= record.robust_accuracy["pgd20"] + 0.005


def test_readme_quickstart_is_the_acceptance_run(training_runs, tmp_path, monkeypatch,
                                                 capsys):
    # the README's CLI block, run as written with its example run_config.json,
    # trains the seed-1 acceptance oat run, and its oat eval of best/ prints
    # the best record's figures
    snippet, commands = readme_quickstart()
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})
    (tmp_path / "run_config.json").write_text(readme_block("Example `run_config.json`", "json"))
    for argv in commands:
        assert cli(argv) == 0, capsys.readouterr().err
    train_argv = next(argv for argv in commands if argv[0] == "train")
    run_dir = tmp_path / train_argv[train_argv.index("--out") + 1]
    expected = training_runs["runs"][("oat", 1)][0] / "metrics.jsonl"
    assert (run_dir / "metrics.jsonl").read_bytes() == expected.read_bytes()
    eval_argv = next(argv for argv in commands if argv[0] == "eval")
    best = _best(_records(run_dir))
    assert json.loads((tmp_path / eval_argv[eval_argv.index("--out") + 1]).read_text()) == {
        "clean_accuracy": best["clean_accuracy"], "robust_accuracy": best["robust_accuracy"]}


def test_oat_parity_on_clean_balanced_data(tmp_path):
    # with no corruption the oracle pipeline should cost nothing: clean
    # accuracy within 2 points of the hard-label baseline (median of 3 seeds).
    # the soft-label path ramps slower, so this needs a full-length run
    clean = gen_synthetic(SyntheticSpec(num_classes=5, dim=8, per_class=40,
                                        cluster_spread=0.06, seed=31))
    test = gen_synthetic(SyntheticSpec(num_classes=5, dim=8, per_class=12,
                                       cluster_spread=0.06, seed=32))
    bests = {}
    for method in ("oat", "pgd_at"):
        cas = []
        for seed in SEEDS:
            config = TrainConfig(
                epochs=100, batch_size=64, lr=0.05, momentum=0.9,
                lr_decay_epochs=(70, 90), theta_r=0.8, k=20,
                attack=AttackSpec(epsilon=0.05, alpha=0.0125, steps=5),
                method=method, seed=seed, encoder_widths=(32,), feature_dim=16,
                augment=SMALL_RUN_AUGMENT,
                eval_steps=5)
            train(config, clean, test, tmp_path / f"{method}_{seed}")
            cas.append(_best(_records(tmp_path / f"{method}_{seed}"))["clean_accuracy"])
        bests[method] = statistics.median(cas)
    assert bests["oat"] >= bests["pgd_at"] - 0.02
