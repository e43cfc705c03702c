"""Accuracy-experiment drivers: Fig. 4, Table 1, Fig. 17, Table 2.

These run *real* training on the numpy substrate over the synthetic
drifting photo world, so the reported phenomena — drift decay, fine-tune
recovery, label refresh, pipelined-run forgetting — are emergent, not
scripted.  The ``Scale`` knob trades fidelity for runtime; benches use
``FAST``, tests use ``SMOKE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.checknrun import publish
from ..core.ftdmp import FTDMPTrainer
from ..core.partition import pipelined_time
from ..data.datasets import DatasetProfile, IMAGENET1K_LIKE, PROFILES
from ..data.drift import DriftingPhotoWorld
from ..data.loader import normalize_images
from ..models.catalog import ALL_MODELS
from ..models.registry import tiny_model
from ..models.split import SplitModel
from ..train.fulltrain import full_train
from ..workloads.scenarios import evaluate_model


@dataclass(frozen=True)
class Scale:
    """Experiment sizing (samples / epochs / model width)."""

    train: int = 600
    test: int = 400
    finetune: int = 400
    base_epochs: int = 5
    finetune_epochs: int = 3
    width: int = 8
    lr: float = 3e-3
    seed: int = 0


FAST = Scale()
SMOKE = Scale(train=160, test=120, finetune=120, base_epochs=2,
              finetune_epochs=2, width=8)
PAPER = Scale(train=1600, test=800, finetune=800, base_epochs=8,
              finetune_epochs=4, width=12)


def make_model(name: str, num_classes: int, scale: Scale,
               seed: Optional[int] = None) -> SplitModel:
    """Build a tiny model with unified sizing across architectures."""
    seed = scale.seed if seed is None else seed
    if name == "ViT":
        return tiny_model(name, num_classes=num_classes,
                          dim=scale.width * 4, seed=seed)
    return tiny_model(name, num_classes=num_classes, width=scale.width,
                      seed=seed)


def _clone(model_factory: Callable[[], SplitModel],
           source: SplitModel) -> SplitModel:
    clone = model_factory()
    clone.load_state_dict(source.state_dict())
    return clone


def published_top1(factory: Callable[[], SplitModel], base: SplitModel,
                   tuned: SplitModel, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 of what the fleet serves once ``tuned`` ships from ``base``.

    The stores hold ``base`` with its front frozen (what the Tuner
    installs); one live Check-N-Run round moves them to the published
    state, which is evaluated here instead of ``tuned`` itself.
    """
    installed = _clone(factory, base).freeze_features().state_dict()
    _, state = publish(installed, tuned.state_dict())
    replica = factory()
    replica.load_state_dict(state)
    return evaluate_model(replica, x, y)[0]


def _train_base(world: DriftingPhotoWorld, factory: Callable[[], SplitModel],
                scale: Scale) -> SplitModel:
    model = factory()
    x, y = world.sample(scale.train, 0, rng=np.random.default_rng(scale.seed + 7))
    full_train(model, normalize_images(x), y, epochs=scale.base_epochs,
               lr=scale.lr, seed=scale.seed)
    return model


# ---------------------------------------------------------------------------
# Fig. 4 — the outdated-model problem
# ---------------------------------------------------------------------------
def fig04_drift_study(model: str = "ResNet50",
                      profile: DatasetProfile = IMAGENET1K_LIKE,
                      scale: Scale = FAST,
                      horizon_days: int = 12,
                      eval_every: int = 2) -> dict:
    """Fig. 4a trajectories plus the Fig. 4b dataset-size sweep."""
    world = profile.world(seed=scale.seed)
    num_classes = world.config.max_classes
    factory = lambda: make_model(model, num_classes, scale)  # noqa: E731
    base = _train_base(world, factory, scale)

    days = list(range(0, horizon_days + 1, eval_every))
    trajectories: Dict[str, List[Tuple[int, float, float]]] = {
        "outdated": [], "finetune": [], "full": [],
    }
    finetune_model = _clone(factory, base)
    trainer = FTDMPTrainer(finetune_model, lr=scale.lr, seed=scale.seed)
    rng = np.random.default_rng(scale.seed + 23)

    for day in days:
        x_test, y_test = world.sample(
            scale.test, day, rng=np.random.default_rng(scale.seed + 101 + day)
        )
        # outdated: never updated
        trajectories["outdated"].append(
            (day,) + evaluate_model(base, x_test, y_test)
        )
        # finetune: classifier refreshed on recent uploads every period
        if day > 0:
            x_new, y_new = world.sample(scale.finetune, day, rng=rng)
            trainer.finetune(normalize_images(x_new), y_new,
                             epochs=scale.finetune_epochs)
        trajectories["finetune"].append(
            (day,) + evaluate_model(finetune_model, x_test, y_test)
        )
        # full: retrained from scratch on *cumulative* data every period
        # (historical + recent, §2.2 — the expensive gold standard)
        if day > 0:
            full_model = factory()
            x_cur, y_cur = _cumulative_sample(
                world, day, int(scale.train * 1.5), scale.seed + day)
            full_train(full_model, normalize_images(x_cur), y_cur,
                       epochs=scale.base_epochs + 2, lr=scale.lr,
                       seed=scale.seed)
        else:
            full_model = base
        trajectories["full"].append(
            (day,) + evaluate_model(full_model, x_test, y_test)
        )

    # Fig. 4b: fine-tuning accuracy vs training-set size, at the horizon
    sweep: List[Tuple[int, float]] = []
    x_test, y_test = world.sample(
        scale.test, horizon_days,
        rng=np.random.default_rng(scale.seed + 333),
    )
    for size in _size_ladder(scale.finetune):
        candidate = _clone(factory, base)
        sweep_trainer = FTDMPTrainer(candidate, lr=scale.lr, seed=scale.seed)
        x_ft, y_ft = world.sample(size, horizon_days,
                                  rng=np.random.default_rng(scale.seed + size))
        sweep_trainer.finetune(normalize_images(x_ft), y_ft,
                               epochs=scale.finetune_epochs)
        top1, _ = evaluate_model(candidate, x_test, y_test)
        sweep.append((size, top1))
    return {"trajectories": trajectories, "size_sweep": sweep, "days": days}


def _cumulative_sample(world: DriftingPhotoWorld, day: int, total: int,
                       seed: int):
    """Sample a cumulative training set spanning days 0..day."""
    sample_days = np.unique(np.linspace(0, day, 4).astype(int))
    per_day = max(total // len(sample_days), 16)
    xs, ys = [], []
    for j, d in enumerate(sample_days):
        x, y = world.sample(per_day, int(d),
                            rng=np.random.default_rng(seed + 7000 + j))
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _size_ladder(top: int) -> List[int]:
    ladder = [max(top // 8, 16), max(top // 4, 24), max(top // 2, 32), top]
    return sorted(set(ladder))


# ---------------------------------------------------------------------------
# Table 1 — the outdated-label problem
# ---------------------------------------------------------------------------
def tab01_label_refresh(model: str = "ResNet50",
                        profile: DatasetProfile = IMAGENET1K_LIKE,
                        scale: Scale = FAST,
                        num_refreshes: int = 4,
                        period_days: int = 14) -> List[dict]:
    """% of M0's labels fixed by each biweekly full retrain M1..M4.

    Each new model trains on *cumulative* data (historical + recent, per
    §2.2), so it genuinely improves on the reference photo set.
    """
    world = profile.world(seed=scale.seed)
    num_classes = world.config.max_classes
    factory = lambda: make_model(model, num_classes, scale)  # noqa: E731
    base = _train_base(world, factory, scale)

    x_ref, y_ref = world.sample(
        scale.test, 0, rng=np.random.default_rng(scale.seed + 404)
    )
    normed_ref = normalize_images(x_ref)

    def predict(m: SplitModel) -> np.ndarray:
        from ..nn.tensor import Tensor

        was_training = m.training
        m.eval()
        out = []
        for start in range(0, len(normed_ref), 256):
            out.append(m(Tensor(normed_ref[start:start + 256])).data)
        m.train(was_training)
        return np.concatenate(out).argmax(axis=-1)

    labels_m0 = predict(base)
    wrong_m0 = labels_m0 != y_ref
    rows = [{"model": "M0", "pct_fixed": 0.0,
             "ref_accuracy": float((~wrong_m0).mean())}]
    for k in range(1, num_refreshes + 1):
        day = k * period_days
        x_parts, y_parts = [], []
        sample_days = np.linspace(0, day, 4).astype(int)
        grown = world.dataset_size_at(day, scale.train)
        per_day = max(grown // len(sample_days), 32)
        for j, d in enumerate(sample_days):
            xs, ys = world.sample(
                per_day, int(d),
                rng=np.random.default_rng(scale.seed + 900 + k * 17 + j),
            )
            x_parts.append(xs)
            y_parts.append(ys)
        x_train = np.concatenate(x_parts)
        y_train = np.concatenate(y_parts)
        model_k = factory()
        full_train(model_k, normalize_images(x_train), y_train,
                   epochs=scale.base_epochs, lr=scale.lr, seed=scale.seed)
        labels_k = predict(model_k)
        fixed = wrong_m0 & (labels_k == y_ref)
        rows.append({
            "model": f"M{k}",
            "pct_fixed": float(fixed.mean()) * 100.0,
            "ref_accuracy": float((labels_k == y_ref).mean()),
        })
    return rows


# ---------------------------------------------------------------------------
# Fig. 17 — pipelined FT-DMP: accuracy vs (simulated) time
# ---------------------------------------------------------------------------
def fig17_pipelined_training(model: str = "ResNet50",
                             profile: DatasetProfile = IMAGENET1K_LIKE,
                             scale: Scale = FAST,
                             num_runs_list: Sequence[int] = (1, 2, 3, 4),
                             num_stores: int = 4,
                             horizon_days: int = 14) -> dict:
    """Accuracy and wall-clock of pipelined FT-DMP for several N_run.

    Accuracy comes from genuinely training run-by-run over *time-ordered*
    uploads (so later runs see newer distributions and forgetting is real).
    Wall-clock comes from the calibrated full-scale pipeline model at
    ``num_stores`` PipeStores, where Store and Tuner stages are balanced.
    """
    world = profile.world(seed=scale.seed)
    num_classes = world.config.max_classes
    factory = lambda: make_model(model, num_classes, scale)  # noqa: E731
    base = _train_base(world, factory, scale)

    # time-ordered fine-tuning stream across the drift horizon
    per_day = max(scale.finetune // (horizon_days + 1), 12)
    x_parts, y_parts = [], []
    for day in range(horizon_days + 1):
        xs, ys = world.sample(
            per_day, day, rng=np.random.default_rng(scale.seed + 555 + day)
        )
        x_parts.append(xs)
        y_parts.append(ys)
    x_stream = normalize_images(np.concatenate(x_parts))
    y_stream = np.concatenate(y_parts)
    x_test, y_test = world.sample(
        scale.test, horizon_days,
        rng=np.random.default_rng(scale.seed + 777),
    )

    # calibrated stage times of the equivalent full-scale job
    from ..models.catalog import model_graph
    from ..sim.specs import TESLA_T4, TESLA_V100

    graph = model_graph(model)
    images = 1_200_000
    tuner_epochs = 2  # epochs to the paper's convergence-stop criterion
    store_rate = num_stores * TESLA_T4.fe_ips(graph, graph.num_partition_points() - 2)
    tuner_rate = TESLA_V100.tail_train_ips(graph, graph.num_partition_points() - 2)
    store_time = images / store_rate
    tuner_time = tuner_epochs * images / tuner_rate

    results = {}
    for num_runs in num_runs_list:
        candidate = _clone(factory, base)
        trainer = FTDMPTrainer(candidate, lr=scale.lr, seed=scale.seed)
        eval_fn = lambda: evaluate_model(candidate, x_test, y_test)[0]  # noqa: E731
        report = trainer.finetune(x_stream, y_stream,
                                  epochs=scale.finetune_epochs,
                                  num_runs=num_runs, eval_fn=eval_fn)
        total_time = pipelined_time(store_time, tuner_time, num_runs)
        results[num_runs] = {
            "final_top1": report.accuracy_trace[-1][2],
            "published_top1": published_top1(factory, base, candidate,
                                             x_test, y_test),
            "trace": report.accuracy_trace,
            "sim_time_s": total_time,
            "losses_by_run": _losses_by_run(report),
        }
    base_time = results[min(num_runs_list)]["sim_time_s"]
    for num_runs, entry in results.items():
        entry["time_reduction_pct"] = 100.0 * (1 - entry["sim_time_s"] / base_time)
    return results


def _losses_by_run(report) -> List[List[float]]:
    by_run: Dict[int, List[float]] = {}
    for record in report.epochs:
        by_run.setdefault(record.run, []).append(record.loss)
    return [by_run[k] for k in sorted(by_run)]


# ---------------------------------------------------------------------------
# Table 2 — accuracy matrix (5 models x 3 datasets x 4 strategies)
# ---------------------------------------------------------------------------
def tab02_accuracy_matrix(models: Optional[Sequence[str]] = None,
                          profiles: Optional[Sequence[str]] = None,
                          scale: Scale = FAST,
                          horizon_days: int = 14,
                          skip_full: Sequence[Tuple[str, str]] = (
                              ("ViT", "ImageNet-21K"),),
                          ) -> List[dict]:
    """Base / Outdated / NDPipe / Full accuracies after two weeks of drift.

    ``skip_full`` entries mirror the paper's missing ViT-on-ImageNet-21K
    full-training cell ('not included because of its long training time').
    """
    models = list(models or ALL_MODELS)
    profiles = list(profiles or PROFILES)
    skip_full = set(skip_full)
    rows: List[dict] = []
    for profile_name in profiles:
        profile = PROFILES[profile_name]
        world = profile.world(seed=scale.seed)
        num_classes = world.config.max_classes
        for model_name in models:
            factory = lambda: make_model(model_name, num_classes, scale)  # noqa: E731
            base = _train_base(world, factory, scale)
            x0, y0 = world.sample(
                scale.test, 0, rng=np.random.default_rng(scale.seed + 11)
            )
            x1, y1 = world.sample(
                scale.test, horizon_days,
                rng=np.random.default_rng(scale.seed + 13),
            )
            base_top1, base_top5 = evaluate_model(base, x0, y0)
            out_top1, out_top5 = evaluate_model(base, x1, y1)

            nd_model = _clone(factory, base)
            trainer = FTDMPTrainer(nd_model, lr=scale.lr, seed=scale.seed)
            x_ft, y_ft = world.sample(
                scale.finetune, horizon_days,
                rng=np.random.default_rng(scale.seed + 17),
            )
            trainer.finetune(normalize_images(x_ft), y_ft,
                             epochs=scale.finetune_epochs)
            nd_top1, nd_top5 = evaluate_model(nd_model, x1, y1)
            nd_published = published_top1(factory, base, nd_model, x1, y1)

            if (model_name, profile_name) in skip_full:
                full_top1 = full_top5 = float("nan")
            else:
                full_model = factory()
                x_cum, y_cum = _cumulative_sample(
                    world, horizon_days, int(scale.train * 1.5),
                    scale.seed + 19)
                full_train(full_model, normalize_images(x_cum), y_cum,
                           epochs=scale.base_epochs + 2, lr=scale.lr,
                           seed=scale.seed)
                full_top1, full_top5 = evaluate_model(full_model, x1, y1)

            rows.append({
                "dataset": profile_name,
                "model": model_name,
                "base_top1": base_top1, "base_top5": base_top5,
                "outdated_top1": out_top1, "outdated_top5": out_top5,
                "ndpipe_top1": nd_top1, "ndpipe_top5": nd_top5,
                "ndpipe_published_top1": nd_published,
                "full_top1": full_top1, "full_top5": full_top5,
            })
    return rows
