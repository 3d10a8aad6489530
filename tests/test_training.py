"""Training harness: freeze plans, optimizer arithmetic, the annealing
schedule, recall metrics, synthetic data, and loop behavior."""

import hashlib
import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from feadapter import (VideoBatch, VideoViT, apply_freeze, cosine_lr, evaluate_model,
                       frozen_digest, load_experiment_config, synth_dataset, train, uar_war)
from feadapter import tensor as T
from feadapter import training
from feadapter.config import AdapterConfig, ModelConfig, TrainConfig
from feadapter.errors import (ConfigError, NonFiniteError, ShapeError, TrainingDiverged,
                              UsageError)
from feadapter.gradcheck import randomize_trainable
from feadapter.tensor import Tensor
from feadapter.training import AdamW, _forward_only, experiment_data

from helpers import graph_arrays, read_records, traced_peak, uar_war_oracle

DESK_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "desk.cfg")


def tiny_cfg(**kw):
    base = dict(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                heads=4, classes=2)
    base.update(kw)
    return ModelConfig(**base)


def adapter_cfg(**kw):
    return tiny_cfg(adapter=AdapterConfig(variant="d2_conv3d", r=6), **kw)


def tiny_data(cfg, clips_per_class=4, seed=0):
    return synth_dataset(seed, cfg.classes, clips_per_class, cfg.frames,
                         cfg.height, cfg.width)


class TestApplyFreeze:
    def test_linear_probe_trains_exactly_the_head(self):
        m = VideoViT(adapter_cfg(), seed=0)
        plan = apply_freeze(m, "linear_probe")
        assert set(plan.trainable) == {"head.weight", "head.bias"}
        assert m.params["head.weight"].requires_grad
        assert not m.params["blocks.0.adapter.down.weight"].requires_grad

    def test_full_trains_everything(self):
        m = VideoViT(adapter_cfg(), seed=0)
        plan = apply_freeze(m, "full")
        assert set(plan.trainable) == set(m.params)

    def test_adapter_mode_trains_adapters_and_head(self):
        m = VideoViT(adapter_cfg(), seed=0)
        plan = apply_freeze(m, "adapter")
        for name in plan.trainable:
            assert ".adapter." in name or name.startswith("head.")
        assert "blocks.1.adapter.dilation.weight" in plan.trainable

    def test_adapter_mode_requires_an_adapter(self):
        with pytest.raises(ConfigError):
            apply_freeze(VideoViT(tiny_cfg(), seed=0), "adapter")

    def test_temporal_aggregation_requires_no_adapter(self):
        with pytest.raises(ConfigError):
            apply_freeze(VideoViT(adapter_cfg(), seed=0), "temporal_aggregation")

    def test_frozen_tensors_bitwise_unchanged_after_training(self):
        cfg = adapter_cfg()
        m = VideoViT(cfg, seed=1)
        data = tiny_data(cfg)
        snapshot = {n: t.data.copy() for n, t in m.params.items()}
        before = None
        tc = TrainConfig(lr=1e-3, batch=4, epochs=5, seed=1, eval_every=5, freeze="adapter")
        apply_freeze(m, "adapter")
        before = frozen_digest(m)
        train(m, data, tc)
        assert frozen_digest(m) == before
        for name, t in m.params.items():
            if not t.requires_grad:
                np.testing.assert_array_equal(t.data, snapshot[name])


def adamw_once(p, g, lr, wd):
    """``p`` after one AdamW step with gradient ``g``, over a one-tensor dict."""
    t = Tensor(p.copy(), requires_grad=True)
    t.grad = g
    AdamW({"p": t}, lr=lr, weight_decay=wd).step()
    return t.data


class TestAdamW:
    def test_zero_lr_leaves_params_unchanged(self):
        p = np.array([1.0, -2.0, 3.0])
        out = adamw_once(p, np.array([0.5, 0.5, 0.5]), lr=0.0, wd=1e-2)
        np.testing.assert_array_equal(out, p)

    def test_zero_gradient_applies_exact_decoupled_decay(self):
        p = np.array([2.0, -4.0])
        out = adamw_once(p, np.zeros(2), lr=5e-4, wd=1e-2)
        np.testing.assert_array_equal(out, p * (1.0 - 5e-4 * 1e-2))

    def test_single_scalar_step_matches_hand_expansion(self):
        lr, wd, b1, b2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
        out = adamw_once(np.array([0.5]), np.array([1.0]), lr, wd)
        m_hat = ((1 - b1) * 1.0) / (1 - b1)
        v_hat = ((1 - b2) * 1.0) / (1 - b2)
        want = 0.5 * (1 - lr * wd) - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(out[0] - want) < 1e-10

    def test_optimizer_updates_in_sorted_name_order(self):
        params = {"b": Tensor([1.0], requires_grad=True), "a": Tensor([1.0], requires_grad=True)}
        opt = AdamW(params, lr=1e-3, weight_decay=0.0)
        assert opt.order == ["a", "b"]

    def test_tensors_share_one_step_count(self):
        # "b" first gets a gradient at step 3: its bias correction is
        # that of step 3, not of its own first step
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        params = {"a": Tensor(np.array([1.0]), requires_grad=True),
                  "b": Tensor(np.array([1.0]), requires_grad=True)}
        opt = AdamW(params, lr=lr, weight_decay=0.0)
        for step in range(3):
            params["a"].grad = np.array([1.0])
            params["b"].grad = np.array([1.0]) if step == 2 else None
            opt.step()
        assert opt.t == 3
        m_hat = (1 - b1) / (1 - b1 ** 3)
        v_hat = (1 - b2) / (1 - b2 ** 3)
        want = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(params["b"].data[0] - want) < 1e-12
        # a first step would have moved it by the whole lr
        assert abs(params["b"].data[0] - (1.0 - lr)) > 1e-4

    def test_tensor_without_gradient_gets_exact_decoupled_decay(self):
        lr, wd = 5e-4, 1e-2
        params = {"a": Tensor(np.array([1.0, -2.0]), requires_grad=True),
                  "b": Tensor(np.array([3.0, -0.5, 8.0]), requires_grad=True)}
        want = params["b"].data.copy()
        opt = AdamW(params, lr=lr, weight_decay=wd)
        for _ in range(4):
            params["a"].grad = np.array([0.3, -0.7])
            opt.step()
            want = want * (1.0 - lr * wd)
            np.testing.assert_array_equal(params["b"].data, want)

    def test_twenty_steps_pinned(self):
        """20 steps over three tensors of mixed shape and dtype, with a
        missing gradient and a passed learning rate on some steps. The
        update is elementwise, so its bits do not depend on BLAS."""
        rng = np.random.default_rng(14)
        shapes = {"a": ((3, 4), np.float32), "b": ((5,), np.float64),
                  "c": ((2, 1, 3), np.float32)}
        params = {n: Tensor(rng.normal(size=s).astype(d), requires_grad=True)
                  for n, (s, d) in shapes.items()}
        opt = AdamW(params, lr=1e-2, weight_decay=0.05)
        h = hashlib.sha256()
        for step in range(20):
            for n, p in params.items():
                p.grad = (None if (n == "c" and step % 7 == 3)
                          else rng.normal(size=p.shape).astype(p.data.dtype))
            opt.step(None if step % 2 else 1e-2 * (1 - step / 20))
            opt.zero_grad()
            for n in sorted(params):
                h.update(params[n].data.tobytes())
        assert {n: p.data.dtype for n, p in params.items()} == {n: d for n, (_, d) in shapes.items()}
        assert h.hexdigest() == "1265da9957ff4f0672ef88a0d670cec581731ea7ac34e96b0c52cffa3f89930b"


class TestCosineSchedule:
    def test_start_is_base_lr(self):
        assert cosine_lr(0, 100, 5e-4) == pytest.approx(5e-4)

    def test_end_is_min_lr(self):
        assert cosine_lr(100, 100, 5e-4, min_lr=1e-6) == pytest.approx(1e-6)

    def test_midpoint(self):
        assert cosine_lr(50, 100, 4e-4, min_lr=2e-4) == pytest.approx(3e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            cosine_lr(101, 100, 5e-4)
        with pytest.raises(UsageError):
            cosine_lr(-1, 100, 5e-4)

    def test_non_increasing(self):
        vals = [cosine_lr(e, 50, 1e-3, min_lr=1e-5) for e in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestUarWar:
    def test_perfect_predictions(self):
        rep = uar_war([0, 1, 2, 0], [0, 1, 2, 0], classes=3)
        assert rep.uar == 1.0 and rep.war == 1.0

    def test_hand_counted_confusion(self):
        rep = uar_war(predictions=[0, 0, 1, 1], truth=[0, 0, 0, 1], classes=2)
        assert rep.per_class_recall == pytest.approx([2 / 3, 1.0])
        assert rep.uar == pytest.approx(5 / 6)
        assert rep.war == pytest.approx(3 / 4)

    def test_majority_bias_makes_uar_below_war(self):
        truth = [0] * 9 + [1]
        preds = [0] * 10
        rep = uar_war(preds, truth, classes=2)
        assert rep.uar == pytest.approx(0.5)
        assert rep.war == pytest.approx(0.9)
        assert rep.uar < rep.war

    def test_uar_invariant_to_class_relabeling(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, size=200)
        preds = rng.integers(0, 4, size=200)
        base = uar_war(preds, truth, classes=4)
        perm = np.array([2, 3, 1, 0])
        relabeled = uar_war(perm[preds], perm[truth], classes=4)
        assert relabeled.uar == pytest.approx(base.uar)

    def test_war_invariant_to_sample_order(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=100)
        preds = rng.integers(0, 3, size=100)
        order = rng.permutation(100)
        assert uar_war(preds[order], truth[order], 3).war == pytest.approx(
            uar_war(preds, truth, 3).war)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            uar_war([], [], classes=2)

    def test_absent_class_excluded_from_uar(self):
        rep = uar_war([0, 1, 1, 0], [0, 1, 1, 0], classes=3)
        assert rep.per_class_recall[2] is None
        assert rep.uar == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            classes = int(rng.integers(2, 7))
            n = int(rng.integers(1, 60))
            truth = rng.integers(0, classes, size=n)
            preds = rng.integers(0, classes, size=n)
            rep = uar_war(preds, truth, classes)
            uar, war = uar_war_oracle(list(preds), list(truth), classes)
            assert rep.uar == pytest.approx(uar)
            assert rep.war == pytest.approx(war)


class TestSynthDataset:
    def test_same_seed_is_bitwise_identical(self):
        a = synth_dataset(5, 4, 3, 4, 16, 16)
        b = synth_dataset(5, 4, 3, 4, 16, 16)
        np.testing.assert_array_equal(a.clips, b.clips)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shapes(self):
        d = synth_dataset(0, 3, 5, 6, 32, 24)
        assert d.clips.shape == (15, 6, 3, 32, 24)
        assert d.clips.dtype == np.float32
        assert d.labels.shape == (15,)
        np.testing.assert_array_equal(np.bincount(d.labels), [5, 5, 5])

    def test_motion_pair_shares_frames_in_reversed_order(self):
        # paired classes render the same clips with frames re-ordered,
        # so frame-order-blind statistics cannot separate them
        frames = 6
        d = synth_dataset(3, 2, 4, frames, 16, 16)
        reverse = [(frames - t) % frames for t in range(frames)]
        for j in range(4):
            cw = d.clips[j]
            ccw = d.clips[4 + j]
            np.testing.assert_array_equal(ccw, cw[reverse])

    def test_appearances_differ_across_pairs(self):
        d = synth_dataset(1, 4, 2, 4, 16, 16)
        mean_a = d.clips[:2].mean(axis=(0, 1, 3, 4))
        mean_b = d.clips[4:6].mean(axis=(0, 1, 3, 4))
        assert np.abs(mean_a - mean_b).max() > 1e-3  # channel balance differs


class TestTrainLoop:
    def test_single_sample_overfit_drives_loss_down(self):
        cfg = tiny_cfg()
        m = VideoViT(cfg, seed=2)
        data = tiny_data(cfg, clips_per_class=1)
        one = VideoBatch(clips=data.clips[:1], labels=data.labels[:1])
        tc = TrainConfig(lr=1e-3, weight_decay=0.0, batch=1, epochs=4, seed=0,
                         eval_every=4, freeze="full")
        result = train(m, one, tc)
        losses = [r["loss"] for r in result.records]
        assert len(losses) == 4
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_identical_runs_are_bitwise_identical(self):
        cfg = adapter_cfg()
        data = tiny_data(cfg)
        runs = []
        for _ in range(2):
            m = VideoViT(cfg, seed=3)
            tc = TrainConfig(lr=1e-3, batch=4, epochs=3, seed=3, eval_every=1,
                             freeze="adapter")
            runs.append(train(m, data, tc).records)
        assert runs[0] == runs[1]

    def test_result_is_the_first_best_eval_and_the_model_holds_it(self):
        # at this seed the WAR peaks at epochs 1 and 2 and falls after them
        cfg = adapter_cfg(classes=3)
        m = VideoViT(cfg, seed=29)
        data = tiny_data(cfg)
        tc = TrainConfig(lr=1e-2, batch=4, epochs=6, seed=29, eval_every=1, freeze="adapter")
        result = train(m, data, tc)
        wars = [r["war"] for r in result.records]
        assert wars[1] == wars[2] == max(wars) > wars[-1]
        assert result.best_epoch == 1
        restored = evaluate_model(m, data)
        assert (restored.uar, restored.war, restored.per_class_recall) == (
            result.report.uar, result.report.war, result.report.per_class_recall)
        np.testing.assert_array_equal(restored.confusion, result.report.confusion)

    def test_initial_loss_near_log_classes(self):
        cfg = tiny_cfg(classes=2)
        m = VideoViT(cfg, seed=5)
        data = tiny_data(cfg, clips_per_class=4)
        tc = TrainConfig(lr=1e-9, batch=8, epochs=1, seed=5, freeze="linear_probe")
        first_loss = train(m, data, tc).records[0]["loss"]
        assert abs(first_loss - math.log(cfg.classes)) / math.log(cfg.classes) < 0.05

    def test_divergence_aborts_with_step_diagnostic(self):
        cfg = tiny_cfg()
        m = VideoViT(cfg, seed=6)
        m.params["head.bias"].data[:] = np.inf  # simulate a diverged weight
        tc = TrainConfig(lr=1e-3, batch=4, epochs=1, seed=6, freeze="full")
        with pytest.raises(TrainingDiverged, match=r"epoch 0, step 1"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(m, tiny_data(cfg), tc)

    def test_non_finite_eval_aborts_naming_the_epoch(self):
        # the one step of epoch 0 leaves finite but huge weights at this
        # learning rate, and the eval after it overflows
        cfg = adapter_cfg()
        m = VideoViT(cfg, seed=6)
        data = tiny_data(cfg)
        tc = TrainConfig(lr=1e36, batch=len(data), epochs=2, seed=6, eval_every=1,
                         freeze="adapter")
        with pytest.raises(TrainingDiverged, match=r"eval at epoch 0: ") as info:
            with np.errstate(all="ignore"):
                train(m, data, tc)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_non_finite_prefix_cache_aborts(self):
        # the cache is encoded on the forward-only loop's worker threads
        cfg = tiny_cfg(depth=3, adapter=AdapterConfig(variant="d2_conv3d", r=6, blocks=(3,)))
        m = VideoViT(cfg, seed=6)
        m.params["blocks.0.attn.q.weight"].data[0, 0] = np.nan
        tc = TrainConfig(lr=1e-3, batch=4, epochs=1, seed=6, freeze="adapter")
        with pytest.raises(TrainingDiverged, match="frozen-prefix cache: ") as info:
            train(m, tiny_data(cfg), tc)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_early_stop_callback(self):
        cfg = tiny_cfg()
        m = VideoViT(cfg, seed=7)
        tc = TrainConfig(lr=1e-3, batch=4, epochs=10, seed=7, eval_every=1,
                         freeze="linear_probe")
        result = train(m, tiny_data(cfg), tc, on_eval=lambda epoch, met: epoch >= 2)
        assert len(result.records) == 3

    def test_last_step_graph_freed_before_eval(self, monkeypatch):
        cfg = adapter_cfg()
        m = VideoViT(cfg, seed=4)
        held, freed = [], []
        real_cross_entropy, real_evaluate = T.cross_entropy, training.evaluate_model

        def cross_entropy(logits, labels):
            loss = real_cross_entropy(logits, labels)
            held[:] = [weakref.ref(arr) for arr in graph_arrays(loss, m.params.values())]
            return loss

        def evaluate(*args):
            freed.append(bool(held) and all(ref() is None for ref in held))
            return real_evaluate(*args)

        monkeypatch.setattr(T, "cross_entropy", cross_entropy)
        monkeypatch.setattr(training, "evaluate_model", evaluate)
        tc = TrainConfig(lr=1e-3, batch=4, epochs=2, seed=4, eval_every=1, freeze="adapter")
        train(m, tiny_data(cfg), tc)
        assert freed == [True, True]

    def test_metrics_log_written(self, tmp_path):
        cfg = tiny_cfg()
        m = VideoViT(cfg, seed=8)
        tc = TrainConfig(lr=1e-3, batch=4, epochs=2, seed=8, eval_every=1,
                         freeze="linear_probe")
        log = tmp_path / "metrics.jsonl"
        result = train(m, tiny_data(cfg), tc, log_path=str(log))
        records = read_records(str(log))
        assert records == result.records
        assert set(records[0]) == {"epoch", "lr", "loss", "uar", "war"}


class TestFrozenPrefixCache:
    """train() encodes the frozen prefix once and starts every forward
    from it; that must change no bit of the logits or the gradients."""

    def late_model(self, seed=9):
        cfg = tiny_cfg(depth=3, adapter=AdapterConfig(variant="d2_conv3d", r=6, blocks=(3,)))
        m = VideoViT(cfg, seed=seed)
        apply_freeze(m, "adapter")
        rng = np.random.default_rng(seed)
        for t in m.params.values():
            if t.requires_grad:
                t.data = rng.normal(0.0, 0.1, size=t.shape).astype(t.data.dtype)
        return m

    @pytest.mark.parametrize("mode, variant, blocks, start", [
        ("adapter", "d2_conv3d", (3,), 2), ("adapter", "vanilla", (2, 3), 1),
        ("adapter", "d2_conv3d", (1, 2, 3), 0), ("linear_probe", "none", (), 3),
        ("full", "none", (), None)])
    def test_prefix_ends_at_first_trainable_block(self, mode, variant, blocks, start):
        cfg = tiny_cfg(depth=3, adapter=AdapterConfig(variant=variant, r=6, blocks=blocks))
        m = VideoViT(cfg, seed=0)
        apply_freeze(m, mode)
        assert m.frozen_prefix() == start

    def test_cached_logits_and_gradients_bitwise_equal_to_forward(self):
        m = self.late_model()
        start = m.frozen_prefix()
        # 40 clips are ten whole chunks of ``_EVAL_CHUNK``; 42 leave a
        # partial last chunk, read at rows 40 and 41
        for clips_per_class, idx in ((20, [37, 3, 31, 12, 0, 33, 8, 20]),
                                     (21, [41, 3, 31, 12, 0, 33, 40, 20])):
            data = tiny_data(m.cfg, clips_per_class=clips_per_class)
            cache = _forward_only(lambda c: m.encode_prefix(c, start), data.clips)
            idx = np.array(idx)
            outs = []
            for logits in (m.forward(cache[idx], start), m.forward(data.clips[idx])):
                m.zero_grad()
                T.cross_entropy(logits, data.labels[idx]).backward()
                outs.append((logits.data,
                             {n: t.grad for n, t in m.params.items() if t.requires_grad}))
            (cached, cached_grads), (direct, direct_grads) = outs
            np.testing.assert_array_equal(cached, direct)
            for name, g in cached_grads.items():
                np.testing.assert_array_equal(g, direct_grads[name], err_msg=name)

    def test_no_grad_forward_bitwise_equal_to_grad_mode(self):
        m = self.late_model()
        clips = tiny_data(m.cfg).clips[:5]
        tracked = m.forward(clips)
        with T.no_grad():
            plain = m.forward(clips)
        assert tracked.requires_grad and not plain.requires_grad
        np.testing.assert_array_equal(plain.data, tracked.data)

    def test_evaluation_from_cache_matches_evaluation_from_clips(self):
        m = self.late_model()
        data = tiny_data(m.cfg, clips_per_class=20)
        start = m.frozen_prefix()
        cache = VideoBatch(_forward_only(lambda c: m.encode_prefix(c, start), data.clips),
                           data.labels)
        a, b = evaluate_model(m, data), evaluate_model(m, cache, start)
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_prefix_tokens_of_wrong_shape_rejected(self):
        m = self.late_model()
        with pytest.raises(ShapeError):
            m.forward(np.zeros((2, 4, 6, 32), dtype=np.float32), 2)

    @pytest.mark.parametrize("block", [-1, 4])
    def test_block_outside_the_model_rejected(self, block):
        m = self.late_model()
        with pytest.raises(UsageError, match=r"outside \[0, 3\]"):
            m.encode_prefix(tiny_data(m.cfg).clips[:2], block)
        with pytest.raises(UsageError, match=r"outside \[0, 3\]"):
            m.forward(np.zeros((2, 4, 5, 32), dtype=np.float32), block)

    def test_head_only_cache_holds_class_tokens(self):
        # with only the head training, the cache is the last block's
        # output: the class tokens alone, one row per frame
        m = VideoViT(tiny_cfg(depth=3), seed=10)
        apply_freeze(m, "linear_probe")
        start = m.frozen_prefix()
        data = tiny_data(m.cfg)
        cache = _forward_only(lambda c: m.encode_prefix(c, start), data.clips)
        assert start == m.cfg.depth and cache.shape == (len(data), m.cfg.frames, m.cfg.hidden)
        outs = []
        for logits in (m.forward(cache, start), m.forward(data.clips)):
            m.zero_grad()
            T.cross_entropy(logits, data.labels).backward()
            outs.append((logits.data, m.params["head.weight"].grad, m.params["head.bias"].grad))
        for cached, direct in zip(*outs):
            np.testing.assert_array_equal(cached, direct)
        tokens = np.zeros((2, m.cfg.frames, m.cfg.tokens_per_frame, m.cfg.hidden), np.float32)
        with pytest.raises(ShapeError, match=r"expected \(batch,\)\+\(4, 32\)"):
            m.forward(tokens, start)


def serial_forward_only(fn, inputs, chunk):
    """The reference forward-only loop: ``fn`` over ``chunk``-row
    chunks, one after another on the calling thread."""
    with T.no_grad():
        return np.concatenate([fn(inputs[lo:lo + chunk]).data
                               for lo in range(0, len(inputs), chunk)])


class TestForwardOnlyChunks:
    """``_forward_only`` runs ``_EVAL_CHUNK`` clips at a time on
    ``_EVAL_WORKERS`` threads, so its working memory does not grow with
    the clip count. The late model's prefix (the embedding and two
    blocks without adapters) stacks every matmul per frame, so the
    chunking changes no bit of its tokens; the 2-d rate and classifier
    heads carry no such guarantee (README, "Numerical conventions")."""

    late_model = TestFrozenPrefixCache.late_model

    @pytest.mark.parametrize("clips", [1, 3, 4, 5, 40, 42])
    def test_threads_bitwise_equal_to_the_serial_loop(self, clips):
        m = self.late_model()
        data = tiny_data(m.cfg, clips_per_class=21).clips[:clips]
        np.testing.assert_array_equal(_forward_only(m.forward, data),
                                      serial_forward_only(m.forward, data, training._EVAL_CHUNK))

    def test_desk_logits_equal_those_of_serial_8_clip_chunks(self):
        # at desk geometry the 2-d heads round each of the 160 rows alike
        # in 4- and 8-clip chunks (README, "Numerical conventions")
        exp = load_experiment_config(DESK_CONFIG)
        m = VideoViT(exp.model, seed=exp.train.seed)
        apply_freeze(m, "adapter")
        randomize_trainable(m, exp.train.seed)
        clips = experiment_data(exp).clips
        assert len(clips) == 160
        np.testing.assert_array_equal(_forward_only(m.forward, clips),
                                      serial_forward_only(m.forward, clips, 8))

    def test_failing_chunk_raises_the_first_error_in_order(self):
        m = self.late_model()
        clips = tiny_data(m.cfg, clips_per_class=21).clips.copy()
        chunk = training._EVAL_CHUNK
        # chunks 2 and 5 fail; chunk 2 fails last in time but first in order
        clips[2 * chunk + 1, 0, 0, 0, 0] = np.nan
        clips[5 * chunk, 0, 0, 0, 0] = np.nan
        started = []

        def forward(c):
            lo = (c.ctypes.data - clips.ctypes.data) // clips.strides[0]
            started.append(lo)
            if lo == 2 * chunk:
                time.sleep(0.2)
            try:
                return m.forward(c)
            except NonFiniteError as exc:
                raise NonFiniteError(f"chunk at clip {lo}") from exc

        threads = threading.active_count()
        with pytest.raises(NonFiniteError, match=f"chunk at clip {2 * chunk}$"):
            _forward_only(forward, clips)
        assert threading.active_count() == threads
        assert T._grad_enabled
        # a failure in the first chunk cancels the chunks not yet started
        clips[0, 0, 0, 0, 0] = np.nan
        started.clear()

        def slow_forward(c):
            if c.ctypes.data != clips.ctypes.data:
                time.sleep(0.05)
            return forward(c)

        with pytest.raises(NonFiniteError, match="chunk at clip 0$"):
            _forward_only(slow_forward, clips)
        assert len(started) < len(clips) // chunk
        assert threading.active_count() == threads
        assert T._grad_enabled

    def test_caller_errstate_holds_in_the_workers(self):
        big = np.full((2 * training._EVAL_CHUNK, 3), 1e30, dtype=np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _forward_only(lambda c: T.mul(Tensor(c), Tensor(c)), big)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        m = self.late_model()
        clips = tiny_data(m.cfg, clips_per_class=21).clips
        start = m.frozen_prefix()
        fn = lambda c: m.encode_prefix(c, start)  # noqa: E731
        expected = serial_forward_only(fn, clips, training._EVAL_CHUNK)
        monkeypatch.setattr(training, "_EVAL_WORKERS", 8)
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: outs.extend(_forward_only(fn, clips) for _ in range(3)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(outs) == 3
        for out in outs:
            np.testing.assert_array_equal(out, expected)

    # The reference is the peak over 4 clips, one chunk, times the
    # chunks in flight: how far two chunks' peaks overlap in time varies
    # from run to run, so a peak over a few chunks is no steady reference.

    def test_eval_peak_does_not_grow_with_the_clip_count(self):
        m = self.late_model()
        data = tiny_data(m.cfg, clips_per_class=32)
        peak = {n: traced_peak(lambda: evaluate_model(m, VideoBatch(data.clips[:n],
                                                                    data.labels[:n])))
                for n in (4, 64)}
        assert peak[64] <= 1.2 * training._EVAL_WORKERS * peak[4], peak

    def test_prefix_cache_peak_grows_only_by_the_cache(self):
        # the cache itself grows with the clip count, and concatenating
        # holds the chunks and their join at once: beyond those two
        # copies the build must not grow
        m = self.late_model()
        clips = tiny_data(m.cfg, clips_per_class=32).clips
        start = m.frozen_prefix()
        beyond = {}
        for n in (4, 64):
            out = []
            peak = traced_peak(lambda: out.append(
                _forward_only(lambda c: m.encode_prefix(c, start), clips[:n])))
            beyond[n] = peak - 2 * out[0].nbytes
        assert beyond[64] <= 1.2 * training._EVAL_WORKERS * beyond[4], beyond

    def test_prefix_tokens_bitwise_equal_at_every_chunk_size(self, monkeypatch):
        m = self.late_model()
        clips = tiny_data(m.cfg, clips_per_class=21).clips
        start = m.frozen_prefix()
        tokens = {}
        for chunk in (1, 3, 4, 8, 32):
            monkeypatch.setattr(training, "_EVAL_CHUNK", chunk)
            tokens[chunk] = _forward_only(lambda c: m.encode_prefix(c, start), clips)
        for chunk in (1, 3, 8, 32):
            np.testing.assert_array_equal(tokens[chunk], tokens[4], err_msg=f"chunk {chunk}")
