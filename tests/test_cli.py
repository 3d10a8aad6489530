"""End-to-end CLI behavior through main(argv)."""

import json

import pytest

import feadapter.tensor
from feadapter import VideoViT, load_experiment_config, save_checkpoint
from feadapter.checkpoint import MAGIC
from feadapter.cli import main
from feadapter.config import config_echo
from feadapter.reports import read_records

TINY = """
model.frames = 4
model.height = 16
model.width = 16
model.patch = 8
model.hidden = 32
model.depth = 3
model.heads = 4
model.classes = 2
adapter.variant = d2_conv3d
adapter.r = 6
train.lr = 1e-3
train.epochs = 2
train.batch = 4
train.seed = 11
train.eval_every = 1
train.freeze = adapter
data.clips_per_class = 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY + f"out.dir = {tmp_path / 'run'}\n")
    return path


class TestTrainCommand:
    def test_writes_artifacts_and_exits_zero(self, tiny_config, tmp_path):
        assert main(["train", "--config", str(tiny_config)]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint.bin").exists()
        assert (run / "metrics.jsonl").exists()
        assert (run / "params.json").exists()
        records = read_records(str(run / "metrics.jsonl"))
        assert len(records) == 2

    def test_missing_config_nonzero_with_path(self, capsys):
        assert main(["train", "--config", "does/not/exist.cfg"]) == 1
        assert "does/not/exist.cfg" in capsys.readouterr().err

    def test_unknown_key_nonzero_naming_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.hiden = 4\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert "model.hiden" in capsys.readouterr().err

    def test_replay_same_seed_is_bit_identical(self, tiny_config, tmp_path):
        run = tmp_path / "run"

        def run_once():
            assert main(["train", "--config", str(tiny_config)]) == 0
            return ((run / "metrics.jsonl").read_bytes(),
                    (run / "checkpoint.bin").read_bytes())

        first = run_once()
        second = run_once()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_seed_override_changes_run(self, tiny_config, tmp_path):
        assert main(["train", "--config", str(tiny_config), "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(tiny_config), "--out", str(tmp_path / "b"),
                     "--seed", "12"]) == 0
        a = read_records(str(tmp_path / "a" / "metrics.jsonl"))
        b = read_records(str(tmp_path / "b" / "metrics.jsonl"))
        assert a != b


class TestEvalCommand:
    def test_eval_checkpoint(self, tiny_config, tmp_path, capsys):
        assert main(["train", "--config", str(tiny_config)]) == 0
        ckpt = tmp_path / "run" / "checkpoint.bin"
        assert main(["eval", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "UAR" in out and "WAR" in out

    def test_missing_checkpoint_is_a_named_error(self, tmp_path, capsys):
        absent = tmp_path / "absent.bin"
        assert main(["eval", "--checkpoint", str(absent)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.bin" in err

    @pytest.mark.parametrize("bit", [0x80, 0x01], ids=["not-utf8", "not-json"])
    def test_flipped_header_byte_is_a_named_error(self, tiny_config, tmp_path, capsys, bit):
        exp = load_experiment_config(str(tiny_config))
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(VideoViT(exp.model, seed=0), str(ckpt), echo=config_echo(exp))
        blob = bytearray(ckpt.read_bytes())
        blob[len(MAGIC) + 8] ^= bit              # the header's opening brace
        ckpt.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "header" in err

    def test_valid_json_key_flip_is_a_named_error(self, tiny_config, tmp_path, capsys):
        exp = load_experiment_config(str(tiny_config))
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(VideoViT(exp.model, seed=0), str(ckpt), echo=config_echo(exp))
        blob = bytearray(ckpt.read_bytes())
        blob[blob.index(b'"tensors"') + 1] ^= ord("t") ^ ord("u")   # -> "uensors"
        ckpt.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'tensors' is not a list" in err


class TestSweepCommand:
    @pytest.mark.parametrize("kind,rows", [
        ("temporal_conv", ["ta", "linear_probe", "dw_conv3d", "d2_conv3d"]),
        ("global_position", ["1", "2", "3", "2-3", "1-3"]),
        ("local_position", ["after_mlp", "after_mhsa", "before_mhsa"]),
    ])
    def test_row_sets(self, tiny_config, tmp_path, kind, rows):
        assert main(["sweep", "--config", str(tiny_config), "--kind", kind]) == 0
        recs = read_records(str(tmp_path / "run" / f"sweep_{kind}.jsonl"))
        assert [r["cell"] for r in recs] == rows

    def test_cells_share_frozen_backbone_hash(self, tiny_config, tmp_path):
        assert main(["sweep", "--config", str(tiny_config), "--kind", "temporal_conv"]) == 0
        recs = read_records(str(tmp_path / "run" / "sweep_temporal_conv.jsonl"))
        hashes = {r["backbone_sha256"] for r in recs}
        assert len(hashes) == 1

    def test_parallel_matches_sequential(self, tiny_config, tmp_path):
        assert main(["sweep", "--config", str(tiny_config), "--kind", "local_position",
                     "--out", str(tmp_path / "seq")]) == 0
        assert main(["sweep", "--config", str(tiny_config), "--kind", "local_position",
                     "--out", str(tmp_path / "par"), "--parallel", "2"]) == 0
        seq = read_records(str(tmp_path / "seq" / "sweep_local_position.jsonl"))
        par = read_records(str(tmp_path / "par" / "sweep_local_position.jsonl"))
        assert seq == par

    def test_unknown_kind_rejected_by_parser(self, tiny_config):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(tiny_config), "--kind", "nope"])


class TestCountParamsCommand:
    def test_json_output(self, tiny_config, capsys):
        assert main(["count-params", "--config", str(tiny_config), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trainable"] < payload["total"]
        assert 0 < payload["ratio"] < 1
        assert any(k.startswith("adapter.block") for k in payload["groups"])

    def test_pretty_output_itemizes_groups(self, tiny_config, capsys):
        assert main(["count-params", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        for line in ("backbone", "adapter.block1", "dilation.block1", "classifier",
                     "trainable", "ratio"):
            assert line in out

    def test_linear_probe_counts_head_only(self, tmp_path, capsys):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("model.hidden = 32\nmodel.height = 16\nmodel.width = 16\n"
                       "model.patch = 8\nmodel.frames = 4\nmodel.depth = 2\n"
                       "model.heads = 4\nmodel.classes = 5\n"
                       "adapter.variant = none\ntrain.freeze = linear_probe\n")
        assert main(["count-params", "--config", str(cfg), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trainable"] == 32 * 5 + 5


GRADCHECK_CFG = """
model.frames = 4
model.height = 16
model.width = 16
model.patch = 8
model.hidden = 32
model.depth = 2
model.heads = 4
model.classes = 2
adapter.variant = d2_conv3d
adapter.r = 4
train.seed = 3
train.freeze = adapter
data.clips_per_class = 1
"""


@pytest.mark.slow
class TestGradcheckCommand:
    @pytest.fixture
    def gc_config(self, tmp_path):
        path = tmp_path / "gc.cfg"
        path.write_text(GRADCHECK_CFG)
        return path

    def test_passes_on_healthy_build(self, gc_config, capsys):
        assert main(["gradcheck", "--config", str(gc_config), "--tolerance", "1e-4"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_corrupted_backward_rule_fails(self, gc_config, capsys, monkeypatch):
        healthy = feadapter.tensor.gelu

        def corrupted(x):
            out = healthy(x)
            true_vjp = out._vjp
            if true_vjp is not None:
                out._vjp = lambda g: tuple(None if p is None else 1.01 * p
                                           for p in true_vjp(g))
            return out

        monkeypatch.setattr(feadapter.tensor, "gelu", corrupted)
        assert main(["gradcheck", "--config", str(gc_config), "--tolerance", "1e-4"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_tolerance_fails(self, gc_config, capsys):
        assert main(["gradcheck", "--config", str(gc_config), "--tolerance", "0"]) == 1
