"""End-to-end CLI behavior through main(argv)."""

import builtins
import errno
import json
import os
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest

import feadapter.checkpoint
import feadapter.cli
import feadapter.tensor
import feadapter.training
from feadapter import VideoViT, count_tunable_params, load_experiment_config, save_checkpoint
from feadapter.checkpoint import MAGIC
from feadapter.cli import main, sweep_cells
from feadapter.config import config_echo, experiment_from_values

from helpers import checkpoint_header, read_records, rewrite_checkpoint_header

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

    def test_params_json_and_done_line_match_count_params(self, tiny_config, tmp_path, capsys):
        assert main(["train", "--config", str(tiny_config)]) == 0
        *records, done = capsys.readouterr().out.splitlines()
        assert main(["count-params", "--config", str(tiny_config), "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)
        assert json.loads((tmp_path / "run" / "params.json").read_text()) == counts
        # each epoch's record is printed as it is logged
        assert records == (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert done.startswith("done:")
        assert (f"tunable {counts['trainable']:,}/{counts['total']:,} ({counts['ratio']:.2%})"
                in done)

    def test_missing_config_nonzero_with_path(self, capsys):
        assert main(["train", "--config", "does/not/exist.cfg"]) == 1
        assert "does/not/exist.cfg" in capsys.readouterr().err

    def test_unknown_key_nonzero_naming_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.hiden = 4\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert "model.hiden" in capsys.readouterr().err

    def test_out_naming_a_file_is_an_error_line(self, tiny_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["train", "--config", str(tiny_config), "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make output directory") and str(taken) in err
        assert taken.read_text() == "not a directory"
        assert main(["train", "--config", str(tiny_config), "--out", ""]) == 1
        assert capsys.readouterr().err.startswith("error: cannot make output directory '':")

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

    def test_wrong_typed_config_echo_is_a_named_error(self, tiny_config, tmp_path, capsys):
        exp = load_experiment_config(str(tiny_config))
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(VideoViT(exp.model, seed=0), str(ckpt), echo=config_echo(exp))
        rewrite_checkpoint_header(ckpt, lambda h: h["config"].__setitem__("model.hidden", "x"))
        assert main(["eval", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad config echo" in err and "model.hidden" in err

    def test_echo_key_this_version_lacks_is_a_named_error(self, tiny_config, tmp_path, capsys):
        # an echo written when adapter.activation existed: loading it as
        # a GELU model would report a number for a model it never was
        exp = load_experiment_config(str(tiny_config))
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(VideoViT(exp.model, seed=0), str(ckpt), echo=config_echo(exp))
        rewrite_checkpoint_header(
            ckpt, lambda h: h["config"].__setitem__("adapter.activation", "relu"))
        assert main(["eval", "--checkpoint", str(ckpt)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error:") and "bad config echo" in line
        assert "unknown config key 'adapter.activation'" in line

    def test_header_read_and_echo_parsed_once(self, tiny_config, tmp_path, capsys, monkeypatch):
        exp = load_experiment_config(str(tiny_config))
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(VideoViT(exp.model, seed=0), str(ckpt), echo=config_echo(exp))
        calls = {"open": 0, "experiment_from_values": 0}
        real_open = builtins.open

        def counted_open(file, *args, **kwargs):
            calls["open"] += file == str(ckpt)
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", counted_open)
        original = feadapter.checkpoint.experiment_from_values

        def counted(*args):
            calls["experiment_from_values"] += 1
            return original(*args)
        # wherever a feadapter module holds the function
        for name, mod in list(sys.modules.items()):
            if name.startswith("feadapter") and \
                    getattr(mod, "experiment_from_values", None) is original:
                monkeypatch.setattr(mod, "experiment_from_values", counted)
        assert main(["eval", "--checkpoint", str(ckpt)]) == 0
        assert "UAR" in capsys.readouterr().out
        assert calls == {"open": 1, "experiment_from_values": 1}

    def test_non_finite_tensor_blamed_on_the_checkpoint(self, tiny_config, tmp_path, capsys):
        exp = load_experiment_config(str(tiny_config))
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(VideoViT(exp.model, seed=0), str(ckpt), echo=config_echo(exp))
        header, payload_start = checkpoint_header(ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[payload_start:payload_start + 4] = struct.pack("<f", float("nan"))
        ckpt.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: tensor '{header['tensors'][0]['name']}' "
                              "holds non-finite values")


class _FullDisk:
    """A file whose writes after the first raise, as on a disk that
    fills part-way through an artifact."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fill_disk_on(monkeypatch, name):
    """Every file written for the artifact ``name`` fails after its first write."""
    def fake_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode and os.path.basename(path).startswith(name):
            return _FullDisk(fh)
        return fh
    monkeypatch.setattr(feadapter.checkpoint, "open", fake_open, raising=False)


class TestAtomicArtifacts:
    """An artifact write that fails part-way leaves the previous file
    intact and no temporary file behind."""

    @pytest.mark.parametrize("name", ["checkpoint.bin", "params.json"])
    def test_failed_train_write_keeps_previous_file(self, tiny_config, tmp_path, monkeypatch,
                                                    name):
        run = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config)]) == 0
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        _fill_disk_on(monkeypatch, name)
        with pytest.raises(OSError, match="No space left"):
            main(["train", "--config", str(tiny_config), "--seed", "12"])
        assert sorted(p.name for p in run.iterdir()) == sorted(before)
        assert (run / name).read_bytes() == before[name]

    def test_failed_sweep_write_keeps_previous_rows(self, tiny_config, tmp_path, monkeypatch):
        def rows(war):
            return [{"cell": c, "uar": war, "war": war, "trainable_params": 1} for c in "ab"]
        run, path = tmp_path / "run", tmp_path / "run" / "sweep_temporal_conv.jsonl"
        argv = ["sweep", "--config", str(tiny_config), "--kind", "temporal_conv"]
        monkeypatch.setattr(feadapter.cli, "run_sweep", lambda *a, **k: rows(0.5))
        assert main(argv) == 0
        before = path.read_bytes()
        monkeypatch.setattr(feadapter.cli, "run_sweep", lambda *a, **k: rows(1.0))
        _fill_disk_on(monkeypatch, path.name)
        with pytest.raises(OSError, match="No space left"):
            main(argv)
        assert [p.name for p in run.iterdir()] == [path.name]
        assert path.read_bytes() == before


class TestSweepCommand:
    @pytest.mark.parametrize("kind,rows", [
        ("temporal_conv", ["linear_probe", "dw_conv3d", "d2_conv3d"]),
        ("global_position", ["1", "2", "3", "2-3", "1-3"]),
        ("local_position", ["after_mlp", "after_mhsa", "before_mhsa"]),
    ])
    def test_row_sets(self, tiny_config, tmp_path, kind, rows):
        assert main(["sweep", "--config", str(tiny_config), "--kind", kind]) == 0
        recs = read_records(str(tmp_path / "run" / f"sweep_{kind}.jsonl"))
        assert [r["cell"] for r in recs] == rows
        exp = load_experiment_config(str(tiny_config))
        for rec, (_, overrides) in zip(recs, sweep_cells(kind, exp)):
            cell = experiment_from_values({**config_echo(exp), **overrides})
            counts = count_tunable_params(cell.model, cell.train.freeze)
            assert (rec["trainable_params"], rec["total_params"]) == (counts.trainable,
                                                                      counts.total)

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

    @pytest.mark.slow
    def test_parallel_sweep_after_a_chunked_step_finishes(self, tiny_config, tmp_path):
        # the sweep's pool forks this process; a worker forked after a
        # chunked step must find no chunk pool whose threads it lacks
        config = tmp_path / "chunked.cfg"
        config.write_text(TINY.replace("train.batch = 4", "train.batch = 8")
                          .replace("data.clips_per_class = 2", "data.clips_per_class = 4")
                          + f"out.dir = {tmp_path / 'run'}\n")
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from feadapter import VideoViT, apply_freeze, load_experiment_config\n"
                  "from feadapter import tensor as T\n"
                  "from feadapter.cli import run_sweep\n"
                  "from feadapter.training import experiment_data\n"
                  f"exp = load_experiment_config({str(config)!r})\n"
                  "m = VideoViT(exp.model, seed=0)\n"
                  "apply_freeze(m, 'adapter')\n"
                  "data = experiment_data(exp)\n"
                  "loss = T.cross_entropy(m.forward(data.clips[:8]), data.labels[:8])\n"
                  "assert any(node.fork for node in T.trace_graph(loss))\n"
                  "loss.backward()\n"
                  "print(len(run_sweep('global_position', exp, parallel=2)))\n")
        src = os.path.dirname(os.path.dirname(feadapter.cli.__file__))
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True,
                                env={**os.environ, "PYTHONPATH": src})
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the hung workers too
            proc.communicate()
            pytest.fail("the parallel sweep hung after a chunked step")
        assert proc.returncode == 0, err
        cells = sweep_cells("global_position", load_experiment_config(str(config)))
        assert out.split() == [str(len(cells))]

    def test_out_naming_a_file_fails_before_any_cell(self, tiny_config, tmp_path, capsys,
                                                     monkeypatch):
        cells = []
        monkeypatch.setattr(feadapter.cli, "_run_sweep_cell", cells.append)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["sweep", "--config", str(tiny_config), "--kind", "temporal_conv",
                     "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make output directory") and str(taken) in err
        assert cells == []

    def test_unknown_kind_rejected_by_parser(self, tiny_config):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(tiny_config), "--kind", "nope"])


class TestSweepWorkers:
    """Cells run in a recording stand-in for the process pool, never in
    real worker processes."""

    @pytest.fixture
    def pools(self, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        def fake_cell(payload):
            kind, label, _, _ = payload
            return {"kind": kind, "cell": label, "uar": 1.0, "war": 1.0, "trainable_params": 0}

        monkeypatch.setattr(feadapter.cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(feadapter.cli, "_run_sweep_cell", fake_cell)
        return pools

    @pytest.mark.parametrize("parallel,workers", [
        ("100000", [3]), ("3", [3]), ("2", [2]), ("1", []), ("0", []),
    ])
    def test_workers_capped_at_cell_count(self, tiny_config, pools, parallel, workers):
        assert main(["sweep", "--config", str(tiny_config), "--kind", "local_position",
                     "--parallel", parallel]) == 0
        assert pools == workers

    def test_negative_parallel_is_an_error_line(self, tiny_config, pools, capsys):
        assert main(["sweep", "--config", str(tiny_config), "--kind", "local_position",
                     "--parallel", "-1"]) == 1
        assert capsys.readouterr().err == "error: --parallel must be at least 0, got -1\n"
        assert pools == []
        assert not (tiny_config.parent / "run").exists()


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


@pytest.fixture
def gc_config(tmp_path):
    path = tmp_path / "gc.cfg"
    path.write_text(GRADCHECK_CFG)
    return path


@pytest.mark.slow
class TestGradcheckCommand:
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


class TestGradcheckFlags:
    """Flag values the check cannot run with are named errors, raised
    before any model is built."""

    @pytest.mark.parametrize("flags", [["--out", "x"], ["--f64"]])
    def test_run_output_flags_are_rejected(self, gc_config, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--config", str(gc_config), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "0"], "--eps must be a positive finite number, got 0.0"),
        (["--eps=-1e-5"], "--eps must be a positive finite number, got -1e-05"),
        (["--eps", "nan"], "--eps must be a positive finite number, got nan"),
        (["--samples", "0"], "--samples must be at least 1, got 0"),
        (["--samples", "-1"], "--samples must be at least 1, got -1"),
        (["--samples", "3"], "--samples 3 exceeds the 2 clips in the dataset"),
        (["--tolerance", "nan"], "--tolerance must be a non-negative number, got nan"),
    ], ids=["eps-zero", "eps-negative", "eps-nan", "samples-zero", "samples-negative",
            "samples-past-data", "tolerance-nan"])
    def test_bad_value_is_an_error_line(self, gc_config, capsys, monkeypatch, flags, message):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built before the flags were checked")
        monkeypatch.setattr(feadapter.cli, "VideoViT", no_model)
        assert main(["gradcheck", "--config", str(gc_config), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_gradcheck_samples_cover_every_class(tmp_path, monkeypatch):
    """The dataset is class-major; --samples equal to the class count
    takes one clip of each class."""
    cfg = tmp_path / "gc3.cfg"
    cfg.write_text(GRADCHECK_CFG.replace("model.classes = 2", "model.classes = 3")
                   .replace("data.clips_per_class = 1", "data.clips_per_class = 3"))
    seen = []

    def record(model, clips, labels, eps):
        seen.append((clips, labels))
        return {}
    monkeypatch.setattr(feadapter.cli, "gradcheck_model", record)
    assert main(["gradcheck", "--config", str(cfg), "--samples", "3"]) == 0
    [(clips, labels)] = seen
    assert labels.tolist() == [0, 1, 2]
    data = feadapter.training.experiment_data(load_experiment_config(str(cfg)))
    np.testing.assert_array_equal(clips, data.clips[[0, 3, 6]].astype(np.float64))
