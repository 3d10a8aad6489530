"""Checkpoint format: bit-exact roundtrips, corruption handling, a
header that does not fit its tensors, and one read per load."""

import builtins
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feadapter import VideoViT, apply_freeze, load_checkpoint, save_checkpoint
from feadapter.checkpoint import MAGIC, load_experiment
from feadapter.config import (AdapterConfig, ExperimentConfig, ModelConfig, TrainConfig,
                              config_echo)
from feadapter.errors import CheckpointError

from helpers import checkpoint_header, rewrite_checkpoint_header


def cfg(**kw):
    base = dict(frames=4, height=16, width=16, patch=8, hidden=32, depth=2,
                heads=4, classes=3,
                adapter=AdapterConfig(variant="d2_conv3d", r=6))
    base.update(kw)
    return ModelConfig(**base)


def randomized_model(seed=0, dtype=np.float32, **kw):
    m = VideoViT(cfg(**kw), seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    for t in m.params.values():
        t.data = rng.normal(size=t.shape).astype(t.data.dtype)
    return m


def save(model, path, freeze="adapter"):
    """``save_checkpoint`` under the config echo of an experiment that
    trains ``model`` in freeze mode ``freeze``."""
    exp = ExperimentConfig(model=model.cfg, train=TrainConfig(freeze=freeze))
    save_checkpoint(model, str(path), echo=config_echo(exp))


class TestRoundtrip:
    def test_every_tensor_and_flag_bitwise(self, tmp_path):
        m = randomized_model()
        apply_freeze(m, "adapter")
        path = str(tmp_path / "ck.bin")
        save(m, path)
        again = load_checkpoint(path)
        assert set(again.params) == set(m.params)
        for name, t in m.params.items():
            np.testing.assert_array_equal(again.params[name].data, t.data)
            assert again.params[name].requires_grad == t.requires_grad

    def test_float64_roundtrip_bitwise(self, tmp_path):
        m = randomized_model(dtype=np.float64)
        path = str(tmp_path / "ck64.bin")
        save(m, path)
        again = load_checkpoint(path)
        assert again.dtype == np.float64
        for name, t in m.params.items():
            np.testing.assert_array_equal(again.params[name].data, t.data)

    def test_header_echo_matches_model_config(self, tmp_path):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        header, _ = checkpoint_header(path)
        assert header["config"]["model.hidden"] == 32
        assert header["config"]["adapter.variant"] == "d2_conv3d"
        again, exp = load_experiment(str(path))
        assert again.cfg == exp.model == m.cfg

    def test_loaded_model_evaluates_identically(self, tmp_path):
        m = randomized_model(seed=3)
        path = str(tmp_path / "ck.bin")
        save(m, path)
        again = load_checkpoint(path)
        clips = np.random.default_rng(30).normal(size=(2, 4, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(m.forward(clips).data, again.forward(clips).data)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(str(path))

    def test_truncated_payload_names_tensor(self, tmp_path):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_valid_json_key_flip_is_a_named_error(self, tmp_path):
        # one XOR-flipped byte turns "tensors" into "uensors"; the header
        # still decodes as JSON
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        blob = bytearray(path.read_bytes())
        blob[blob.index(b'"tensors"') + 1] ^= ord("t") ^ ord("u")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="'tensors' is not a list"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("field,value", [
        ("config", []), ("seed", "7"), ("seed", -1), ("tensors", {}), ("entry", 5),
        ("name", None), ("shape", ["4"]), ("shape", [-1]), ("dtype", "<f2"), ("offset", -8),
        ("nbytes", "64"), ("trainable", 1),
    ])
    def test_misshapen_header_is_a_named_error(self, tmp_path, field, value):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)

        def edit(header):
            if field in ("config", "seed", "tensors"):
                header[field] = value
            elif field == "entry":
                header["tensors"][0] = value
            else:
                header["tensors"][0][field] = value
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(str(path))

    def test_tensor_listed_twice_is_a_named_error(self, tmp_path):
        # before the check, both loaders copied each entry in turn and the
        # last copy of a name silently won
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        rewrite_checkpoint_header(path, lambda h: h["tensors"].append(dict(h["tensors"][0])))
        name = sorted(m.params)[0]
        with pytest.raises(CheckpointError, match=f"tensor '{name}' listed twice"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key,value", [
        ("model.hidden", "x"), ("model.hidden", [1]), ("model.hidden", None),
        ("model.hidden", True), ("adapter.kernel", "a"), ("train.lr", {}),
    ])
    def test_wrong_typed_config_echo_is_a_named_error(self, tmp_path, key, value):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        rewrite_checkpoint_header(path, lambda h: h["config"].__setitem__(key, value))
        with pytest.raises(CheckpointError, match=f"bad config echo .*'{key}'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("nbytes", [4, 65])
    def test_byte_count_not_matching_shape_is_a_named_error(self, tmp_path, nbytes):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        rewrite_checkpoint_header(path, lambda h: h["tensors"][0].__setitem__("nbytes", nbytes))
        with pytest.raises(CheckpointError, match=f"has {nbytes} bytes"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_a_named_error(self, tmp_path, value):
        # before the check, the value loaded and the first op that read
        # it raised NonFiniteError under its own name
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        name = "blocks.1.adapter.down.weight"
        header, payload_start = checkpoint_header(path)
        entry = next(e for e in header["tensors"] if e["name"] == name)
        blob = bytearray(path.read_bytes())
        at = payload_start + entry["offset"] + 4 * 5
        blob[at:at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError,
                           match=f"ck.bin: tensor '{name}' holds non-finite values"):
            load_checkpoint(str(path))

    def test_load_into_mismatched_config_names_tensor(self, tmp_path):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)
        rewrite_checkpoint_header(path, lambda h: h["config"].__setitem__("model.hidden", 64))
        with pytest.raises(CheckpointError, match=r"tensor '[\w.]+' shape \(.*\) does not match"):
            load_checkpoint(str(path))

    def test_unknown_tensor_rejected(self, tmp_path):
        # without the freeze edit the echo itself is invalid: adapter mode
        # needs an adapter
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save(m, path)

        def edit(header):
            header["config"]["adapter.variant"] = "none"
            header["config"]["train.freeze"] = "linear_probe"
        rewrite_checkpoint_header(path, edit)
        with pytest.raises(CheckpointError,
                           match=r"tensor 'blocks\.0\.adapter\..*' does not exist in the target model"):
            load_checkpoint(str(path))


class TestOneRead:
    def test_replace_between_opens_loads_the_first_file_whole(self, tmp_path, monkeypatch):
        """A writer's ``os.replace`` lands right after the loader opens
        the path. Two reads would take the second file's payload at the
        first file's offsets, which the freeze flags' different header
        lengths shift; one read loads the first file whole."""
        first, second = randomized_model(seed=1), randomized_model(seed=2)
        apply_freeze(first, "adapter")
        apply_freeze(second, "linear_probe")
        path, other = str(tmp_path / "ck.bin"), str(tmp_path / "other.bin")
        save(first, path)
        save(second, other, freeze="linear_probe")
        real_open, opens = builtins.open, []

        def racing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if file == path:
                opens.append(file)
                if len(opens) == 1:
                    os.replace(other, path)
            return fh
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", racing_open)
            loaded = load_checkpoint(path)
        for name, t in first.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes(), name
            assert loaded.params[name].requires_grad == t.requires_grad, name
        assert len(opens) == 1


SMALL_CFG = ModelConfig(frames=2, height=8, width=8, patch=4, hidden=8, depth=1, heads=2,
                        classes=2, adapter=AdapterConfig(variant="d2_conv3d", r=2))


def _small_checkpoint() -> bytes:
    m = VideoViT(SMALL_CFG, seed=0)
    apply_freeze(m, "adapter")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ck.bin")
        save(m, path)
        with open(path, "rb") as fh:
            return fh.read()


SMALL = _small_checkpoint()
SMALL_HEADER_END = len(MAGIC) + 8 + struct.unpack("<I", SMALL[len(MAGIC) + 4:len(MAGIC) + 8])[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, SMALL_HEADER_END - 1), st.integers(1, 255)),
                min_size=1, max_size=3))
def test_header_byte_flips_load_or_raise_checkpoint_error(flips):
    """Whatever bytes of the preamble and header are flipped, the loader
    either loads or raises CheckpointError, never anything else."""
    blob = bytearray(SMALL)
    for pos, mask in flips:
        blob[pos] ^= mask
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "ck.bin")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
