"""Checkpoint format: bit-exact roundtrips, corruption handling,
partial loads by tensor name."""

import json
import struct

import numpy as np
import pytest

from feadapter import (VideoViT, apply_freeze, load_checkpoint, load_named_tensors,
                       save_checkpoint)
from feadapter.checkpoint import MAGIC, read_checkpoint_header
from feadapter.config import AdapterConfig, ModelConfig
from feadapter.errors import CheckpointError


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


class TestRoundtrip:
    def test_every_tensor_and_flag_bitwise(self, tmp_path):
        m = randomized_model()
        apply_freeze(m, "adapter")
        path = str(tmp_path / "ck.bin")
        save_checkpoint(m, path)
        again = load_checkpoint(path)
        assert set(again.params) == set(m.params)
        for name, t in m.params.items():
            np.testing.assert_array_equal(again.params[name].data, t.data)
            assert again.params[name].requires_grad == t.requires_grad

    def test_float64_roundtrip_bitwise(self, tmp_path):
        m = randomized_model(dtype=np.float64)
        path = str(tmp_path / "ck64.bin")
        save_checkpoint(m, path)
        again = load_checkpoint(path)
        assert again.dtype == np.float64
        for name, t in m.params.items():
            np.testing.assert_array_equal(again.params[name].data, t.data)

    def test_header_echo_matches_model_config(self, tmp_path):
        m = randomized_model()
        path = str(tmp_path / "ck.bin")
        save_checkpoint(m, path)
        header = read_checkpoint_header(path)
        assert header["config"]["model.hidden"] == 32
        assert header["config"]["adapter.variant"] == "d2_conv3d"
        assert load_checkpoint(path).cfg == m.cfg

    def test_loaded_model_evaluates_identically(self, tmp_path):
        m = randomized_model(seed=3)
        path = str(tmp_path / "ck.bin")
        save_checkpoint(m, path)
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
        save_checkpoint(m, str(path))
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(str(path))

    def test_truncated_payload_names_tensor(self, tmp_path):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save_checkpoint(m, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_valid_json_key_flip_is_a_named_error(self, tmp_path):
        # one XOR-flipped byte turns "tensors" into "uensors"; the header
        # still decodes as JSON
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save_checkpoint(m, str(path))
        blob = bytearray(path.read_bytes())
        blob[blob.index(b'"tensors"') + 1] ^= ord("t") ^ ord("u")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="'tensors' is not a list"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("field,value", [
        ("config", []), ("seed", "7"), ("tensors", {}), ("entry", 5), ("name", None),
        ("shape", ["4"]), ("shape", [-1]), ("dtype", "<f2"), ("offset", -8),
        ("nbytes", "64"), ("trainable", 1),
    ])
    def test_misshapen_header_is_a_named_error(self, tmp_path, field, value):
        m = randomized_model()
        path = tmp_path / "ck.bin"
        save_checkpoint(m, str(path))
        blob = path.read_bytes()
        start = len(MAGIC) + 8
        hlen = struct.unpack("<I", blob[len(MAGIC) + 4:start])[0]
        header = json.loads(blob[start:start + hlen])
        if field in ("config", "seed", "tensors"):
            header[field] = value
        elif field == "entry":
            header["tensors"][0] = value
        else:
            header["tensors"][0][field] = value
        head = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:len(MAGIC) + 4] + struct.pack("<I", len(head)) + head
                         + blob[start + hlen:])
        for load in (load_checkpoint, lambda p: load_named_tensors(m, p, lambda name: True)):
            with pytest.raises(CheckpointError, match="corrupt header"):
                load(str(path))

    def test_load_into_mismatched_config_names_tensor(self, tmp_path):
        m = randomized_model()
        path = str(tmp_path / "ck.bin")
        save_checkpoint(m, path)
        other = VideoViT(cfg(hidden=64, heads=4), seed=0)
        with pytest.raises(CheckpointError, match="shape"):
            load_named_tensors(other, path, lambda name: True)


class TestPartialLoad:
    def test_backbone_only_load_leaves_adapters_at_identity(self, tmp_path):
        donor = randomized_model(seed=1)
        path = str(tmp_path / "donor.bin")
        save_checkpoint(donor, path)
        target = VideoViT(cfg(), seed=2)
        loaded = load_named_tensors(target, path,
                                    lambda name: ".adapter." not in name and
                                    not name.startswith("head."))
        assert loaded
        # backbone tensors now match the donor, adapters stay fresh
        np.testing.assert_array_equal(target.params["patch_embed.weight"].data,
                                      donor.params["patch_embed.weight"].data)
        for name, t in target.params.items():
            if name.endswith("adapter.up.weight"):
                assert not t.data.any(), f"{name} no longer identity-initialized"

    def test_partial_load_unknown_tensor_rejected(self, tmp_path):
        donor = randomized_model(seed=1)
        path = str(tmp_path / "donor.bin")
        save_checkpoint(donor, path)
        plain = VideoViT(cfg(adapter=AdapterConfig(variant="none")), seed=0)
        with pytest.raises(CheckpointError, match="adapter"):
            load_named_tensors(plain, path, lambda name: True)
