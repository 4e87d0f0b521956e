"""Checkpoint format tests: round trips, magic, manifest validation."""

import numpy as np
import pytest

from mtslof.backbone import EncoderConfig, PatcherConfig
from mtslof.checkpoint import MAGIC, apply_state, load_checkpoint, save_checkpoint
from mtslof.errors import CheckpointMismatchError, DataFormatError
from mtslof.tensor import parameter
from mtslof.training import build_model, load_model_state, model_state


def test_roundtrip_bit_identical(tmp_path, rng):
    tensors = {
        "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "b.bias": rng.normal(size=5).astype(np.float64),
        "scalar": np.array([7.0], dtype=np.float32),
    }
    path = str(tmp_path / "x.ckpt")
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)


def test_magic_prefix(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
    assert open(path, "rb").read(8) == MAGIC == b"MTSLOF01"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(str(path), {"w": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(str(path))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(str(path), {"w": np.ones(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(str(path))


def test_name_not_utf8_rejected_with_offset(tmp_path):
    path = tmp_path / "n.ckpt"
    save_checkpoint(str(path), {"ab": np.ones(2, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    blob[15] = 0xFF  # second byte of the name: 8 magic, 4 count, 2 name length
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="UTF-8") as info:
        load_checkpoint(str(path))
    assert info.value.offset == 15


def test_manifest_cut_inside_shape_rejected_with_offset(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(str(path), {"w": np.ones((4, 4), dtype=np.float32)})
    # The extents start at 17: 8 magic, 4 count, 2 name length, 1 name, dtype, rank.
    path.write_bytes(path.read_bytes()[:21])
    with pytest.raises(DataFormatError, match="shape of 'w'") as info:
        load_checkpoint(str(path))
    assert info.value.offset == 17


def test_non_finite_tensor_rejected_naming_it_and_its_payload(tmp_path):
    weight = np.ones((2, 3), dtype=np.float32)
    weight[1, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(str(path), {"patcher.conv1.bias": np.zeros(2, dtype=np.float32),
                                "patcher.conv1.weight": weight})
    payload = path.stat().st_size - weight.nbytes
    with pytest.raises(DataFormatError, match=r"'patcher.conv1.weight'.*element 3") as info:
        load_checkpoint(str(path))
    assert info.value.offset == payload


def test_apply_state_shape_mismatch_names_tensor():
    target = parameter(np.zeros((2, 3)))
    with pytest.raises(CheckpointMismatchError, match="head.weight"):
        apply_state({"head.weight": target}, {"head.weight": np.zeros((4, 3))})


def test_apply_state_missing_tensor():
    target = parameter(np.zeros(2))
    with pytest.raises(CheckpointMismatchError, match="missing"):
        apply_state({"w": target}, {})


def test_model_state_roundtrip(tmp_path):
    patcher = PatcherConfig(first_kernel=8, first_stride=1,
                            channel_widths=(4, 4, 4, 8), input_channels=2)
    encoder = EncoderConfig(model_dim=8, heads=2, depth=1, ffn_multiplier=2, dropout=0.0)
    b1, d1 = build_model(patcher, encoder, class_count=3, decoder_depth=1, seed=0)
    b1.patcher.norms[0].running_mean += 0.5
    state = model_state(b1, d1)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, state)

    b2, d2 = build_model(patcher, encoder, class_count=3, decoder_depth=1, seed=99)
    load_model_state(b2, d2, load_checkpoint(path))
    for name, t in b1.named_params().items():
        assert np.array_equal(t.data, dict(b2.named_params())[name].data), name
    assert np.array_equal(b2.patcher.norms[0].running_mean,
                          b1.patcher.norms[0].running_mean)
    for name, t in d1.named_params().items():
        assert np.array_equal(t.data, dict(d2.named_params())[name].data), name
