"""Data tests: generator determinism, file format, splitting, normalization."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtslof.data import (
    Dataset,
    SplitSpec,
    SyntheticConfig,
    batch_iter,
    generate_synthetic,
    load_csv,
    load_dataset,
    normalize,
    save_dataset,
    split,
)
from mtslof.errors import ConfigError, DataFormatError, MtslofError


def small_cfg(**kw):
    base = dict(class_count=3, channels=2, length=64, samples_per_class=10,
                noise_std=0.5, seed=7)
    base.update(kw)
    return SyntheticConfig(**base)


# -- generator -----------------------------------------------------------


def test_generate_deterministic():
    a = generate_synthetic(small_cfg())
    b = generate_synthetic(small_cfg())
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)


def test_label_histogram_exact():
    ds = generate_synthetic(small_cfg(samples_per_class=13))
    assert np.array_equal(np.bincount(ds.labels), [13, 13, 13])


def test_noise_free_samples_identical_within_class():
    ds = generate_synthetic(small_cfg(noise_std=0.0, phase_jitter=0.0))
    for k in range(3):
        rows = ds.samples[ds.labels == k]
        assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1, 1)))


def test_phase_jitter_varies_samples():
    ds = generate_synthetic(small_cfg(noise_std=0.0, phase_jitter=0.5))
    rows = ds.samples[ds.labels == 0]
    assert not np.array_equal(rows[0], rows[1])


def test_nearest_centroid_oracle_beats_chance():
    ds = generate_synthetic(SyntheticConfig(samples_per_class=60, noise_std=0.5, seed=3))
    train, _, test = split(ds, SplitSpec(seed=0))
    flat_train = train.samples.reshape(train.n, -1)
    flat_test = test.samples.reshape(test.n, -1)
    centroids = np.stack([flat_train[train.labels == k].mean(0) for k in range(3)])
    preds = np.argmin(((flat_test[:, None] - centroids[None]) ** 2).sum(-1), axis=1)
    accuracy = (preds == test.labels).mean()
    assert accuracy > 1.0 / 3.0


def test_signature_seed_shares_classes_across_domains():
    a = generate_synthetic(small_cfg(seed=1, signature_seed=42, noise_std=0.2))
    b = generate_synthetic(small_cfg(seed=2, signature_seed=42, noise_std=0.8))
    # same class structure, different noise: class centroids stay close
    ca = np.stack([a.samples[a.labels == k].mean(0) for k in range(3)])
    cb = np.stack([b.samples[b.labels == k].mean(0) for k in range(3)])
    base = np.linalg.norm(ca.reshape(3, -1), axis=1)
    dist = np.linalg.norm((ca - cb).reshape(3, -1), axis=1)
    assert np.all(dist < 0.5 * base)


# -- file round trips -------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    ds = generate_synthetic(small_cfg())
    path = str(tmp_path / "ds.bin")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.samples, ds.samples)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == ds.class_count


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        load_dataset(str(path))


def test_load_truncated_names_lengths(tmp_path):
    ds = generate_synthetic(small_cfg())
    path = tmp_path / "trunc.bin"
    save_dataset(ds, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(DataFormatError, match="expected"):
        load_dataset(str(path))


def test_load_label_out_of_range(tmp_path):
    ds = generate_synthetic(small_cfg())
    path = tmp_path / "label.bin"
    save_dataset(ds, str(path))
    blob = bytearray(path.read_bytes())
    blob[24:28] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="out of range"):
        load_dataset(str(path))


def test_load_non_finite_value_names_sample_channel_time_and_offset(tmp_path):
    ds = generate_synthetic(small_cfg())
    path = tmp_path / "nan.bin"
    save_dataset(ds, str(path))
    offset = 24 + 4 * ds.n + 4 * ((1 * ds.channels + 1) * ds.length + 3)
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="sample 1, channel 1, time 3") as info:
        load_dataset(str(path))
    assert info.value.offset == offset


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_code_built_dataset_rejects_non_finite_naming_sample_channel_time(bad):
    samples = np.zeros((3, 2, 8), dtype=np.float32)
    samples[2, 1, 5] = bad
    with pytest.raises(DataFormatError, match="sample 2, channel 1, time 5"):
        Dataset(samples, np.zeros(3, dtype=np.int64), 1)


def test_single_sample_file_loads_but_split_fails(tmp_path):
    ds = Dataset(np.zeros((1, 2, 8), dtype=np.float32), np.zeros(1, dtype=np.int64), 1)
    path = str(tmp_path / "one.bin")
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.n == 1
    with pytest.raises(ConfigError, match="at least 5"):
        split(back, SplitSpec())


def test_csv_import_single_channel(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,3.0,0\n4.0,5.0,6.0,1\n")
    ds = load_csv(str(path))
    assert ds.samples.shape == (2, 1, 3)
    assert ds.class_count == 2
    assert np.array_equal(ds.labels, [0, 1])


def test_csv_non_finite_value_names_line_sample_and_time(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,2.0,3.0,0\n# comment\n4.0,nan,6.0,1\n")
    with pytest.raises(DataFormatError, match="line 3: .*sample 1, channel 0, time 1"):
        load_csv(str(path))
    path.write_text("1.0,2.0,3.0,0\n4.0,5.0,1e39,1\n")
    with pytest.raises(DataFormatError, match="line 2: .*sample 1, channel 0, time 2"):
        load_csv(str(path))
    path.write_text("1.0,2.0,3.0,0\n4.0,5.0,6.0,inf\n")
    with pytest.raises(DataFormatError, match="line 2: "):
        load_csv(str(path))


def test_csv_ragged_rejected(tmp_path):
    path = tmp_path / "rag.csv"
    path.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DataFormatError, match="ragged"):
        load_csv(str(path))


_VALID_CSV = b"1.0,2.0,3.0,0\n# note\n4.0,5.5,-6.0,1\n7.0,8.0,9.0,2\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_VALID_CSV)), st.integers(0, len(_VALID_CSV) - 1), st.integers(0, 255))
def test_csv_any_prefix_or_byte_substitution_loads_or_raises_typed(tmp_path_factory, cut, at, byte):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    for blob in (_VALID_CSV[:cut], _VALID_CSV[:at] + bytes([byte]) + _VALID_CSV[at + 1:]):
        path.write_bytes(blob)
        try:
            load_csv(str(path))
        except DataFormatError as exc:
            if "UTF-8" in str(exc):
                assert str(path) in str(exc) and exc.offset == at



def test_dataset_any_prefix_or_byte_substitution_loads_or_raises_typed(tmp_path):
    path = str(tmp_path / "d.bin")
    save_dataset(Dataset(np.array([[[0.5, -1.0, 2.0]], [[3.0, 0.25, -4.0]]]), [1, 0], 2), path)
    valid = open(path, "rb").read()
    blobs = [valid[:cut] for cut in range(len(valid))]
    blobs += [valid[:at] + bytes([byte]) + valid[at + 1:]
              for at in range(len(valid)) for byte in range(256) if byte != valid[at]]
    loaded = 0
    for blob in blobs:
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_dataset(path)
        except MtslofError:
            continue
        loaded += 1
    assert loaded > 0


# -- split -------------------------------------------------------------------


def test_split_sizes_n10():
    ds = generate_synthetic(small_cfg(samples_per_class=4, class_count=1, channels=1))
    ds = Dataset(ds.samples[:4], ds.labels[:4], 1)
    ds10 = Dataset(np.zeros((10, 1, 8), dtype=np.float32), np.zeros(10, dtype=np.int64), 1)
    train, val, test = split(ds10, SplitSpec())
    assert (train.n, val.n, test.n) == (6, 2, 2)


def test_split_sizes_n11_remainder_to_train():
    ds = Dataset(np.zeros((11, 1, 8), dtype=np.float32), np.zeros(11, dtype=np.int64), 1)
    train, val, test = split(ds, SplitSpec())
    assert (train.n, val.n, test.n) == (7, 2, 2)


def test_split_deterministic_per_seed():
    ds = generate_synthetic(small_cfg())
    a = split(ds, SplitSpec(seed=3))
    b = split(ds, SplitSpec(seed=3))
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)


def test_split_fraction_validation():
    with pytest.raises(ConfigError, match="sum to 1"):
        SplitSpec(train=0.5, val=0.2, test=0.2)


@given(st.integers(5, 200), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_split_partitions_everything(n, seed):
    ds = Dataset(np.arange(n * 4, dtype=np.float32).reshape(n, 1, 4),
                 np.zeros(n, dtype=np.int64), 1)
    train, val, test = split(ds, SplitSpec(seed=seed))
    assert train.n + val.n + test.n == n
    merged = np.concatenate([train.samples, val.samples, test.samples]).reshape(-1, 4)
    assert np.array_equal(np.sort(merged[:, 0]), np.sort(ds.samples[:, 0, 0]))


# -- normalize ------------------------------------------------------------------


def test_normalize_train_stats():
    ds = generate_synthetic(small_cfg())
    out, stats = normalize(ds)
    assert np.allclose(out.samples.mean(axis=(0, 2)), 0.0, atol=1e-5)
    assert np.allclose(out.samples.std(axis=(0, 2)), 1.0, atol=1e-4)


def test_normalize_applies_given_stats_without_recompute():
    ds = generate_synthetic(small_cfg())
    _, stats = normalize(ds)
    shifted = Dataset(ds.samples + 10.0, ds.labels, ds.class_count)
    out, stats2 = normalize(shifted, stats)
    assert stats2 is stats
    assert np.allclose(out.samples.mean(axis=(0, 2)), 10.0 / stats.std, atol=1e-4)


def test_normalize_twice_warns(caplog):
    ds = generate_synthetic(small_cfg())
    out, stats = normalize(ds)
    with caplog.at_level(logging.WARNING, logger="mtslof.data"):
        normalize(out, stats)
    assert any("already-normalized" in rec.message for rec in caplog.records)


def test_normalize_constant_channel_is_zeroed(caplog):
    samples = np.ones((6, 2, 8), dtype=np.float32)
    samples[:, 1] = np.random.default_rng(0).normal(size=(6, 8))
    ds = Dataset(samples, np.zeros(6, dtype=np.int64), 1)
    with caplog.at_level(logging.WARNING, logger="mtslof.data"):
        out, _ = normalize(ds)
    assert np.allclose(out.samples[:, 0], 0.0)
    assert any("zero-variance" in rec.message for rec in caplog.records)


def test_train_stats_independent_of_other_splits():
    ds = generate_synthetic(small_cfg())
    train, val, test = split(ds, SplitSpec(seed=1))
    _, stats1 = normalize(train)
    mutated_val = Dataset(val.samples * 100.0, val.labels, val.class_count)
    _, stats2 = normalize(train)
    assert np.array_equal(stats1.mean, stats2.mean)
    assert np.array_equal(stats1.std, stats2.std)


# -- batching ----------------------------------------------------------------------


def test_batch_iter_partitions_split():
    ds = generate_synthetic(small_cfg())
    seen = []
    for xb, yb in batch_iter(ds, 7, seed=1, epoch=0):
        assert xb.shape[0] == yb.shape[0]
        seen.extend(xb[:, 0, 0].tolist())
    assert len(seen) == ds.n
    assert np.allclose(np.sort(seen), np.sort(ds.samples[:, 0, 0]))


def test_batch_iter_single_batch_when_large():
    ds = generate_synthetic(small_cfg())
    batches = list(batch_iter(ds, 10_000, seed=0, epoch=0))
    assert len(batches) == 1
    assert batches[0][0].shape[0] == ds.n


def test_batch_iter_keyed_on_seed_and_epoch():
    ds = generate_synthetic(small_cfg())
    a = [y.tolist() for _, y in batch_iter(ds, 8, seed=3, epoch=1)]
    b = [y.tolist() for _, y in batch_iter(ds, 8, seed=3, epoch=1)]
    c = [y.tolist() for _, y in batch_iter(ds, 8, seed=3, epoch=2)]
    assert a == b
    assert a != c
