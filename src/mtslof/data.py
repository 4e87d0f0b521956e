"""Dataset ingestion, deterministic splitting, and a labeled synthetic
multivariate time-series generator.

Each synthetic class is defined by a signature of per-channel sinusoids
plus a localized burst, so label information lives in both long-range and
local structure. File format: magic "MTSDS01\\0", little-endian u32
n/m/t/c, n u32 labels, then n*m*t float32 values (sample, channel, time).
"""

from __future__ import annotations

import logging
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError

log = logging.getLogger(__name__)

MAGIC = b"MTSDS01\0"


@dataclass
class Dataset:
    samples: np.ndarray          # (n, m, t) float32
    labels: np.ndarray           # (n,) int64 in [0, class_count)
    class_count: int
    name: str = ""
    normalized: bool = False

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 3:
            raise ConfigError(f"samples must be (n, m, t), got {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise ConfigError(f"labels shape {self.labels.shape} does not match n={self.samples.shape[0]}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ConfigError(f"labels must lie in [0, {self.class_count})")
        if not np.isfinite(self.samples).all():
            i, c, t = np.argwhere(~np.isfinite(self.samples))[0]
            raise DataFormatError(f"non-finite value {self.samples[i, c, t]} at sample {i}, "
                                  f"channel {c}, time {t}")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]

    @property
    def length(self) -> int:
        return self.samples.shape[2]

    def subset(self, idx: np.ndarray, name: str | None = None) -> "Dataset":
        return Dataset(self.samples[idx], self.labels[idx], self.class_count,
                       name or self.name, self.normalized)


@dataclass
class SplitSpec:
    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self):
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {total}")
        if min(self.train, self.val, self.test) < 0:
            raise ConfigError("split fractions must be nonnegative")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous partition; leftover samples go to
    train, then val, then test."""
    n = ds.n
    if n < 5:
        raise ConfigError(f"splitting needs at least 5 samples, got {n}")
    sizes = [int(n * spec.train), int(n * spec.val), int(n * spec.test)]
    i = 0
    while sum(sizes) < n:
        sizes[i % 3] += 1
        i += 1
    if min(sizes) == 0:
        raise ConfigError(f"split produced an empty part: sizes {sizes} for n={n}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return (
        ds.subset(perm[:a], ds.name + ":train"),
        ds.subset(perm[a:b], ds.name + ":val"),
        ds.subset(perm[b:], ds.name + ":test"),
    )


@dataclass
class ClassSignature:
    """Per-channel sinusoid bank plus one localized burst."""

    freqs: np.ndarray       # (m, waves) cycles over the window
    amps: np.ndarray        # (m, waves)
    phases: np.ndarray      # (m, waves)
    burst_center: float     # fraction of the window in [0, 1]
    burst_width: float      # fraction of the window
    burst_amp: np.ndarray   # (m,)


def default_signatures(class_count: int, channels: int, seed: int) -> list[ClassSignature]:
    """Distinct signatures: spaced base frequencies and burst positions."""
    rng = np.random.default_rng(seed)
    sigs = []
    for k in range(class_count):
        base = 2.0 + 3.0 * k + rng.uniform(-0.5, 0.5)
        freqs = base + rng.uniform(-0.3, 0.3, size=(channels, 2))
        freqs[:, 1] += 1.5
        amps = rng.uniform(0.6, 1.2, size=(channels, 2))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(channels, 2))
        center = (k + 0.5) / class_count + rng.uniform(-0.05, 0.05)
        sigs.append(ClassSignature(
            freqs=freqs, amps=amps, phases=phases,
            burst_center=float(np.clip(center, 0.05, 0.95)),
            burst_width=0.04 + 0.02 * rng.random(),
            burst_amp=rng.uniform(1.5, 2.5, size=channels),
        ))
    return sigs


@dataclass
class SyntheticConfig:
    class_count: int = 3
    channels: int = 2
    length: int = 128
    samples_per_class: int = 200
    noise_std: float = 0.5
    seed: int = 0
    phase_jitter: float = 0.0
    signature_seed: int | None = None     # None reuses `seed`
    signatures: list[ClassSignature] | None = None

    def __post_init__(self):
        if min(self.class_count, self.channels, self.length, self.samples_per_class) < 1:
            raise ConfigError("class_count, channels, length, samples_per_class must be positive")
        if self.noise_std < 0 or self.phase_jitter < 0:
            raise ConfigError("noise_std and phase_jitter must be nonnegative")


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Deterministic labeled dataset from per-class signatures plus noise."""
    sigs = cfg.signatures
    if sigs is None:
        sig_seed = cfg.seed if cfg.signature_seed is None else cfg.signature_seed
        sigs = default_signatures(cfg.class_count, cfg.channels, sig_seed)
    if len(sigs) != cfg.class_count:
        raise ConfigError(f"{len(sigs)} signatures for {cfg.class_count} classes")

    rng = np.random.default_rng(cfg.seed)
    t = np.arange(cfg.length, dtype=np.float64) / cfg.length
    n = cfg.class_count * cfg.samples_per_class
    samples = np.zeros((n, cfg.channels, cfg.length), dtype=np.float64)
    labels = np.zeros(n, dtype=np.int64)

    row = 0
    for k, sig in enumerate(sigs):
        envelope = np.exp(-0.5 * ((t - sig.burst_center) / sig.burst_width) ** 2)
        for _ in range(cfg.samples_per_class):
            jitter = rng.uniform(-cfg.phase_jitter, cfg.phase_jitter) if cfg.phase_jitter else 0.0
            wave = (sig.amps[:, :, None]
                    * np.sin(2.0 * np.pi * sig.freqs[:, :, None] * t[None, None, :]
                             + sig.phases[:, :, None] + jitter)).sum(axis=1)
            x = wave + sig.burst_amp[:, None] * envelope[None, :]
            if cfg.noise_std:
                x = x + rng.normal(0.0, cfg.noise_std, size=x.shape)
            samples[row] = x
            labels[row] = k
            row += 1
    return Dataset(samples.astype(np.float32), labels, cfg.class_count, name="synthetic")


# -- file I/O -------------------------------------------------------------


def _atomic_write(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(ds: Dataset, path: str) -> None:
    header = MAGIC + struct.pack("<IIII", ds.n, ds.channels, ds.length, ds.class_count)
    labels = ds.labels.astype("<u4").tobytes()
    values = ds.samples.astype("<f4").tobytes()
    _atomic_write(path, header + labels + values)


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise DataFormatError(f"bad magic {blob[:8]!r}, expected {MAGIC!r}", offset=0)
    if len(blob) < 24:
        raise DataFormatError(f"header truncated: {len(blob)} bytes", offset=len(blob))
    n, m, t, c = struct.unpack_from("<IIII", blob, 8)
    off = 24
    label_bytes = 4 * n
    if len(blob) < off + label_bytes:
        raise DataFormatError(
            f"label block truncated: expected {label_bytes} bytes", offset=len(blob))
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=off).astype(np.int64)
    bad = np.flatnonzero(labels >= c)
    if bad.size:
        raise DataFormatError(
            f"label {labels[bad[0]]} out of range [0, {c})", offset=off + 4 * int(bad[0]))
    off += label_bytes
    value_count = n * m * t
    expected = off + 4 * value_count
    if len(blob) != expected:
        raise DataFormatError(
            f"payload length mismatch: expected {expected} bytes, file has {len(blob)}",
            offset=min(len(blob), expected))
    values = np.frombuffer(blob, dtype="<f4", count=value_count, offset=off)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"non-finite value {values[i]} at sample {i // (m * t)}, channel {i // t % m}, "
            f"time {i % t}", offset=off + 4 * i)
    samples = values.reshape(n, m, t).astype(np.float32)
    return Dataset(samples, labels, c, name=os.path.basename(path))


def first_non_utf8(path: str) -> tuple[int, int, int]:
    """(line, byte offset, byte value) of the first byte of a file that is not
    UTF-8; called once reading it as UTF-8 text has failed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        return blob.count(b"\n", 0, exc.start) + 1, exc.start, blob[exc.start]
    raise DataFormatError(f"{path}: changed while it was read")


def load_csv(path: str) -> Dataset:
    """Single-channel CSV import: one sample per line, integer label last."""
    rows = []
    labels = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            line, offset, byte = first_non_utf8(path)
            raise DataFormatError(f"{path}: line {line}: byte {byte:#04x} is not UTF-8",
                                  offset=offset) from None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataFormatError(f"line {lineno}: need at least one value and a label")
            try:
                rows.append([float(v) for v in parts[:-1]])
                labels.append(int(float(parts[-1])))
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"line {lineno}: {exc}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise DataFormatError(f"line {lineno}: ragged row of length {len(rows[-1])}")
            with np.errstate(over="ignore"):
                row = np.asarray(rows[-1], dtype=np.float32)
            bad = np.flatnonzero(~np.isfinite(row))
            if bad.size:
                raise DataFormatError(
                    f"line {lineno}: non-finite value {row[bad[0]]} at sample {len(rows) - 1}, "
                    f"channel 0, time {int(bad[0])}")
    if not rows:
        raise DataFormatError("CSV contains no samples")
    samples = np.asarray(rows, dtype=np.float32)[:, None, :]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        raise DataFormatError("negative label in CSV")
    return Dataset(samples, labels, int(labels.max()) + 1, name=os.path.basename(path))


# -- normalization and batching --------------------------------------------


@dataclass
class NormStats:
    mean: np.ndarray   # (m,)
    std: np.ndarray    # (m,)


def normalize(ds: Dataset, stats: NormStats | None = None) -> tuple[Dataset, NormStats]:
    """Per-channel z-score. Without `stats`, statistics come from `ds`
    (call this on the training split); with `stats`, they are applied
    unchanged, never recomputed."""
    if ds.normalized:
        log.warning("normalize() called on already-normalized dataset %r", ds.name)
    if stats is None:
        mean = ds.samples.mean(axis=(0, 2))
        std = ds.samples.std(axis=(0, 2))
        flat = std < 1e-8
        if flat.any():
            log.warning("zero-variance channels %s; eps-guarding", np.flatnonzero(flat).tolist())
            std = np.where(flat, 1.0, std)
        stats = NormStats(mean=mean.astype(np.float64), std=std.astype(np.float64))
    scaled = (ds.samples - stats.mean[None, :, None]) / stats.std[None, :, None]
    out = Dataset(scaled.astype(np.float32), ds.labels, ds.class_count, ds.name, normalized=True)
    return out, stats


def batch_iter(ds: Dataset, batch_size: int, seed: int, epoch: int, shuffle: bool = True):
    """Yield (samples, labels) batches; order is keyed on (seed, epoch);
    the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    if shuffle:
        order = np.random.default_rng([seed, epoch]).permutation(ds.n)
    else:
        order = np.arange(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.samples[idx], ds.labels[idx]
