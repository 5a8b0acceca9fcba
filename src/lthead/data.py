"""Long-tailed feature datasets: synthetic generation, binary persistence,
text-row ingestion, and the two batch samplers.

Every binary file, checkpoints included, is framed here: `read_header`,
`read_array` (size-checked, in place) and `write_binary` (copy-free).

Binary feature file layout (all little-endian):
    magic   4 bytes  "IMBF"
    version u32      1
    N       u64      sample count
    T       u32      tokens per sample
    D       u32      token dimension
    K       u32      number of classes
    role    u8       0 = train, 1 = test
    labels  N x u32
    features N*T*D x f64, C order
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError, DomainError, FormatError
from .losses import ClassStats, class_labels
from .numerics import Array, real_values

MAGIC = b"IMBF"
VERSION = 1
_PREAMBLE = struct.Struct("<4sI")
_FIELDS = struct.Struct("<QIIIB")  # N, T, D, K, role

ROLE_TRAIN = "train"
ROLE_TEST = "test"
_ROLE_CODES = {ROLE_TRAIN: 0, ROLE_TEST: 1}
_ROLE_NAMES = {v: k for k, v in _ROLE_CODES.items()}

INSTANCE_BALANCED = "instance_balanced"
CLASS_BALANCED = "class_balanced"


@dataclass
class FeatureDataset:
    features: Array  # (N, T, D) float64
    labels: Array    # (N,) int64
    num_classes: int
    role: str = ROLE_TRAIN

    def __post_init__(self):
        self.features = np.ascontiguousarray(real_values(self.features, "features"))
        if self.features.ndim != 3:
            raise DataError(f"features must be (N, T, D), got {self.features.shape}")
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        self.labels = class_labels(self.labels, self.num_classes)
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels length must match the sample count")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features must be finite")
        if self.role not in _ROLE_CODES:
            raise DataError(f"role must be one of {sorted(_ROLE_CODES)}")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def tokens_per_sample(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    def is_class_balanced(self) -> bool:
        counts = np.bincount(self.labels, minlength=self.num_classes)
        return bool(np.all(counts == counts[0]))


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic long-tailed generator."""
    num_classes: int
    head_count: int            # samples in the most frequent class
    imbalance_ratio: float     # head count / rarest count
    dim: int
    tokens: int = 1
    separation: float = 1.0    # scale of the per-class mean vectors
    noise: float = 1.0         # feature noise around the class mean
    test_per_class: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("imbalance_ratio", "separation", "noise"):
            if not math.isfinite(value := getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.imbalance_ratio < 1:
            raise ConfigError("imbalance ratio must be >= 1")
        if self.head_count < self.imbalance_ratio:
            raise ConfigError("head_count must be >= imbalance_ratio "
                              "so the rarest class keeps a sample")
        if self.dim < 1 or self.tokens < 1:
            raise ConfigError("dim and tokens must be >= 1")
        if self.test_per_class < 0:
            raise ConfigError("test_per_class must be >= 0")


def exponential_profile(head_count: int, ratio: float, num_classes: int) -> Array:
    """Class counts n_j = round(head_count * ratio^(-(j-1)/(K-1))).

    Rounding is half-up. Endpoints are exact: n_1 = head_count and
    n_K = round(head_count / ratio).
    """
    if num_classes == 1:
        counts = np.array([head_count], dtype=np.int64)
    else:
        j = np.arange(num_classes)
        raw = head_count * ratio ** (-j / (num_classes - 1))
        counts = np.floor(raw + 0.5).astype(np.int64)
    if np.any(counts < 1):
        raise ConfigError("count profile produced an empty class; "
                          "raise head_count or lower the imbalance ratio")
    return counts


def synthetic_class_means(spec: SyntheticSpec) -> Array:
    """The (K, D) class-mean matrix a given spec generates around."""
    seed = np.random.SeedSequence(spec.seed).spawn(3)[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    return spec.separation * rng.standard_normal((spec.num_classes, spec.dim))


def generate_synthetic_lt(spec: SyntheticSpec) -> tuple[FeatureDataset, FeatureDataset]:
    """Gaussian class clusters with exponentially decaying train counts.

    The test split is exactly class-balanced and drawn from an independent
    substream, so train and test never share a sample.
    """
    seeds = np.random.SeedSequence(spec.seed).spawn(3)
    train_rng, test_rng = (np.random.Generator(np.random.PCG64(s))
                           for s in seeds[1:])
    k, d, t = spec.num_classes, spec.dim, spec.tokens
    counts = exponential_profile(spec.head_count, spec.imbalance_ratio, k)
    means = synthetic_class_means(spec)

    def build(rng, per_class, role):
        labels = np.repeat(np.arange(k), per_class)
        n = labels.shape[0]
        feats = means[labels][:, None, :] + spec.noise * rng.standard_normal((n, t, d))
        return FeatureDataset(features=feats, labels=labels,
                              num_classes=k, role=role)

    train = build(train_rng, counts, ROLE_TRAIN)
    test = build(test_rng, np.full(k, spec.test_per_class), ROLE_TEST)
    return train, test


def save_features(ds: FeatureDataset, path) -> None:
    """Write the binary feature file; round trips are bit-exact."""
    write_binary(path, MAGIC, VERSION, _FIELDS, {
        "num_samples": ds.num_samples, "tokens_per_sample": ds.tokens_per_sample,
        "dim": ds.dim, "num_classes": ds.num_classes, "role": _ROLE_CODES[ds.role]},
        (ds.labels, "<u4"), (ds.features, "<f8"))


def write_binary(path, magic: bytes, version: int, fields: struct.Struct,
                 values: dict, *arrays) -> None:
    """Write the preamble, `values` packed by `fields`, then each (array,
    dtype) copy-free. A value its code cannot hold is a FormatError naming
    the field, raised before the file is opened."""
    for (name, value), code in zip(values.items(), fields.format[1:]):
        try:
            struct.pack("<" + code, value)
        except struct.error as exc:
            raise FormatError(
                f"header field {name}={value!r} does not fit: {exc}") from None
    with open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(magic, version) + fields.pack(*values.values()))
        fh.writelines(np.ascontiguousarray(a, dtype) for a, dtype in arrays)


def read_header(fh, magic: bytes, version: int, kind: str,
                fields: struct.Struct) -> tuple:
    """Check the magic (first, to name short foreign files), then the version."""
    if (found := fh.read(len(magic))) != magic:
        raise FormatError(f"bad magic {found!r} at byte 0, expected {magic!r}")
    if (found := read_array(fh, "<u4", 1, "version")[0]) != version:
        raise FormatError(f"unsupported {kind} version {found} at byte 4")
    return fields.unpack(read_array(fh, np.uint8, fields.size, f"{kind} header"))


def read_array(fh, dtype, count: int, what: str) -> Array:
    """Read `count` items of `dtype` (`what`) into a new native-order array.

    The size is checked against the file first, so a header that claims more
    than the file holds is a FormatError, never an out-of-memory failure."""
    nbytes = np.dtype(dtype).itemsize * count
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if nbytes > left:
        raise FormatError(f"{fh.name}: truncated at byte {offset}: {what} "
                          f"needs {nbytes} bytes, {left} remain")
    out = np.empty(count, dtype)
    if fh.readinto(out) != nbytes:
        raise FormatError(f"{fh.name}: {what} at byte {offset} shrank while "
                          "being read")
    return out.astype(out.dtype.newbyteorder("="), copy=False)


def expect_end(fh) -> None:
    """Reject bytes after the last field of a binary file."""
    if fh.read(1):
        raise FormatError(f"{fh.name}: trailing bytes after byte {fh.tell() - 1}")


def load_features(path) -> FeatureDataset:
    """Read a binary feature file written by `save_features`."""
    with open(path, "rb") as fh:
        n, t, d, k, role = read_header(fh, MAGIC, VERSION, "feature file", _FIELDS)
        if role not in _ROLE_NAMES:
            raise FormatError(f"unknown role code {role} at byte {fh.tell() - 1}")
        labels = read_array(fh, "<u4", n, "labels")
        feats = read_array(fh, "<f8", n * t * d, "features").reshape(n, t, d)
        expect_end(fh)
    return FeatureDataset(features=feats, labels=labels, num_classes=k,
                          role=_ROLE_NAMES[role])


def read_text_rows(path, labeled: bool = False,
                   width: int | None = None) -> tuple[Array, Array]:
    """The one text-row grammar: feature tables, class matrices, label files.

    Fields are comma-separated; blank lines and lines starting with `#` are
    skipped. With `labeled`, the first field of each row is an integer label
    parsed with `int()`, and the rest are float values. Every row has
    `width` values, by default the first row's. Returns (N,) int64 labels,
    empty unless `labeled`, and an (N, width) float64 array. A malformed row
    raises FormatError naming `path:line`, a file without rows one naming
    the path.
    """
    labels, rows = [], []
    # undecodable bytes become U+FFFD, which fails to parse on its own line
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                if labeled:
                    labels.append(np.int64(int(parts.pop(0))))
                values = [float(p) for p in parts]
            except (ValueError, OverflowError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise FormatError(f"{path}:{lineno}: expected {width} values, "
                                  f"got {len(values)}")
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(labels, dtype=np.int64), np.asarray(rows, dtype=np.float64)


def load_text_table(path) -> FeatureDataset:
    """Plain-text feature table: each row is `label, v1, ..., vD` (T=1).

    The class count is the largest label plus one.
    """
    labels, values = read_text_rows(path, labeled=True)
    return FeatureDataset(features=values[:, None, :], labels=labels,
                          num_classes=int(labels.max()) + 1)


def class_index(labels: Array, num_classes: int) -> tuple[Array, Array]:
    """Stable per-class index layout of labels that meet `class_labels`:
    (sorted order, one start offset per class), else a DataError."""
    labels = class_labels(labels, num_classes)
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=num_classes)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return order, starts


def sample_batch(ds: FeatureDataset, stats: ClassStats, strategy: str,
                 batch_size: int, rng: np.random.Generator,
                 index=None) -> Array:
    """Draw `batch_size` dataset indices i.i.d. with replacement.

    instance_balanced picks samples uniformly, so batch class frequencies
    follow the skewed prior. class_balanced picks a class uniformly, then a
    sample within it. Pass a precomputed `class_index(...)` tuple as `index`
    to avoid re-sorting in a training loop.
    """
    if ds.num_samples == 0:
        raise DataError("cannot sample from an empty dataset")
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    if strategy == INSTANCE_BALANCED:
        return rng.integers(0, ds.num_samples, size=batch_size)
    if strategy == CLASS_BALANCED:
        counts = stats.counts
        if np.any(counts < 1):
            raise DataError("class-balanced sampling needs every class "
                            "to have at least one sample")
        order, starts = index if index is not None else class_index(
            ds.labels, stats.num_classes)
        classes = rng.integers(0, stats.num_classes, size=batch_size)
        within = rng.integers(0, counts[classes])
        return order[starts[classes] + within]
    raise ConfigError(f"unknown sampling strategy {strategy!r}")
