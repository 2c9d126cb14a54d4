"""Datasets: IDX files and a synthetic blob generator.

Images load from the classic IDX format (big-endian header, ubyte
payload) and are flattened to float64 rows scaled into [0, 1].  Nothing
here downloads anything; paths must point at existing files.  The blob
generator produces class-prototype images in the same [0, 1] range, so
its output survives an IDX save/load round trip up to 8-bit
quantisation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC_IMAGES = 0x00000803
MAGIC_LABELS = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Flattened inputs with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int
    split: str = "train"

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or len(inputs) == 0:
            raise ValueError("inputs must be a non-empty (n, d) array")
        if labels.shape != (len(inputs),):
            raise ValueError(
                f"have {len(inputs)} inputs but {labels.shape} labels"
            )
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, index, split: str | None = None) -> "Dataset":
        return Dataset(
            self.inputs[index], self.labels[index], self.n_classes,
            self.split if split is None else split,
        )


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"truncated IDX file: expected {count} more bytes of {what}")
    return data


def read_idx_images(path) -> np.ndarray:
    """Raw (n, rows, cols) uint8 image stack from an IDX file."""
    with open(path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "header"))
        if magic != MAGIC_IMAGES:
            raise ValueError(f"bad image magic 0x{magic:08x}, expected 0x{MAGIC_IMAGES:08x}")
        data = _read_exact(f, n * rows * cols, "pixels")
        if f.read(1):
            raise ValueError("trailing bytes after IDX image payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(n, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic, n = struct.unpack(">II", _read_exact(f, 8, "header"))
        if magic != MAGIC_LABELS:
            raise ValueError(f"bad label magic 0x{magic:08x}, expected 0x{MAGIC_LABELS:08x}")
        data = _read_exact(f, n, "labels")
        if f.read(1):
            raise ValueError("trailing bytes after IDX label payload")
    return np.frombuffer(data, dtype=np.uint8)


def load_idx(
    images_path, labels_path, limit: int | None = None, n_classes: int = 10,
    split: str = "train",
) -> Dataset:
    """Load an IDX image/label pair as flattened rows scaled to [0, 1].

    limit, when given, keeps the first `limit` examples and must lie in
    [1, n]; passing 0 is a configuration mistake and is rejected.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    if limit is not None:
        if not (1 <= limit <= len(images)):
            raise ValueError(f"limit must lie in [1, {len(images)}], got {limit}")
        images, labels = images[:limit], labels[:limit]
    inputs = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return Dataset(inputs, labels.astype(np.int64), n_classes, split)


def save_idx(inputs, labels, images_path, labels_path, image_shape) -> None:
    """Write [0, 1] rows and labels as an IDX pair (8-bit quantised)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows, cols = image_shape
    if inputs.ndim != 2 or inputs.shape[1] != rows * cols:
        raise ValueError(f"inputs must be (n, {rows * cols}) for image shape {image_shape}")
    if inputs.min() < 0.0 or inputs.max() > 1.0:
        raise ValueError("inputs must lie in [0, 1] before 8-bit quantisation")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("labels must fit in a ubyte")
    pixels = np.rint(inputs * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", MAGIC_IMAGES, len(inputs), rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", MAGIC_LABELS, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


def make_blobs(
    n_classes: int,
    n_per_class: int,
    dim: int,
    noise: float = 0.15,
    seed: int = 0,
    split: str = "train",
) -> Dataset:
    """Gaussian blobs around per-class prototype images.

    Prototypes are drawn uniformly in [0.25, 0.75] per pixel; examples
    add N(0, noise^2) pixel noise and are clipped back into [0, 1], so
    the result can be written straight to IDX files.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(0.25, 0.75, size=(n_classes, dim))
    inputs = np.clip(
        np.repeat(prototypes, n_per_class, axis=0)
        + rng.normal(0.0, noise, size=(n_classes * n_per_class, dim)),
        0.0, 1.0,
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    order = rng.permutation(len(inputs))
    return Dataset(inputs[order], labels[order], n_classes, split)


def train_test_blobs(
    n_classes: int,
    n_train_per_class: int,
    n_test_per_class: int,
    dim: int,
    noise: float = 0.15,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Blob train/test pair drawn around one shared set of prototypes."""
    full = make_blobs(
        n_classes, n_train_per_class + n_test_per_class, dim, noise=noise, seed=seed
    )
    train_idx, test_idx = [], []
    for c in range(n_classes):
        members = np.nonzero(full.labels == c)[0]
        train_idx.append(members[:n_train_per_class])
        test_idx.append(members[n_train_per_class:])
    return (
        full.subset(np.concatenate(train_idx), split="train"),
        full.subset(np.concatenate(test_idx), split="test"),
    )
