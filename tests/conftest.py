"""Shared fixtures: forged disk images with known contents.

Building an image is cheap (a sparse file written in cluster runs), but
the 64 MiB ones are worth reusing, so the pristine copies are
session-scoped and every test that wants to mutate an image works on a
private copy, which keeps the image's holes.
"""

import os

import pytest

from remnant import forge
from remnant.volume import VolumeImage

FS_KINDS = ("fat12", "fat16", "fat32", "ntfs")

# Smaller sizes for the small FATs keep the suite quick; the 64 MiB
# defaults are exercised by the acceptance tests.
IMAGE_SIZES = {
    "fat12": 2 * 1024 * 1024,
    "fat16": 16 * 1024 * 1024,
    "fat32": 64 * 1024 * 1024,
    "ntfs": 64 * 1024 * 1024,
}


def data_extents(path):
    """(offset, length) of every data extent the file system reports."""
    extents = []
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        pos = 0
        while pos < size:
            try:
                start = os.lseek(fd, pos, os.SEEK_DATA)
            except OSError:             # ENXIO: only holes remain
                break
            pos = os.lseek(fd, start, os.SEEK_HOLE)
            extents.append((start, pos - start))
    finally:
        os.close(fd)
    return extents


def sparse_copy(src, dst) -> None:
    """Copy ``src`` to ``dst`` byte for byte, copying only its data
    extents, so every hole stays a hole."""
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        fout.truncate(os.fstat(fin.fileno()).st_size)
        for offset, length in data_extents(src):
            fin.seek(offset)
            fout.seek(offset)
            while length:
                block = fin.read(min(length, 1 << 20))
                if not block:
                    break
                fout.write(block)
                length -= len(block)


@pytest.fixture(scope="session")
def base_images(tmp_path_factory):
    """Map of filesystem name -> (image path, GroundTruth)."""
    root = tmp_path_factory.mktemp("images")
    images = {}
    for fs in FS_KINDS:
        img = root / ("%s.img" % fs)
        spec = forge.standard_corpus(fs, total_size=IMAGE_SIZES[fs])
        truth = forge.build_image(spec, img, truth_path=str(img) + ".truth.json")
        images[fs] = (img, truth)
    return images


@pytest.fixture(scope="session")
def image_of(tmp_path_factory):
    """Factory: ``data`` written to a file and opened as ``cls`` (a
    VolumeImage unless given).  Each call replaces the one file's
    directory entry, so an image still open keeps its bytes and a
    hypothesis test leaves one file behind, however many examples it
    runs.  Close each image, or open it in a ``with`` block."""
    path = tmp_path_factory.mktemp("bytes") / "image.bin"

    def make(data, base_offset=0, cls=VolumeImage):
        path.unlink(missing_ok=True)
        path.write_bytes(data)
        return cls(path=path, base_offset=base_offset)

    return make


@pytest.fixture
def image_copy(base_images, tmp_path):
    """Factory: private copy of a base image, optionally mutated."""

    def make(fs, mutation=None, target=None):
        src, _ = base_images[fs]
        dst = tmp_path / src.name
        sparse_copy(src, dst)
        truth = forge.GroundTruth.load(str(src) + ".truth.json")
        if mutation is not None:
            forge.apply_mutation(dst, mutation, truth=truth, target=target)
            truth.mutations.append(mutation)
        return dst, truth

    return make
