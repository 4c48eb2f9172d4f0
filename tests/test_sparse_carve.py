"""The deep carve over sparse images.

A hole reads as zeros, so it can open neither a directory ('.') nor an
MFT record ('FILE'); the carve skips the holes and must find exactly
what a scan of a dense copy of the same bytes, which has no holes, finds.
"""

import itertools
import os
from pathlib import Path

import pytest

from conftest import FS_KINDS, data_extents
from remnant import fat as fatmod
from remnant import forge, ntfs
from remnant.undelete import scan_volume
from remnant.volume import (
    STREAM_CHUNK,
    VolumeImage,
    cluster_offset,
    detect_filesystem,
    open_image,
)
from test_fat import _dir_head

BLOCK = 4096
LEAD = 1536  # a partition offset that is not a whole block


@pytest.fixture(scope="module")
def formatted(tmp_path_factory):
    """Map of filesystem name -> its standard corpus after a quick
    format, in the sparse file the forge wrote."""
    root = tmp_path_factory.mktemp("sparse")
    paths = {}
    for fs in FS_KINDS:
        path = root / ("%s.img" % fs)
        truth = forge.build_image(forge.standard_corpus(fs), path)
        forge.apply_mutation(path, "quick-format", truth=truth)
        paths[fs] = path
    return paths


def _write_sparse(path, data):
    """Write ``data`` with a hole in place of every all-zero block."""
    zero = bytes(BLOCK)
    with open(path, "wb") as fh:
        fh.truncate(len(data))
        for pos in range(0, len(data), BLOCK):
            block = data[pos:pos + BLOCK]
            if block != zero[:len(block)]:
                fh.seek(pos)
                fh.write(block)


def _deep_scans(path, base_offset=0):
    """The deep scan of the sparse file, then of a dense copy of it,
    whose every block is read."""
    dense = Path(path).with_suffix(".dense")
    dense.write_bytes(Path(path).read_bytes())
    scans = []
    for backing in (path, dense):
        with VolumeImage(path=backing, base_offset=base_offset) as img:
            scans.append(scan_volume(img, detect_filesystem(img), deep=True))
    dense.unlink()
    return scans


def _mid_batch_cluster(desc, data):
    """A cluster 37 clusters past a STREAM_CHUNK carve-batch edge, off
    the batch's edges: the first such cluster whose neighbourhood in
    ``data`` is all zeros, so it lies inside a hole once written
    sparse."""
    first = 2 if desc.kind.is_fat else 0
    for batch in itertools.count(1):
        cluster = first + batch * (STREAM_CHUNK // desc.cluster_size) + 37
        off = cluster_offset(desc, cluster)
        if not data[off - BLOCK:off + BLOCK].strip(b"\0"):
            return cluster


@pytest.mark.parametrize("fs", FS_KINDS)
def test_deep_scan_of_the_sparse_file_matches_its_bytes(formatted, fs):
    sparse, dense = _deep_scans(formatted[fs])
    assert sparse.files
    assert sparse == dense


@pytest.mark.parametrize("lead", [0, LEAD])
def test_directory_head_after_a_hole_is_carved(formatted, tmp_path, lead):
    data = bytearray(formatted["fat32"].read_bytes())
    with open_image(formatted["fat32"]) as img:
        desc = detect_filesystem(img)
    planted = _mid_batch_cluster(desc, data)
    off = cluster_offset(desc, planted)
    assert not data[off - BLOCK:off + BLOCK].strip(b"\0")  # inside a hole
    head = _dir_head([b"PLANTED TXT"])
    data[off:off + len(head)] = head
    data = b"\xAA" * lead + bytes(data)
    path = tmp_path / "planted.img"
    _write_sparse(path, data)
    sparse, dense = _deep_scans(path, lead)
    assert "orphan-%d" % planted in {c.path for c in sparse.candidates}
    assert sparse == dense


@pytest.mark.parametrize("lead", [0, LEAD])
def test_file_record_after_a_hole_is_carved(base_images, formatted, tmp_path,
                                            lead):
    src, truth = base_images["ntfs"]
    rec = next(iter(truth.files.values()))
    with open_image(src) as img:
        desc = detect_filesystem(img)
        record = img.read_at(rec.entry_offset, desc.mft_record_size)
    data = bytearray(formatted["ntfs"].read_bytes())
    off = cluster_offset(desc, _mid_batch_cluster(desc, data))
    assert not data[off - BLOCK:off + BLOCK].strip(b"\0")  # inside a hole
    data[off:off + len(record)] = record
    data = b"\xAA" * lead + bytes(data)
    path = tmp_path / "planted.img"
    _write_sparse(path, data)
    sparse, dense = _deep_scans(path, lead)
    assert off in {c.record_offset for c in sparse.candidates}
    assert sparse == dense


@pytest.mark.parametrize("fs", FS_KINDS)
def test_deep_carve_reads_only_the_data_extents(formatted, fs):
    extents = data_extents(formatted[fs])
    with open_image(formatted[fs]) as img:
        desc = detect_filesystem(img)
        live = bytearray(desc.max_cluster + 1)
        if desc.kind.is_fat:
            table = fatmod.load_fat(img, desc)
        read = []
        real = img.read_at
        img.read_at = lambda off, n: read.append(n) or real(off, n)
        if desc.kind.is_fat:
            list(fatmod._carve_orphan_dirs(img, desc, table, live))
        else:
            list(ntfs.carve_records(img, desc, set(), live,
                                    ntfs.MftScanStats()))
    # An extent costs its own bytes, the head of the cluster it opens in
    # and the tail of the batch it closes in.
    bound = (sum(n for _, n in extents)
             + len(extents) * (desc.cluster_size + STREAM_CHUNK))
    assert sum(read) <= bound


@pytest.mark.parametrize("fs", FS_KINDS)
def test_an_image_copy_keeps_the_holes(base_images, image_copy, fs):
    """A private copy holds the same bytes in about the same blocks: a
    copy that writes every byte allocates the whole volume."""
    src, _ = base_images[fs]
    dst, _ = image_copy(fs)
    assert dst.read_bytes() == src.read_bytes()
    assert os.stat(dst).st_blocks <= os.stat(src).st_blocks * 1.1 + 64
