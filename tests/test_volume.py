"""Boot-record detection, cluster addressing and the chunked readers."""

import errno
import os
import struct
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from remnant import forge, forge_write, volume
from remnant.volume import (
    ClusterRangeError,
    FsKind,
    UnrecognizedVolume,
    VolumeDescriptor,
    VolumeError,
    VolumeImage,
    cluster_extents,
    cluster_offset,
    detect_filesystem,
    find_signatures,
    merge_runs,
    open_image,
    read_extents,
)
from test_sparse_carve import _write_sparse

MiB = 1024 * 1024


# ---------------------------------------------------------------- images

def test_open_image_reads_exact_window(tmp_path):
    path = tmp_path / "raw.img"
    payload = bytes(range(256)) * 8  # 2048 bytes
    path.write_bytes(payload)

    with open_image(path) as img:
        assert img.size == 2048
        assert img.read_at(0, 16) == payload[:16]
        assert img.read_at(1000, 48) == payload[1000:1048]
        assert img.read_at(2048, 0) == b""


def test_open_image_base_offset_shifts_origin(tmp_path):
    path = tmp_path / "part.img"
    junk = b"\xAA" * 777
    body = bytes(range(256)) * 4
    path.write_bytes(junk + body)

    with open_image(path, base_offset=777) as img:
        assert img.size == len(body)
        assert img.read_at(0, 8) == body[:8]
        assert img.read_at(len(body) - 4, 4) == body[-4:]


def test_open_image_offset_beyond_end(tmp_path):
    path = tmp_path / "short.img"
    path.write_bytes(b"\x00" * 1024)
    with pytest.raises(VolumeError, match="offset beyond end"):
        open_image(path, base_offset=4096)


def test_open_image_under_one_sector(tmp_path):
    path = tmp_path / "tiny.img"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(VolumeError):
        open_image(path)


def test_open_image_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        open_image(tmp_path / "absent.img")


def test_read_at_rejects_out_of_range(tmp_path):
    path = tmp_path / "raw.img"
    path.write_bytes(b"\x00" * 1024)
    with open_image(path) as img:
        with pytest.raises(VolumeError):
            img.read_at(-1, 4)
        with pytest.raises(VolumeError):
            img.read_at(1020, 8)  # crosses the end


def test_a_refused_span_names_its_access(tmp_path):
    path = tmp_path / "raw.img"
    path.write_bytes(b"\x00" * 1024)
    with open_image(path) as img:
        with pytest.raises(VolumeError) as refused:
            img.read_at(1020, 8)
    assert str(refused.value) == "read [1020:1028) outside volume of 1024 bytes"
    with forge_write._Writer(path=path) as w:
        with pytest.raises(VolumeError) as refused:
            w.write(1020, bytes(8))
    assert str(refused.value) == "write [1020:1028) outside volume of 1024 bytes"
    assert path.read_bytes() == b"\x00" * 1024


def test_next_data_of_a_dense_file_is_the_offset(tmp_path):
    path = tmp_path / "dense.img"
    path.write_bytes(b"\xAA" * 2048)
    with open_image(path) as img:
        assert [img.next_data(off) for off in (0, 700)] == [0, 700]
        assert img.next_data(2048) == 2048


def test_next_data_past_the_last_extent_is_the_size(tmp_path):
    path = tmp_path / "tail.img"
    with open(path, "wb") as fh:
        fh.write(b"\xAA" * 4096)
        fh.truncate(MiB)                  # the rest is one hole
    with open_image(path, base_offset=512) as img:
        assert img.next_data(100) == 100
        assert img.next_data(8192) == img.size == MiB - 512


def test_next_data_when_holes_cannot_be_told_is_the_offset(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "tail.img"
    with open(path, "wb") as fh:
        fh.truncate(MiB)

    def no_seek_data(fd, pos, how):
        raise OSError(errno.EINVAL, "SEEK_DATA unsupported")

    monkeypatch.setattr(os, "lseek", no_seek_data)
    with open_image(path) as img:
        assert img.next_data(8192) == 8192


# ----------------------------------------------------------- detection

def test_detect_rejects_all_zero_sector(image_of):
    with image_of(b"\x00" * MiB) as img:
        with pytest.raises(UnrecognizedVolume):
            detect_filesystem(img)


def test_detect_requires_boot_signature(base_images, image_of):
    path, _ = base_images["fat32"]
    raw = bytearray(path.read_bytes())
    raw[510:512] = b"\x00\x00"  # clobber the 0x55AA marker
    with image_of(bytes(raw)) as img:
        with pytest.raises(UnrecognizedVolume):
            detect_filesystem(img)


@pytest.mark.parametrize("fs", ["fat12", "fat16", "fat32", "ntfs"])
def test_detect_matches_forged_geometry(base_images, fs):
    path, truth = base_images[fs]
    with open_image(path) as img:
        desc = detect_filesystem(img)

    assert desc.kind.value.lower() == fs
    geom = truth.geometry
    assert desc.bytes_per_sector == geom["bytes_per_sector"]
    assert desc.sectors_per_cluster == geom["sectors_per_cluster"]
    assert desc.total_sectors * desc.bytes_per_sector <= truth.total_size
    if fs == "ntfs":
        assert desc.mft_record_size == 1024
        assert desc.mft_lcn == geom["mft_lcn"]
    else:
        assert desc.cluster_count == geom["cluster_count"]
        assert desc.first_data_sector == geom["first_data_sector"]


@pytest.mark.parametrize(
    "fs,size,bps,spc",
    [
        ("fat12", 1 * MiB, 512, 1),
        ("fat12", 2 * MiB, 512, 2),
        ("fat12", 2 * MiB, 1024, 1),
        ("fat16", 8 * MiB, 512, 2),
        ("fat16", 16 * MiB, 512, 4),
        ("fat16", 16 * MiB, 2048, 1),
        ("fat32", 64 * MiB, 512, 1),
        ("fat32", 128 * MiB, 512, 2),
        ("ntfs", 16 * MiB, 512, 4),
        ("ntfs", 32 * MiB, 512, 8),
        ("ntfs", 32 * MiB, 1024, 2),
    ],
)
def test_detect_roundtrips_builder_geometry(tmp_path, fs, size, bps, spc):
    """Whatever geometry the forger writes, detection must read back."""
    spec = forge.CorpusSpec(
        filesystem=fs,
        total_size=size,
        files=[],
        bytes_per_sector=bps,
        sectors_per_cluster=spc,
    )
    path = tmp_path / "grid.img"
    forge.build_image(spec, path)

    with open_image(path) as img:
        desc = detect_filesystem(img)
    assert desc.kind.value.lower() == fs
    assert desc.bytes_per_sector == bps
    assert desc.sectors_per_cluster == spc
    assert desc.cluster_size == bps * spc
    assert desc.total_sectors == size // bps


def test_fat_class_is_decided_by_cluster_count(base_images):
    # The three FAT widths carry the same boot layout; only the heap
    # size separates them, so the detector must not trust the label.
    for fs, ceiling in (("fat12", 4085), ("fat16", 65525)):
        path, _ = base_images[fs]
        with open_image(path) as img:
            desc = detect_filesystem(img)
        assert desc.cluster_count < ceiling
    path, _ = base_images["fat32"]
    with open_image(path) as img:
        desc = detect_filesystem(img)
    assert desc.cluster_count >= 65525


# ----------------------------------------------------- cluster addressing

def _fat32_desc():
    return VolumeDescriptor(
        kind=FsKind.FAT32,
        bytes_per_sector=512,
        sectors_per_cluster=8,
        total_sectors=131072,
        reserved_sectors=32,
        num_fats=2,
        sectors_per_fat=1008,
        root_cluster=2,
        first_data_sector=2048,
        cluster_count=16128,
    )


def test_cluster_offset_fat32_worked_example():
    desc = _fat32_desc()
    # first_data_sector 2048 * 512 B/sector puts cluster 2 at 1 MiB
    assert cluster_offset(desc, 2) == 1_048_576
    assert cluster_offset(desc, 5) == 1_060_864


def test_cluster_offset_steps_by_cluster_size():
    desc = _fat32_desc()
    for c in range(2, 40):
        assert cluster_offset(desc, c + 1) - cluster_offset(desc, c) == desc.cluster_size


def test_cluster_offset_rejects_outside_heap():
    desc = _fat32_desc()
    with pytest.raises(ClusterRangeError):
        cluster_offset(desc, 0)
    with pytest.raises(ClusterRangeError):
        cluster_offset(desc, 1)
    with pytest.raises(ClusterRangeError):
        cluster_offset(desc, desc.cluster_count + 2)  # one past max


def _ntfs_desc(total_sectors=65536):
    return VolumeDescriptor(
        kind=FsKind.NTFS,
        bytes_per_sector=512,
        sectors_per_cluster=8,
        total_sectors=total_sectors,
        mft_lcn=4,
        mft_record_size=1024,
        volume_serial=1,
    )


def test_cluster_offset_ntfs_counts_from_zero():
    desc = _ntfs_desc()
    assert cluster_offset(desc, 0) == 0
    assert cluster_offset(desc, 3) == 3 * 4096
    with pytest.raises(ClusterRangeError):
        cluster_offset(desc, desc.total_clusters)
    with pytest.raises(ClusterRangeError):
        cluster_offset(desc, -1)


def _read_clusters(img, desc, clusters):
    """Clusters read the way recovery reads them: every run checked by
    ``cluster_extents`` first, then one ``read_at`` per extent."""
    extents = cluster_extents(img, desc,
                              merge_runs((c, 1) for c in clusters))
    return b"".join(img.read_at(offset, length) for offset, length in extents)


def test_read_clusters_concatenates_in_call_order(image_of):
    desc = _ntfs_desc(total_sectors=8 * 8)  # 8 clusters of 4 KiB
    buf = bytearray()
    for i in range(8):
        buf += bytes([i]) * 4096
    with image_of(bytes(buf)) as img:
        out = _read_clusters(img, desc, [3, 5, 4])
        assert out == b"\x03" * 4096 + b"\x05" * 4096 + b"\x04" * 4096
        assert _read_clusters(img, desc, []) == b""


# -------------------------------------------- run-at-a-time cluster reads

def _read_clusters_per_cluster(img, desc, clusters):
    """Reference: validate every cluster on its own, then merge reads of
    adjacent offsets."""
    clusters = list(clusters)
    offsets = [cluster_offset(desc, c) for c in clusters]
    if not clusters:
        return b""
    size = desc.cluster_size
    parts = []
    run_start = offsets[0]
    run_len = size
    for prev, off in zip(offsets, offsets[1:]):
        if off == prev + size:
            run_len += size
        else:
            parts.append(img.read_at(run_start, run_len))
            run_start, run_len = off, size
    parts.append(img.read_at(run_start, run_len))
    return b"".join(parts)


class _CountingImage(VolumeImage):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.reads = []

    def read_at(self, offset, length):
        self.reads.append((offset, length))
        return super().read_at(offset, length)


def _small_fat32():
    # Eight 512 B clusters, 2..9, behind one data-start sector.
    return VolumeDescriptor(
        kind=FsKind.FAT32, bytes_per_sector=512, sectors_per_cluster=1,
        total_sectors=9, reserved_sectors=1, num_fats=1, sectors_per_fat=1,
        root_cluster=2, first_data_sector=1, cluster_count=8)


def _numbered_image(image_of, clusters, cluster_size, lead=0):
    buf = bytes(lead) + b"".join(bytes([i]) * cluster_size
                                 for i in range(clusters))
    return image_of(buf, cls=_CountingImage)


@pytest.mark.parametrize("clusters, bad", [
    ([3, 4, 8, 9, 10, 11, 5], 10),     # the run 8..11 leaves the heap at 10
    ([5, 6, 0, 1, 2, 3], 0),           # the run 0..3 starts below it
    ([2, 3, -1, 0, 1], -1),
])
def test_read_clusters_names_the_first_bad_member_and_reads_nothing(
        clusters, bad, image_of):
    desc = _small_fat32()
    with _numbered_image(image_of, 10, 512, lead=512) as img:
        with pytest.raises(ClusterRangeError) as new:
            _read_clusters(img, desc, clusters)
        assert str(new.value) == "cluster %d outside heap" % bad
        with pytest.raises(ClusterRangeError) as old:
            _read_clusters_per_cluster(img, desc, clusters)
    assert str(new.value) == str(old.value)
    assert img.reads == []


def test_read_clusters_issues_one_read_per_run(image_of):
    desc = _ntfs_desc(total_sectors=8 * 8)
    with _numbered_image(image_of, 8, 4096) as img:
        out = _read_clusters(img, desc, range(1, 7))
    assert out == b"".join(bytes([i]) * 4096 for i in range(1, 7))
    assert img.reads == [(4096, 6 * 4096)]


@settings(max_examples=200, deadline=None)
@given(ntfs_kind=st.booleans(),
       clusters=st.lists(st.one_of(
           st.integers(min_value=-2, max_value=12),
           st.tuples(st.integers(min_value=-2, max_value=12),
                     st.integers(min_value=1, max_value=6))),
           max_size=8))
def test_read_clusters_matches_the_per_cluster_reference(ntfs_kind, clusters,
                                                         image_of):
    flat = []
    for item in clusters:                 # tuples expand to runs
        if isinstance(item, tuple):
            flat.extend(range(item[0], item[0] + item[1]))
        else:
            flat.append(item)
    if ntfs_kind:
        desc = _ntfs_desc(total_sectors=10 * 8)
        img = _numbered_image(image_of, 10, 4096)
    else:
        desc = _small_fat32()
        img = _numbered_image(image_of, 10, 512, lead=512)
    with img:
        try:
            want = _read_clusters_per_cluster(img, desc, flat)
        except ClusterRangeError as exc:
            img.reads.clear()
            with pytest.raises(ClusterRangeError) as got:
                _read_clusters(img, desc, flat)
            assert str(got.value) == str(exc)
            assert img.reads == []
            return
        old_reads = list(img.reads)
        img.reads.clear()
        assert _read_clusters(img, desc, flat) == want
    assert img.reads == old_reads


# ------------------------------------------------------- chunked readers

_SIGNATURE = b"SIG"


@st.composite
def _signature_image(draw):
    """Bytes with signatures, their lead byte alone and runs of zeros
    planted, and a find over them: start, stop, step, hit length and
    the batch size it reads in."""
    size = draw(st.integers(min_value=512, max_value=6 * 4096))
    buf = bytearray(size)
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        pos = draw(st.integers(min_value=0, max_value=size - 1))
        blob = draw(st.sampled_from([_SIGNATURE, b"S", b"SI", b"xSIG",
                                     b"\x01" * 4096]))
        buf[pos:pos + len(blob)] = blob[:size - pos]
    step = draw(st.sampled_from([1, 3, 32, 512, 4096]))
    start = draw(st.integers(min_value=0, max_value=size))
    stop = draw(st.integers(min_value=start, max_value=size))
    length = draw(st.integers(min_value=len(_SIGNATURE), max_value=2 * step + 8))
    chunk = draw(st.sampled_from([1, step, 2 * step + 1, 4096, 1 << 20]))
    return bytes(buf), start, stop, step, length, chunk


def _after_a_hole(offset, start, step):
    data = bytearray(3 * 4096)
    data[offset:offset + len(_SIGNATURE)] = _SIGNATURE
    return bytes(data), start, len(data), step, len(_SIGNATURE), 1 << 20


@settings(max_examples=300, deadline=None)
@given(case=_signature_image(), sparse=st.booleans())
@example(case=_after_a_hole(4098, 0, 3), sparse=True)
@example(case=_after_a_hole(2 * 4096 + 1, 1, 512), sparse=True)
def test_find_signatures_matches_the_per_offset_reference(case, sparse,
                                                          image_of):
    """Every slot at or past ``start`` and below ``stop`` that opens with
    the signature, and whose ``length`` bytes lie in the image, in
    ascending order, whatever the batch size and wherever the holes."""
    data, start, stop, step, length, chunk = case
    want = [(o, data[o:o + length])
            for o in range(start, stop, step)
            if data.startswith(_SIGNATURE, o) and o + length <= len(data)]
    real, volume.STREAM_CHUNK = volume.STREAM_CHUNK, chunk
    try:
        if sparse:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "img")
                _write_sparse(path, data)
                with open_image(path) as img:
                    got = list(find_signatures(img, start, stop, step,
                                               _SIGNATURE, length))
        else:
            with image_of(data) as img:
                got = list(find_signatures(img, start, stop, step,
                                           _SIGNATURE, length))
    finally:
        volume.STREAM_CHUNK = real
    assert got == want


def test_find_signatures_reads_no_further_than_the_hit_it_yields(
        monkeypatch, image_of):
    """A caller acts on a hit before the next is sought (the FAT carve
    marks the clusters it consumed), so a batch is read only when the
    search reaches it."""
    data = bytearray(4 * 4096)
    data[0:3] = data[3 * 4096:3 * 4096 + 3] = _SIGNATURE
    monkeypatch.setattr(volume, "STREAM_CHUNK", 4096)
    with image_of(bytes(data), cls=_CountingImage) as img:
        hits = find_signatures(img, 0, len(data), 512, _SIGNATURE, 512)
        assert next(hits)[0] == 0
        assert img.reads == [(0, 4096)]
        assert next(hits)[0] == 3 * 4096
        assert next(hits, None) is None
    assert len(img.reads) == 4


@settings(max_examples=200, deadline=None)
@given(extents=st.lists(st.one_of(
           st.binary(max_size=40),
           st.tuples(st.none(), st.integers(min_value=0, max_value=300)),
           st.tuples(st.integers(min_value=0, max_value=1000),
                     st.integers(min_value=0, max_value=24))), max_size=6),
       size=st.integers(min_value=0, max_value=700),
       chunk=st.integers(min_value=1, max_value=64))
def test_read_extents_matches_the_joined_extents(extents, size, chunk,
                                                 image_of):
    data = bytes(range(256)) * 4 + bytes(24)
    want = b"".join(e if isinstance(e, bytes)
                    else bytes(e[1]) if e[0] is None
                    else data[e[0]:e[0] + e[1]] for e in extents)[:size]
    real, volume.STREAM_CHUNK = volume.STREAM_CHUNK, chunk
    try:
        with image_of(data) as img:
            got = list(read_extents(img, extents, size))
    finally:
        volume.STREAM_CHUNK = real
    assert b"".join(got) == want
    # Only resident bytes, yielded whole, may exceed STREAM_CHUNK.
    assert max(map(len, got), default=0) <= max(
        [chunk] + [len(e) for e in extents if isinstance(e, bytes)])
