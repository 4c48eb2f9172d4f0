"""Image forging, deletion modalities, and the sanitization audit."""

import errno
import hashlib
import os
import struct
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from remnant import cli
from remnant import filetypes
from remnant import forge
from remnant import forge_write
from remnant import ntfs as ntfsmod
from remnant.undelete import recover_all, scan_volume
from remnant.volume import (STREAM_CHUNK, FsKind, VolumeError,
                            cluster_extents, cluster_offset,
                            detect_filesystem, open_image)
from test_forge_bytes import STEPS, _sha, fragmented_corpus

MiB = 1024 * 1024
ALL_FS = ("fat12", "fat16", "fat32", "ntfs")
CLASSES = ("document", "image", "audio", "video", "compressed", "executable")


# ----------------------------------------------------------- content model

def test_every_class_has_a_distinct_magic():
    magics = [filetypes.magic_for(c) for c in CLASSES]
    assert len(set(magics)) == len(CLASSES)
    for cls, magic in zip(CLASSES, magics):
        assert filetypes.classify_bytes(magic + b"rest") == cls


def test_classify_falls_back_to_the_extension():
    assert filetypes.classify(b"", "empty.pdf") == "document"
    assert filetypes.classify(b"no magic here", "clip.mp3") == "audio"
    assert filetypes.classify(b"no magic here", "mystery") == "unknown"
    # Content wins over a lying extension.
    assert filetypes.classify(filetypes.magic_for("image") + b"x",
                              "fake.pdf") == "image"


def test_content_is_deterministic_and_tagged():
    a = forge.content_bytes("video", 5000, seed=3)
    b = forge.content_bytes("video", 5000, seed=3)
    c = forge.content_bytes("video", 5000, seed=4)
    assert a == b
    assert a != c
    assert len(a) == 5000
    assert filetypes.classify_bytes(a) == "video"
    # Tiny files cannot carry the magic; the byte is still deterministic.
    assert forge.content_bytes("document", 1, seed=0) == \
        forge.content_bytes("document", 1, seed=0)


# ------------------------------------------------------------ corpus shape

@pytest.mark.parametrize("fs", ALL_FS)
def test_standard_corpus_covers_the_required_spread(fs):
    spec = forge.standard_corpus(fs)
    assert len(spec.files) >= 12
    by_class = {}
    for f in spec.files:
        by_class.setdefault(f.file_class, []).append(f)
    assert set(by_class) == set(CLASSES)
    assert all(len(v) >= 2 for v in by_class.values())
    sizes = [f.size for f in spec.files]
    assert min(sizes) == 1
    if spec.total_size >= 32 * MiB:
        assert max(sizes) == 4 * MiB
    assert any(" " in f.name for f in spec.files)  # a long name is present


@pytest.mark.parametrize("fs", ALL_FS)
def test_built_corpus_reads_back_byte_identical(base_images, fs):
    """Every forged file must be readable through the normal volume
    structures and hash to its ground-truth digest."""
    path, truth = base_images[fs]
    with open_image(path) as img:
        desc = detect_filesystem(img)
        assert img.size == truth.total_size
        for rec in truth.files.values():
            original = forge.content_bytes(rec.file_class, rec.size,
                                               rec.seed)
            assert hashlib.sha256(original).hexdigest() == rec.sha256
            if rec.resident:
                record = ntfsmod.read_record(
                    img.read_at(rec.entry_offset, desc.mft_record_size),
                    rec.entry_offset)
                value = next(a.value for a in record.attributes
                             if a.is_unnamed_data)
                assert value == original
            else:
                data = b"".join(
                    img.read_at(offset, length) for offset, length
                    in cluster_extents(img, desc, rec.clusters))
                assert data[:rec.size] == original


def test_empty_spec_builds_a_valid_volume(tmp_path):
    for fs, size in (("fat16", 4 * MiB), ("ntfs", 8 * MiB)):
        spec = forge.CorpusSpec(filesystem=fs, total_size=size, files=[])
        path = tmp_path / ("empty-%s.img" % fs)
        truth = forge.build_image(spec, path)
        assert truth.files == {}
        with open_image(path) as img:
            desc = detect_filesystem(img)
        assert desc.kind.value.lower() == fs


def test_rebuild_is_bit_for_bit_deterministic(tmp_path):
    spec = forge.standard_corpus("fat16", total_size=16 * MiB, seed=5)
    a, b = tmp_path / "a.img", tmp_path / "b.img"
    forge.build_image(spec, a)
    forge.build_image(spec, b)
    assert hashlib.sha256(a.read_bytes()).digest() == \
        hashlib.sha256(b.read_bytes()).digest()
    # A different seed moves every payload.
    spec2 = forge.standard_corpus("fat16", total_size=16 * MiB, seed=6)
    c = tmp_path / "c.img"
    forge.build_image(spec2, c)
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("fs", ["fat32", "ntfs"])
def test_build_memory_does_not_follow_the_volume_size(tmp_path, fs):
    """The image is sized, not filled: the forge holds no volume-sized
    buffer, and clusters never written are left for the filesystem to
    keep as holes."""
    f = forge.FileSpec
    spec = forge.CorpusSpec(
        filesystem=fs, total_size=64 * MiB,
        sectors_per_cluster=1 if fs == "fat32" else None,
        files=[f("A.BIN", "audio", 300_000), f("B.TXT", "document", 700),
               f("C.JPG", "image", 65_536, None, "SUB")], dirs=["SUB"])
    path = tmp_path / "v.img"
    tracemalloc.start()
    try:
        forge.build_image(spec, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * MiB
    assert os.stat(path).st_size == spec.total_size


def test_a_failed_build_leaves_no_image(tmp_path):
    spec = forge.CorpusSpec(
        filesystem="fat16", total_size=4 * MiB,
        files=[forge.FileSpec("HUGE.BIN", "video", 8 * MiB)])
    path = tmp_path / "v.img"
    with pytest.raises(forge.ForgeError, match="does not fit"):
        forge.build_image(spec, path)
    assert not path.exists()


def test_three_cluster_file_gets_one_contiguous_run(tmp_path):
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=8 * MiB,
        files=[forge.FileSpec(name="A.BIN", file_class="audio", size=10_000)])
    truth = forge.build_image(spec, tmp_path / "n.img")
    runs = truth.files["A.BIN"].clusters
    assert len(runs) == 1
    assert runs[0][1] == 3          # ceil(10000 / 4096)


def test_truth_round_trips_through_json(base_images, tmp_path):
    _, truth = base_images["fat32"]
    truth.mutations.append("delete-all")
    out = tmp_path / "t.json"
    truth.save(out)
    back = forge.GroundTruth.load(out)
    assert back.filesystem == truth.filesystem
    assert back.total_size == truth.total_size
    assert back.mutations == ["delete-all"]
    assert set(back.files) == set(truth.files)
    for k in truth.files:
        assert back.files[k] == truth.files[k]
    assert back.geometry == truth.geometry


# ------------------------------------------------------ deletion modalities

def test_delete_requires_a_known_target(image_copy):
    path, truth = image_copy("fat16")
    with pytest.raises(forge.ForgeError):
        forge.apply_mutation(path, "delete", truth=truth, target="NO/SUCH.BIN")
    with pytest.raises(forge.ForgeError):
        forge.apply_mutation(path, "no-such-action", truth=truth)


@pytest.mark.parametrize("fs", ALL_FS)
def test_metadata_only_delete_leaves_payload_clusters_alone(image_copy, fs):
    path, truth = image_copy(fs)
    before = path.read_bytes()
    forge.apply_mutation(path, "delete-all", truth=truth)
    after = path.read_bytes()
    assert before != after
    with open_image(path) as img:
        desc = detect_filesystem(img)
    cs = desc.cluster_size
    for rec in truth.files.values():
        if rec.resident:
            continue
        for start, length in rec.clusters:
            for c in range(start, start + length):
                off = cluster_offset(desc, c)
                assert after[off:off + cs] == before[off:off + cs], (
                    "delete touched data cluster %d of %s" % (c, rec.path))


@pytest.mark.parametrize("bps, size", [(1024, 128 * MiB), (2048, 256 * MiB)])
def test_fat32_system_sectors_sit_at_sector_offsets(tmp_path, bps, size):
    """The boot sector names sector 1 for FSInfo and sector 6 for the
    backup boot sector; with sectors over 512 B those are not bytes 512
    and 3072.  The quick format rewrites them in the same places."""
    path = tmp_path / "big-sectors.img"
    truth = forge.build_image(forge.CorpusSpec(
        filesystem="fat32", total_size=size, bytes_per_sector=bps), path)
    for step in ("build", "quick-format"):
        if step == "quick-format":
            forge.apply_mutation(path, step, truth=truth)
        with open_image(path) as img:
            boot = img.read_at(0, 512)
            assert struct.unpack_from("<HH", boot, 0x30) == (1, 6)
            assert img.read_at(512, 4) == bytes(4)
            assert img.read_at(bps, 4) == img.read_at(7 * bps, 4) == b"RRaA"
            assert img.read_at(6 * bps, 512) == boot


def test_quick_format_is_idempotent(image_copy):
    # NTFS: both formats write $Bitmap where the sidecar records it.
    for fs in ("fat32", "ntfs"):
        path, truth = image_copy(fs)
        forge.apply_mutation(path, "quick-format", truth=truth)
        once = path.read_bytes()
        forge.apply_mutation(path, "quick-format", truth=truth)
        assert path.read_bytes() == once


@pytest.mark.parametrize("size", [1 << 30, 8 << 30], ids=["1GiB", "8GiB"])
def test_ntfs_quick_format_at_media_size_keeps_every_file(tmp_path, size):
    """At the paper's media sizes a quick-formatted NTFS volume still
    yields every file of the standard corpus byte for byte, and the
    audit agrees.  The fresh $Bitmap is rewritten where the sidecar
    records it; laid right after the fresh records instead, a bitmap
    over 16 KiB (a volume over 512 MiB) covers the old table's user
    records."""
    path = tmp_path / "big.img"
    truth = forge.build_image(forge.standard_corpus("ntfs", size), path)
    forge.apply_mutation(path, "quick-format", truth=truth)
    assert os.stat(path).st_blocks * 512 < 64 * MiB     # still sparse
    with open_image(path) as img:
        desc = detect_filesystem(img)
        recovered, errors = recover_all(img, scan_volume(img, desc, deep=True),
                                        str(tmp_path / "out"))
    assert errors == []
    got = {rf.sha256 for rf in recovered}
    assert sum(t.sha256 in got for t in truth.files.values()) == 15
    assert forge.audit_image(path, truth)["recoverable_files"] == 15


def test_ntfs_bitmap_marks_the_metadata_and_the_truth_runs_only(tmp_path):
    """The built $Bitmap holds the metadata's clusters (boot code, the
    MFT, the bitmap itself, the mirror, the padding past the last
    cluster) and every file's truth runs; a resident file holds none."""
    path = tmp_path / "n.img"
    truth = forge.build_image(
        forge.standard_corpus("ntfs", total_size=16 * MiB), path)
    geo, internal = truth.geometry, truth.internal
    cs, cc = geo["cluster_size"], geo["cluster_count"]
    at, nbytes = internal["cluster_bitmap_abs"], internal["cluster_bitmap_bytes"]
    runs = [(0, -(-8192 // cs)), (geo["mft_lcn"], geo["mft_clusters"]),
            (at // cs, -(-nbytes // cs)),
            (geo["mirror_lcn"], -(-4 * geo["record_size"] // cs)),
            (cc, 8 * nbytes - cc)]
    runs += [run for t in truth.files.values() for run in t.clusters]
    want = {c for first, count in runs for c in range(first, first + count)}
    with open_image(path) as img:
        bits = img.read_at(at, nbytes)
    got = {c for c in range(8 * nbytes) if bits[c // 8] >> (c % 8) & 1}
    assert any(t.resident for t in truth.files.values())
    assert got == want


# 16 MiB at 1 KiB clusters: LCNs 0-16383, a 2 KiB bitmap.
@pytest.mark.parametrize("lcn", [16384, 16383], ids=["outside", "straddling"])
@pytest.mark.parametrize("action", ["quick-format", "full-overwrite"])
def test_ntfs_format_needs_the_cluster_bitmap_inside_the_volume(
        tmp_path, lcn, action):
    """A sidecar whose $Bitmap starts or ends past the image is refused
    before the first write; ``remnant forge --apply`` exits 2.  The
    span checked is the bitmap the boot sector sizes, whatever length
    the sidecar records."""
    spec = forge.standard_corpus("ntfs", total_size=16 * MiB)
    spec.sectors_per_cluster = 2
    path = tmp_path / "n.img"
    truth = forge.build_image(spec, path)
    truth.internal.update(cluster_bitmap_abs=lcn * 1024,
                          cluster_bitmap_bytes=1)
    sidecar = tmp_path / "n.truth.json"
    truth.save(sidecar)
    before = _sha(path)
    with pytest.raises(VolumeError, match=r"^write \[%d:" % (lcn * 1024)):
        forge.apply_mutation(path, action, truth=truth)
    assert cli.main(["forge", str(path), "--apply", action,
                     "--truth", str(sidecar)]) == 2
    assert _sha(path) == before
    assert forge.GroundTruth.load(sidecar).mutations == []


@pytest.mark.parametrize("action", ["quick-format", "full-overwrite"])
def test_ntfs_format_needs_the_mirror_inside_the_volume(image_copy, action):
    """The format rewrites $MFTMirr where the boot sector places it, so
    a boot sector whose mirror lies past the image is refused before the
    first write, also with a sidecar that does not record the mirror."""
    path, truth = image_copy("ntfs")
    with open(path, "r+b") as fh:
        fh.seek(0x38)
        fh.write(struct.pack("<Q", 1 << 30))
    del truth.geometry["mirror_lcn"]
    before = _sha(path)
    with pytest.raises(VolumeError, match=r"^write \[%d:"
                       % ((1 << 30) * truth.geometry["cluster_size"])):
        forge.apply_mutation(path, action, truth=truth)
    assert _sha(path) == before


@pytest.mark.parametrize("fs", ALL_FS)
def test_full_overwrite_destroys_every_payload(image_copy, fs):
    path, truth = image_copy(fs, "full-overwrite")
    raw = path.read_bytes()
    for rec in truth.files.values():
        original = forge.content_bytes(rec.file_class, rec.size, rec.seed)
        probe = original[: min(64, rec.size)]
        if len(probe) >= 16:        # skip trivially-short needles
            assert probe not in raw, "%s content survived" % rec.path
    # The volume still detects: structures are rebuilt, not shredded.
    with open_image(path) as img:
        desc = detect_filesystem(img)
    assert desc.kind.value == truth.filesystem


@pytest.mark.parametrize("fs, size, action", [
    ("fat32", 128 * MiB, "quick-format"), ("ntfs", 16 * MiB, "full-overwrite"),
])
def test_a_format_keeps_a_sparse_image_sparse(tmp_path, monkeypatch, fs,
                                              size, action):
    """A hole already reads as zero, so zeroing writes only the image's
    data extents: the format allocates at most 1 MiB more than the build
    did.  Where the system cannot report holes every byte is written,
    and the image reads the same."""
    spec = forge.standard_corpus(fs, size)
    sparse, dense = tmp_path / "s.img", tmp_path / "d.img"
    truth = forge.build_image(spec, sparse)
    forge.build_image(spec, dense)
    built = os.stat(sparse).st_blocks * 512
    forge.apply_mutation(sparse, action, truth=truth)
    assert os.stat(sparse).st_blocks * 512 <= built + MiB

    def no_hole_reports(fd, pos, how):
        raise OSError(errno.EINVAL, "cannot report holes")

    monkeypatch.setattr(os, "lseek", no_hole_reports)
    forge.apply_mutation(dense, action, truth=truth)
    monkeypatch.undo()
    assert _sha(dense) == _sha(sparse)


# ------------------------------------------------------------ the audit

def test_audit_on_a_pristine_image_is_fully_recoverable(base_images):
    for fs in ALL_FS:
        path, truth = base_images[fs]
        rep = forge.audit_image(path, truth)
        assert rep["verdict"] == "RECOVERABLE"
        assert rep["truth_files"] == len(truth.files)
        assert rep["recoverable_files"] == len(truth.files)
        assert rep["recoverable_bytes"] == rep["total_bytes"]
        assert rep["sanitized_files"] == 0


def test_audit_after_metadata_delete_still_sees_everything(image_copy):
    path, truth = image_copy("ntfs", "delete-all")
    rep = forge.audit_image(path, truth)
    assert rep["verdict"] == "RECOVERABLE"
    assert rep["recoverable_bytes"] == rep["total_bytes"]


def test_audit_after_quick_format_still_sees_everything(image_copy):
    path, truth = image_copy("fat32", "quick-format")
    rep = forge.audit_image(path, truth)
    assert rep["verdict"] == "RECOVERABLE"
    assert rep["recoverable_bytes"] == rep["total_bytes"]


@pytest.mark.parametrize("fs", ["fat16", "ntfs"])
def test_audit_after_full_overwrite_is_sanitized(image_copy, fs):
    path, truth = image_copy(fs, "full-overwrite")
    rep = forge.audit_image(path, truth)
    assert rep["verdict"] == "SANITIZED"
    assert rep["recoverable_bytes"] == 0
    assert rep["sanitized_files"] == rep["truth_files"]
    assert all(r["verdict"] == "SANITIZED" for r in rep["files"])


def test_audit_reports_partial_files(image_copy):
    # Reuse part of a deleted file's clusters: the tail survives, the
    # head is gone, and the verdict must say so.
    path, truth = image_copy("fat16")
    victim = max((r for r in truth.files.values() if not r.resident),
                 key=lambda r: sum(count for _, count in r.clusters))
    forge.apply_mutation(path, "delete", truth=truth, target=victim.path)
    (first, count), = victim.clusters
    half = count // 2
    assert half >= 1
    with open_image(path) as img:
        desc = detect_filesystem(img)
    with open(path, "r+b") as fh:
        fh.seek(cluster_offset(desc, first))
        fh.write(b"\x5A" * (half * desc.cluster_size))

    rep = forge.audit_image(path, truth)
    row = next(r for r in rep["files"] if r["path"] == victim.path)
    assert row["verdict"] == "PARTIAL"
    assert 0 < row["recoverable_bytes"] < row["size_bytes"]
    assert rep["partial_files"] >= 1
    assert rep["verdict"] == "RECOVERABLE"   # something is still exposed
    assert rep == _reference_audit(path, truth)


def _audit_one_by_rebuild(img, desc, t):
    """Reference: the audit before it hashed first, which regenerates
    every original and compares it chunk by chunk."""
    original = forge.content_bytes(t.file_class, t.size, t.seed)
    if t.resident:
        matching = forge._audit_resident(img, desc, t, original)
    else:
        matching = 0
        pos = 0
        cs = desc.cluster_size
        batch = max(1, STREAM_CHUNK // cs)
        for start, length in t.clusters:
            for first in range(start, start + length, batch):
                count = min(batch, start + length - first)
                (offset, _), = cluster_extents(img, desc, [(first, count)])
                want = original[pos:pos + count * cs]
                disk = img.read_at(offset, len(want))
                matching += len(want) if disk == want else sum(
                    len(want[i:i + cs]) for i in range(0, len(want), cs)
                    if disk[i:i + cs] == want[i:i + cs])
                pos += len(want)
    if t.size == 0 or matching == t.size:
        verdict = "RECOVERABLE"
    elif matching == 0:
        verdict = "SANITIZED"
    else:
        verdict = "PARTIAL"
    return {"path": t.path, "class": t.file_class, "size_bytes": t.size,
            "recoverable_bytes": matching, "verdict": verdict}


def _reference_audit(path, truth):
    """The whole report with every row from the rebuild reference."""
    real = forge._audit_one
    forge._audit_one = _audit_one_by_rebuild
    try:
        return forge.audit_image(path, truth)
    finally:
        forge._audit_one = real


@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("fs", ALL_FS)
def test_hash_first_audit_matches_the_rebuild_reference(image_copy, fs,
                                                         steps):
    path, truth = image_copy(fs)
    for action in STEPS[steps]:
        forge.apply_mutation(path, action, truth=truth)
    rep = forge.audit_image(path, truth)
    assert rep == _reference_audit(path, truth)
    if steps == "full-overwrite":
        assert rep["verdict"] == "SANITIZED"
    else:
        assert rep["recoverable_bytes"] == rep["total_bytes"]


@pytest.mark.parametrize("fs", ["fat16", "ntfs"])
def test_a_sidecar_hash_that_misses_falls_back_to_the_byte_compare(
        image_copy, fs):
    path, truth = image_copy(fs)
    t = max((t for t in truth.files.values() if not t.resident),
            key=lambda t: t.size)
    t.sha256 = "0" * 64
    rep = forge.audit_image(path, truth)
    assert rep == _reference_audit(path, truth)
    row = next(r for r in rep["files"] if r["path"] == t.path)
    assert (row["verdict"], row["recoverable_bytes"]) == \
        ("RECOVERABLE", t.size)


@pytest.mark.parametrize("fs", ["fat12", "fat16", "fat32"])
def test_a_pristine_audit_rebuilds_no_original(base_images, monkeypatch, fs):
    def refuse(*args):
        raise AssertionError("content rebuilt although the hash matched")

    monkeypatch.setattr(forge, "content_bytes", refuse)
    path, truth = base_images[fs]
    rep = forge.audit_image(path, truth)
    assert rep["recoverable_files"] == rep["truth_files"] == len(truth.files)


def test_audit_memory_does_not_follow_the_file_size(tmp_path):
    """A matching file is hashed STREAM_CHUNK at a time; its original,
    32 MiB here, is never held in memory."""
    spec = forge.CorpusSpec(
        filesystem="fat32", total_size=48 * MiB, sectors_per_cluster=1,
        files=[forge.FileSpec("BIG.MKV", "video", 32 * MiB)])
    path = tmp_path / "big.img"
    truth = forge.build_image(spec, path)
    tracemalloc.start()
    try:
        rep = forge.audit_image(path, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["recoverable_bytes"] == 32 * MiB
    assert peak < 12 * MiB


def test_sidecar_hashes_are_the_hashes_of_the_content(base_images, tmp_path):
    """The audit takes a matching sidecar hash as byte identity, so the
    sidecar must hash exactly what ``content_bytes`` regenerates."""
    truths = [truth for _, truth in base_images.values()]
    for fs in ALL_FS:
        truths.append(forge.build_image(fragmented_corpus(fs),
                                        tmp_path / ("%s.img" % fs)))
    for truth in truths:
        for t in truth.files.values():
            original = forge.content_bytes(t.file_class, t.size, t.seed)
            assert t.sha256 == hashlib.sha256(original).hexdigest(), t.path


def test_delete_keeps_the_reserved_fat32_nibble(image_copy):
    path, truth = image_copy("fat32")
    victim = max(truth.files.values(), key=lambda r: r.size)
    (first, count), = victim.clusters
    with open(path, "r+b") as fh:
        for fat_off in truth.internal["fat_offsets"]:
            fh.seek(fat_off + 4 * first)
            entries = struct.unpack("<%dI" % count, fh.read(4 * count))
            fh.seek(fat_off + 4 * first)
            fh.write(struct.pack("<%dI" % count,
                                 *(0xA0000000 | e for e in entries)))
    forge.apply_mutation(path, "delete", truth=truth, target=victim.path)
    raw = path.read_bytes()
    for fat_off in truth.internal["fat_offsets"]:
        start = fat_off + 4 * first
        assert struct.unpack("<%dI" % count, raw[start:start + 4 * count]) \
            == (0xA0000000,) * count


@given(size=st.integers(1, 6), on=st.booleans(), runs=st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 17)), max_size=4))
def test_set_bits_matches_the_per_bit_reference(size, on, runs):
    runs = [(first, count) for first, count in runs
            if first + count <= 8 * size]
    start = bytes(range(37, 37 + size))
    want = bytearray(start)
    for first, count in runs:
        for i in range(first, first + count):
            if on:
                want[i // 8] |= 1 << (i % 8)
            else:
                want[i // 8] &= ~(1 << (i % 8))
    got = bytearray(start)
    forge_write._set_bits(got, runs, on)
    assert got == want


def test_audit_refuses_a_mismatched_sidecar(base_images, image_copy):
    fat_img, _ = base_images["fat32"]
    _, ntfs_truth = image_copy("ntfs")
    with pytest.raises(forge.ForgeError):
        forge.audit_image(fat_img, ntfs_truth)


@pytest.mark.parametrize("action", forge.MUTATIONS)
def test_a_mutation_refuses_a_mismatched_sidecar(tmp_path, action):
    """The same size and filesystem check as the audit's, made before
    any byte is written."""
    ntfs_img, fat_img = tmp_path / "n.img", tmp_path / "f.img"
    forge.build_image(forge.standard_corpus("ntfs", total_size=8 * MiB),
                      ntfs_img)
    truth = forge.build_image(forge.standard_corpus("fat16"), fat_img)
    same_size = forge.build_image(
        forge.standard_corpus("ntfs", total_size=16 * MiB), tmp_path / "s.img")
    before = ntfs_img.read_bytes()
    with pytest.raises(forge.SidecarMismatch, match="-byte volume"):
        forge.apply_mutation(ntfs_img, action, truth=truth,
                             target="DATA/TINY.TXT")
    assert ntfs_img.read_bytes() == before
    before = fat_img.read_bytes()
    with pytest.raises(forge.SidecarMismatch, match="is for NTFS"):
        forge.apply_mutation(fat_img, action, truth=same_size,
                             target="DATA/TINY.TXT")
    assert fat_img.read_bytes() == before


def _last_file(truth):
    return truth.files[max(truth.files)]


@pytest.mark.parametrize("fs, corrupt", [
    ("fat16", lambda t: t.internal.update(fat_offsets=[1 << 34])),
    ("fat16", lambda t: setattr(_last_file(t), "entry_offset", t.total_size)),
    ("ntfs", lambda t: t.internal.update(mft_bitmap_value_abs=1 << 34)),
    ("ntfs", lambda t: setattr(_last_file(t), "clusters",
                               [[8 * t.total_size, 1]])),
], ids=["fat-table", "last-entry", "mft-bitmap", "last-run"])
def test_a_refused_mutation_writes_nothing(tmp_path, fs, corrupt):
    """Every span a deletion would write is checked before the first
    write, so a sidecar that points one of them outside the volume
    leaves the image as it was, even where the earlier files are fine."""
    img = tmp_path / "v.img"
    truth = forge.build_image(forge.standard_corpus(fs, total_size=8 * MiB),
                              img)
    corrupt(truth)
    before = _sha(img)
    with pytest.raises(VolumeError, match=r"^write \[.* outside volume"):
        forge.apply_mutation(img, "delete-all", truth=truth)
    assert _sha(img) == before


@pytest.mark.parametrize("action", ["delete", "delete-all"])
@pytest.mark.parametrize("fs", ALL_FS)
def test_every_deletion_write_lies_in_a_span_checked_first(
        image_copy, monkeypatch, fs, action):
    """A deletion checks each span it writes with ``check_span(...,
    "write")`` before its first write, and writes no byte outside them.
    The writer checks each write again as it makes it, so only the
    checks made before the first write count."""
    path, truth = image_copy(fs)
    events = []
    check, write = forge_write._Writer.check_span, forge_write._Writer.write

    def checking(self, offset, length, access="read"):
        if access == "write":
            events.append(("check", offset, length))
        check(self, offset, length, access)

    def writing(self, offset, data):
        events.append(("write", offset, len(memoryview(data))))
        write(self, offset, data)

    monkeypatch.setattr(forge_write._Writer, "check_span", checking)
    monkeypatch.setattr(forge_write._Writer, "write", writing)
    # A long name, so on FAT the deletion marks long-name entries too.
    forge.apply_mutation(path, action, truth=truth,
                         target="DATA/Quarterly Report 2019.pdf")
    first = next(i for i, (kind, *_) in enumerate(events) if kind == "write")
    checked = [span for _, *span in events[:first]]
    writes = [span for kind, *span in events if kind == "write"]
    assert len(writes) > 1
    assert [(at, n) for at, n in writes
            if not any(lo <= at and at + n <= lo + length
                       for lo, length in checked)] == []


def _overrun_image(path, fs) -> None:
    """Double the sector count in the boot sector of a FAT32 or NTFS
    image, so the volume it describes runs past the end of the image."""
    at, code = (0x28, "<Q") if fs == "ntfs" else (0x20, "<I")
    with open(path, "r+b") as fh:
        fh.seek(at)
        total, = struct.unpack(code, fh.read(struct.calcsize(code)))
        fh.seek(at)
        fh.write(struct.pack(code, 2 * total))


@pytest.mark.parametrize("action", ["quick-format", "full-overwrite"])
@pytest.mark.parametrize("fs", ["fat32", "ntfs"])
def test_a_format_past_the_image_writes_nothing(image_copy, tmp_path, fs,
                                                action):
    """Every format write lies inside the volume, so a volume that
    overruns its image is refused before the first write, even with a
    sidecar whose geometry agrees with the overrun boot sector;
    ``remnant forge --apply`` exits 2."""
    path, truth = image_copy(fs)
    _overrun_image(path, fs)
    with open_image(path) as img:
        desc = detect_filesystem(img)
    truth.geometry.update(total_sectors=desc.total_sectors,
                          cluster_count=desc.total_clusters)
    sidecar = tmp_path / "v.truth.json"
    truth.save(sidecar)
    before = _sha(path)
    with pytest.raises(VolumeError,
                       match=r"^write \[0:%d\) outside volume"
                       % (2 * truth.total_size)):
        forge.apply_mutation(path, action, truth=truth)
    assert cli.main(["forge", str(path), "--apply", action,
                     "--truth", str(sidecar)]) == 2
    assert _sha(path) == before
    assert forge.GroundTruth.load(sidecar).mutations == []


@pytest.mark.parametrize("action", ["quick-format", "full-overwrite"])
@pytest.mark.parametrize("fs", ["fat32", "ntfs"])
def test_a_format_past_the_image_mismatches_its_sidecar(image_copy, tmp_path,
                                                        fs, action):
    """The sidecar records the sector count the image was built with,
    so the same overrun volume with its sidecar is a sidecar mismatch
    (exit 4), refused before the first write."""
    path, truth = image_copy(fs)
    sidecar = tmp_path / "v.truth.json"
    truth.save(sidecar)
    _overrun_image(path, fs)
    before = _sha(path)
    with pytest.raises(forge.SidecarMismatch,
                       match=r"^ground truth records total_sectors"):
        forge.apply_mutation(path, action, truth=truth)
    assert cli.main(["forge", str(path), "--apply", action,
                     "--truth", str(sidecar)]) == 4
    assert _sha(path) == before
    assert forge.GroundTruth.load(sidecar).mutations == []


@pytest.mark.parametrize("fs, key", [
    ("fat12", "sectors_per_cluster"),
    ("fat16", "sectors_per_fat"),
    ("fat32", "root_cluster"),
    ("ntfs", "mft_lcn"),
    ("ntfs", "mirror_lcn"),
])
def test_a_sidecar_with_other_geometry_is_a_mismatch(image_copy, tmp_path,
                                                     capsys, fs, key):
    """One geometry field of the sidecar off by one is a mismatch for
    every command that takes a sidecar, and none of them writes."""
    path, truth = image_copy(fs)
    truth.geometry[key] += 1
    sidecar = tmp_path / "v.truth.json"
    truth.save(sidecar)
    before = _sha(path)
    with pytest.raises(forge.SidecarMismatch,
                       match=r"^ground truth records %s " % key):
        forge.audit_image(path, truth)
    for argv in (["forge", str(path), "--apply", "delete-all",
                  "--truth", str(sidecar)],
                 ["recover", str(path), "--out", str(tmp_path / "out"),
                  "--truth", str(sidecar)],
                 ["audit", str(path), str(sidecar)]):
        assert cli.main(argv) == 4
        assert "ground truth records %s" % key in capsys.readouterr().err
    assert _sha(path) == before
    assert forge.GroundTruth.load(sidecar).mutations == []


def test_ntfs_volume_must_hold_its_own_metadata(tmp_path):
    # 4 KiB clusters: the MFT (16 clusters at LCN 4) and a one-cluster
    # bitmap end at cluster 21, which must lie below the mirror at
    # cluster count // 2.
    forge.build_image(forge.CorpusSpec(filesystem="ntfs",
                                       total_size=42 * 4096),
                      tmp_path / "fits.img")
    with pytest.raises(forge.ForgeError, match="volume too small"):
        forge.build_image(forge.CorpusSpec(filesystem="ntfs",
                                           total_size=41 * 4096),
                          tmp_path / "short.img")
    assert not (tmp_path / "short.img").exists()


def test_audit_never_modifies_the_image(image_copy):
    path, truth = image_copy("fat32", "quick-format")
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    forge.audit_image(path, truth)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


# ------------------------------------------------- spec (de)serialization

def test_corpus_spec_round_trips_through_dict():
    """A spec read from its dict form keeps every field the dict names."""
    back = forge.CorpusSpec.from_dict({
        "filesystem": "ntfs", "total_size": 8 * MiB, "seed": 9,
        "files": [{"name": "A.TXT", "class": "document", "size": 10},
                  {"name": "B.JPG", "class": "image", "size": 5000,
                   "parent": "DCIM"}]})
    assert back.filesystem == "ntfs"
    assert back.total_size == 8 * MiB
    assert back.seed == 9
    assert [f.name for f in back.files] == ["A.TXT", "B.JPG"]
    assert [f.size for f in back.files] == [10, 5000]
