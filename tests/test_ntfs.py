"""MFT record parsing, run-list decoding, and NTFS recovery."""

import hashlib
import io
import random
import shutil
import struct
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from remnant import cli
from remnant import forge
from remnant import forge_write
from remnant import ntfs
from remnant import undelete
from remnant import volume
from remnant.ntfs import (
    ATTR_DATA,
    ATTR_FILE_NAME,
    ATTR_STANDARD_INFORMATION,
    FixupError,
    MftError,
    MftScanStats,
    RECORD_FLAG_IN_USE,
    RunListError,
    apply_fixup,
    decode_data_runs,
    mft_extent,
    parse_attributes,
    parse_record_header,
    recover_file,
    scan_mft,
    survey,
)
from remnant.volume import (
    FsKind,
    VolumeDescriptor,
    VolumeError,
    cluster_offset,
    detect_filesystem,
    open_image,
)


def _open(path):
    img = open_image(path)
    return img, detect_filesystem(img)


# --------------------------------------------------------------- run lists

def test_decode_single_run():
    # header 0x21: 2-byte offset, 1-byte length; 0x18 clusters at 0x5634
    assert decode_data_runs(bytes([0x21, 0x18, 0x34, 0x56, 0x00])) == [
        (22068, 24)]


def test_decode_terminator_only():
    assert decode_data_runs(b"\x00") == []


def test_decode_negative_delta_walks_backwards():
    # Second run's offset is a signed delta from the first: 5 - 5 = 0.
    rl = decode_data_runs(bytes([0x11, 0x02, 0x05, 0x11, 0x03, 0xFB, 0x00]))
    assert rl == [(5, 2), (0, 3)]


def test_decode_sparse_run_has_no_lcn():
    # Zero offset width marks a hole in the stream.
    rl = decode_data_runs(bytes([0x11, 0x02, 0x08, 0x01, 0x04, 0x00]))
    assert rl == [(8, 2), (None, 4)]


def test_decode_rejects_truncated_input():
    with pytest.raises(RunListError):
        decode_data_runs(bytes([0x21, 0x18]))       # offset bytes missing
    with pytest.raises(RunListError):
        decode_data_runs(bytes([0x21, 0x18, 0x34, 0x56]))  # no terminator
    with pytest.raises(RunListError):
        decode_data_runs(b"")


def test_decode_rejects_zero_length_run():
    with pytest.raises(RunListError):
        decode_data_runs(bytes([0x11, 0x00, 0x05, 0x00]))


_run_lists = st.lists(
    st.tuples(
        st.one_of(st.none(),
                  st.integers(min_value=0, max_value=1 << 32)),  # first
        st.integers(min_value=1, max_value=1 << 24),            # count
    ),
    max_size=12,
)


@given(runs=_run_lists)
def test_encode_decode_round_trip(runs):
    raw = forge_write.encode_data_runs(runs)
    back = decode_data_runs(raw)
    assert back == runs
    # Re-encoding is bit-exact: widths are canonical minimums.
    assert forge_write.encode_data_runs(back) == raw


# ---------------------------------------------------------- record headers

def _blank_record(flags=0x0001, index=7):
    buf = bytearray(1024)
    buf[0:4] = b"FILE"
    struct.pack_into("<HH", buf, 0x04, 0x30, 3)        # USA covers 2 sectors
    struct.pack_into("<HHH", buf, 0x10, 1, 1, 0x38)    # seq, links, attrs
    struct.pack_into("<HII", buf, 0x16, flags, 0x40, 1024)
    struct.pack_into("<Q", buf, 0x20, 0)
    struct.pack_into("<I", buf, 0x38, 0xFFFFFFFF)      # end marker
    usn = b"\x99\x00"
    buf[0x30:0x32] = usn
    buf[0x32:0x34] = buf[510:512]
    buf[0x34:0x36] = buf[1022:1024]
    buf[510:512] = usn
    buf[1022:1024] = usn
    return buf


def test_flags_decide_deletion_state():
    live = parse_record_header(bytes(_blank_record(flags=0x0001)), 7)
    assert live.in_use and not live.is_directory
    assert live.flags & RECORD_FLAG_IN_USE

    gone = parse_record_header(bytes(_blank_record(flags=0x0000)), 7)
    assert not gone.flags & RECORD_FLAG_IN_USE and not gone.is_directory

    gone_dir = parse_record_header(bytes(_blank_record(flags=0x0002)), 7)
    assert not gone_dir.flags & RECORD_FLAG_IN_USE and gone_dir.is_directory


def test_bad_signature_is_an_error():
    buf = _blank_record()
    buf[0:4] = b"BAAD"
    with pytest.raises(MftError):
        parse_record_header(bytes(buf), 3)


def test_fixup_restores_sector_tails():
    buf = _blank_record()
    apply_fixup(buf)
    assert buf[510:512] == b"\x00\x00"   # original bytes put back
    assert buf[1022:1024] == b"\x00\x00"


def test_fixup_detects_torn_record():
    buf = _blank_record()
    buf[510:512] = b"\xDE\xAD"           # guard disagrees with the USN
    with pytest.raises(FixupError):
        apply_fixup(buf)


def test_attribute_walk_of_empty_record():
    buf = _blank_record()
    apply_fixup(buf)
    hdr = parse_record_header(bytes(buf), 7)
    walk = parse_attributes(bytes(buf), hdr)
    assert walk.attributes == []
    assert not walk.corrupt


# ----------------------------------------------------------- forged layout

def test_std_info_value_sits_at_0x48(base_images):
    """Every forged record puts $STANDARD_INFORMATION first, value at 0x48."""
    path, _ = base_images["ntfs"]
    img, desc = _open(path)
    checked = 0
    with img:
        for rec in scan_mft(img, desc):
            type_code, = struct.unpack_from("<I", rec.data, 0x30)
            if type_code != ATTR_STANDARD_INFORMATION:
                continue
            value_len, = struct.unpack_from("<I", rec.data, 0x30 + 0x10)
            value_off, = struct.unpack_from("<H", rec.data, 0x30 + 0x14)
            assert 0x30 + value_off == 0x48
            assert value_len in (0x30, 0x48)  # short and long forms
            checked += 1
    assert checked >= 12


def test_long_name_pushes_data_attribute_to_0x188(tmp_path):
    name = "x" * 87 + ".txt"            # 91 UTF-16 units in $FILE_NAME
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=8 * 1024 * 1024,
        files=[forge.FileSpec(name=name, file_class="document", size=500)])
    img_path = tmp_path / "long.img"
    truth = forge.build_image(spec, img_path)
    rec_off = truth.files[name].entry_offset

    img, desc = _open(img_path)
    with img:
        raw = bytearray(img.read_at(rec_off, desc.mft_record_size))
    apply_fixup(raw)
    # layout: header 0x30, std-info 0x48 long form, then $FILE_NAME of
    # 24 + (0x42 + 2*91) = 272 bytes -> $DATA lands on 0x188 exactly.
    fn_type, = struct.unpack_from("<I", raw, 0x78)
    assert fn_type == ATTR_FILE_NAME
    data_type, = struct.unpack_from("<I", raw, 0x188)
    assert data_type == ATTR_DATA


# ------------------------------------------------------------ whole images

def test_scan_walks_every_mft_slot(base_images):
    path, truth = base_images["ntfs"]
    img, desc = _open(path)
    stats = MftScanStats()
    with img:
        records = list(scan_mft(img, desc, stats))
    assert stats.file_records == len(records)
    assert stats.file_records >= 16 + len(truth.files)  # system + corpus
    assert stats.corrupt == 0
    indexes = [r.header.record_index for r in records]
    assert indexes == sorted(indexes)


def test_records_keep_their_index_across_a_sparse_mft_run(base_images,
                                                          monkeypatch):
    """A record's index is its place in the $MFT data stream.  The two
    sparse clusters stand for records 16-23, so the record at VCN 8 is
    record 32, the index the live table gives the same bytes."""
    path, _ = base_images["ntfs"]
    img, desc = _open(path)
    lcn, rs = desc.mft_lcn, desc.mft_record_size
    monkeypatch.setattr(ntfs, "mft_extent", lambda img, desc:
                        [(lcn, 4), (None, 2), (lcn + 6, 10)])
    with img:
        records = list(scan_mft(img, desc))
    base = lcn * desc.cluster_size
    by_index = {r.header.record_index: r.offset for r in records}
    assert by_index[32] == base + 32 * rs
    assert all(offset == base + index * rs
               for index, offset in by_index.items())


def test_a_record_cut_by_a_sparse_mft_run_is_not_stitched(monkeypatch,
                                                           image_of):
    """With 512 B clusters a 1 KiB record spans two clusters.  The
    sparse cluster at VCN 3 cuts record 1 in half; the run after it
    opens with record 2, read whole at its own index."""
    desc, buf = _ntfs_volume(512, [(i * 1024, _RECORD) for i in range(8)])
    monkeypatch.setattr(ntfs, "mft_extent", lambda img, desc:
                        [(0, 3), (None, 1), (4, 12)])
    stats = MftScanStats()
    with image_of(buf) as img:
        records = list(scan_mft(img, desc, stats))
    assert [(r.header.record_index, r.offset) for r in records] == \
        [(0, 0)] + [(i, i * 1024) for i in range(2, 8)]
    assert (stats.records_seen, stats.corrupt, stats.skipped) == (7, 0, 0)


def _slots_per_record(img, desc, extent):
    """Reference: map each $MFT stream cluster to its volume cluster,
    then read each record whole, dropping one that touches a sparse
    run or runs past the stream's end."""
    rs, cs = desc.mft_record_size, desc.cluster_size
    lcns = [None if first is None else first + k
            for first, count in extent for k in range(count)]
    out = []
    for index in range(len(lcns) * cs // rs):
        pieces = []
        for vcn in range(index * rs // cs, -(-(index + 1) * rs // cs)):
            if lcns[vcn] is None:
                break
            lo = max(index * rs, vcn * cs) - vcn * cs
            hi = min((index + 1) * rs, (vcn + 1) * cs) - vcn * cs
            pieces.append(img.read_at(lcns[vcn] * cs + lo, hi - lo))
        else:
            start = lcns[index * rs // cs] * cs + index * rs % cs
            out.append((index, start, b"".join(pieces)))
    return out


_MFT_CLUSTERS = 48


@st.composite
def _mft_layout(draw):
    """A cluster size, a seed for the volume's bytes, and an $MFT run
    list with sparse runs over the volume."""
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        count = draw(st.integers(min_value=1, max_value=9))
        if draw(st.booleans()):
            runs.append((None, count))
        else:
            runs.append((draw(st.integers(min_value=0,
                                          max_value=_MFT_CLUSTERS - count)),
                         count))
    return draw(st.sampled_from([512, 1024, 4096])), draw(st.integers(0, 99)), runs


@settings(max_examples=200, deadline=None)
@given(layout=_mft_layout())
@example(layout=(512, 0, [(0, 3), (None, 1), (4, 12)]))
def test_mft_slots_match_the_per_record_reference(layout, image_of):
    """Chunks of 1.5 records put chunk edges mid-record, on top of the
    run edges and sparse runs the layout draws."""
    cs, seed, extent = layout
    desc = VolumeDescriptor(kind=FsKind.NTFS, bytes_per_sector=512,
                            sectors_per_cluster=cs // 512,
                            total_sectors=_MFT_CLUSTERS * cs // 512,
                            mft_lcn=0, mft_record_size=1024)
    with image_of(random.Random(seed).randbytes(_MFT_CLUSTERS * cs)) as img:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ntfs, "mft_extent", lambda img, desc: extent)
            mp.setattr(volume, "STREAM_CHUNK", 1536)
            got = [(i, off, bytes(buf))
                   for i, off, buf in ntfs.mft_slots(img, desc)]
        assert got == _slots_per_record(img, desc, extent)


def test_the_slot_scan_numbers_records_past_a_sparse_half_record(image_of):
    """Record 0's $MFT run list is [(0, 3), (None, 1), (4, 12)] over
    512 B clusters, so the sparse cluster at VCN 3 stands for half a
    record and the record at byte 6144 is record 6 (stream offset
    6 KiB)."""
    rs, cs = 1024, 512

    def record(index, runs, real):
        return forge_write._record_bytes(index, RECORD_FLAG_IN_USE, [
            forge_write._nonresident_attr(ATTR_DATA, runs, real, cs)], rs)

    desc, buf = _ntfs_volume(cs, [
        (0, record(0, [(0, 3), (None, 1), (4, 12)], 16 * cs)),
        (6144, record(6, [(100, 3)], 1029)),
        (7168, record(7, [(200, 3)], 1029))])
    with image_of(buf) as img:
        by_index = {r.header.record_index: r.offset
                    for r in scan_mft(img, desc)}
        assert by_index[6] == 6144


def test_a_volume_sized_mft_run_is_read_a_chunk_at_a_time(base_images,
                                                          monkeypatch):
    path, truth = base_images["ntfs"]
    img, desc = _open(path)
    with img:
        want = {r.offset for r in scan_mft(img, desc)}
        monkeypatch.setattr(ntfs, "mft_extent", lambda img, desc: [
            (desc.mft_lcn, desc.total_clusters - desc.mft_lcn)])
        tracemalloc.start()
        try:
            got = {r.offset for r in scan_mft(img, desc)}
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert img.size > 4 * volume.STREAM_CHUNK
    assert peak <= 2 * volume.STREAM_CHUNK
    assert want <= got


def test_zeroed_mft_head_is_fatal(base_images, tmp_path):
    src, _ = base_images["ntfs"]
    broken = tmp_path / "broken.img"
    shutil.copy(src, broken)
    img, desc = _open(src)
    img.close()
    start = desc.mft_lcn * desc.cluster_size
    with open(broken, "r+b") as fh:
        fh.seek(start)
        fh.write(b"\x00" * desc.mft_record_size)
    img2, desc2 = _open(broken)
    with img2:
        with pytest.raises(MftError, match="MFT unreadable"):
            mft_extent(img2, desc2)


def test_torn_record_is_skipped_and_counted(image_copy, base_images):
    path, truth = image_copy("ntfs")
    rec = next(iter(truth.files.values()))
    with open(path, "r+b") as fh:
        fh.seek(rec.entry_offset + 510)
        fh.write(b"\xDE\xAD")            # break the first guard word
    img, desc = _open(path)
    stats = MftScanStats()
    with img:
        records = list(scan_mft(img, desc, stats))
    assert stats.corrupt == 1
    assert rec.entry_offset not in {r.offset for r in records}


def test_deep_scan_carves_the_readable_part_of_a_truncated_image(
        base_images, image_copy):
    # Cut the image a few clusters into its second carve batch and
    # plant a corpus file's record in that readable remainder.
    src, truth = base_images["ntfs"]
    rec = next(iter(truth.files.values()))
    img, desc = _open(src)
    with img:
        record = img.read_at(rec.entry_offset, desc.mft_record_size)
    path, _ = image_copy("ntfs", "quick-format")
    first = volume.STREAM_CHUNK // desc.cluster_size  # opens batch two
    planted = cluster_offset(desc, first + 1)
    data = bytearray(path.read_bytes()[:cluster_offset(desc, first + 3) + 1000])
    data[planted:planted + len(record)] = record
    path.write_bytes(bytes(data))
    img, desc = _open(path)
    with img:
        surv = survey(img, desc, deep=True)
    assert not surv.live_clusters[first + 1]
    carved = {(e.record_offset, e.name) for e in surv.deleted}
    assert (planted, rec.path.rsplit("/", 1)[-1]) in carved


def test_live_survey_matches_ground_truth(base_images):
    path, truth = base_images["ntfs"]
    img, desc = _open(path)
    with img:
        surv = survey(img, desc)
    assert surv.deleted == []
    names = {e.name for e in surv.live if not (e.is_system or e.is_directory)}
    assert names == {p.rsplit("/", 1)[-1] for p in truth.files}
    # live files can never be reported as deleted, whatever their content
    assert all(e.record_index not in () for e in surv.live)


def test_deleted_files_recover_byte_identical(image_copy):
    path, truth = image_copy("ntfs", "delete-all")
    img, desc = _open(path)
    with img:
        surv = survey(img, desc)
        by_name = {}
        for e in surv.deleted:
            if not e.is_directory:
                by_name.setdefault(e.name, e)
        for rec in truth.files.values():
            base = rec.path.rsplit("/", 1)[-1]
            assert base in by_name, "missing %s" % base
            entry = by_name[base]
            assert entry.confidence == "exact"  # $FILE_NAME survived
            got = recover_file(img, desc, entry,
                               live_clusters=surv.live_clusters)
            assert got.size == rec.size
            assert got.sha256 == rec.sha256
            assert (entry.resident is True) == bool(rec.resident)


def test_deleted_file_keeps_the_build_time(image_copy):
    # The forge stamps 2020-01-01 12:00:00 on FAT and NTFS alike.
    path, _ = image_copy("ntfs", "delete-all")
    img, desc = _open(path)
    with img:
        rows = undelete.scan_volume(img, desc, deep=True).listing_rows()
    row, = (r for r in rows if r["name"] == "TINY.TXT" and r["deleted"])
    assert row["modified"] == row["created"] == "2020-01-01T12:00:00Z"


def test_resident_and_nonresident_split_at_truth(image_copy):
    # Small payloads live inside the record; big ones own clusters.
    path, truth = image_copy("ntfs", "delete-all")
    img, desc = _open(path)
    with img:
        surv = survey(img, desc)
    resident = {e.name for e in surv.deleted if e.resident is True}
    for rec in truth.files.values():
        base = rec.path.rsplit("/", 1)[-1]
        if rec.resident:
            assert base in resident
            assert not rec.clusters
        else:
            assert rec.clusters


def test_three_cluster_tail_is_truncated_to_real_size(tmp_path):
    # 10,000 bytes in 4,096-byte clusters: 2 full + 1,808 in the last.
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=8 * 1024 * 1024,
        files=[forge.FileSpec(name="REPORT.PDF", file_class="document",
                              size=10_000)])
    img_path = tmp_path / "r.img"
    truth = forge.build_image(spec, img_path)
    rec = truth.files["REPORT.PDF"]
    assert sum(length for _, length in rec.clusters) == 3

    forge.apply_mutation(img_path, "delete", truth=truth, target="REPORT.PDF")
    img, desc = _open(img_path)
    with img:
        surv = survey(img, desc)
        entry = next(e for e in surv.deleted if e.name == "REPORT.PDF")
        assert sum(count for _, count in entry.runs) == 3
        sink = io.BytesIO()
        got = recover_file(img, desc, entry, sink=sink,
                           live_clusters=surv.live_clusters)
    assert len(sink.getvalue()) == 10_000
    assert got.sha256 == rec.sha256
    assert hashlib.sha256(sink.getvalue()).hexdigest() == rec.sha256


def test_record_without_file_name_gets_placeholder(image_copy):
    path, truth = image_copy("ntfs", "delete-all")
    rec = next(iter(truth.files.values()))
    img, desc = _open(path)
    with img:
        raw = bytearray(img.read_at(rec.entry_offset, desc.mft_record_size))
    img.close()
    apply_fixup(raw)
    # Overwrite the $FILE_NAME type code with a bogus one so the walk
    # still terminates but the name is gone.
    fn_off = 0x78
    type_code, = struct.unpack_from("<I", raw, fn_off)
    assert type_code == ATTR_FILE_NAME
    struct.pack_into("<I", raw, fn_off, 0x20)   # unused attribute type

    hdr = parse_record_header(bytes(raw), rec.record_index)
    entry = ntfs._entry_from_record(
        ntfs.MftRecord(header=hdr, data=bytes(raw), offset=rec.entry_offset),
        parse_attributes(bytes(raw), hdr))
    assert not entry.name_known
    assert entry.name == "record-%d" % rec.record_index
    assert entry.confidence == "heuristic"


WIN32, DOS = 1, 2     # $FILE_NAME namespaces


@pytest.mark.parametrize("namespaces", [(WIN32, DOS), (DOS, WIN32),
                                        (WIN32, WIN32)],
                         ids=["win32+dos", "dos+win32", "win32+win32"])
def test_live_and_deleted_records_list_the_same_name(tmp_path, namespaces):
    # Deleting clears one flag bit, so the name must not change with it:
    # both take the first non-DOS $FILE_NAME (a hard link's first name).
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=8 * 1024 * 1024,
        files=[forge.FileSpec(name="LINK.TXT", file_class="document",
                              size=100)])
    img_path = tmp_path / "l.img"
    truth = forge.build_image(spec, img_path)
    rec = truth.files["LINK.TXT"]
    names = ("FIRST.TXT", "SECOND.TXT")
    attrs = [forge_write._resident_attr(ATTR_STANDARD_INFORMATION,
                                        forge_write._std_info_value())]
    for name, namespace in zip(names, namespaces):
        value = bytearray(forge_write._file_name_value(
            ntfs.ROOT_RECORD, name, 100, 104, False))
        value[0x41] = namespace
        attrs.append(forge_write._resident_attr(ATTR_FILE_NAME, bytes(value)))
    attrs.append(forge_write._resident_attr(ATTR_DATA, b"x" * 100))
    with open(img_path, "r+b") as fh:
        fh.seek(rec.entry_offset)
        fh.write(forge_write._record_bytes(
            rec.record_index, RECORD_FLAG_IN_USE, attrs,
            forge_write.NTFS_RECORD_SIZE))

    def listed(deleted):
        img, desc = _open(img_path)
        with img:
            rows = undelete.scan_volume(img, desc).listing_rows()
        return [r["name"] for r in rows if r["deleted"] is deleted]

    live = listed(False)
    forge.apply_mutation(img_path, "delete", truth=truth, target="LINK.TXT")
    assert live == listed(True) == [names[namespaces.index(WIN32)]]


def test_reused_clusters_flag_overwritten_risk(tmp_path):
    # Delete BIG.BIN, then lay a live NEW.BIN record, and its content,
    # on BIG.BIN's freed run: recovery of the stale record must admit
    # the content is at risk.
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=8 * 1024 * 1024,
        files=[forge.FileSpec(name="BIG.BIN", file_class="video",
                              size=40_000, seed=1)])
    img_path = tmp_path / "o.img"
    truth = forge.build_image(spec, img_path)
    forge.apply_mutation(img_path, "delete", truth=truth, target="BIG.BIN")
    big = truth.files["BIG.BIN"]
    index = big.record_index + 1
    assert index < truth.internal["mft_slots"]
    data = b"\xA5" * 40_000
    with forge_write._Writer(path=img_path) as w:
        desc = detect_filesystem(w)
        cs, rs = desc.cluster_size, desc.mft_record_size
        rec, runs = forge_write._file_record(
            index, "NEW.BIN", ntfs.ROOT_RECORD, data, big.clusters, cs, rs)
        assert runs == big.clusters
        forge_write.write_runs(w, desc, runs, data)
        w.write(truth.internal["mft_base"] + index * rs, rec)

    img, desc = _open(img_path)
    with img:
        surv = survey(img, desc)
        entry = next(e for e in surv.deleted if e.name == "BIG.BIN")
        got = recover_file(img, desc, entry,
                           live_clusters=surv.live_clusters)
    assert "overwritten-risk" in got.flags
    # The run list itself is still certain -- the record preserves it --
    # so confidence stays "exact"; the flag carries the content doubt.
    assert got.confidence == "exact"
    assert got.sha256 != truth.files["BIG.BIN"].sha256


def test_sink_and_buffer_agree(image_copy, tmp_path):
    path, truth = image_copy("ntfs", "delete-all")
    img, desc = _open(path)
    with img:
        surv = survey(img, desc)
        entry = next(e for e in surv.deleted
                     if not e.is_directory and e.resident is False)
        hashed = recover_file(img, desc, entry,
                              live_clusters=surv.live_clusters)
        sink = io.BytesIO()
        streamed = recover_file(img, desc, entry, sink=sink,
                                live_clusters=surv.live_clusters)
    assert hashlib.sha256(sink.getvalue()).hexdigest() == hashed.sha256
    assert streamed.output_path is None   # a stream sink has no path
    assert hashed.sha256 == streamed.sha256


# ------------------------------------------------- hostile run lengths

def _patch_data_run(path, record_offset, record_size, length, lcn):
    """Rewrite a record's unnamed $DATA run list in place as one run of
    ``length`` clusters at ``lcn``, clear of the first guard word."""
    with open(path, "r+b") as fh:
        fh.seek(record_offset)
        raw = bytearray(fh.read(record_size))
        apply_fixup(raw)
        pos = parse_record_header(bytes(raw)).first_attr_offset
        while struct.unpack_from("<I", raw, pos)[0] != ATTR_DATA:
            pos += struct.unpack_from("<I", raw, pos + 4)[0]
        end = pos + struct.unpack_from("<I", raw, pos + 4)[0]
        pos += struct.unpack_from("<H", raw, pos + 0x20)[0]
        runs = forge_write.encode_data_runs([(lcn, length)])
        assert pos + len(runs) <= min(end, 510)
        fh.seek(record_offset + pos)
        fh.write(runs)


def _live_non_resident(tmp_path):
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=16 * 1024 * 1024,
        files=[forge.FileSpec(name="TINY.BIN", file_class="audio",
                              size=10_000)])
    img_path = tmp_path / "h.img"
    return img_path, forge.build_image(spec, img_path)


def test_hostile_mft_run_is_rejected_without_walking_it(tmp_path, capsys):
    # Record 0 claims 2**36 clusters on a 4,096-cluster volume: the run
    # must be refused from its two ends, not walked cluster by cluster.
    img_path, _ = _live_non_resident(tmp_path)
    img, desc = _open(img_path)
    img.close()
    _patch_data_run(img_path, desc.mft_lcn * desc.cluster_size,
                    desc.mft_record_size, 2 ** 36, desc.mft_lcn)
    start = time.perf_counter()
    code = cli.main(["scan", str(img_path)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "outside volume" in capsys.readouterr().err
    assert elapsed < 2


@pytest.mark.parametrize("length", [2 ** 22, 2 ** 32 - 1])
def test_hostile_live_run_keeps_survey_memory_bounded(tmp_path, length):
    # A live file whose run claims far more clusters than the volume has:
    # its live space is clipped to the volume in a bounded bitmap.
    img_path, truth = _live_non_resident(tmp_path)
    rec = truth.files["TINY.BIN"]
    _patch_data_run(img_path, rec.entry_offset, 1024, length,
                    rec.first_cluster)
    img, desc = _open(img_path)
    with img:
        tracemalloc.start()
        try:
            surv = survey(img, desc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= img.size
    tail = desc.total_clusters - rec.first_cluster
    assert surv.live_clusters[rec.first_cluster:] == b"\x01" * tail


def _deleted_non_resident(tmp_path):
    spec = forge.CorpusSpec(
        filesystem="ntfs", total_size=16 * 1024 * 1024,
        files=[forge.FileSpec(name="TINY.BIN", file_class="audio",
                              size=10_000)])
    img_path = tmp_path / "h.img"
    truth = forge.build_image(spec, img_path)
    forge.apply_mutation(img_path, "delete", truth=truth, target="TINY.BIN")
    img, desc = _open(img_path)
    entry = next(e for e in survey(img, desc).deleted if e.name == "TINY.BIN")
    assert entry.resident is False
    return img, desc, entry


def test_sparse_run_streams_in_bounded_memory(tmp_path):
    # 50,000 sparse 4 KiB clusters (195 MiB of zeros) behind a 10-byte
    # file: only the recorded size may be produced, in bounded chunks.
    img, desc, entry = _deleted_non_resident(tmp_path)
    hostile = replace(entry, size=10, runs=[(None, 50_000)])
    with img:
        sink = io.BytesIO()
        tracemalloc.start()
        try:
            got = recover_file(img, desc, hostile, sink=sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (got.size, sink.getvalue(), got.flags) == (10, bytes(10), [])
    assert peak < 1 << 20


@pytest.mark.parametrize("lcn", [None, 100])
def test_run_length_near_two_to_the_32_stays_bounded(tmp_path, lcn):
    img, desc, entry = _deleted_non_resident(tmp_path)
    hostile = replace(entry, size=10, runs=[(lcn, 2 ** 32 - 1)])
    with img:
        sink = io.BytesIO()
        got = recover_file(img, desc, hostile, sink=sink)
        want = bytes(10) if lcn is None else \
            img.read_at(lcn * desc.cluster_size, 10)
    assert (got.size, sink.getvalue()) == (10, want)
    if lcn is not None:
        # The run is clipped to the volume, not read to its claimed end.
        assert got.flags == ["partial"]
        assert got.confidence == "partial"
        assert got.source["clusters"] == [[lcn, desc.total_clusters - lcn]]


# ------------------------------------------------- strided carve vs per-slot

def _carve_per_slot(img, desc, known_offsets, skip_clusters, stats):
    """Reference: the carve as one signature compare per record slot."""
    record_size = desc.mft_record_size
    cs = desc.cluster_size
    step = min(record_size, cs)
    total = desc.total_clusters
    batch_clusters = max(1, volume.STREAM_CHUNK // cs)
    for start in range(0, total, batch_clusters):
        count = min(batch_clusters, total - start)
        base = cluster_offset(desc, start)
        chunk = img.read_at(base, count * cs)
        view = memoryview(chunk)
        for ci in range(count):
            cluster = start + ci
            if skip_clusters[cluster]:
                continue
            coff = ci * cs
            for slot in range(0, cs, step):
                pos = coff + slot
                if view[pos:pos + 4] != ntfs.FILE_SIGNATURE:
                    continue
                abs_off = base + pos
                if abs_off in known_offsets:
                    continue
                if pos + record_size > len(chunk):
                    have = len(chunk) - pos
                    try:
                        tail = img.read_at(abs_off + have, record_size - have)
                    except VolumeError:
                        continue
                    buf = bytes(view[pos:]) + tail
                else:
                    buf = bytes(view[pos:pos + record_size])
                raw = bytearray(buf)
                try:
                    apply_fixup(raw)
                    hdr = parse_record_header(bytes(raw), -1)
                except MftError:
                    continue
                stats.carve_candidates += 1
                yield ntfs.MftRecord(hdr, bytes(raw), abs_off, orphaned=True)


def _ntfs_volume(cs, plants):
    """Geometry and bytes of a volume of one STREAM_CHUNK batch plus
    20 KiB of ``cs``-byte clusters, 1 KiB records, (offset, bytes)
    planted."""
    clusters = volume.STREAM_CHUNK // cs + 40 * 512 // cs
    buf = bytearray(clusters * cs)
    for pos, blob in plants:
        buf[pos:pos + len(blob)] = blob[:len(buf) - pos]
    desc = VolumeDescriptor(kind=FsKind.NTFS, bytes_per_sector=512,
                            sectors_per_cluster=cs // 512,
                            total_sectors=clusters * cs // 512,
                            mft_lcn=0, mft_record_size=1024)
    return desc, bytes(buf)


_BATCH_END = volume.STREAM_CHUNK
_VOLUME_END = _BATCH_END + 40 * 512


@st.composite
def _planted_volume(draw):
    """Valid, torn and 'F'-led junk records, on or off slot boundaries,
    mostly near the batch edge and the volume's end.  With 512 B clusters
    a 1 KiB record spans two clusters, so one can straddle the batch edge
    and one can run off the end; with 4 KiB clusters four slots share
    one cluster.  ``known`` and ``skip`` mark some of the planted ones."""
    cs = draw(st.sampled_from([512, 4096]))
    edge = [0, _BATCH_END - 1024, _VOLUME_END - 1024]
    plants = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        pos = (draw(st.sampled_from(edge))
               + 512 * draw(st.integers(min_value=0, max_value=2)))
        if draw(st.booleans()):
            pos = 512 * draw(st.integers(min_value=0,
                                         max_value=_VOLUME_END // 512 - 1))
        pos = min(_VOLUME_END - 1, pos + draw(st.sampled_from([0, 0, 1, 4])))
        kind = draw(st.sampled_from(["record", "torn", "f-junk", "zeros"]))
        if kind == "record":
            blob = bytes(_blank_record(flags=draw(st.sampled_from([0, 1, 3]))))
        elif kind == "torn":
            blob = bytearray(_blank_record())
            blob[510] ^= 0xFF
        elif kind == "f-junk":
            blob = b"F" + draw(st.binary(min_size=0, max_size=8))
        else:
            blob = bytes(draw(st.integers(min_value=1, max_value=1024)))
        plants.append((pos, blob))
    offsets = [pos for pos, _ in plants]
    skip = draw(st.sets(st.sampled_from([o // cs for o in offsets]),
                        max_size=3))
    known = draw(st.sets(st.sampled_from(offsets), max_size=3))
    return _ntfs_volume(cs, plants), known, skip


_RECORD = bytes(_blank_record())


@settings(max_examples=100, deadline=None)
@given(volume=_planted_volume())
@example(volume=(_ntfs_volume(512, [(_BATCH_END - 512, _RECORD),
                                    (_VOLUME_END - 512, _RECORD),
                                    (_VOLUME_END - 2048, _RECORD),
                                    (_VOLUME_END - 4096, _RECORD)]),
                 {_VOLUME_END - 4096}, set()))
@example(volume=(_ntfs_volume(4096, [(_BATCH_END - 1024, _RECORD),
                                     (_BATCH_END + 3072, _RECORD)]),
                 set(), {_BATCH_END // 4096}))
def test_strided_carve_matches_the_per_slot_reference(volume, image_of):
    (desc, buf), known, skip_set = volume
    skip = bytearray(desc.total_clusters)
    for cluster in skip_set:
        skip[cluster] = 1
    want_stats, got_stats = MftScanStats(), MftScanStats()
    with image_of(buf) as img:
        want = list(_carve_per_slot(img, desc, known, skip, want_stats))
        got = list(ntfs.carve_records(img, desc, known, skip, got_stats))
    assert got == want
    assert got_stats == want_stats
