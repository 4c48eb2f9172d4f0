"""The filesystem-neutral pipeline shared by scan and recover."""

import hashlib
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from remnant import forge, undelete
from remnant.filetypes import MAGIC_TABLE, classify
from remnant.undelete import output_name, recover_all, scan_volume
from remnant.volume import (
    HEAD_BYTES,
    STREAM_CHUNK,
    FsKind,
    cluster_extents,
    detect_filesystem,
    merge_runs,
    open_image,
)


# ------------------------------------------------------------ output names

def test_output_name_flattens_the_volume_path():
    taken = set()
    assert output_name("DATA", "REPORT.PDF", taken) == "DATA_REPORT.PDF"
    assert output_name("", "TINY.TXT", taken) == "TINY.TXT"


def test_output_name_strips_hostile_characters():
    taken = set()
    got = output_name("", 'a/b\\c:d*e?f"g<h>i|j.txt', taken)
    assert not any(ch in got for ch in '/\\:*?"<>|')
    assert got.endswith(".txt")
    assert output_name("", "...", set()) == "unnamed"


def test_output_name_numbers_collisions():
    taken = set()
    assert output_name("", "_ILE.BIN", taken) == "_ILE.BIN"
    assert output_name("", "_ILE.BIN", taken) == "_ILE.1.BIN"
    assert output_name("", "_ILE.BIN", taken) == "_ILE.2.BIN"
    # Collisions are case-insensitive: FAT names often differ by case only.
    assert output_name("", "_ile.bin", taken) == "_ile.3.bin"


@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=40))
def test_output_names_never_collide(names):
    taken = set()
    out = [output_name("", n, taken) for n in names]
    assert len(set(s.lower() for s in out)) == len(out)
    for s in out:
        assert s
        assert not any(ch in s for ch in '/\\:*?"<>|\x00')


# ------------------------------------------------------------- scan result

@pytest.mark.parametrize("fs", ["fat32", "ntfs"])
def test_listing_is_stable_and_live_first(image_copy, fs):
    path, truth = image_copy(fs, "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        rows_a = scan_volume(img, desc).listing_rows()
        rows_b = scan_volume(img, desc).listing_rows()
    assert rows_a == rows_b
    # All live rows precede all deleted rows.
    states = [r["deleted"] for r in rows_a]
    assert states == sorted(states)
    deleted = [r for r in rows_a if r["deleted"]]
    assert len(deleted) >= len(truth.files)
    for r in deleted:
        assert r["entry"]
        assert r["confidence"]


def test_scan_files_property_excludes_directories(image_copy):
    path, _ = image_copy("fat32", "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc)
    assert all(not c.is_directory for c in scan.files)
    assert len(scan.files) <= len(scan.candidates)


def test_recover_all_reports_truth_hits(image_copy, tmp_path):
    path, truth = image_copy("ntfs", "delete-all")
    hashes = {r.sha256 for r in truth.files.values()}
    out = tmp_path / "out"
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc)
        recovered, errors = recover_all(img, scan, out_dir=str(out),
                                        truth_hashes=hashes)
    assert errors == []
    assert len(recovered) >= len(truth.files)
    assert sum(1 for r in recovered if r.byte_identical) == len(truth.files)
    for r in recovered:
        written = (out / r.output_path).read_bytes()
        assert hashlib.sha256(written).hexdigest() == r.sha256


def test_a_plan_streamed_without_a_sink_is_only_hashed(image_copy,
                                                       tmp_path):
    path, _ = image_copy("fat16", "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc)
        written, errors = recover_all(img, scan, out_dir=str(tmp_path / "out"))
        hashed = [undelete.plan_one(img, scan, c).stream(img)
                  for c in scan.files]
    assert errors == []
    assert [r.sha256 for r in hashed] == [r.sha256 for r in written]
    assert all(r.output_path is None for r in hashed)
    assert all(r.byte_identical is None for r in written)


def test_parallel_recovery_preserves_scan_order(image_copy, tmp_path):
    path, _ = image_copy("fat32", "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc)
        one, _ = recover_all(img, scan, out_dir=str(tmp_path / "a"), jobs=1)
        four, _ = recover_all(img, scan, out_dir=str(tmp_path / "b"), jobs=4)
    assert [(r.name, r.sha256) for r in one] == \
        [(r.name, r.sha256) for r in four]


def _deleted_files(tmp_path, count=3):
    """A FAT16 image whose ``count`` files, all in one directory, are
    all deleted."""
    spec = forge.CorpusSpec(
        filesystem="fat16", total_size=8 << 20,
        files=[forge.FileSpec("F%d.BIN" % i, "document", 5000 + i, seed=i,
                              parent="DATA")
               for i in range(count)])
    path = tmp_path / "deleted.img"
    truth = forge.build_image(spec, path)
    forge.apply_mutation(path, "delete-all", truth=truth)
    return path


def test_the_pool_starts_no_more_workers_than_files(tmp_path, monkeypatch):
    path = _deleted_files(tmp_path)
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    with open_image(path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        one, _ = recover_all(img, scan, out_dir=str(tmp_path / "a"), jobs=1)
        monkeypatch.setattr(threading.Thread, "start", start)
        eight, _ = recover_all(img, scan, out_dir=str(tmp_path / "b"), jobs=8)
    assert len(one) == 3
    assert 1 <= len(started) <= 3
    row = lambda r: {**r.to_dict(), "output": os.path.basename(r.output_path)}
    assert [row(r) for r in eight] == [row(r) for r in one]
    for a, b in zip(one, eight):
        with open(a.output_path, "rb") as fa, open(b.output_path, "rb") as fb:
            assert fa.read() == fb.read()


def test_many_workers_recover_every_file_once(tmp_path):
    """More workers than cores, switching threads as often as the
    interpreter allows: every file is still taken by exactly one worker
    and lands in its own report slot."""
    path = _deleted_files(tmp_path, count=200)
    with open_image(path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        one, _ = recover_all(img, scan, out_dir=str(tmp_path / "a"), jobs=1)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(
                recover_all(img, scan, out_dir=str(tmp_path / "b"), jobs=8)),
                daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not worker.is_alive()
    (many, errors), = result
    assert errors == [] and len(one) == 200
    assert [(r.name, r.sha256) for r in many] == \
        [(r.name, r.sha256) for r in one]
    assert len(os.listdir(tmp_path / "b")) == 200


def test_the_pool_holds_no_work_item_per_file(tmp_path):
    """Two workers hold about what one does: the pool queues no work
    item per file (400 futures held some 680 KiB)."""
    path = _deleted_files(tmp_path, count=400)
    with open_image(path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        recover_all(img, scan, out_dir=str(tmp_path / "warm"), jobs=2)
        peaks = []
        for jobs in (1, 2):
            tracemalloc.start()
            try:
                recover_all(img, scan, out_dir=str(tmp_path / str(jobs)),
                            jobs=jobs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 128 * 1024


def test_an_output_that_cannot_be_opened_stops_the_pool(tmp_path):
    path = _deleted_files(tmp_path)
    out = tmp_path / "out"
    with open_image(path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        # The second file's output name is taken by a directory.
        cand = scan.files[1]
        (out / output_name(cand.path, cand.name, set())).mkdir(parents=True)
        raised = []

        def run():
            try:
                recover_all(img, scan, out_dir=str(out), jobs=2)
            except OSError as exc:
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(raised) == 1 and isinstance(raised[0], IsADirectoryError)


def test_ntfs_candidates_resolve_one_parent_level(image_copy):
    path, truth = image_copy("ntfs", "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc)
    dirs = {p.rpartition("/")[0] for p in truth.files if "/" in p}
    seen = {c.path for c in scan.files}
    for d in dirs:
        assert d in seen, "no candidate carries directory %r" % d


# ------------------------------------------------- streamed recovery

def _read_clusters(img, desc, clusters):
    """Every cluster checked first, then the runs read into one buffer."""
    extents = cluster_extents(img, desc,
                              merge_runs((c, 1) for c in clusters))
    return b"".join(img.read_at(offset, length) for offset, length in extents)


def _recover_buffered(img, scan, entry):
    """Reference: the whole-payload recovery that streaming replaced --
    read every cluster into one buffer, cut it to size, hash it."""
    desc = scan.desc
    flags = []
    confidence = entry.confidence
    if desc.kind is FsKind.NTFS:
        clusters_used = []
        if entry.resident is None:
            data = b""
            if entry.size:
                flags.append("no-data-stream")
        elif entry.resident:
            data = entry.payload or b""
        else:
            parts = []
            total = desc.total_clusters
            for lcn, length in entry.runs:
                if lcn is None:
                    parts.append(b"\x00" * (length * desc.cluster_size))
                    continue
                end = lcn + length
                readable_end = min(end, total)
                if lcn >= total:
                    flags.append("partial")
                    break
                if readable_end < end and "partial" not in flags:
                    flags.append("partial")
                span = range(lcn, readable_end)
                parts.append(_read_clusters(img, desc, span))
                clusters_used.extend(span)
                if readable_end < end:
                    break
            data = b"".join(parts)
            if len(data) < entry.size and "partial" not in flags:
                flags.append("truncated")
            data = data[:entry.size]
            if "partial" in flags:
                confidence = "partial"
            if any(scan.live_clusters[c] for c in clusters_used):
                flags.append("overwritten-risk")
        name = entry.name
    else:
        clusters_used = [c for first, count in entry.chain
                         for c in range(first, first + count)]
        data = _read_clusters(img, desc, clusters_used)
        flags = list(entry.flags)
        if len(data) < entry.size and "truncated" not in flags:
            flags.append("truncated")
        data = data[:entry.size]
        name = entry.name
    for fl in entry.flags:
        if fl not in flags:
            flags.append(fl)
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data),
            "flags": flags, "confidence": confidence,
            "source": {"filesystem": desc.kind.value, "entry": entry.entry_id,
                       "clusters": merge_runs((c, 1)
                                              for c in clusters_used)},
            "class": classify(data, name), "data": data}


@pytest.mark.parametrize("fs", ["fat12", "fat16", "fat32", "ntfs"])
# A full overwrite leaves no candidate to compare.
@pytest.mark.parametrize("mutation", ["delete-all", "quick-format"])
def test_streamed_recovery_matches_the_buffered_reference(image_copy, fs,
                                                          mutation, tmp_path):
    path, _ = image_copy(fs, mutation)
    dest = tmp_path / "out.bin"
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc, deep=True)
        assert scan.files
        for cand in scan.files:
            want = _recover_buffered(img, scan, cand)
            got = undelete.recover_one(img, undelete.plan_one(img, scan, cand),
                                       str(dest))
            assert (got.sha256, got.size, got.flags, got.confidence,
                    got.source, got.file_class, dest.read_bytes()) == (
                want["sha256"], want["size"], want["flags"],
                want["confidence"], want["source"], want["class"],
                want["data"]), cand.entry_id


def _is_sub_list(part, whole) -> bool:
    """Whether ``part``'s items all appear in ``whole``, in order."""
    rest = iter(whole)
    return all(item in rest for item in part)


@pytest.mark.parametrize("fs", ["fat12", "fat16", "fat32", "ntfs"])
@pytest.mark.parametrize("mutation", ["delete-all", "quick-format"])
def test_scan_flags_are_a_sub_list_of_the_recover_flags(image_copy, fs,
                                                        mutation):
    path, _ = image_copy(fs, mutation)
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc, deep=True)
        listed = {r["entry"]: r["flags"] for r in scan.listing_rows()
                  if r["deleted"]}
        plans = [undelete.plan_one(img, scan, e) for e in scan.files]
    assert plans
    for plan in plans:
        flags = listed[plan.source["entry"]]
        assert _is_sub_list(flags, plan.flags), plan.source["entry"]
        if fs != "ntfs":
            assert flags == plan.flags, plan.source["entry"]


def test_a_first_cluster_past_the_heap_scans_as_it_recovers(image_copy,
                                                            tmp_path):
    # FAT16 0xFFF0 is a reserved value, not a heap cluster: no byte of
    # the file can be read, and scan and recover both say so.
    path, truth = image_copy("fat16", "delete-all")
    offset = truth.files["DATA/REPORT.PDF"].entry_offset
    with open(path, "r+b") as fh:
        fh.seek(offset + 0x1A)
        fh.write((0xFFF0).to_bytes(2, "little"))
    entry_id = "entry@0x%x" % offset
    with open_image(path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        row, = (r for r in scan.listing_rows() if r["entry"] == entry_id)
        recovered, errors = recover_all(img, scan, out_dir=str(tmp_path))
    got, = (r for r in recovered if r.source["entry"] == entry_id)
    assert errors == []
    assert row["flags"] == got.flags == ["bad-first-cluster", "truncated"]
    assert (got.size, got.source["clusters"]) == (0, [])


def test_classification_sees_every_magic_prefix():
    assert max(len(magic) for magic, _ in MAGIC_TABLE) <= HEAD_BYTES


def test_plan_failure_takes_no_output_name(image_copy, tmp_path):
    # A candidate that fails to plan ahead of a namesake must not push
    # the namesake onto a numbered name.
    path, _ = image_copy("fat16", "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        scan = scan_volume(img, desc)
        good = scan.files[0]
        bad = replace(good, chain=[[desc.max_cluster + 1, 1]])
        scan.candidates.insert(scan.candidates.index(good), bad)
        recovered, errors = recover_all(img, scan, out_dir=str(tmp_path))
    assert errors == [(bad, "cluster %d outside heap"
                       % (desc.max_cluster + 1))]
    first = next(r for r in recovered if r.source["entry"] == good.entry_id)
    assert os.path.basename(first.output_path) == \
        output_name(good.path, good.name, set())
    assert len(recovered) == len(scan.files) - 1


def test_recovery_memory_does_not_grow_with_the_bytes_recovered(tmp_path):
    spec = forge.CorpusSpec(
        filesystem="fat32", total_size=48 << 20,
        files=[forge.FileSpec("BIG%d.BIN" % i, "video", 2 << 20, seed=i)
               for i in range(8)])
    img_path = tmp_path / "big.img"
    truth = forge.build_image(spec, img_path)
    forge.apply_mutation(img_path, "delete-all", truth=truth)
    with open_image(img_path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        tracemalloc.start()
        try:
            recovered, errors = recover_all(
                img, scan, out_dir=str(tmp_path / "out"), jobs=2,
                truth_hashes={t.sha256 for t in truth.files.values()})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert errors == []
    assert sum(r.byte_identical for r in recovered) == 8
    for r in recovered:
        with open(r.output_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == r.sha256
    assert peak < 3 * STREAM_CHUNK


def test_recovering_one_large_file_holds_one_chunk_at_a_time(tmp_path):
    spec = forge.CorpusSpec(
        filesystem="fat32", total_size=64 << 20,
        files=[forge.FileSpec("BIG.BIN", "video", 32 << 20, seed=1)])
    img_path = tmp_path / "big.img"
    truth = forge.build_image(spec, img_path)
    forge.apply_mutation(img_path, "delete-all", truth=truth)
    with open_image(img_path) as img:
        scan = scan_volume(img, detect_filesystem(img))
        tracemalloc.start()
        try:
            recovered, errors = recover_all(
                img, scan, out_dir=str(tmp_path / "out"), jobs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert errors == []
    assert [r.sha256 for r in recovered] == \
        [t.sha256 for t in truth.files.values()]
    assert peak < 6 << 20
