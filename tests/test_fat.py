"""FAT directory parsing, chain reconstruction, and carving."""

import hashlib
import io
import struct
import time
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from remnant import fat as fatmod
from remnant import forge, volume
from remnant.fat import (
    ATTR_ARCHIVE,
    ATTR_DIRECTORY,
    ATTR_LFN,
    DELETED_MARK,
    FatDirEntry,
    FatTable,
    find_deleted,
    parse_dir_slots,
    reconstruct_chain,
    recover_file,
    survey,
)
from remnant.undelete import scan_volume
from remnant.volume import (
    CorruptBootRecord,
    FsKind,
    VolumeDescriptor,
    cluster_offset,
    detect_filesystem,
    merge_runs,
    open_image,
)


def _entry(raw_name, attr=ATTR_ARCHIVE, first_cluster=2, size=0, offset=0x1000):
    return FatDirEntry(
        raw_name=raw_name,
        attr=attr,
        created_time=0,
        created_date=0,
        modified_time=0,
        modified_date=0,
        first_cluster=first_cluster,
        size=size,
        entry_offset=offset,
    )


# ------------------------------------------------------------ dir entries

def test_deleted_first_byte_renders_as_underscore():
    e = _entry(b"\xE5EPORT  PDF")
    assert e.deleted
    assert e.short_name == "_EPORT.PDF"


def test_live_name_trims_padding():
    e = _entry(b"NOTES   TXT")
    assert not e.deleted
    assert e.short_name == "NOTES.TXT"
    e = _entry(b"NOEXT      ")
    assert e.short_name == "NOEXT"


def test_kanji_lead_byte_is_an_escape_not_a_deletion():
    # 0x05 stores a real leading 0xE5 byte; the entry is live.
    e = _entry(b"\x05BC     TXT")
    assert not e.deleted
    assert e.short_name == "\xe5BC.TXT"


def test_dot_entries_are_recognized():
    assert _entry(b".          ", attr=ATTR_DIRECTORY).is_dot
    assert _entry(b"..         ", attr=ATTR_DIRECTORY).is_dot
    assert not _entry(b"A          ").is_dot


def _lfn_slot(seq, chunk, last=False):
    """Forge one 13-char long-name fragment slot."""
    raw = bytearray(32)
    raw[0] = seq | (0x40 if last else 0)
    raw[11] = ATTR_LFN
    raw[26:28] = b"\x00\x00"
    units = chunk.ljust(13, "￿")[:13]
    enc = units.encode("utf-16-le")
    raw[1:11] = enc[0:10]
    raw[14:26] = enc[10:22]
    raw[28:32] = enc[22:26]
    return bytes(raw)


def test_lfn_fragments_fold_into_following_entry():
    name = "Quarterly Report 2019.pdf"  # 25 chars -> two fragments
    slots = [
        (0x800, _lfn_slot(2, name[13:] + "\x00", last=True)),
        (0x820, _lfn_slot(1, name[:13])),
        (0x840, _entry(b"QUARTE~1PDF", size=100).raw_name and
                struct.pack("<11sBBBHHHHHHHI", b"QUARTE~1PDF", ATTR_ARCHIVE,
                            0, 0, 0, 0, 0, 0, 0, 0, 3, 100)),
    ]
    entries = parse_dir_slots(slots, "", FsKind.FAT16)
    assert len(entries) == 1
    assert entries[0].lfn_name == name
    assert entries[0].name == name


def test_deleted_lfn_fragments_reassemble_in_reverse_order():
    # Deletion overwrote both sequence bytes with 0xE5, so ordering
    # falls back to reverse physical order (last fragment first on disk).
    name = "summer holiday photos.jpeg"
    f2 = bytearray(_lfn_slot(2, name[13:] + "\x00", last=True))
    f1 = bytearray(_lfn_slot(1, name[:13]))
    f2[0] = f1[0] = DELETED_MARK
    short = struct.pack("<11sBBBHHHHHHHI", b"\xE5UMMER~1JPE", ATTR_ARCHIVE,
                        0, 0, 0, 0, 0, 0, 0, 0, 9, 4096)
    entries = parse_dir_slots(
        [(0, bytes(f2)), (32, bytes(f1)), (64, short)], "", FsKind.FAT16)
    assert len(entries) == 1
    assert entries[0].deleted
    assert entries[0].lfn_name == name


def test_end_marker_stops_the_walk():
    live = struct.pack("<11sBBBHHHHHHHI", b"KEEP    TXT", ATTR_ARCHIVE,
                       0, 0, 0, 0, 0, 0, 0, 0, 2, 10)
    gone = struct.pack("<11sBBBHHHHHHHI", b"LOST    TXT", ATTR_ARCHIVE,
                       0, 0, 0, 0, 0, 0, 0, 0, 3, 10)
    slots = [(0, live), (32, b"\x00" * 32), (64, gone)]
    entries = parse_dir_slots(slots, "", FsKind.FAT16)
    assert [e.short_name for e in entries] == ["KEEP.TXT"]


def test_fat32_entries_use_the_high_cluster_word():
    raw = bytearray(struct.pack("<11sBBBHHHHHHHI", b"BIG     BIN",
                                ATTR_ARCHIVE, 0, 0, 0, 0, 0, 0, 0, 0, 5, 64))
    struct.pack_into("<H", raw, 0x14, 0x0002)  # high word
    entries = parse_dir_slots([(0, bytes(raw))], "", FsKind.FAT32)
    assert entries[0].first_cluster == (2 << 16) | 5
    # ... but FAT16 must ignore it (the field is repurposed there)
    entries = parse_dir_slots([(0, bytes(raw))], "", FsKind.FAT16)
    assert entries[0].first_cluster == 5


# ------------------------------------------------------ chain hypothesis

def _desc16(cluster_count=62, spc=1):
    return VolumeDescriptor(
        kind=FsKind.FAT16,
        bytes_per_sector=512,
        sectors_per_cluster=spc,
        total_sectors=cluster_count * spc + 8,
        reserved_sectors=1,
        num_fats=1,
        sectors_per_fat=1,
        root_entries=16,
        root_dir_sector=2,
        first_data_sector=3,
        cluster_count=cluster_count,
    )


def _table(cluster_count=62):
    return FatTable(FsKind.FAT16, [0] * (cluster_count + 2))


def _bitmap(desc, clusters=()):
    """An allocation bitmap over ``desc``'s heap with ``clusters`` set."""
    bitmap = bytearray(desc.max_cluster + 1)
    for c in clusters:
        bitmap[c] = 1
    return bitmap


def _expand(runs):
    """The cluster sequence that [first, count] runs describe."""
    return [c for first, count in runs for c in range(first, first + count)]


def test_chain_all_free_is_exact():
    desc, fat = _desc16(), _table()
    chain, conf, flags = reconstruct_chain(5, 1200, fat, desc, _bitmap(desc))
    assert _expand(chain) == [5, 6, 7]          # ceil(1200 / 512) clusters
    assert conf == "exact"
    assert flags == []


def test_chain_single_cluster_file():
    desc, fat = _desc16(), _table()
    chain, conf, flags = reconstruct_chain(9, 1, fat, desc, _bitmap(desc))
    assert _expand(chain) == [9]
    assert conf == "exact"


def test_chain_zero_size_is_trivially_exact():
    desc, fat = _desc16(), _table()
    assert reconstruct_chain(5, 0, fat, desc, _bitmap(desc)) == \
        ([], "exact", [])


def test_chain_skips_live_cluster_and_admits_guesswork():
    desc, fat = _desc16(), _table()
    fat.entries[6] = 0xFFFF            # someone else owns cluster 6 now
    chain, conf, flags = reconstruct_chain(5, 1200, fat, desc,
                                           _bitmap(desc, {6}))
    assert _expand(chain) == [5, 7, 8]
    assert conf == "contiguous-heuristic"
    assert flags == []


def test_chain_overwritten_head_is_fragmented_unknown():
    desc, fat = _desc16(), _table()
    for c in (5, 6):
        fat.entries[c] = 0xFFFF
    chain, conf, flags = reconstruct_chain(5, 1200, fat, desc,
                                           _bitmap(desc, {5, 6}))
    assert conf == "fragmented-unknown"
    assert "overwritten-risk" in flags
    assert _expand(chain) == [5, 6, 7]          # raw contiguous run, best effort


def test_chain_dangling_allocation_is_followed_exactly():
    # First cluster still allocated but owned by no live file: the
    # original chain survives in the table, fragmentation included.
    desc, fat = _desc16(), _table()
    fat.entries[5] = 9
    fat.entries[9] = 10
    fat.entries[10] = 0xFFFF
    chain, conf, flags = reconstruct_chain(5, 1300, fat, desc, _bitmap(desc))
    assert _expand(chain) == [5, 9, 10]
    assert conf == "exact"
    assert flags == []


def test_chain_truncates_at_end_of_heap():
    desc, fat = _desc16(), _table()
    first = desc.max_cluster - 1       # room for 2 of the 4 needed
    chain, conf, flags = reconstruct_chain(first, 2048, fat, desc,
                                           _bitmap(desc))
    assert _expand(chain) == [first, first + 1]
    assert "truncated" in flags


def test_chain_bad_first_cluster():
    desc, fat = _desc16(), _table()
    for bad in (0, 1, desc.cluster_count + 5):
        chain, conf, flags = reconstruct_chain(bad, 100, fat, desc,
                                               _bitmap(desc))
        assert _expand(chain) == []
        assert conf == "fragmented-unknown"
        assert flags == ["bad-first-cluster"]


@given(size=st.integers(min_value=1, max_value=62 * 512))
def test_chain_length_matches_ceil_division(size):
    desc, fat = _desc16(), _table()
    chain, conf, _ = reconstruct_chain(2, size, fat, desc, _bitmap(desc))
    assert len(_expand(chain)) == (size + 511) // 512
    assert conf == "exact"


# ---------------------------------------------- run chains vs per-cluster

def _chain_from_per_cluster(fat, first, limit=None):
    """Reference: the per-cluster live-chain walk the run walk replaced."""
    chain, seen = [], set()
    c = first
    cap = limit if limit is not None else len(fat.entries)
    while fat.in_heap(c) and c not in seen and len(chain) < cap:
        seen.add(c)
        chain.append(c)
        value = fat.entries[c]
        if fat.is_eoc(value):
            return chain, True
        if value == 0 or value == fatmod._BAD[fat.kind]:
            return chain, False
        c = value
    return chain, False


def _reconstruct_per_cluster(first_cluster, size, fat, desc, live):
    """Reference: the per-cluster chain hypothesis the runs replaced;
    ``live`` is a set of cluster numbers."""
    if size == 0:
        return [], "exact", []
    needed = -(-size // desc.cluster_size)
    if not fat.in_heap(first_cluster):
        return [], "fragmented-unknown", ["bad-first-cluster"]
    top = desc.max_cluster
    if not fat.is_free(first_cluster):
        if first_cluster not in live:
            chain, ended = _chain_from_per_cluster(fat, first_cluster, needed)
            flags = [] if (ended or len(chain) == needed) else ["truncated"]
            return chain, "exact", flags
        chain = list(range(first_cluster, min(first_cluster + needed, top + 1)))
        flags = ["overwritten-risk"]
        if len(chain) < needed:
            flags.append("truncated")
        return chain, "fragmented-unknown", flags
    chain = []
    skipped = False
    c = first_cluster
    while len(chain) < needed and c <= top:
        if fat.is_free(c):
            chain.append(c)
        else:
            skipped = True
        c += 1
    flags = ["truncated"] if len(chain) < needed else []
    return chain, "contiguous-heuristic" if skipped else "exact", flags


_SMALL_HEAP = 40
_SLOTS = _SMALL_HEAP + 2                   # table entries, 0 and 1 reserved


@st.composite
def _fat16_case(draw):
    """A FAT16 table of free, contiguous, jumping (back into the chain,
    out of the heap, onto reserved slots), end-of-chain and bad entries,
    so dangling, cyclic and heap-edge chains all occur; a first cluster
    (often near the heap's end), a size and a set of live clusters."""
    entries = [0xFFF8, 0xFFFF]
    for c in range(2, _SLOTS):
        kind = draw(st.sampled_from(
            ["free", "free", "next", "next", "next", "jump", "eoc", "bad"]))
        if kind == "free":
            entries.append(0)
        elif kind == "next":
            entries.append(c + 1)                 # the last one leaves the heap
        elif kind == "jump":
            entries.append(draw(st.integers(0, _SLOTS + 2)))
        elif kind == "eoc":
            entries.append(draw(st.integers(0xFFF8, 0xFFFF)))
        else:
            entries.append(0xFFF7)
    first = draw(st.one_of(st.integers(0, _SLOTS + 2),
                           st.integers(_SLOTS - 4, _SLOTS - 1)))
    size = draw(st.integers(0, (_SLOTS + 2) * 512))
    live = draw(st.sets(st.integers(2, _SLOTS - 1)))
    return entries, first, size, live


@settings(max_examples=400, deadline=None)
@given(case=_fat16_case(), limit=st.one_of(st.none(), st.integers(1, 50)))
# A chain that loops back into the middle of an earlier run.
@example(case=([0xFFF8, 0xFFFF, 3, 4, 5, 3] + [0] * (_SLOTS - 6), 2, 3000,
               set()), limit=None)
def test_run_chains_match_the_per_cluster_reference(case, limit):
    entries, first, size, live = case
    desc, fat = _desc16(cluster_count=_SMALL_HEAP), FatTable(FsKind.FAT16,
                                                             entries)
    chain, ended = _chain_from_per_cluster(fat, first, limit)
    assert fat.chain_from(first, limit) == (
        merge_runs((c, 1) for c in chain), ended)
    chain, conf, flags = _reconstruct_per_cluster(first, size, fat, desc, live)
    assert reconstruct_chain(first, size, fat, desc, _bitmap(desc, live)) == \
        (merge_runs((c, 1) for c in chain), conf, flags)


def test_a_descending_chain_walks_in_linear_time():
    # A FAT32 chain stepping down one cluster at a time is a run per
    # cluster, so a walk that searches its runs at each step is
    # quadratic.  It passes cluster 0xFFF7, FAT16's bad mark, which is
    # an ordinary link on FAT32.
    runs = 200_000
    top = runs + 3
    entries = array("I", [0]) * (top + 1)
    for c in range(5, top + 1):
        entries[c] = c - 1
    entries[4] = 0x0FFFFFFF
    fat = FatTable(FsKind.FAT32, entries)
    start = time.perf_counter()
    got = fat.chain_from(top)
    elapsed = time.perf_counter() - start
    chain, ended = _chain_from_per_cluster(fat, top)
    assert got == (merge_runs((c, 1) for c in chain), ended)
    assert len(got[0]) == runs and ended
    assert not any(fat.visited)                # cleared for the next walk
    assert elapsed < 2.0


# ------------------------------------------------------- whole images

def _survey_path(path, deep=False):
    with open_image(path) as img:
        desc = detect_filesystem(img)
        surv = survey(img, desc, deep=deep)
        return img, desc, surv  # img is closed; callers reopen for reads


@pytest.mark.parametrize("fs", ["fat12", "fat16", "fat32"])
def test_live_survey_matches_ground_truth(base_images, fs):
    path, truth = base_images[fs]
    with open_image(path) as img:
        desc = detect_filesystem(img)
        surv = survey(img, desc)
    assert surv.warnings == []
    live = {
        ("%s/%s" % (e.path, e.name)) if e.path else e.name
        for e in surv.entries
        if not (e.deleted or e.is_label or e.is_dot or e.is_directory)
    }
    assert live == set(truth.files)
    assert find_deleted(surv, desc) == []


@pytest.mark.parametrize("fs", ["fat12", "fat16", "fat32"])
def test_deleted_files_recover_byte_identical(image_copy, fs):
    path, truth = image_copy(fs, "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        surv = survey(img, desc)
        found = [d for d in find_deleted(surv, desc) if not d.is_directory]
        assert len(found) >= len(truth.files)
        for path_, rec in truth.files.items():
            parent, _, base = path_.rpartition("/")
            match = [d for d in found
                     if d.path == parent and d.size == rec.size
                     and (d.name == base                          # LFN survived
                          or d.short_name[1:] == base.upper()[1:])]  # first byte lost
            assert match, "missing %s" % path_
            got = recover_file(img, desc, match[0])
            assert got.size == rec.size
            assert got.sha256 == rec.sha256, "payload differs for %s" % path_
            assert got.confidence == "exact"


def test_recover_truncates_slack_to_recorded_size(image_copy):
    # Recovery reads whole clusters but the entry records the byte size;
    # tail slack must never leak into the output.
    path, truth = image_copy("fat16", "delete-all")
    odd = next(r for r in truth.files.values() if r.size % 512 not in (0, 1))
    with open_image(path) as img:
        desc = detect_filesystem(img)
        surv = survey(img, desc)
        match = [d for d in find_deleted(surv, desc)
                 if d.size == odd.size and not d.is_directory]
        sink = io.BytesIO()
        got = recover_file(img, desc, match[0], sink=sink)
    assert len(sink.getvalue()) == odd.size
    assert hashlib.sha256(sink.getvalue()).hexdigest() == odd.sha256
    assert got.output_path is None  # stream sink has no path


def _cluster_list(t) -> list[int]:
    """Every cluster of a ground-truth entry's runs, in file order."""
    return [c for first, count in t.clusters
            for c in range(first, first + count)]


def test_fat12_delete_leaves_neighbor_chains_intact(image_copy, base_images):
    """Clearing a 12-bit chain must not chew the packed neighbors."""
    base, _ = base_images["fat12"]
    with open_image(base) as img:
        desc = detect_filesystem(img)
        before = fatmod.load_fat(img, desc)

    target = None
    path, truth = image_copy("fat12")
    for rec in truth.files.values():
        if len(_cluster_list(rec)) >= 3:
            target = rec
            break
    forge.apply_mutation(path, "delete", truth=truth, target=target.path)

    with open_image(path) as img:
        desc = detect_filesystem(img)
        after = fatmod.load_fat(img, desc)

    freed = set(_cluster_list(target))
    for c in freed:
        assert after.is_free(c), "cluster %d not freed" % c
    for rec in truth.files.values():
        if rec.path == target.path:
            continue
        for c in _cluster_list(rec):
            assert after.entries[c] == before.entries[c], (
                "neighbor chain disturbed at cluster %d" % c)


@pytest.mark.parametrize("fs", ["fat16", "fat32"])
def test_quick_format_needs_the_deep_scan(image_copy, fs):
    path, truth = image_copy(fs, "quick-format")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        shallow = survey(img, desc)
        assert find_deleted(shallow, desc) == []
        deep = survey(img, desc, deep=True)
        found = find_deleted(deep, desc)
        names = {d.name for d in found if not d.is_directory}
        for rec in truth.files.values():
            assert rec.path.rsplit("/", 1)[-1] in names
        # Everything carved is orphaned: the live tree is empty.
        assert all(d.orphaned for d in found)


def test_carve_results_are_a_superset_of_the_live_walk(image_copy):
    path, _ = image_copy("fat32", "delete-all")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        shallow = {d.entry_offset for d in find_deleted(survey(img, desc), desc)}
        deep = {d.entry_offset
                for d in find_deleted(survey(img, desc, deep=True), desc)}
    assert shallow <= deep


@pytest.mark.parametrize("mutation", ["delete-all", "quick-format"])
def test_the_survey_map_marks_live_chains_only(image_copy, mutation):
    # The deleted directories and the carve mark the clusters they take
    # in the live walk's map; the survey clears those marks again.
    path, _ = image_copy("fat32", mutation)
    with open_image(path) as img:
        desc = detect_filesystem(img)
        shallow, deep = survey(img, desc), survey(img, desc, deep=True)
    assert deep.live_clusters == shallow.live_clusters
    assert set(deep.live_clusters) <= {0, 1}


def test_unreadable_allocation_table_degrades_to_carving(base_images, tmp_path):
    src, _ = base_images["fat16"]
    cut = tmp_path / "cut.img"
    cut.write_bytes(src.read_bytes()[:20480])  # boot sector survives, FAT gone
    with open_image(cut) as img:
        desc = detect_filesystem(img)
        surv = survey(img, desc, deep=True)
    assert any("carve-only" in w for w in surv.warnings)


def test_a_directory_chain_run_to_the_heap_end_costs_one_directory(
        image_copy):
    """DATA's chain rewritten, in both FAT copies, to run through every
    later cluster to the heap's end, across its files' chains: the scan
    still lists every file, reads DATA only up to its end marker and
    walks each chain cluster once."""
    path, truth = image_copy("fat16")
    with open_image(path) as img:
        desc = detect_filesystem(img)
    first = truth.dirs["DATA"].first_cluster
    links = struct.pack("<%dH" % (desc.max_cluster + 1 - first),
                        *range(first + 1, desc.max_cluster + 1), 0xFFFF)
    with open(path, "r+b") as fh:
        for fat_offset in truth.internal["fat_offsets"]:
            fh.seek(fat_offset + 2 * first)
            fh.write(links)
    with open_image(path) as img:
        tracemalloc.start()
        try:
            scan = scan_volume(img, desc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    listed = {"%s/%s" % (r["path"], r["name"]) for r in scan.live_rows
              if not r["is_directory"]}
    assert listed == set(truth.files)
    assert peak < 8 << 20


def test_a_carved_directory_run_to_the_heap_end_costs_one_directory(
        image_copy):
    """After a quick format, DATA's slots past its end marker and every
    later heap cluster filled with one plausible archive entry, none
    terminated: the carve gathers DATA by contiguity over at most
    MAX_DIR_ENTRIES slots, the live walk's bound, not the rest of the
    heap (519,616 slots and an 81.7 MiB traced peak without it)."""
    path, truth = image_copy("fat16", "quick-format")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        base = cluster_offset(desc, truth.dirs["DATA"].first_cluster)
        head = img.read_at(base, 64 * desc.cluster_size)
    end = next(pos for pos in range(64, len(head), 32) if head[pos] == 0)
    heap_end = cluster_offset(desc, desc.max_cluster) + desc.cluster_size
    with open(path, "r+b") as fh:
        fh.seek(base + end)
        fh.write((b"FILLER  TXT" + bytes([ATTR_ARCHIVE]) + bytes(20))
                 * ((heap_end - base - end) // 32))
    with open_image(path) as img:
        fat = fatmod.load_fat(img, desc)
        live = bytearray(volume.image_clusters(img, desc))
        tracemalloc.start()
        try:
            carved = {cluster: len(slots) for cluster, slots
                      in fatmod._carve_orphan_dirs(img, desc, fat, live)}
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert 0 < carved[truth.dirs["DATA"].first_cluster] \
        <= fatmod.MAX_DIR_ENTRIES
    assert peak < 32 << 20


def _dir_head(names, end=True):
    """'.', '..', one archive entry per name, then an end marker."""
    slots = [fatmod.DOT_NAME + bytes([ATTR_DIRECTORY]) + bytes(20),
             fatmod.DOTDOT_NAME + bytes([ATTR_DIRECTORY]) + bytes(20)]
    for i, name in enumerate(names):
        slots.append(name + bytes([ATTR_ARCHIVE]) + bytes(14)
                     + struct.pack("<HI", 3 + i, 100 + i))
    if end:
        slots.append(bytes(32))
    return b"".join(slots)


def test_deep_scan_carves_the_readable_part_of_a_truncated_image(image_copy):
    # Cut the image a few clusters into its second carve batch and
    # plant a directory head in that readable remainder.
    path, _ = image_copy("fat32", "quick-format")
    with open_image(path) as img:
        desc = detect_filesystem(img)
    cs = desc.cluster_size
    first = 2 + volume.STREAM_CHUNK // cs  # opens the second batch
    planted = first + 1
    data = bytearray(path.read_bytes()[:cluster_offset(desc, first + 3) + 100])
    head = _dir_head([b"PLANTED TXT"])
    off = cluster_offset(desc, planted)
    data[off:off + cs] = head + bytes(cs - len(head))
    path.write_bytes(bytes(data))
    with open_image(path) as img:
        surv = survey(img, desc, deep=True)
    assert not surv.live_clusters[planted]
    carved = {(e.path, e.short_name) for e in surv.entries}
    assert ("orphan-%d" % planted, "PLANTED.TXT") in carved


def test_recover_refuses_directories(image_copy):
    path, _ = image_copy("fat16")
    with open_image(path) as img:
        desc = detect_filesystem(img)
        entry = _entry(b"\xe5UBDIR     ", attr=ATTR_DIRECTORY, offset=0x2000)
        with pytest.raises(fatmod.FatError):
            recover_file(img, desc, entry)


# ------------------------------------------------------ property checks

_NAME_ALPHABET = st.sampled_from("ABCDEFGHJKMNPQRSTUVWXYZ0123456789")


@st.composite
def _corpus(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = draw(st.lists(st.text(_NAME_ALPHABET, min_size=1, max_size=8),
                          min_size=n, max_size=n, unique=True))
    classes = ("document", "image", "audio", "video", "compressed", "executable")
    files = [
        forge.FileSpec(name="%s.BIN" % name,
                       file_class=draw(st.sampled_from(classes)),
                       size=draw(st.integers(min_value=1, max_value=3000)),
                       seed=i)
        for i, name in enumerate(names)
    ]
    return forge.CorpusSpec(filesystem="fat12", total_size=256 * 1024,
                            files=files, seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=15, deadline=None)
@given(spec=_corpus())
def test_delete_then_undelete_restores_every_payload(tmp_path_factory, spec):
    """find_deleted after delete-all names every file (modulo the lost
    first byte) and recovery returns the exact bytes."""
    root = tmp_path_factory.mktemp("prop")
    img_path = root / "t.img"
    truth = forge.build_image(spec, img_path)
    forge.apply_mutation(img_path, "delete-all", truth=truth)

    with open_image(img_path) as img:
        desc = detect_filesystem(img)
        found = find_deleted(survey(img, desc), desc)
        # The marker destroys the first name byte, so files like 0.BIN
        # and 1.BIN (same size) become indistinguishable by metadata;
        # each truth payload just has to come back from one of the
        # candidates that share its surviving tail.
        by_tail = {}
        for d in found:
            if not d.is_directory:
                by_tail.setdefault((d.short_name[1:], d.size), []).append(d)
        for rec in truth.files.values():
            key = (rec.path.rsplit("/", 1)[-1][1:], rec.size)
            assert key in by_tail
            shas = {recover_file(img, desc, d).sha256 for d in by_tail[key]}
            assert rec.sha256 in shas


# ------------------------------------------- strided carve vs per-cluster

def _carve_per_cluster(img, desc, fat, live_clusters):
    """Reference: the carve as one Python iteration per cluster."""
    cs = desc.cluster_size
    batch = max(1, volume.STREAM_CHUNK // cs)
    out = []
    c = 2
    while c <= desc.max_cluster:
        count = min(batch, desc.max_cluster - c + 1)
        chunk = fatmod._read_or_none(img, cluster_offset(desc, c), count * cs)
        if chunk is None:
            break
        for i in range(count):
            cluster = c + i
            if live_clusters[cluster]:
                continue
            if not fatmod._qualifies_as_orphan_dir(chunk[i * cs:(i + 1) * cs]):
                continue
            out.append((cluster, fatmod._collect_orphan_dir(
                img, desc, fat, cluster, live_clusters)))
        c += count
    return out


_BATCH = volume.STREAM_CHUNK // 512
_HEAP = _BATCH + 40                       # one full batch and a short one
_MAX = _HEAP + 1
_EDGE = [2, _BATCH, _BATCH + 1, _MAX - 1, _MAX]


def _heap(plants):
    """A 512 B-cluster heap of zeros with (cluster, shift, bytes) planted."""
    buf = bytearray(_HEAP * 512)
    for cluster, shift, blob in plants:
        pos = (cluster - 2) * 512 + shift
        buf[pos:pos + len(blob)] = blob[:len(buf) - pos]
    return bytes(buf)


_NAMES = [b"F%07dTXT" % i for i in range(46)]


@st.composite
def _planted_heap(draw):
    """Directory heads, continuation blocks and '.'-led junk, on or off
    cluster boundaries, mostly near the batch edge and the heap's end;
    ``live`` and ``taken`` mark some of the planted clusters."""
    plants = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        cluster = min(_MAX, draw(st.sampled_from(_EDGE))
                      + draw(st.integers(min_value=0, max_value=3)))
        if draw(st.booleans()):
            cluster = draw(st.integers(min_value=2, max_value=_MAX))
        shift = draw(st.sampled_from([0, 0, 0, 1, 32, 255]))
        kind = draw(st.sampled_from(
            ["dir", "long-dir", "entries", "dot-file", "dot-junk", "zeros"]))
        names = _NAMES[:draw(st.integers(min_value=0, max_value=40))]
        if kind == "dir":
            blob = _dir_head(names)
        elif kind == "long-dir":              # no end marker: runs on
            blob = _dir_head(names, end=False)
        elif kind == "entries":
            blob = _dir_head(names)[64:]
        elif kind == "dot-file":              # '.' entries, not directories
            blob = _dir_head(names).replace(bytes([ATTR_DIRECTORY]),
                                            bytes([ATTR_ARCHIVE]), 2)
        elif kind == "dot-junk":
            blob = b"." + draw(st.binary(min_size=0, max_size=80))
        else:
            blob = bytes(draw(st.integers(min_value=1, max_value=1024)))
        plants.append((cluster, shift, blob))
    marked = st.sets(st.sampled_from([c for c, _, _ in plants] + _EDGE),
                     max_size=4)
    return _heap(plants), draw(marked), draw(marked)


@settings(max_examples=100, deadline=None)
@given(heap=_planted_heap())
@example(heap=(_heap([(_MAX, 0, _dir_head(_NAMES[:1]))]), set(), set()))
# A directory that runs across the batch edge and swallows the head
# after it, two adjacent heads, and a head in a live cluster.
@example(heap=(_heap([(_BATCH + 1, 0, _dir_head(_NAMES, end=False)),
                      (_BATCH + 4, 0, _dir_head(_NAMES[:2])),
                      (_BATCH + 5, 0, _dir_head(_NAMES[:2])),
                      (_BATCH + 6, 0, _dir_head(_NAMES[:2])),
                      (_BATCH + 7, 0, _dir_head(_NAMES[:2]))]),
               {_BATCH + 7}, set()))
def test_strided_carve_matches_the_per_cluster_reference(heap, image_of):
    buf, live, taken = heap
    desc = _desc16(cluster_count=_HEAP)
    lead = desc.first_data_sector * desc.bytes_per_sector
    fat = _table(cluster_count=_HEAP)
    # One map: live chains marked 1, clusters already taken _TAKEN.
    want_map = _bitmap(desc, live)
    for c in taken:
        want_map[c] = fatmod._TAKEN
    got_map = bytearray(want_map)
    with image_of(bytes(lead) + buf) as img:
        want = _carve_per_cluster(img, desc, fat, want_map)
        got = list(fatmod._carve_orphan_dirs(img, desc, fat, got_map))
    assert got == want
    assert got_map == want_map


# ------------------------------------------------------- table decoding

def _load_fat_per_entry(raw, kind, n):
    """Reference: the per-entry decoder the array decode replaced."""
    if kind is FsKind.FAT16:
        return list(struct.unpack_from("<%dH" % n, raw, 0))
    return [v & 0x0FFFFFFF for v in struct.unpack_from("<%dI" % n, raw, 0)]


def _table_volume(image_of, kind, raw, n):
    sectors = -(-len(raw) // 512)
    desc = VolumeDescriptor(
        kind=kind, bytes_per_sector=512, sectors_per_cluster=1,
        total_sectors=1 + sectors + n, reserved_sectors=1, num_fats=1,
        sectors_per_fat=sectors, first_data_sector=1 + sectors,
        cluster_count=n - 2)
    return image_of(bytes(512) + raw.ljust(sectors * 512, b"\0")), desc


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fat32=st.booleans(),
       tail=st.binary(max_size=9),
       chunk=st.sampled_from([64, volume.STREAM_CHUNK]))
@example(data=None, fat32=True, tail=b"\xff" * 4, chunk=64)
def test_table_decode_matches_the_per_entry_reference(data, fat32, tail,
                                                      chunk, image_of):
    """A 64-byte chunk splits the table into many pieces, each of whole
    entries as a STREAM_CHUNK piece is."""
    kind = FsKind.FAT32 if fat32 else FsKind.FAT16
    width = 4 if fat32 else 2
    if data is None:        # every reserved bit set
        values = [(1 << 8 * width) - 1] * 40
    else:
        values = data.draw(st.lists(
            st.integers(min_value=0, max_value=(1 << 8 * width) - 1),
            min_size=2, max_size=700))
    raw = b"".join(v.to_bytes(width, "little") for v in values) + tail
    img, desc = _table_volume(image_of, kind, raw, len(values))
    with img, pytest.MonkeyPatch.context() as mp:
        mp.setattr(volume, "STREAM_CHUNK", chunk)
        got = fatmod.load_fat(img, desc).entries
    assert list(got) == _load_fat_per_entry(raw, kind, len(values))


def test_fat32_table_decodes_in_one_table_of_memory(tmp_path):
    """8 GiB of 512 B clusters is 16.5M entries, a 63 MiB table.  The
    table is decoded a chunk at a time into one array, so the traced
    peak is that array and a few chunk-sized buffers, not three
    copies of the table."""
    path = tmp_path / "big.img"
    forge.build_image(forge.standard_corpus("fat32", 8 << 30), path)
    with open_image(path) as img:
        desc = detect_filesystem(img)
        tracemalloc.start()
        try:
            table = fatmod.load_fat(img, desc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert desc.cluster_count > 16_000_000
    assert len(table.entries) == desc.cluster_count + 2
    assert peak < 4 * len(table.entries) + 3 * volume.STREAM_CHUNK


def test_table_shorter_than_the_heap_is_reported(image_of):
    # 600 clusters need 1,204 table bytes; one sector holds 512.
    desc = _desc16(cluster_count=600)
    with image_of(bytes(desc.total_sectors * 512)) as img:
        with pytest.raises(CorruptBootRecord):
            fatmod.load_fat(img, desc)
        assert any("allocation table unreadable" in w
                   for w in survey(img, desc).warnings)


# ---------------------------------------------------- run-at-a-time audit

def _audit_per_cluster(img, desc, t):
    """Reference: the per-cluster compare the run-at-a-time audit
    replaced."""
    original = forge.content_bytes(t.file_class, t.size, t.seed)
    matching = pos = 0
    cs = desc.cluster_size
    for start, length in t.clusters:
        for c in range(start, start + length):
            span = min(cs, t.size - pos)
            disk = img.read_at(cluster_offset(desc, c), span)
            if disk == original[pos:pos + span]:
                matching += span
            pos += span
    return matching


@pytest.mark.parametrize("chunk_clusters", [None, 3])
def test_audit_counts_a_partial_overwrite_like_the_per_cluster_reference(
        image_copy, monkeypatch, chunk_clusters):
    path, truth = image_copy("fat16")
    t = max((t for t in truth.files.values()
             if not t.resident and t.clusters and t.clusters[0][1] >= 6),
            key=lambda t: t.size)
    with open_image(path) as img:
        desc = detect_filesystem(img)
    cs = desc.cluster_size
    start = t.clusters[0][0]
    original = forge.content_bytes(t.file_class, t.size, t.seed)
    with open(path, "r+b") as fh:
        # Two flipped bytes inside the second cluster, and the fifth
        # cluster zeroed, all within the file's first run.
        fh.seek(cluster_offset(desc, start + 1) + 7)
        fh.write(bytes(b ^ 0xFF for b in original[cs + 7:cs + 9]))
        fh.seek(cluster_offset(desc, start + 4))
        fh.write(bytes(cs))
    if chunk_clusters:
        # The audit's miss path reads through volume.read_extents.
        monkeypatch.setattr(volume, "STREAM_CHUNK", chunk_clusters * cs)
    row = next(r for r in forge.audit_image(path, truth)["files"]
               if r["path"] == t.path)
    with open_image(path) as img:
        want = _audit_per_cluster(img, desc, t)
    assert want == t.size - 2 * cs
    assert (row["verdict"], row["recoverable_bytes"]) == ("PARTIAL", want)
