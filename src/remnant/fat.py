"""FAT12/16/32 directory scanning and deleted-entry recovery.

Deletion on FAT only swaps the first name byte for 0xE5 and zeroes the
file's FAT chain; the rest of the directory entry (size, first cluster,
timestamps) survives.  Recovery therefore reads the entry as-is and
rebuilds the chain by contiguity, skipping clusters that live files
have since claimed.  Chains are [first, count] cluster runs throughout,
and live space is an allocation bitmap with one byte per cluster number.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field

from .report import RecoveredFile
from .volume import (
    DIR_ENTRY_SIZE,
    CorruptBootRecord,
    FsKind,
    VolumeDescriptor,
    VolumeError,
    VolumeImage,
    cluster_extents,
    cluster_offset,
    find_signatures,
    image_clusters,
    is_marked,
    mark_runs,
    read_extents,
)

DELETED_MARK = 0xE5
END_MARK = 0x00
KANJI_LEAD = 0x05          # stored stand-in for a real leading 0xE5
DELETED_SUBSTITUTE = "_"   # what we print for the lost first character

ATTR_VOLUME_ID = 0x08
ATTR_DIRECTORY = 0x10
ATTR_ARCHIVE = 0x20
ATTR_LFN = 0x0F            # long-file-name fragment marker

LFN_LAST_FLAG = 0x40
LFN_SEQ_MASK = 0x1F

# fatgen103: a directory holds at most 65,536 entries (2 MiB of slots).
MAX_DIR_ENTRIES = 65536

# survey's allocation map: 1 marks a cluster of a live chain, _TAKEN
# one a deleted or carved directory took; _LIVE_ONLY clears the latter.
_TAKEN = 2
_LIVE_ONLY = bytes(code == 1 for code in range(256))

DOT_NAME = b".          "
DOTDOT_NAME = b"..         "

# End-of-chain and bad-cluster markers per FAT width.
_EOC_MIN = {FsKind.FAT12: 0xFF8, FsKind.FAT16: 0xFFF8, FsKind.FAT32: 0x0FFFFFF8}
_BAD = {FsKind.FAT12: 0xFF7, FsKind.FAT16: 0xFFF7, FsKind.FAT32: 0x0FFFFFF7}
_ENTRY_BITS = {FsKind.FAT12: 12, FsKind.FAT16: 16, FsKind.FAT32: 32}
FAT32_ENTRY_MASK = 0x0FFFFFFF
_FAT32_HIGH_BYTE = bytes(b & (FAT32_ENTRY_MASK >> 24) for b in range(256))


class FatError(VolumeError):
    """Base error for FAT handling."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def fat_datetime_to_iso(date: int, time: int) -> str | None:
    """Decode the packed FAT date/time words; None for the zero stamp."""
    if date == 0:
        return None
    year = 1980 + (date >> 9)
    month = (date >> 5) & 0x0F
    day = date & 0x1F
    hour = time >> 11
    minute = (time >> 5) & 0x3F
    second = (time & 0x1F) * 2
    if not (1 <= month <= 12 and 1 <= day <= 31 and hour < 24
            and minute < 60 and second < 61):
        return None
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        year, month, day, hour, minute, second)


@dataclass
class FatDirEntry:
    """One 32-byte directory entry, plus where it came from.  A deleted
    entry is its own recovery candidate: ``find_deleted`` sets its
    chain, confidence and flags."""

    raw_name: bytes
    attr: int
    created_time: int
    created_date: int
    modified_time: int
    modified_date: int
    first_cluster: int
    size: int
    entry_offset: int          # absolute byte offset of the entry
    path: str = ""             # the directory that holds the entry
    lfn_name: str | None = None
    orphaned: bool = False     # met through carving, not the live tree
    chain: list[list[int]] = field(default_factory=list)  # [first, count]
    confidence: str | None = None
    flags: list[str] = field(default_factory=list)

    @property
    def deleted(self) -> bool:
        return self.raw_name[0] == DELETED_MARK

    @property
    def is_directory(self) -> bool:
        return bool(self.attr & ATTR_DIRECTORY) and not self.is_label

    @property
    def is_label(self) -> bool:
        return bool(self.attr & ATTR_VOLUME_ID) and self.attr != ATTR_LFN

    @property
    def is_dot(self) -> bool:
        return self.raw_name in (DOT_NAME, DOTDOT_NAME)

    @property
    def short_name(self) -> str:
        """8.3 name; a deleted entry's lost first byte renders as '_'."""
        raw = bytearray(self.raw_name)
        if raw[0] == KANJI_LEAD:
            raw[0] = DELETED_MARK
        first = DELETED_SUBSTITUTE if self.deleted else chr(raw[0])
        base = (first + raw[1:8].decode("latin-1")).rstrip(" ")
        ext = raw[8:11].decode("latin-1").rstrip(" ")
        return base + "." + ext if ext else base

    @property
    def name(self) -> str:
        return self.lfn_name or self.short_name

    @property
    def created(self) -> str | None:
        return fat_datetime_to_iso(self.created_date, self.created_time)

    @property
    def modified(self) -> str | None:
        return fat_datetime_to_iso(self.modified_date, self.modified_time)

    @property
    def entry_id(self) -> str:
        return "entry@0x%x" % self.entry_offset


def _lfn_fragment_text(raw: bytes) -> str:
    chars = raw[1:11] + raw[14:26] + raw[28:32]
    text = chars.decode("utf-16-le", errors="replace")
    cut = text.find("\x00")
    if cut != -1:
        text = text[:cut]
    return text.rstrip("￿")


def parse_dir_slots(slots, path: str, kind: FsKind, orphaned: bool = False):
    """Parse a sequence of (absolute_offset, 32-byte slot) pairs.

    Returns the entries up to the end marker.  Long-name fragments are
    folded into the following short entry.  Fragments in front of a deleted
    entry lose their sequence byte to the 0xE5 marker, so they are
    reassembled in reverse physical order on a best-effort basis.
    """
    entries: list[FatDirEntry] = []
    live_fragments: dict[int, str] = {}
    deleted_fragments: list[str] = []
    for offset, raw in slots:
        first = raw[0]
        if first == END_MARK:
            break
        attr = raw[11]
        if attr == ATTR_LFN:
            if first == DELETED_MARK:
                deleted_fragments.append(_lfn_fragment_text(raw))
            else:
                seq = first & LFN_SEQ_MASK
                live_fragments[seq] = _lfn_fragment_text(raw)
            continue
        time_c, date_c = struct.unpack_from("<HH", raw, 0x0E)
        hi, = struct.unpack_from("<H", raw, 0x14)
        time_m, date_m = struct.unpack_from("<HH", raw, 0x16)
        lo, = struct.unpack_from("<H", raw, 0x1A)
        size, = struct.unpack_from("<I", raw, 0x1C)
        cluster = (hi << 16 | lo) if kind is FsKind.FAT32 else lo
        lfn = None
        if first == DELETED_MARK and deleted_fragments:
            lfn = "".join(reversed(deleted_fragments))
        elif first != DELETED_MARK and live_fragments:
            lfn = "".join(live_fragments[k]
                          for k in sorted(live_fragments))
        live_fragments = {}
        deleted_fragments = []
        entries.append(FatDirEntry(
            raw_name=bytes(raw[0:11]),
            attr=attr,
            created_time=time_c,
            created_date=date_c,
            modified_time=time_m,
            modified_date=date_m,
            first_cluster=cluster,
            size=size,
            entry_offset=offset,
            path=path,
            lfn_name=lfn,
            orphaned=orphaned,
        ))
    return entries


@dataclass
class FatTable:
    """The decoded allocation table: one integer per cluster slot."""

    kind: FsKind
    entries: list[int] | array | bytes     # bytes: an all-free table

    def in_heap(self, cluster: int) -> bool:
        return 2 <= cluster < len(self.entries)

    def is_free(self, cluster: int) -> bool:
        return self.entries[cluster] == 0

    def is_eoc(self, value: int) -> bool:
        return value >= _EOC_MIN[self.kind]

    def chain_from(self, first: int, limit: int | None = None,
                   marked: bytearray | None = None):
        """Follow a live chain for at most ``limit`` clusters, and only
        up to the first cluster the allocation bitmap ``marked`` holds:
        a chain that joins one already walked ends where that one does.
        Returns (runs, ended): the chain as [first, count] runs, cut
        before the first cluster it would visit twice, and whether it
        reached an end-of-chain mark or joined a walked chain."""
        runs: list[list[int]] = []
        starts: list[int] = []                 # the runs' firsts, sorted
        by_start: dict[int, list[int]] = {}
        cap = limit if limit is not None else len(self.entries)
        taken = 0
        c = first
        while self.in_heap(c) and taken < cap:
            if marked is not None and is_marked(marked, c):
                return runs, True
            i = bisect_right(starts, c) - 1
            if i >= 0 and c < starts[i] + by_start[starts[i]][1]:
                break                          # the chain loops back
            if runs and c == runs[-1][0] + runs[-1][1]:
                runs[-1][1] += 1
            else:
                runs.append([c, 1])
                by_start[c] = runs[-1]
                insort(starts, c)
            taken += 1
            value = self.entries[c]
            if self.is_eoc(value):
                return runs, True
            if value == 0 or value == _BAD[self.kind]:
                return runs, False
            c = value
        return runs, False


def load_fat(img: VolumeImage, desc: VolumeDescriptor) -> FatTable:
    """Decode the first FAT copy: an unsigned array on FAT16/32, a list
    of ints on FAT12; either indexes by cluster number.  Only the bytes
    the entries occupy are read, STREAM_CHUNK at a time, once the span
    is known to lie inside the image, and each chunk is copied into its
    place in one array allocated up front, which never grows."""
    if desc.kind is FsKind.NTFS:
        raise FatError("not a FAT volume descriptor")
    bps = desc.bytes_per_sector
    n = desc.cluster_count + 2
    need = _ceil_div(n * _ENTRY_BITS[desc.kind], 8)
    if desc.sectors_per_fat * bps < need:
        raise CorruptBootRecord("corrupt boot record: FAT holds fewer "
                                "than %d entries" % n)
    start = desc.reserved_sectors * bps
    img.check_span(start, need)
    chunks = read_extents(img, [(start, need)], need)
    if desc.kind is FsKind.FAT12:
        raw = b"".join(chunks)
        values = []
        for i in range(n):
            o = i * 3 // 2
            pair = raw[o] | (raw[o + 1] << 8)
            values.append((pair >> 4) if i & 1 else (pair & 0xFFF))
        return FatTable(desc.kind, values)
    table = array("H" if desc.kind is FsKind.FAT16 else "I", [0]) * n
    view = memoryview(table).cast("B")
    pos = 0
    for chunk in chunks:
        end = pos + len(chunk)
        view[pos:end] = chunk
        if desc.kind is FsKind.FAT32:
            # The top nibble of each little-endian entry's last byte is
            # reserved: clear it in one C-level pass over every fourth
            # byte.  A chunk holds whole entries.
            view[pos + 3:end:4] = chunk[3::4].translate(_FAT32_HIGH_BYTE)
        pos = end
        del chunk  # free it before the next read, not after
    view.release()
    if sys.byteorder == "big":
        table.byteswap()
    return FatTable(desc.kind, table)


@dataclass
class FatSurvey:
    entries: list[FatDirEntry]
    fat: FatTable
    live_clusters: bytearray    # 1 per cluster a live chain holds
    warnings: list[str] = field(default_factory=list)


def _read_or_none(img, offset, length):
    """Bounds-tolerant read for walking damaged volumes."""
    try:
        return img.read_at(offset, length)
    except VolumeError:
        return None


def _dir_slots(img, blocks):
    """Yield (absolute offset, 32-byte slot) across (offset, length) byte
    regions, read lazily through ``read_extents``, so a caller that stops
    at the end marker reads no further.  An unreadable region (truncated
    image) is skipped, not fatal."""
    for base, length in blocks:
        try:
            img.check_span(base, length)
        except VolumeError:
            continue
        for chunk in read_extents(img, [(base, length)], length):
            for pos in range(0, len(chunk) - DIR_ENTRY_SIZE + 1,
                             DIR_ENTRY_SIZE):
                yield base + pos, chunk[pos:pos + DIR_ENTRY_SIZE]
            base += len(chunk)


def _run_blocks(img, desc, runs):
    """Byte regions of cluster runs, each cut to the whole clusters the
    image holds, so a truncated image keeps its readable clusters."""
    cs = desc.cluster_size
    blocks = []
    for first, count in runs:
        base = cluster_offset(desc, first)
        blocks.append((base, min(count, max(0, img.size - base) // cs) * cs))
    return blocks


def _dir_cluster_cap(desc: VolumeDescriptor) -> int:
    """The most clusters a directory's chain may take: fatgen103's
    MAX_DIR_ENTRIES slots."""
    return _ceil_div(MAX_DIR_ENTRIES * DIR_ENTRY_SIZE, desc.cluster_size)


def _root_blocks(img, desc, fat, live_clusters):
    bps = desc.bytes_per_sector
    if desc.kind is FsKind.FAT32:
        runs, _ = fat.chain_from(desc.root_cluster,
                                 limit=_dir_cluster_cap(desc))
        mark_runs(live_clusters, runs)
        return _run_blocks(img, desc, runs)
    return [(desc.root_dir_sector * bps, desc.root_entries * DIR_ENTRY_SIZE)]


def _plausible_entry(raw: bytes) -> bool:
    first = raw[0]
    attr = raw[11]
    if attr == ATTR_LFN:
        # Long-name fragments legitimately start with a low sequence
        # byte (possibly with the last-fragment bit), or 0xE5 once
        # deleted.
        return first == DELETED_MARK or 1 <= (first & 0x3F) <= 20
    if first == END_MARK:
        return False
    if first != DELETED_MARK and first < 0x20:
        if first != KANJI_LEAD:
            return False
    if attr & 0xC0:
        return False
    for b in raw[1:11]:
        if b < 0x20 and b != 0x00:
            return False
    return True


def _qualifies_as_orphan_dir(buf: bytes) -> bool:
    """First cluster of a directory: '.' then '..', both directories."""
    if len(buf) < 2 * DIR_ENTRY_SIZE:
        return False
    if buf[0:11] != DOT_NAME or buf[32:43] != DOTDOT_NAME:
        return False
    if not (buf[11] & ATTR_DIRECTORY) or not (buf[43] & ATTR_DIRECTORY):
        return False
    valid = sum(1 for pos in (0, 32)
                if _plausible_entry(buf[pos:pos + DIR_ENTRY_SIZE]))
    return valid >= 2


def _block_all_plausible(buf: bytes) -> bool:
    """Continuation test: every slot up to the end marker looks sane."""
    seen_any = False
    for pos in range(0, len(buf) - DIR_ENTRY_SIZE + 1, DIR_ENTRY_SIZE):
        raw = buf[pos:pos + DIR_ENTRY_SIZE]
        if raw[0] == END_MARK:
            return seen_any
        if not _plausible_entry(raw):
            return False
        seen_any = True
    return seen_any


def _collect_orphan_dir(img, desc, fat, start, live_clusters):
    """Gather a carved directory starting at ``start`` and mark its
    clusters ``_TAKEN`` in the allocation map ``live_clusters``, where
    it stops at any marked cluster.  Returns its slots.

    The chain is gone, so continuation is by contiguity: keep taking the
    next cluster while the previous one ended without an end-of-directory
    marker and the candidate still parses as nothing but entries, over
    at most MAX_DIR_ENTRIES slots, the live walk's bound.
    """
    cs = desc.cluster_size
    slots = []
    c = start
    stop = start + _dir_cluster_cap(desc)
    while c < stop and fat.in_heap(c) and not is_marked(live_clusters, c):
        buf = _read_or_none(img, cluster_offset(desc, c), cs)
        if buf is None:
            break
        if c != start and not _block_all_plausible(buf):
            break
        base = cluster_offset(desc, c)
        c += 1
        end_here = False
        for pos in range(0, cs - DIR_ENTRY_SIZE + 1, DIR_ENTRY_SIZE):
            slots.append((base + pos, buf[pos:pos + DIR_ENTRY_SIZE]))
            if buf[pos] == END_MARK:
                end_here = True
                break
        if end_here:
            break
    mark_runs(live_clusters, [(start, c - start)], _TAKEN)
    return slots


def _carve_orphan_dirs(img, desc, fat, live_clusters):
    """Yield (cluster, slots) for every orphaned directory in the heap
    outside the clusters ``live_clusters`` marks.

    ``find_signatures`` reads the heap once and meets the clusters that
    open with a '.' in ascending order; each carved directory's clusters
    are marked ``_TAKEN`` in ``live_clusters`` before the next is sought.
    """
    cs = desc.cluster_size
    heap = cluster_offset(desc, 2)
    # A truncated image is carved up to its last whole cluster.
    stop = heap + (image_clusters(img, desc) - 2) * cs
    for offset, head in find_signatures(img, heap, stop, cs, DOT_NAME, cs):
        cluster = 2 + (offset - heap) // cs
        if not live_clusters[cluster] and _qualifies_as_orphan_dir(head):
            yield cluster, _collect_orphan_dir(
                img, desc, fat, cluster, live_clusters)


def _join(path: str, name: str) -> str:
    return path + "/" + name if path else name


def survey(img: VolumeImage, desc: VolumeDescriptor,
           deep: bool = False) -> FatSurvey:
    """Walk the live tree; with ``deep`` also carve orphaned directories.

    The live walk marks every cluster reachable from live chains in an
    allocation bitmap so the carve pass only ever looks at abandoned
    space.  A directory is read up to its end marker, over at most
    MAX_DIR_ENTRIES slots of its chain, and a file's chain is walked
    only up to the first cluster already marked, so the walk costs
    O(heap) whatever the chain links claim.  The deleted directories and
    the carve then mark the clusters they take ``_TAKEN`` in the same
    map, which is cleared back to the live chains before it is returned.
    """
    # Sized by the image, not the boot record: a cluster past the image
    # cannot be read, and reads as neither live nor taken.
    live_clusters = bytearray(image_clusters(img, desc))
    entries: list[FatDirEntry] = []
    warnings: list[str] = []
    try:
        fat = load_fat(img, desc)
    except FatError:
        raise                   # not a FAT volume at all
    except VolumeError as exc:
        # Truncated/damaged image: chains are gone, but the directory
        # walk and the orphan carve can still run against what's left,
        # over a table that marks every cluster in the image free.
        fat = FatTable(desc.kind, bytes(len(live_clusters)))
        warnings.append("allocation table unreadable (%s); carve-only "
                        "results" % exc)
    seen_offsets: set[int] = set()

    def admit(entry: FatDirEntry) -> bool:
        """List ``entry`` unless it is a dot, a label or met before."""
        if entry.is_dot or entry.is_label or entry.entry_offset in seen_offsets:
            return False
        seen_offsets.add(entry.entry_offset)
        entries.append(entry)
        return True

    queue: deque[tuple[str, list]] = deque(
        [("", _root_blocks(img, desc, fat, live_clusters))])
    visited_dirs: set[int] = set()
    dir_cap = _dir_cluster_cap(desc)
    while queue:
        path, blocks = queue.popleft()
        for entry in parse_dir_slots(_dir_slots(img, blocks), path, desc.kind):
            if not admit(entry) or entry.deleted:
                continue
            if entry.is_directory:
                if entry.first_cluster in visited_dirs:
                    continue
                visited_dirs.add(entry.first_cluster)
                runs, ok = fat.chain_from(entry.first_cluster, limit=dir_cap)
                mark_runs(live_clusters, runs)
                if not ok:
                    warnings.append("directory %s has a broken chain"
                                    % entry.name)
                queue.append((_join(path, entry.name),
                              _run_blocks(img, desc, runs)))
            elif entry.size > 0 and fat.in_heap(entry.first_cluster):
                # What a marked cluster leads to is marked already.
                runs, ok = fat.chain_from(entry.first_cluster,
                                          marked=live_clusters)
                mark_runs(live_clusters, runs)
                if not ok:
                    warnings.append("file %s has a broken chain" % entry.name)

    # Recurse into deleted directories: chain zeroed, so contiguity only.
    pending = deque(e for e in entries if e.deleted and e.is_directory
                    and fat.in_heap(e.first_cluster))
    while pending:
        entry = pending.popleft()
        if is_marked(live_clusters, entry.first_cluster):
            continue
        head = _read_or_none(img, cluster_offset(desc, entry.first_cluster),
                             desc.cluster_size)
        if head is None or not _qualifies_as_orphan_dir(head):
            continue
        slots = _collect_orphan_dir(
            img, desc, fat, entry.first_cluster, live_clusters)
        # Children of a deleted directory are unreachable whatever their
        # own first byte says, so they carry the orphaned flag too.
        parsed = parse_dir_slots(slots, _join(entry.path, entry.name),
                                 desc.kind, orphaned=True)
        for sub in parsed:
            if (admit(sub) and sub.is_directory
                    and fat.in_heap(sub.first_cluster)):
                pending.append(sub)

    if deep:
        for cluster, slots in _carve_orphan_dirs(img, desc, fat,
                                                 live_clusters):
            parsed = parse_dir_slots(slots, "orphan-%d" % cluster,
                                     desc.kind, orphaned=True)
            for sub in parsed:
                admit(sub)

    return FatSurvey(entries=entries, fat=fat,
                     live_clusters=live_clusters.translate(_LIVE_ONLY),
                     warnings=warnings)


def reconstruct_chain(first_cluster: int, size: int, fat: FatTable,
                      desc: VolumeDescriptor,
                      live_clusters: bytearray | None = None):
    """Hypothesize the cluster chain of a deleted file.

    Deletion normally zeroes the chain, so all that survives is the
    first cluster and the byte size.  Walk forward from the first
    cluster, skipping clusters that are currently allocated (a live
    file owns them now); any skip is an admission of guesswork and
    lowers the confidence to ``contiguous-heuristic``.  When the first
    cluster itself belongs to a live file the start of the content is
    gone: report ``fragmented-unknown`` and return the raw contiguous
    run for best-effort carving.
    Returns (runs, confidence, flags), the chain as [first, count] runs.
    """
    if size == 0:
        return [], "exact", []
    needed = _ceil_div(size, desc.cluster_size)
    if not fat.in_heap(first_cluster):
        return [], "fragmented-unknown", ["bad-first-cluster"]
    top = len(fat.entries) - 1
    if not fat.is_free(first_cluster):
        if live_clusters is not None \
                and not is_marked(live_clusters, first_cluster):
            # The allocation is dangling, not owned by a live file: the
            # original chain is still written in the table.  Follow it.
            runs, ended = fat.chain_from(first_cluster, limit=needed)
            held = sum(count for _, count in runs)
            flags = [] if (ended or held == needed) else ["truncated"]
            return runs, "exact", flags
        count = min(needed, top + 1 - first_cluster)
        flags = ["overwritten-risk"]
        if count < needed:
            flags.append("truncated")
        return [[first_cluster, count]], "fragmented-unknown", flags
    entries = fat.entries
    runs: list[list[int]] = []
    held = 0
    c = first_cluster
    while held < needed and c <= top:
        if entries[c]:
            c += 1                      # held by a live file: skip it
            continue
        start = c
        end = min(top + 1, c + needed - held)
        while c < end and not entries[c]:
            c += 1
        runs.append([start, c - start])
        held += c - start
    flags = [] if held == needed else ["truncated"]
    # Every cluster walked but not taken was skipped: a live file holds it.
    confidence = "contiguous-heuristic" if c - first_cluster > held else "exact"
    return runs, confidence, flags


def find_deleted(surv: FatSurvey, desc: VolumeDescriptor) -> list[FatDirEntry]:
    """Deleted candidates: 0xE5-marked entries everywhere, plus intact
    entries that are only reachable through carved (orphaned) directories
    — unreachable means logically deleted even when unmarked.  Each
    survey entry returned has its chain, confidence and flags set: the
    reconstruction's flags, then ``orphaned``, ``truncated`` (a file
    whose chain holds fewer bytes than its size) and ``carved``."""
    cs = desc.cluster_size
    out: list[FatDirEntry] = []
    for entry in surv.entries:
        if not entry.deleted and not entry.orphaned:
            continue
        if entry.is_directory:
            chain, confidence, flags = [], "heuristic", []
        else:
            chain, confidence, flags = reconstruct_chain(
                entry.first_cluster, entry.size, surv.fat, desc,
                surv.live_clusters)
        if entry.orphaned and not entry.deleted:
            flags.append("orphaned")
        if (not entry.is_directory and "truncated" not in flags
                and sum(count for _, count in chain) * cs < entry.size):
            flags.append("truncated")
        if entry.orphaned:
            flags.append("carved")
        entry.chain, entry.confidence, entry.flags = chain, confidence, flags
        out.append(entry)
    out.sort(key=lambda e: e.entry_offset)
    return out


def plan_file(img: VolumeImage, desc: VolumeDescriptor,
              entry: FatDirEntry) -> RecoveredFile:
    """Lay the hypothesized chain out as extents, validated, and clip it
    to the recorded size, so the final cluster's slack never reaches
    the output."""
    if entry.is_directory:
        raise FatError("%s is a directory" % entry.name)
    extents = cluster_extents(img, desc, entry.chain)
    return RecoveredFile(
        name=entry.name,
        path=entry.path,
        size=min(sum(length for _, length in extents), entry.size),
        sha256="",
        file_class="unknown",
        confidence=entry.confidence,
        source={
            "filesystem": desc.kind.value,
            "entry": entry.entry_id,
            "clusters": entry.chain,
        },
        extents=extents,
        flags=list(entry.flags),
    )


def recover_file(img: VolumeImage, desc: VolumeDescriptor,
                 entry: FatDirEntry, sink=None) -> RecoveredFile:
    """Stream a deleted file's hypothesized chain into ``sink``, a
    writable object; with none the payload is only hashed."""
    return plan_file(img, desc, entry).stream(img, sink)
