"""The forge's image writer: the corpus spec, the FAT and NTFS
encoders and builders, and the deletion mutations.

It lays every byte with its own encoders, taking only on-disk constants
from the readers it is the oracle for, and records where each byte went
in a :class:`remnant.forge.GroundTruth`.  Content, records and fresh
metadata are written whole; each read-modify-write (FAT entries, bitmap
bits, record flags, delete marks) is an edit, applied by
``_apply_edits``.  Only the forge commands need it; :mod:`remnant.forge`
loads it on the first use of one of its public names, so reading a
sidecar never compiles it.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from functools import partial

from .fat import (
    ATTR_ARCHIVE,
    ATTR_DIRECTORY,
    ATTR_LFN,
    ATTR_VOLUME_ID,
    DELETED_MARK,
    DOT_NAME,
    DOTDOT_NAME,
    LFN_LAST_FLAG,
)
from .forge import (
    MUTATIONS,
    DirTruth,
    FileTruth,
    ForgeError,
    GroundTruth,
    boot_geometry,
    check_sidecar,
    content_bytes,
)
from .ntfs import (
    ATTR_BITMAP,
    ATTR_DATA,
    ATTR_END,
    ATTR_FILE_NAME,
    ATTR_INDEX_ROOT,
    ATTR_STANDARD_INFORMATION,
    ATTR_VOLUME_INFORMATION,
    ATTR_VOLUME_NAME,
    FILE_SIGNATURE,
    RECORD_FLAG_DIRECTORY,
    RECORD_FLAG_IN_USE,
    ROOT_RECORD,
    SYSTEM_RECORDS,
    UPDATE_SEQUENCE_STRIDE,
)
from .volume import (
    BOOT_SIGNATURE,
    DIR_ENTRY_SIZE,
    FAT12_CLUSTER_LIMIT,
    FAT16_CLUSTER_LIMIT,
    NTFS_OEM,
    STREAM_CHUNK,
    FsKind,
    VolumeDescriptor,
    VolumeImage,
    cluster_offset,
    merge_runs,
)


SECTOR = 512

# Fixed build timestamp: 2020-01-01 12:00:00 (images must be reproducible).
FAT_BUILD_DATE = ((2020 - 1980) << 9) | (1 << 5) | 1
FAT_BUILD_TIME = 12 << 11
# Same instant as an NTFS timestamp (100ns ticks since 1601-01-01).  The
# years 1601-2019 hold 101 leap days: 104 multiples of 4, less 1700, 1800
# and 1900.
_SECONDS_1601_TO_BUILD = ((2020 - 1601) * 365 + 101) * 86400 + 12 * 3600
NTFS_BUILD_TIME = _SECONDS_1601_TO_BUILD * 10_000_000

MEDIA_FIXED = 0xF8

_EOC = {FsKind.FAT12: 0xFFF, FsKind.FAT16: 0xFFFF, FsKind.FAT32: 0x0FFFFFFF}

NTFS_RECORD_SIZE = 1024
NTFS_FIRST_USER_RECORD = 32   # records 16..31 stay blank on purpose: a
                              # re-format's fresh metadata lands there
                              # instead of on top of user records.

SFN_VALID = set(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%&'()-@^_`{}~")


@dataclass
class FileSpec:
    name: str
    file_class: str
    size: int
    seed: int | None = None
    parent: str = ""          # one directory level, "" for the root

    @property
    def path(self) -> str:
        return "%s/%s" % (self.parent, self.name) if self.parent else self.name


def _typed(value, kind: type, what: str):
    """``value`` itself if it is a ``kind``; otherwise a TypeError that
    names ``what``."""
    if not isinstance(value, kind):
        raise TypeError("%s must be %s, not %s"
                        % (what, kind.__name__, type(value).__name__))
    return value


def _int_or_none(value) -> int | None:
    return None if value is None else int(value)


@dataclass
class CorpusSpec:
    filesystem: str                     # fat12 | fat16 | fat32 | ntfs
    total_size: int
    files: list[FileSpec] = field(default_factory=list)
    dirs: list[str] = field(default_factory=list)
    volume_label: str = "REMNANT"
    seed: int = 0
    bytes_per_sector: int = SECTOR
    sectors_per_cluster: int | None = None
    fragment_pairs: list[tuple[str, str]] = field(default_factory=list)

    def resolved_files(self) -> list[FileSpec]:
        out = []
        for i, f in enumerate(self.files):
            seed = f.seed if f.seed is not None else (self.seed * 100003 + i)
            out.append(FileSpec(f.name, f.file_class, f.size, seed, f.parent))
        return out

    def all_dirs(self) -> list[str]:
        dirs = list(self.dirs)
        for f in self.files:
            if f.parent and f.parent not in dirs:
                dirs.append(f.parent)
        return dirs

    @classmethod
    def from_dict(cls, raw: dict) -> "CorpusSpec":
        try:
            rows = [_typed(f, dict, "a file row")
                    for f in _typed(raw, dict, "the spec").get("files", [])]
            files = [FileSpec(_typed(f["name"], str, "name"),
                              _typed(f["class"], str, "class"),
                              int(f["size"]), _int_or_none(f.get("seed")),
                              _typed(f.get("parent", ""), str, "parent"))
                     for f in rows]
            return cls(
                filesystem=raw["filesystem"],
                total_size=int(raw["total_size"]),
                files=files,
                dirs=[_typed(d, str, "a dirs entry")
                      for d in raw.get("dirs", [])],
                volume_label=_typed(raw.get("volume_label", "REMNANT"), str,
                                    "volume_label"),
                seed=int(raw.get("seed", 0)),
                bytes_per_sector=int(raw.get("bytes_per_sector", SECTOR)),
                sectors_per_cluster=_int_or_none(raw.get("sectors_per_cluster")),
                fragment_pairs=[tuple(p) for p in raw.get("fragment_pairs", [])],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ForgeError(str(exc)) from exc



# -- the image writer ------------------------------------------------------


class _Writer(VolumeImage):
    """The bare store the forge writes through: the image opened
    read-write, read through the readers' checked ``read_at`` and
    written with ``pwrite`` at volume offsets that ``check_span`` has
    checked, so a write never grows the file."""

    OPEN_FLAGS = os.O_RDWR

    def write(self, offset: int, data) -> None:
        view = memoryview(data)
        self.check_span(offset, len(view), "write")
        offset += self.base_offset
        while view:
            n = os.pwrite(self._fd, view, offset)
            view, offset = view[n:], offset + n

    def zero(self, offset: int, length: int) -> None:
        """Make ``length`` bytes at ``offset`` read as zeros, writing at
        most STREAM_CHUNK at a time.  A hole already reads as zero, so
        only the data extents are written; where the system cannot
        report holes, that is the whole span."""
        end = offset + length
        zeros = memoryview(bytes(min(length, STREAM_CHUNK)))
        pos = self.next_data(offset)
        while pos < end:
            try:
                hole = os.lseek(self._fd, self.base_offset + pos,
                                os.SEEK_HOLE) - self.base_offset
            except OSError:
                hole = end
            stop = min(hole, end)
            for at in range(pos, stop, STREAM_CHUNK):
                self.write(at, zeros[:min(STREAM_CHUNK, stop - at)])
            pos = self.next_data(stop)


def write_runs(w: _Writer, desc: VolumeDescriptor, runs, data: bytes) -> None:
    """Lay ``data`` over (first, count) cluster runs of ``desc``'s volume
    in order."""
    view = memoryview(data)
    pos = 0
    for first, count in runs:
        n = count * desc.cluster_size
        w.write(cluster_offset(desc, first), view[pos:pos + n])
        pos += n


# -- edits -----------------------------------------------------------------


def _apply_edits(w: _Writer, edits: list) -> None:
    """Apply ``edits``, each (offset, length, change): ``change`` maps the
    span's current bytes to its new bytes.  Every span is checked for
    writing before the first read or write; then the edits apply in
    order, one read and one write each, so edits that share a FAT12
    byte or a bitmap byte compose."""
    for offset, length, _ in edits:
        w.check_span(offset, length, "write")
    for offset, length, change in edits:
        w.write(offset, change(w.read_at(offset, length)))


def _fat_edits(fat_offsets, kind: FsKind, first: int, values) -> list:
    """Edits that store ``values`` as FAT entries ``first``, ``first + 1``,
    ... in every copy of the table, one per copy.  FAT32 keeps each
    entry's reserved top nibble; FAT12 entries share bytes, so the span
    is patched entry by entry."""
    n = len(values)
    if kind is FsKind.FAT12:
        lo = first * 3 // 2
        span = (first + n - 1) * 3 // 2 + 2 - lo

        def change(raw):
            raw = bytearray(raw)
            for index, value in enumerate(values, first):
                _put_fat12(raw, index * 3 // 2 - lo, index, value)
            return raw
    else:
        width, code = (2, "H") if kind is FsKind.FAT16 else (4, "I")
        lo, span = width * first, width * n
        new = int.from_bytes(struct.pack("<%d%s" % (n, code), *values),
                             "little")
        keep = int.from_bytes(b"\0\0\0\xf0" * n, "little") if width == 4 else 0
        change = lambda raw: (int.from_bytes(raw, "little") & keep
                              | new).to_bytes(span, "little")
    return [(fat_off + lo, span, change) for fat_off in fat_offsets]


def _chain_edits(fat_offsets, kind: FsKind, runs) -> list:
    """Edits that link (first, count) runs into one chain that ends in
    end-of-chain: each cluster points at the next, each run's last
    cluster at the next run's first."""
    lasts = [first for first, _ in runs[1:]] + [_EOC[kind]]
    return [edit for (first, count), last in zip(runs, lasts)
            for edit in _fat_edits(fat_offsets, kind, first,
                                   [*range(first + 1, first + count), last])]


def _clear_bit_edits(base: int, runs) -> list:
    """Edits that clear the bits (first, count) runs cover in the
    LSB-first bitmap at byte offset ``base``, one per run."""
    return [(base + first // 8, -(-(first + count) // 8) - first // 8,
             partial(_cleared, first % 8, count)) for first, count in runs]


def _cleared(first: int, count: int, raw: bytes) -> bytearray:
    """``raw`` with the bits ``first`` to ``first + count - 1`` clear."""
    raw = bytearray(raw)
    _set_bits(raw, [(first, count)], on=False)
    return raw


# -- run-list encoding ---------------------------------------------------


def _signed_width(value: int) -> int:
    width = 1
    while not -(1 << (8 * width - 1)) <= value < (1 << (8 * width - 1)):
        width += 1
    return width


def _unsigned_width(value: int) -> int:
    width = 1
    while value >= (1 << (8 * width)):
        width += 1
    return width


def encode_data_runs(runs) -> bytes:
    """Encode (first, count) cluster runs, ``first`` None for a sparse
    run, as a mapping-pairs string.

    Minimal field widths, deltas relative to the previous run's LCN,
    sparse runs carry no offset field.  The decoder in the recovery
    module is the independent mirror of this.
    """
    out = bytearray()
    prev = 0
    for lcn, length in runs:
        if length <= 0:
            raise ForgeError("run length must be positive")
        lwidth = _unsigned_width(length)
        if lcn is None:
            out.append(lwidth)
            out += length.to_bytes(lwidth, "little")
            continue
        if lcn < 0:
            raise ForgeError("negative LCN")
        delta = lcn - prev
        owidth = _signed_width(delta)
        out.append((owidth << 4) | lwidth)
        out += length.to_bytes(lwidth, "little")
        out += delta.to_bytes(owidth, "little", signed=True)
        prev = lcn
    out.append(0x00)
    return bytes(out)


# -- 8.3 names and long-name entries -------------------------------------


def _to_83(name: str, taken: set) -> tuple[bytes, bool]:
    """Returns (11 raw bytes, needs_lfn)."""
    stem, dot, ext = name.rpartition(".")
    if not dot:
        stem, ext = name, ""
    up_stem = "".join(ch for ch in stem.upper() if ord(ch) < 128)
    up_ext = "".join(ch for ch in ext.upper() if ord(ch) < 128)
    clean_stem = "".join(ch if ch.encode("latin-1") and
                         ord(ch) != 0x20 and
                         ch.encode("latin-1")[0] in SFN_VALID else "_"
                         for ch in up_stem)
    clean_ext = "".join(ch if ch.encode("latin-1")[0] in SFN_VALID else "_"
                        for ch in up_ext)
    exact = (clean_stem == stem and clean_ext == ext
             and 1 <= len(clean_stem) <= 8 and len(clean_ext) <= 3)
    if exact:
        raw = (clean_stem.ljust(8) + clean_ext.ljust(3)).encode("latin-1")
        if raw not in taken:
            taken.add(raw)
            return raw, False
    base = (clean_stem or "FILE")[:6]
    ext3 = clean_ext[:3]
    for n in range(1, 1000):
        cand = "%s~%d" % (base[:7 - len(str(n))], n)
        raw = (cand.ljust(8) + ext3.ljust(3)).encode("latin-1")
        if raw not in taken:
            taken.add(raw)
            return raw, True
    raise ForgeError("cannot derive a unique short name for %r" % name)


def _sfn_checksum(raw11: bytes) -> int:
    total = 0
    for b in raw11:
        total = (((total & 1) << 7) + (total >> 1) + b) & 0xFF
    return total


def _lfn_entries(name: str, raw11: bytes) -> list[bytes]:
    """Long-name fragments, last fragment first as they sit on disk."""
    checksum = _sfn_checksum(raw11)
    padded = name + "\x00"
    if len(padded) % 13:
        padded += "￿" * (13 - len(padded) % 13)
    chunks = [padded[i:i + 13] for i in range(0, len(padded), 13)]
    entries = []
    for idx, chunk in enumerate(chunks, start=1):
        raw = bytearray(32)
        raw[0] = idx | (LFN_LAST_FLAG if idx == len(chunks) else 0)
        enc = chunk.encode("utf-16-le")
        raw[1:11] = enc[0:10]
        raw[11] = ATTR_LFN
        raw[12] = 0
        raw[13] = checksum
        raw[14:26] = enc[10:22]
        raw[28:32] = enc[22:26]
        entries.append(bytes(raw))
    return list(reversed(entries))


def _dir_entry(raw11: bytes, attr: int, cluster: int, size: int) -> bytes:
    raw = bytearray(DIR_ENTRY_SIZE)
    raw[0:11] = raw11
    raw[11] = attr
    struct.pack_into("<HH", raw, 0x0E, FAT_BUILD_TIME, FAT_BUILD_DATE)
    struct.pack_into("<H", raw, 0x12, FAT_BUILD_DATE)
    struct.pack_into("<H", raw, 0x14, (cluster >> 16) & 0xFFFF)
    struct.pack_into("<HH", raw, 0x16, FAT_BUILD_TIME, FAT_BUILD_DATE)
    struct.pack_into("<H", raw, 0x1A, cluster & 0xFFFF)
    struct.pack_into("<I", raw, 0x1C, size)
    return bytes(raw)


# -- FAT image builder ----------------------------------------------------


def _pick_fat_spc(kind: str, total_sectors: int) -> int:
    """Smallest power-of-two cluster size that lands in the right
    cluster-count window for the requested FAT width."""
    limit = {"fat12": FAT12_CLUSTER_LIMIT, "fat16": FAT16_CLUSTER_LIMIT}
    if kind == "fat32":
        return 1
    spc = 1
    while spc <= 128 and total_sectors // spc >= limit[kind]:
        spc *= 2
    if spc > 128:
        raise ForgeError("image too large for %s" % kind)
    return spc


def _solve_fat_sectors(total_sectors, bps, spc, reserved, num_fats,
                       root_entries):
    """Fixpoint for the FAT size: the table must cover the clusters that
    remain once the table itself is laid out."""
    root_dir_sectors = (root_entries * DIR_ENTRY_SIZE + bps - 1) // bps
    fat_sectors = 1
    clusters = 0
    for _ in range(64):
        data = total_sectors - reserved - num_fats * fat_sectors - root_dir_sectors
        if data <= 0:
            raise ForgeError("volume too small")
        clusters = data // spc
        width = 12 if clusters < FAT12_CLUSTER_LIMIT else (
            16 if clusters < FAT16_CLUSTER_LIMIT else 32)
        needed = ((clusters + 2) * width + 7) // 8
        needed = (needed + bps - 1) // bps
        if needed <= fat_sectors:
            break
        fat_sectors = needed
    return fat_sectors, clusters


def _fat_boot_sector(desc: VolumeDescriptor, label: str) -> bytes:
    """A FAT boot sector for ``desc``, which a builder or a detected
    volume supplies."""
    kind = desc.kind
    boot = bytearray(SECTOR)
    boot[0:3] = b"\xeb\x3c\x90"
    boot[3:11] = b"MSWIN4.1"
    struct.pack_into("<H", boot, 0x0B, desc.bytes_per_sector)
    boot[0x0D] = desc.sectors_per_cluster
    struct.pack_into("<H", boot, 0x0E, desc.reserved_sectors)
    boot[0x10] = desc.num_fats
    total = desc.total_sectors
    if kind is not FsKind.FAT32:
        struct.pack_into("<H", boot, 0x11, desc.root_entries)
        if total < 0x10000:
            struct.pack_into("<H", boot, 0x13, total)
        else:
            struct.pack_into("<I", boot, 0x20, total)
        struct.pack_into("<H", boot, 0x16, desc.sectors_per_fat)
    else:
        struct.pack_into("<I", boot, 0x20, total)
        struct.pack_into("<I", boot, 0x24, desc.sectors_per_fat)
        struct.pack_into("<I", boot, 0x2C, desc.root_cluster)
        struct.pack_into("<H", boot, 0x30, 1)    # FSInfo sector
        struct.pack_into("<H", boot, 0x32, 6)    # backup boot sector
    boot[0x15] = MEDIA_FIXED
    struct.pack_into("<H", boot, 0x18, 63)
    struct.pack_into("<H", boot, 0x1A, 255)
    ext = 0x40 if kind is FsKind.FAT32 else 0x24
    boot[ext] = 0x80
    boot[ext + 2] = 0x29
    struct.pack_into("<I", boot, ext + 3, desc.volume_serial)
    boot[ext + 7:ext + 18] = label.upper().ljust(11)[:11].encode("latin-1")
    fstype = {FsKind.FAT12: b"FAT12   ", FsKind.FAT16: b"FAT16   ",
              FsKind.FAT32: b"FAT32   "}[kind]
    boot[ext + 18:ext + 26] = fstype
    boot[510:512] = BOOT_SIGNATURE
    return bytes(boot)


def _fsinfo_sector(free_clusters: int, next_free: int) -> bytes:
    sec = bytearray(SECTOR)
    sec[0:4] = b"RRaA"
    sec[0x1E4:0x1E8] = b"rrAa"
    struct.pack_into("<II", sec, 0x1E8, free_clusters, next_free)
    sec[510:512] = BOOT_SIGNATURE
    return bytes(sec)


def _sidecar_geometry(desc: VolumeDescriptor, **extra) -> dict:
    """A sidecar's geometry: what ``check_sidecar`` compares, less the
    fields that are unset or that a sidecar leaves out, plus ``extra``."""
    return {**{key: value for key, value in boot_geometry(desc).items()
               if value is not None
               and key not in ("volume_serial", "mft_record_size")},
            **extra}


class _FatBuilder:
    def __init__(self, spec: CorpusSpec):
        kind_name = spec.filesystem
        bps = spec.bytes_per_sector
        total_sectors = spec.total_size // bps
        spc = spec.sectors_per_cluster or _pick_fat_spc(kind_name,
                                                        total_sectors)
        reserved = 32 if kind_name == "fat32" else 4
        root_entries = 0 if kind_name == "fat32" else 512
        fat_sectors, clusters = _solve_fat_sectors(
            total_sectors, bps, spc, reserved, 2, root_entries)
        kind = {"fat12": FsKind.FAT12, "fat16": FsKind.FAT16,
                "fat32": FsKind.FAT32}[kind_name]
        got = ("fat12" if clusters < FAT12_CLUSTER_LIMIT else
               "fat16" if clusters < FAT16_CLUSTER_LIMIT else "fat32")
        if got != kind_name:
            raise ForgeError(
                "geometry yields %s, not %s: adjust size or cluster size"
                % (got, kind_name))
        root_sector = reserved + 2 * fat_sectors
        fat32 = kind is FsKind.FAT32
        self.desc = VolumeDescriptor(
            kind=kind, bytes_per_sector=bps, sectors_per_cluster=spc,
            total_sectors=total_sectors, reserved_sectors=reserved,
            num_fats=2, sectors_per_fat=fat_sectors,
            root_entries=root_entries,
            root_dir_sector=None if fat32 else root_sector,
            # The FAT32 root is the first run allocated, so it starts here.
            root_cluster=2 if fat32 else None,
            first_data_sector=root_sector
            + (root_entries * DIR_ENTRY_SIZE + bps - 1) // bps,
            cluster_count=clusters,
            volume_serial=(0x5245_0000 ^ (spec.seed * 2654435761))
            & 0xFFFFFFFF)
        self.spec = spec
        self.fat_offsets = _fat_offsets(self.desc)
        self.cursor = 2     # every cluster below it is allocated

    def allocate(self, count: int) -> int:
        """First cluster of a fresh run of ``count`` clusters."""
        first = self.cursor
        if first + count > self.desc.cluster_count + 2:
            raise ForgeError("corpus does not fit volume")
        self.cursor = first + count
        return first

    def build(self, w: _Writer) -> GroundTruth:
        spec, desc = self.spec, self.desc
        kind, cs = desc.kind, desc.cluster_size
        files = spec.resolved_files()
        dir_names = spec.all_dirs()

        # Every directory is one contiguous block, sized and allocated
        # before any file data (a directory whose tail lives in some
        # distant cluster is unfindable once its chain is gone), so short
        # names and long-name fragments are assigned up front.
        taken: dict[str, set] = {name: set() for name in ["", *dir_names]}

        def named(name: str, parent: str) -> tuple[bytes, list[bytes]]:
            raw11, needs_lfn = _to_83(name, taken[parent])
            return raw11, _lfn_entries(name, raw11) if needs_lfn else []

        dir_83 = {name: named(name, "") for name in dir_names}
        file_83 = {f.path: named(f.name, f.parent) for f in files}
        # The root opens with the volume label, a directory with . and ..
        need = {"": 1 + sum(1 + len(lfns) for _, lfns in dir_83.values()),
                **dict.fromkeys(dir_names, 2)}
        for f in files:
            need[f.parent] += 1 + len(file_83[f.path][1])

        base: dict[str, int] = {}

        def allocate_dir(name: str) -> list[list[int]]:
            count = -(-need[name] // (cs // DIR_ENTRY_SIZE))
            runs = [[self.allocate(count), count]]
            _apply_edits(w, _chain_edits(self.fat_offsets, kind, runs))
            base[name] = cluster_offset(desc, runs[0][0])
            return runs

        if kind is FsKind.FAT32:
            root_bytes = allocate_dir("")[0][1] * cs
        else:
            if need[""] > desc.root_entries:
                raise ForgeError("root directory is full")
            base[""] = desc.root_dir_sector * desc.bytes_per_sector
            root_bytes = desc.root_entries * DIR_ENTRY_SIZE
        dir_runs = {name: allocate_dir(name) for name in dir_names}
        file_runs = _plan_file_clusters(
            files, cs, spec.fragment_pairs, self.allocate)

        label = spec.volume_label.upper().ljust(11)[:11].encode("latin-1")
        slots = {"": [_dir_entry(label, ATTR_VOLUME_ID, 0, 0)]}
        for name, runs in dir_runs.items():
            slots[name] = [_dir_entry(DOT_NAME, ATTR_DIRECTORY, runs[0][0], 0),
                           _dir_entry(DOTDOT_NAME, ATTR_DIRECTORY, 0, 0)]

        def place(parent: str, lfns: list[bytes], entry: bytes):
            """Append ``lfns`` and ``entry`` to ``parent``'s slots; returns
            the entry's byte offset and its fragments' offsets."""
            block = slots[parent]
            at = base[parent] + DIR_ENTRY_SIZE * len(block)
            block += lfns + [entry]
            return (at + DIR_ENTRY_SIZE * len(lfns),
                    [at + DIR_ENTRY_SIZE * i for i in range(len(lfns))])

        truth_dirs: dict[str, DirTruth] = {}
        for name, runs in dir_runs.items():
            raw11, lfns = dir_83[name]
            off, lfn_offsets = place(
                "", lfns, _dir_entry(raw11, ATTR_DIRECTORY, runs[0][0], 0))
            truth_dirs[name] = DirTruth(
                path=name, first_cluster=runs[0][0], clusters=runs,
                entry_offset=off, lfn_offsets=lfn_offsets)

        truth_files: dict[str, FileTruth] = {}
        for f in files:
            runs = file_runs[f.path]
            data = content_bytes(f.file_class, f.size, f.seed)
            _apply_edits(w, _chain_edits(self.fat_offsets, kind, runs))
            write_runs(w, desc, runs, data)
            first = runs[0][0] if runs else 0
            raw11, lfns = file_83[f.path]
            off, lfn_offsets = place(
                f.parent, lfns, _dir_entry(raw11, ATTR_ARCHIVE, first, f.size))
            truth_files[f.path] = FileTruth(
                path=f.path, file_class=f.file_class, size=f.size,
                seed=f.seed, sha256=hashlib.sha256(data).hexdigest(),
                first_cluster=first, clusters=runs,
                entry_offset=off, lfn_offsets=lfn_offsets)

        for name, block in slots.items():
            w.write(base[name], b"".join(block))
        # Every cluster from the cursor up is still free.
        _write_fat_system_areas(w, desc, spec.volume_label,
                                desc.cluster_count + 2 - self.cursor,
                                self.cursor)
        geometry = _sidecar_geometry(desc)
        internal = {
            "fat_offsets": self.fat_offsets,
            "fat_bytes": desc.sectors_per_fat * desc.bytes_per_sector,
            "root_blocks": [(base[""], root_bytes)],
        }
        return GroundTruth(
            filesystem=kind.value,
            total_size=spec.total_size,
            geometry=geometry,
            files=truth_files,
            dirs=truth_dirs,
            internal=internal,
            volume_label=spec.volume_label,
            seed=spec.seed,
        )


def _put_fat12(raw: bytearray, pos: int, index: int, value: int) -> None:
    """Store 12-bit entry ``index`` in the byte pair at ``raw[pos:pos + 2]``
    without disturbing the neighbouring entry's nibble."""
    if index % 2 == 0:
        raw[pos] = value & 0xFF
        raw[pos + 1] = (raw[pos + 1] & 0xF0) | ((value >> 8) & 0x0F)
    else:
        raw[pos] = (raw[pos] & 0x0F) | ((value << 4) & 0xF0)
        raw[pos + 1] = (value >> 4) & 0xFF


def _fat_offsets(desc: VolumeDescriptor) -> list[int]:
    return [(desc.reserved_sectors + i * desc.sectors_per_fat)
            * desc.bytes_per_sector for i in range(desc.num_fats)]


def _write_fat_system_areas(w: _Writer, desc: VolumeDescriptor, label: str,
                            free: int, next_free: int) -> None:
    """The boot sector, on FAT32 the FSInfo sector and both backups, and
    the two reserved entries at the head of every FAT copy."""
    kind = desc.kind
    boot = _fat_boot_sector(desc, label)
    w.write(0, boot)
    if kind is FsKind.FAT32:
        info = _fsinfo_sector(free, next_free)
        bps = desc.bytes_per_sector
        w.write(bps, info)
        w.write(6 * bps, boot)
        w.write(7 * bps, info)
    _apply_edits(w, _fat_edits(_fat_offsets(desc), kind, 0,
                               [(_EOC[kind] & ~0xFF) | MEDIA_FIXED,
                                _EOC[kind]]))


# -- shared allocation planning -------------------------------------------


def _plan_file_clusters(files, cluster_size, fragment_pairs, allocate):
    """Assign [first, count] cluster runs per file path; ``allocate(n)``
    returns the first cluster of a fresh run of n.  Fragmented pairs
    interleave single clusters until the smaller file ends, so neither
    file is contiguous, and the larger one takes the rest of their run;
    everything else takes one straight run."""
    partner_of = {}
    for a, b in fragment_pairs:
        partner_of[a] = b
        partner_of[b] = a
    out: dict[str, list[list[int]]] = {}
    for f in files:
        if f.path in out:
            continue
        count = -(-f.size // cluster_size) if f.size else 0
        partner = None
        if f.name in partner_of:
            pname = partner_of[f.name]
            partner = next((g for g in files
                            if g.name == pname and g.path not in out), None)
        if partner is None:
            out[f.path] = [[allocate(count), count]] if count else []
            continue
        pcount = -(-partner.size // cluster_size) if partner.size else 0
        first = allocate(count + pcount)
        shared = min(count, pcount)
        mine = [(first + 2 * i, 1) for i in range(shared)]
        theirs = [(first + 2 * i + 1, 1) for i in range(shared)]
        rest = (first + 2 * shared, count + pcount - 2 * shared)
        if rest[1]:
            (mine if count > pcount else theirs).append(rest)
        out[f.path] = merge_runs(mine)
        out[partner.path] = merge_runs(theirs)
    return out


# -- NTFS image builder ---------------------------------------------------


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _resident_attr(type_code: int, value: bytes, name: str = "") -> bytes:
    name_bytes = name.encode("utf-16-le")
    name_off = 0x18
    value_off = _align8(name_off + len(name_bytes))
    length = _align8(value_off + len(value))
    raw = bytearray(length)
    struct.pack_into("<IIBBHHH", raw, 0, type_code, length, 0, len(name),
                     name_off, 0, 0)
    struct.pack_into("<IHBB", raw, 0x10, len(value), value_off, 0, 0)
    raw[name_off:name_off + len(name_bytes)] = name_bytes
    raw[value_off:value_off + len(value)] = value
    return bytes(raw)


def _nonresident_attr(type_code: int, runs, real_size: int,
                      cluster_size: int, name: str = "") -> bytes:
    """A non-resident attribute over (first, count) cluster runs."""
    run_bytes = encode_data_runs(runs)
    name_bytes = name.encode("utf-16-le")
    runs_off = _align8(0x40 + len(name_bytes))
    length = _align8(runs_off + len(run_bytes))
    total_clusters = sum(count for _, count in runs)
    alloc = total_clusters * cluster_size
    raw = bytearray(length)
    struct.pack_into("<IIBBHHH", raw, 0, type_code, length, 1, len(name),
                     0x40, 0, 0)
    struct.pack_into("<QQ", raw, 0x10, 0, max(total_clusters - 1, 0))
    struct.pack_into("<HHI", raw, 0x20, runs_off, 0, 0)
    struct.pack_into("<QQQ", raw, 0x28, alloc, real_size, real_size)
    raw[0x40:0x40 + len(name_bytes)] = name_bytes
    raw[runs_off:runs_off + len(run_bytes)] = run_bytes
    return bytes(raw)


def _std_info_value() -> bytes:
    return struct.pack("<QQQQ", *(NTFS_BUILD_TIME,) * 4) + bytes(0x10)


def _file_name_value(parent_index: int, name: str, real: int, alloc: int,
                     is_dir: bool) -> bytes:
    name_bytes = name.encode("utf-16-le")
    raw = bytearray(0x42 + len(name_bytes))
    struct.pack_into("<Q", raw, 0, (1 << 48) | parent_index)
    struct.pack_into("<QQQQ", raw, 0x08, *(NTFS_BUILD_TIME,) * 4)
    struct.pack_into("<QQ", raw, 0x28, alloc, real)
    struct.pack_into("<I", raw, 0x38, 0x10000000 if is_dir else 0x20)
    raw[0x40] = len(name)
    raw[0x41] = 1  # Win32 namespace
    raw[0x42:] = name_bytes
    return bytes(raw)


def _index_root_value() -> bytes:
    """Minimal empty directory index ($I30 over $FILE_NAME keys)."""
    head = struct.pack("<IIIB3x", ATTR_FILE_NAME, 1, 4096, 1)
    node = struct.pack("<IIII", 0x10, 0x28, 0x28, 0)
    end_entry = struct.pack("<QHHI", 0, 0x18, 0, 2) + bytes(8)
    return head + node + end_entry


def _std_and_fn(name: str, parent: int, real: int, alloc: int,
                is_dir: bool) -> list[bytes]:
    return [
        _resident_attr(ATTR_STANDARD_INFORMATION, _std_info_value()),
        _resident_attr(ATTR_FILE_NAME,
                       _file_name_value(parent, name, real, alloc, is_dir)),
    ]


def _record_bytes(index: int, flags: int, attrs: list[bytes],
                  record_size: int) -> bytes:
    raw = bytearray(record_size)
    raw[0:4] = FILE_SIGNATURE
    usa_count = 1 + record_size // UPDATE_SEQUENCE_STRIDE
    struct.pack_into("<HH", raw, 0x04, 0x2A, usa_count)
    struct.pack_into("<H", raw, 0x10, 1)                 # sequence
    struct.pack_into("<H", raw, 0x12, 1)                 # link count
    struct.pack_into("<H", raw, 0x14, 0x30)              # first attribute
    struct.pack_into("<H", raw, 0x16, flags)
    pos = 0x30
    for attr in attrs:
        if pos + len(attr) + 8 > record_size:
            raise ForgeError("attributes overflow record %d" % index)
        raw[pos:pos + len(attr)] = attr
        pos += len(attr)
    struct.pack_into("<I", raw, pos, ATTR_END)
    used = pos + 8
    struct.pack_into("<II", raw, 0x18, used, record_size)
    struct.pack_into("<H", raw, 0x28, len(attrs) + 1)    # next attribute id
    # Fixup: stash the true last word of each 512-byte stride in the
    # update-sequence array, then stamp the guard value in its place.
    usn = (index % 0xFFFE) + 1
    struct.pack_into("<H", raw, 0x2A, usn)
    for i in range(1, usa_count):
        stride_end = i * UPDATE_SEQUENCE_STRIDE - 2
        raw[0x2A + 2 * i:0x2A + 2 * i + 2] = raw[stride_end:stride_end + 2]
        struct.pack_into("<H", raw, stride_end, usn)
    return bytes(raw)


def _dir_record(index: int, name: str, record_size: int) -> bytes:
    """An empty directory's record, named ``name`` in the root."""
    return _record_bytes(
        index, RECORD_FLAG_IN_USE | RECORD_FLAG_DIRECTORY,
        _std_and_fn(name, ROOT_RECORD, 0, 0, True) + [
            _resident_attr(ATTR_INDEX_ROOT, _index_root_value(), "$I30")],
        record_size)


def _file_record(index: int, name: str, parent: int, data: bytes, runs,
                 cluster_size: int, record_size: int):
    """A file's record and the (first, count) runs its data occupies.
    The data stays resident, and occupies no run, when it fits the
    record beside the file's names; otherwise it lives in ``runs``."""
    alloc = (sum(count for _, count in runs) * cluster_size if runs
             else _align8(len(data)))
    attrs = _std_and_fn(name, parent, len(data), alloc, False)
    free = record_size - 0x30 - sum(len(a) for a in attrs) - 0x18 - 8
    if len(data) <= free:
        attrs.append(_resident_attr(ATTR_DATA, data))
        runs = []
    else:
        attrs.append(_nonresident_attr(ATTR_DATA, runs, len(data),
                                       cluster_size))
    return _record_bytes(index, RECORD_FLAG_IN_USE, attrs, record_size), runs


def _ntfs_boot_sector(desc: VolumeDescriptor) -> bytes:
    boot = bytearray(SECTOR)
    boot[0:3] = b"\xeb\x52\x90"
    boot[3:11] = NTFS_OEM
    struct.pack_into("<H", boot, 0x0B, desc.bytes_per_sector)
    boot[0x0D] = desc.sectors_per_cluster
    boot[0x15] = MEDIA_FIXED
    struct.pack_into("<H", boot, 0x18, 63)
    struct.pack_into("<H", boot, 0x1A, 255)
    struct.pack_into("<Q", boot, 0x28, desc.total_sectors)
    struct.pack_into("<Q", boot, 0x30, desc.mft_lcn)
    struct.pack_into("<Q", boot, 0x38, desc.mirror_lcn)
    rs, cs = desc.mft_record_size, desc.cluster_size
    if rs >= cs:
        boot[0x40] = rs // cs
    else:
        boot[0x40] = (256 - (rs.bit_length() - 1)) & 0xFF
    boot[0x44] = 1
    struct.pack_into("<Q", boot, 0x48, desc.volume_serial)
    boot[510:512] = BOOT_SIGNATURE
    return bytes(boot)


def _system_records(record_size, cluster_size, mft_run, slot_count,
                    mft_bitmap_bits: bytes, bitmap_run, bitmap_real,
                    mirror_run, label: str):
    """Records 0..15 of a fresh volume.  Returns (records, offset of the
    MFT allocation bitmap's value within record 0)."""
    rs, cs = record_size, cluster_size
    recs: list[bytes] = []

    mft_attrs = _std_and_fn("$MFT", ROOT_RECORD, slot_count * rs,
                            slot_count * rs, False)
    mft_attrs.append(_nonresident_attr(ATTR_DATA, [mft_run], slot_count * rs,
                                       cs))
    bitmap_attr_off = 0x30 + sum(len(a) for a in mft_attrs)
    mft_attrs.append(_resident_attr(ATTR_BITMAP, mft_bitmap_bits))
    mft_bitmap_value_off = bitmap_attr_off + 0x18
    if mft_bitmap_value_off + len(mft_bitmap_bits) > 510:
        raise ForgeError("MFT bitmap attribute collides with a fixup word")
    recs.append(_record_bytes(0, RECORD_FLAG_IN_USE, mft_attrs, rs))

    mirror_real = 4 * rs
    recs.append(_record_bytes(1, RECORD_FLAG_IN_USE, _std_and_fn(
        "$MFTMirr", ROOT_RECORD, mirror_real, mirror_real, False) + [
        _nonresident_attr(ATTR_DATA, [mirror_run], mirror_real, cs)], rs))
    recs.append(_record_bytes(2, RECORD_FLAG_IN_USE, _std_and_fn(
        "$LogFile", ROOT_RECORD, 0, 0, False) + [
        _resident_attr(ATTR_DATA, b"")], rs))
    recs.append(_record_bytes(3, RECORD_FLAG_IN_USE, _std_and_fn(
        "$Volume", ROOT_RECORD, 0, 0, False) + [
        _resident_attr(ATTR_VOLUME_NAME, label.encode("utf-16-le")),
        _resident_attr(ATTR_VOLUME_INFORMATION,
                       struct.pack("<QBBH", 0, 3, 1, 0))], rs))
    recs.append(_record_bytes(4, RECORD_FLAG_IN_USE, _std_and_fn(
        "$AttrDef", ROOT_RECORD, 0, 0, False) + [
        _resident_attr(ATTR_DATA, b"")], rs))
    recs.append(_dir_record(ROOT_RECORD, ".", rs))
    recs.append(_record_bytes(6, RECORD_FLAG_IN_USE, _std_and_fn(
        "$Bitmap", ROOT_RECORD, bitmap_real, bitmap_real, False) + [
        _nonresident_attr(ATTR_DATA, [bitmap_run], bitmap_real, cs)], rs))
    boot_clusters = -(-8192 // cs)
    recs.append(_record_bytes(7, RECORD_FLAG_IN_USE, _std_and_fn(
        "$Boot", ROOT_RECORD, 8192, boot_clusters * cs, False) + [
        _nonresident_attr(ATTR_DATA, [(0, boot_clusters)], 8192, cs)], rs))
    for idx, name in ((8, "$BadClus"), (9, "$Secure"), (10, "$UpCase"),
                      (11, "$Extend")):
        recs.append(_record_bytes(idx, RECORD_FLAG_IN_USE, _std_and_fn(
            name, ROOT_RECORD, 0, 0, False) + [
            _resident_attr(ATTR_DATA, b"")], rs))
    for idx in range(12, SYSTEM_RECORDS):
        recs.append(_record_bytes(idx, RECORD_FLAG_IN_USE, [
            _resident_attr(ATTR_STANDARD_INFORMATION, _std_info_value())], rs))
    return recs, mft_bitmap_value_off


def _set_bits(bits: bytearray, runs, on: bool = True) -> None:
    """Set (or, with ``on`` false, clear) the bits that (first, count)
    runs cover in an LSB-first bitmap: the whole bytes of a run in one
    slice, at most seven bits at either edge one by one."""
    for first, count in runs:
        end = first + count
        lo, hi = -(-first // 8), end // 8
        if lo < hi:
            bits[lo:hi] = (b"\xff" if on else b"\x00") * (hi - lo)
            edges = (range(first, 8 * lo), range(8 * hi, end))
        else:
            edges = (range(first, end),)
        for i in (i for edge in edges for i in edge):
            if on:
                bits[i // 8] |= 1 << (i % 8)
            else:
                bits[i // 8] &= ~(1 << (i % 8))


def _write_ntfs_metadata(w: _Writer, desc: VolumeDescriptor,
                         bitmap_lcn: int, label: str,
                         records: dict | None = None, data_runs=(),
                         mft_clusters: int = 0) -> int:
    """Lay the NTFS metadata of ``desc``'s volume, the one way both the
    build and a quick format do it (Carrier, *File System Forensic
    Analysis*, ch. 11-13): the boot sector; an MFT at the boot sector's
    LCN of ``mft_clusters`` clusters, never fewer than records 0-15
    fill, holding records 0-15 and then the caller's ``records`` (index
    -> bytes, each in use); the cluster bitmap at ``bitmap_lcn`` with
    the metadata's own clusters and ``data_runs`` allocated; and the
    mirror of records 0-3 at the boot sector's mirror LCN.  Slots past
    the last record are not written.  Returns the byte offset of the
    record-allocation bitmap's value in record 0."""
    rs, cs, cc = desc.mft_record_size, desc.cluster_size, desc.total_clusters
    records = records or {}
    mft_clusters = max(mft_clusters, -(-SYSTEM_RECORDS * rs // cs))
    slot_count = mft_clusters * cs // rs
    bitmap_real = -(-cc // 8)
    mft_run = (desc.mft_lcn, mft_clusters)
    bitmap_run = (bitmap_lcn, -(-bitmap_real // cs))
    mirror_run = (desc.mirror_lcn, -(-4 * rs // cs))
    used = bytearray(max(8, _align8(-(-slot_count // 8))))
    _set_bits(used, [(0, SYSTEM_RECORDS), *((i, 1) for i in records)])
    system, value_off = _system_records(
        rs, cs, mft_run, slot_count, bytes(used), bitmap_run, bitmap_real,
        mirror_run, label)
    last = max(records, default=SYSTEM_RECORDS - 1)
    table = system + [records.get(i, bytes(rs))
                      for i in range(SYSTEM_RECORDS, last + 1)]
    # Boot code, system files, padding past the last cluster, the rest.
    clusters = bytearray(bitmap_real)
    _set_bits(clusters, [(0, -(-8192 // cs)), mft_run, bitmap_run,
                         mirror_run, (cc, bitmap_real * 8 - cc), *data_runs])
    w.write(0, _ntfs_boot_sector(desc))
    w.write(desc.mft_lcn * cs, b"".join(table))
    w.write(bitmap_lcn * cs, clusters)
    w.write(mirror_run[0] * cs, b"".join(system[:4]))
    return value_off


class _NtfsBuilder:
    def __init__(self, spec: CorpusSpec):
        bps = spec.bytes_per_sector
        spc = spec.sectors_per_cluster or 8
        if bps * spc < NTFS_RECORD_SIZE:
            raise ForgeError("cluster size below record size is unsupported")
        self.spec = spec
        self.desc = VolumeDescriptor(
            kind=FsKind.NTFS, bytes_per_sector=bps, sectors_per_cluster=spc,
            total_sectors=spec.total_size // bps, mft_lcn=4,
            # The mirror sits in the middle cluster.
            mirror_lcn=spec.total_size // bps // spc // 2,
            mft_record_size=NTFS_RECORD_SIZE,
            volume_serial=(0x4E54_0000_0000_0000 ^
                           (spec.seed * 0x9E3779B97F4A7C15)) & ((1 << 64) - 1))

    def build(self, w: _Writer) -> GroundTruth:
        spec, desc = self.spec, self.desc
        files = spec.resolved_files()
        dirs = spec.all_dirs()
        rs, cs, cc = desc.mft_record_size, desc.cluster_size, desc.total_clusters

        slots_needed = NTFS_FIRST_USER_RECORD + len(dirs) + len(files)
        mft_clusters = max(16, -(-slots_needed // (cs // rs)))
        bitmap_lcn = desc.mft_lcn + mft_clusters
        cursor = bitmap_lcn + -(-cc // (8 * cs))    # past the cluster bitmap
        if cursor > desc.mirror_lcn:
            # The MFT and the bitmap must end below the mirror.
            raise ForgeError("volume too small")

        def allocate(n: int) -> int:
            nonlocal cursor
            # Data stays below the mirror.
            if cursor + n > desc.mirror_lcn:
                raise ForgeError("corpus does not fit volume")
            cursor += n
            return cursor - n

        plan = _plan_file_clusters(files, cs, spec.fragment_pairs, allocate)

        # Record numbers: directories first, then files.
        mft_base = desc.mft_lcn * cs
        records: dict[int, bytes] = {}
        truth_dirs: dict[str, DirTruth] = {}
        for idx, name in enumerate(dirs, NTFS_FIRST_USER_RECORD):
            records[idx] = _dir_record(idx, name, rs)
            truth_dirs[name] = DirTruth(
                path=name, first_cluster=0, clusters=[],
                entry_offset=mft_base + idx * rs, record_index=idx)

        truth_files: dict[str, FileTruth] = {}
        for idx, f in enumerate(files, NTFS_FIRST_USER_RECORD + len(dirs)):
            parent = (truth_dirs[f.parent].record_index if f.parent
                      else ROOT_RECORD)
            data = content_bytes(f.file_class, f.size, f.seed)
            records[idx], runs = _file_record(idx, f.name, parent, data,
                                              plan[f.path], cs, rs)
            write_runs(w, desc, runs, data)
            truth_files[f.path] = FileTruth(
                path=f.path, file_class=f.file_class, size=f.size,
                seed=f.seed, sha256=hashlib.sha256(data).hexdigest(),
                first_cluster=runs[0][0] if runs else 0, clusters=runs,
                entry_offset=mft_base + idx * rs,
                resident=not runs, record_index=idx)

        value_off = _write_ntfs_metadata(
            w, desc, bitmap_lcn, spec.volume_label, records,
            [run for t in truth_files.values() for run in t.clusters],
            mft_clusters)

        geometry = _sidecar_geometry(desc, mft_clusters=mft_clusters)
        internal = {
            "mft_base": mft_base,
            "record_size": rs,
            "mft_slots": mft_clusters * cs // rs,
            "mft_bitmap_value_abs": mft_base + value_off,
            "cluster_bitmap_abs": bitmap_lcn * cs,
            "cluster_bitmap_bytes": -(-cc // 8),
        }
        return GroundTruth(
            filesystem="NTFS", total_size=spec.total_size,
            geometry=geometry, files=truth_files, dirs=truth_dirs,
            internal=internal, volume_label=spec.volume_label,
            seed=spec.seed)


# -- build dispatch -------------------------------------------------------


def build_image(spec: CorpusSpec, image_path, truth_path=None) -> GroundTruth:
    """Build a volume image and its ground-truth sidecar."""
    if spec.total_size % spec.bytes_per_sector:
        raise ForgeError("total size is not sector aligned")
    if spec.filesystem in ("fat12", "fat16", "fat32"):
        builder = _FatBuilder(spec)
    elif spec.filesystem == "ntfs":
        builder = _NtfsBuilder(spec)
    else:
        raise ForgeError("unknown filesystem %r" % spec.filesystem)
    open(image_path, "wb").close()
    try:
        # Sized, not filled: every byte never written stays a hole that
        # reads as zero, and no volume-sized buffer exists.
        os.truncate(image_path, spec.total_size)
        with _Writer(path=image_path) as w:
            truth = builder.build(w)
    except BaseException:
        os.unlink(image_path)   # no half-built image is left behind
        raise
    if truth_path is not None:
        truth.save(truth_path)
    return truth


def standard_corpus(filesystem: str, total_size: int | None = None,
                    seed: int = 0) -> CorpusSpec:
    """The reference corpus: at least two files of each content class,
    sizes from one byte to four mebibytes, one long name.  FAT keeps
    files out of the root so a quick format leaves their directory
    entries in carvable orphaned clusters.  No fragmentation — that is
    a separate scenario built with ``fragment_pairs``."""
    if total_size is None:
        total_size = {"fat12": 2 << 20, "fat16": 16 << 20}.get(
            filesystem, 64 << 20)
    parent = "DATA"
    mk = lambda name, cls, size: FileSpec(name, cls, size, None, parent)
    files = [
        mk("TINY.TXT", "document", 1),
        mk("REPORT.PDF", "document", 10000),
        mk("NOTES.TXT", "document", 512),
        mk("PHOTO.JPG", "image", 52341),
        mk("ICON.PNG", "image", 700),
        mk("SONG.MP3", "audio", 131072),
        mk("CLIP.OGG", "audio", 33000),
        mk("MOVIE.MKV", "video", 262144),
        mk("TRAILER.MP4", "video", 88200),
        mk("BUNDLE.ZIP", "compressed", 65536),
        mk("DOCS.GZ", "compressed", 2048),
        mk("TOOL.ELF", "executable", 40960),
        mk("SETUP.EXE", "executable", 16384),
        mk("Quarterly Report 2019.pdf", "document", 20480),
    ]
    if total_size >= 32 << 20:
        files.append(mk("BIGSHOW.MKV", "video", 4 << 20))
    return CorpusSpec(filesystem=filesystem, total_size=total_size,
                      files=files, dirs=[parent], seed=seed)


# -- deletion modalities ---------------------------------------------------


def _delete_edits(truth: GroundTruth, t) -> list:
    """The edits that delete file (or directory) ``t`` the way the file
    system itself does: its directory metadata marked unused and its
    allocation freed, no content byte touched."""
    if truth.filesystem == "NTFS":
        return [(t.entry_offset + 0x16, 2, _not_in_use),
                *_clear_bit_edits(truth.internal["mft_bitmap_value_abs"],
                                  [(t.record_index, 1)]),
                *_clear_bit_edits(truth.internal["cluster_bitmap_abs"],
                                  t.clusters)]
    kind, fat_offsets = FsKind(truth.filesystem), truth.internal["fat_offsets"]
    return [*((off, 1, lambda raw: bytes([DELETED_MARK]))
              for off in [t.entry_offset, *t.lfn_offsets]),
            *(edit for first, count in t.clusters
              for edit in _fat_edits(fat_offsets, kind, first, [0] * count))]


def _not_in_use(raw: bytes) -> bytes:
    """An MFT record's flags word with the in-use flag cleared."""
    flags, = struct.unpack("<H", raw)
    return struct.pack("<H", flags & ~RECORD_FLAG_IN_USE)


def _format(w: _Writer, desc: VolumeDescriptor, truth: GroundTruth,
            overwrite: bool) -> None:
    if desc.kind is FsKind.NTFS:
        # The fresh cluster bitmap goes where the sidecar records it
        # (right after the fresh records it would land on the old
        # table's records) and the mirror where the boot sector does;
        # both spans are checked before the first write.
        bitmap_lcn = truth.internal["cluster_bitmap_abs"] // desc.cluster_size
        for lcn, length in ((bitmap_lcn, -(-desc.total_clusters // 8)),
                            (desc.mirror_lcn, 4 * desc.mft_record_size)):
            w.check_span(lcn * desc.cluster_size, length, "write")
        data = (2 * desc.cluster_size,
                (desc.total_clusters - 2) * desc.cluster_size)
    else:
        data = (desc.first_data_sector * desc.bytes_per_sector,
                desc.cluster_count * desc.cluster_size)
    if overwrite:
        w.zero(*data)
    # The serial stays: formatting twice must equal formatting once.
    if desc.kind is FsKind.NTFS:
        _write_ntfs_metadata(w, desc, bitmap_lcn, "")
    else:
        _fat_quick_format(w, desc)


def _fat_quick_format(w: _Writer, desc: VolumeDescriptor) -> None:
    bps = desc.bytes_per_sector
    fat_offsets = _fat_offsets(desc)
    for off in fat_offsets:
        w.zero(off, desc.sectors_per_fat * bps)
    # The fresh root takes one cluster; the next free is the one after.
    _write_fat_system_areas(w, desc, "NO NAME", desc.cluster_count - 1, 3)
    if desc.kind is FsKind.FAT32:
        _apply_edits(w, _chain_edits(fat_offsets, desc.kind,
                                     [(desc.root_cluster, 1)]))
        w.zero(cluster_offset(desc, desc.root_cluster), desc.cluster_size)
    else:
        w.zero(desc.root_dir_sector * bps, desc.root_entries * DIR_ENTRY_SIZE)



def apply_mutation(image_path, action: str, truth: GroundTruth,
                   target: str | None = None) -> dict:
    """One named mutation against a forged image, planned from its
    sidecar ``truth`` and made through one read-write handle.  Returns a
    small summary of what was changed.  A ``truth`` that does not
    describe the image raises SidecarMismatch before anything is
    written."""
    if action not in MUTATIONS:
        raise ForgeError("unknown mutation %r" % action)
    with _Writer(path=image_path) as w:
        desc = check_sidecar(w, truth)
        if action in ("delete", "delete-all"):
            if action == "delete":
                t = truth.files.get(target) or truth.dirs.get(target)
                if t is None:
                    raise ForgeError(
                        "no such path in ground truth: %r" % target)
                paths, targets = [target], [t]
            else:
                paths = sorted(truth.files)
                targets = [truth.files[path] for path in paths]
            # Every span is checked before the first write, so a sidecar
            # that points outside the image changes nothing.
            _apply_edits(w, [edit for t in targets
                             for edit in _delete_edits(truth, t)])
            return {"action": action, "paths": paths}
        # A quick format re-initializes the metadata in place with the
        # same geometry: fresh boot record, empty allocation structures,
        # empty root.  The data area is not touched, which is the whole
        # forensic point.  A full overwrite first zeroes the data area
        # (a one-pass sanitizing format).  Every format write lies inside
        # the volume, so a volume that overruns its image changes nothing.
        w.check_span(0, desc.total_sectors * desc.bytes_per_sector, "write")
        _format(w, desc, truth, overwrite=action == "full-overwrite")
        return {"action": action, "paths": []}
