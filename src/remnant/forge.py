"""Synthetic FAT and NTFS volumes with byte-exact ground truth.

The forge is the oracle for everything else: it builds a deterministic
image from a declarative corpus spec, records where every byte of every
file went, and applies the three deletion modalities the recovery side
is tested against — metadata-only delete, quick format, full overwrite.
Content is regenerable from (class, size, seed), so a sidecar stays
small but an auditor can still compare full bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
from dataclasses import dataclass, field
from itertools import islice

from .fat import (
    ATTR_ARCHIVE,
    ATTR_DIRECTORY,
    ATTR_LFN,
    ATTR_VOLUME_ID,
    DELETED_MARK,
    DOT_NAME,
    DOTDOT_NAME,
    END_MARK,
    LFN_LAST_FLAG,
    load_fat,
    parse_dir_slots,
)
from .filetypes import magic_for
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
    MftError,
    decode_data_runs,
    mft_extent,
    parse_attributes,
    read_record,
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
    cluster_extents,
    cluster_offset,
    detect_filesystem,
    merge_runs,
    open_image,
    stream_extents,
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


class ForgeError(Exception):
    """Base error for image forging."""


def content_bytes(file_class: str, size: int, seed: int) -> bytes:
    """Deterministic file content: genuine magic prefix, seeded body."""
    if size < 0:
        raise ForgeError("negative file size")
    magic = magic_for(file_class)
    rng = random.Random(seed)
    body = rng.randbytes(max(0, size - len(magic)))
    return (magic + body)[:size]


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
            files = [FileSpec(f["name"], f["class"], int(f["size"]),
                              f.get("seed"), f.get("parent", ""))
                     for f in raw.get("files", [])]
            return cls(
                filesystem=raw["filesystem"],
                total_size=int(raw["total_size"]),
                files=files,
                dirs=list(raw.get("dirs", [])),
                volume_label=raw.get("volume_label", "REMNANT"),
                seed=int(raw.get("seed", 0)),
                bytes_per_sector=int(raw.get("bytes_per_sector", SECTOR)),
                sectors_per_cluster=raw.get("sectors_per_cluster"),
                fragment_pairs=[tuple(p) for p in raw.get("fragment_pairs", [])],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ForgeError("bad corpus spec: %s" % exc) from exc

    def to_dict(self) -> dict:
        return {
            "filesystem": self.filesystem,
            "total_size": self.total_size,
            "files": [{"name": f.name, "class": f.file_class, "size": f.size,
                       "seed": f.seed, "parent": f.parent} for f in self.files],
            "dirs": list(self.dirs),
            "volume_label": self.volume_label,
            "seed": self.seed,
            "bytes_per_sector": self.bytes_per_sector,
            "sectors_per_cluster": self.sectors_per_cluster,
            "fragment_pairs": [list(p) for p in self.fragment_pairs],
        }


@dataclass
class FileTruth:
    path: str
    file_class: str
    size: int
    seed: int
    sha256: str
    first_cluster: int
    clusters: list[list[int]]           # [start, length] runs
    entry_offset: int                   # dir entry (FAT) / record (NTFS)
    lfn_offsets: list[int] = field(default_factory=list)
    resident: bool | None = None
    record_index: int | None = None

    def cluster_list(self) -> list[int]:
        out = []
        for start, length in self.clusters:
            out.extend(range(start, start + length))
        return out


@dataclass
class DirTruth:
    path: str
    first_cluster: int
    clusters: list[list[int]]
    entry_offset: int
    lfn_offsets: list[int] = field(default_factory=list)
    record_index: int | None = None


@dataclass
class GroundTruth:
    filesystem: str
    total_size: int
    geometry: dict
    files: dict
    dirs: dict
    internal: dict
    volume_label: str
    seed: int
    mutations: list = field(default_factory=list)

    def to_json(self) -> str:
        raw = {
            "filesystem": self.filesystem,
            "total_size": self.total_size,
            "geometry": self.geometry,
            "files": {k: vars(v) for k, v in self.files.items()},
            "dirs": {k: vars(v) for k, v in self.dirs.items()},
            "internal": self.internal,
            "volume_label": self.volume_label,
            "seed": self.seed,
            "mutations": list(self.mutations),
        }
        return json.dumps(raw, indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        raw = json.loads(text)
        files = {k: FileTruth(**v) for k, v in raw["files"].items()}
        dirs = {k: DirTruth(**v) for k, v in raw["dirs"].items()}
        return cls(filesystem=raw["filesystem"], total_size=raw["total_size"],
                   geometry=raw["geometry"], files=files, dirs=dirs,
                   internal=raw["internal"],
                   volume_label=raw.get("volume_label", ""),
                   seed=raw.get("seed", 0),
                   mutations=list(raw.get("mutations", [])))

    @classmethod
    def load(cls, path) -> "GroundTruth":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def truth_rows(self) -> list[dict]:
        return [{"path": t.path, "class": t.file_class, "size": t.size,
                 "sha256": t.sha256} for t in self.files.values()]


# -- the image writer ------------------------------------------------------


class _Writer:
    """The one way the forge changes an image: the file, opened once
    (``flags`` are added to ``O_RDWR``) and written with ``pwrite`` at
    byte offsets."""

    def __init__(self, path, flags: int = 0):
        self.fd = os.open(path, os.O_RDWR | flags, 0o666)

    def __enter__(self) -> "_Writer":
        return self

    def __exit__(self, *exc) -> None:
        os.close(self.fd)

    def read(self, offset: int, length: int) -> bytes:
        return os.pread(self.fd, length, offset)

    def write(self, offset: int, data) -> None:
        view = memoryview(data)
        while view:
            n = os.pwrite(self.fd, view, offset)
            view, offset = view[n:], offset + n

    def zero(self, offset: int, length: int) -> None:
        """Write real zeros over ``length`` bytes, STREAM_CHUNK at a time."""
        zeros = memoryview(bytes(min(length, STREAM_CHUNK)))
        for pos in range(0, length, STREAM_CHUNK):
            self.write(offset + pos, zeros[:min(STREAM_CHUNK, length - pos)])

    def write_runs(self, runs, data: bytes, cluster_size: int,
                   offset_of) -> None:
        """Lay ``data`` over (first, count) cluster runs in order;
        ``offset_of`` maps a cluster number to its byte offset."""
        view = memoryview(data)
        pos = 0
        for first, count in runs:
            self.write(offset_of(first), view[pos:pos + count * cluster_size])
            pos += count * cluster_size

    def set_bits(self, base: int, runs, on: bool) -> None:
        """Set or clear the bits that (first, count) runs cover in the
        LSB-first bitmap at byte offset ``base``, one read and one write
        per run."""
        for first, count in runs:
            lo, hi = first // 8, -(-(first + count) // 8)
            raw = bytearray(self.read(base + lo, hi - lo))
            _set_bits(raw, [(first - 8 * lo, count)], on)
            self.write(base + lo, raw)

    def fat_entries(self, fat_offsets, kind: FsKind, first: int,
                    values) -> None:
        """Store ``values`` as FAT entries ``first``, ``first + 1``, ... in
        every copy of the table, one read and one write per copy.  FAT32
        keeps each entry's reserved top nibble; FAT12 entries share
        bytes, so their span is patched entry by entry."""
        n = len(values)
        if kind is FsKind.FAT12:
            lo = first * 3 // 2
            span = (first + n - 1) * 3 // 2 + 2 - lo
        else:
            width, code = (2, "H") if kind is FsKind.FAT16 else (4, "I")
            lo, span = first * width, n * width
            new = struct.pack("<%d%s" % (n, code), *values)
            keep = int.from_bytes(b"\0\0\0\xf0" * n, "little")
        for fat_off in fat_offsets:
            if kind is FsKind.FAT12:
                raw = bytearray(self.read(fat_off + lo, span))
                for index, value in enumerate(values, first):
                    _put_fat12(raw, index * 3 // 2 - lo, index, value)
            elif kind is FsKind.FAT16:
                raw = new
            else:
                old = int.from_bytes(self.read(fat_off + lo, span), "little")
                raw = (old & keep | int.from_bytes(new, "little")).to_bytes(
                    span, "little")
            self.write(fat_off + lo, raw)

    def fat_chain(self, fat_offsets, kind: FsKind, runs) -> None:
        """Link (first, count) runs into one chain that ends in
        end-of-chain: each cluster points at the next, each run's last
        cluster at the next run's first."""
        for i, (first, count) in enumerate(runs):
            last = runs[i + 1][0] if i + 1 < len(runs) else _EOC[kind]
            self.fat_entries(fat_offsets, kind, first,
                             [*range(first + 1, first + count), last])


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


def _pick_fat_spc(kind: str, total_sectors: int, bps: int) -> int:
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


def _fat_boot_sector(kind: FsKind, geom: dict, serial: int, label: str) -> bytes:
    boot = bytearray(SECTOR)
    boot[0:3] = b"\xeb\x3c\x90"
    boot[3:11] = b"MSWIN4.1"
    struct.pack_into("<H", boot, 0x0B, geom["bytes_per_sector"])
    boot[0x0D] = geom["sectors_per_cluster"]
    struct.pack_into("<H", boot, 0x0E, geom["reserved_sectors"])
    boot[0x10] = geom["num_fats"]
    total = geom["total_sectors"]
    if kind is not FsKind.FAT32:
        struct.pack_into("<H", boot, 0x11, geom["root_entries"])
        if total < 0x10000:
            struct.pack_into("<H", boot, 0x13, total)
        else:
            struct.pack_into("<I", boot, 0x20, total)
        struct.pack_into("<H", boot, 0x16, geom["sectors_per_fat"])
    else:
        struct.pack_into("<I", boot, 0x20, total)
        struct.pack_into("<I", boot, 0x24, geom["sectors_per_fat"])
        struct.pack_into("<I", boot, 0x2C, geom["root_cluster"])
        struct.pack_into("<H", boot, 0x30, 1)    # FSInfo sector
        struct.pack_into("<H", boot, 0x32, 6)    # backup boot sector
    boot[0x15] = MEDIA_FIXED
    struct.pack_into("<H", boot, 0x18, 63)
    struct.pack_into("<H", boot, 0x1A, 255)
    ext = 0x40 if kind is FsKind.FAT32 else 0x24
    boot[ext] = 0x80
    boot[ext + 2] = 0x29
    struct.pack_into("<I", boot, ext + 3, serial & 0xFFFFFFFF)
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


class _FatBuilder:
    def __init__(self, spec: CorpusSpec):
        kind_name = spec.filesystem
        bps = spec.bytes_per_sector
        total_sectors = spec.total_size // bps
        spc = spec.sectors_per_cluster or _pick_fat_spc(
            kind_name, total_sectors, bps)
        reserved = 32 if kind_name == "fat32" else 4
        num_fats = 2
        root_entries = 0 if kind_name == "fat32" else 512
        fat_sectors, clusters = _solve_fat_sectors(
            total_sectors, bps, spc, reserved, num_fats, root_entries)
        kind = {"fat12": FsKind.FAT12, "fat16": FsKind.FAT16,
                "fat32": FsKind.FAT32}[kind_name]
        got = ("fat12" if clusters < FAT12_CLUSTER_LIMIT else
               "fat16" if clusters < FAT16_CLUSTER_LIMIT else "fat32")
        if got != kind_name:
            raise ForgeError(
                "geometry yields %s, not %s: adjust size or cluster size"
                % (got, kind_name))
        self.spec = spec
        self.kind = kind
        self.bps = bps
        self.spc = spc
        self.cs = bps * spc
        self.reserved = reserved
        self.num_fats = num_fats
        self.root_entries = root_entries
        self.fat_sectors = fat_sectors
        self.clusters = clusters
        self.total_sectors = total_sectors
        root_dir_sectors = (root_entries * DIR_ENTRY_SIZE + bps - 1) // bps
        self.first_data_sector = (reserved + num_fats * fat_sectors
                                  + root_dir_sectors)
        self.fat_offsets = [(reserved + i * fat_sectors) * bps
                            for i in range(num_fats)]
        self.cursor = 2     # every cluster below it is allocated
        # The FAT32 root is the first run allocated, so it starts here.
        self.root_cluster = 2 if kind is FsKind.FAT32 else None
        self.serial = (0x5245_0000 ^ (spec.seed * 2654435761)) & 0xFFFFFFFF

    # cluster helpers

    def _cluster_off(self, cluster: int) -> int:
        return (self.first_data_sector * self.bps
                + (cluster - 2) * self.cs)

    def allocate(self, count: int) -> int:
        """First cluster of a fresh run of ``count`` clusters."""
        first = self.cursor
        if first + count > self.clusters + 2:
            raise ForgeError("corpus does not fit volume")
        self.cursor = first + count
        return first

    def geometry_dict(self) -> dict:
        g = {
            "kind": self.kind.value,
            "bytes_per_sector": self.bps,
            "sectors_per_cluster": self.spc,
            "reserved_sectors": self.reserved,
            "num_fats": self.num_fats,
            "sectors_per_fat": self.fat_sectors,
            "root_entries": self.root_entries,
            "total_sectors": self.total_sectors,
            "cluster_count": self.clusters,
            "first_data_sector": self.first_data_sector,
            "cluster_size": self.cs,
        }
        if self.kind is FsKind.FAT32:
            g["root_cluster"] = self.root_cluster
        else:
            g["root_dir_sector"] = self.reserved + self.num_fats * self.fat_sectors
        return g

    def build(self, w: _Writer) -> GroundTruth:
        spec = self.spec
        files = spec.resolved_files()
        dir_names = spec.all_dirs()
        per_cluster = self.cs // DIR_ENTRY_SIZE

        # Assign short names (and long-name fragments) up front so every
        # directory can be sized and allocated contiguously before file
        # data: a directory whose tail lives in some distant cluster is
        # unfindable once its chain is gone.
        taken_root: set = set()
        dir_meta: dict[str, dict] = {}
        for name in dir_names:
            raw11, needs_lfn = _to_83(name, taken_root)
            dir_meta[name] = {
                "raw11": raw11,
                "lfns": _lfn_entries(name, raw11) if needs_lfn else [],
            }
        takens: dict[str, set] = {name: set() for name in dir_names}
        file_meta: dict[str, dict] = {}
        for f in files:
            taken = takens[f.parent] if f.parent else taken_root
            raw11, needs_lfn = _to_83(f.name, taken)
            file_meta[f.path] = {
                "raw11": raw11,
                "lfns": _lfn_entries(f.name, raw11) if needs_lfn else [],
            }

        root_slots = 1  # the volume label comes first
        dir_slots = {name: 2 for name in dir_names}  # dot and dotdot
        for name in dir_names:
            root_slots += 1 + len(dir_meta[name]["lfns"])
        for f in files:
            need = 1 + len(file_meta[f.path]["lfns"])
            if f.parent:
                dir_slots[f.parent] += need
            else:
                root_slots += need

        if self.kind is FsKind.FAT32:
            count = -(-root_slots // per_cluster)
            root_runs = [[self.allocate(count), count]]
            w.fat_chain(self.fat_offsets, self.kind, root_runs)
            root_blocks = self._dir_capacity_blocks(root_runs)
        else:
            if root_slots > self.root_entries:
                raise ForgeError("root directory is full")
            start = (self.reserved
                     + self.num_fats * self.fat_sectors) * self.bps
            root_blocks = [(start, self.root_entries * DIR_ENTRY_SIZE)]

        dir_info: dict[str, dict] = {}
        for name in dir_names:
            count = -(-dir_slots[name] // per_cluster)
            runs = [[self.allocate(count), count]]
            w.fat_chain(self.fat_offsets, self.kind, runs)
            dot = _dir_entry(DOT_NAME, ATTR_DIRECTORY, runs[0][0], 0)
            dotdot = _dir_entry(DOTDOT_NAME, ATTR_DIRECTORY, 0, 0)
            dir_info[name] = {**dir_meta[name], "runs": runs,
                              "entries": [dot, dotdot]}

        file_runs = _plan_file_clusters(
            files, self.cs, spec.fragment_pairs, self.allocate)

        truth_files: dict[str, FileTruth] = {}
        pending_entries: dict[str, list] = {"": []}
        for name in dir_names:
            pending_entries[name] = []

        label_raw = spec.volume_label.upper().ljust(11)[:11].encode("latin-1")
        pending_entries[""].append(
            ("label", _dir_entry(label_raw, ATTR_VOLUME_ID, 0, 0)))

        for name in dir_names:
            info = dir_info[name]
            entry = _dir_entry(info["raw11"], ATTR_DIRECTORY,
                               info["runs"][0][0], 0)
            pending_entries[""].append(("dir", name, info["lfns"], entry))

        for f in files:
            runs = file_runs[f.path]
            data = content_bytes(f.file_class, f.size, f.seed)
            w.fat_chain(self.fat_offsets, self.kind, runs)
            w.write_runs(runs, data, self.cs, self._cluster_off)
            meta = file_meta[f.path]
            first = runs[0][0] if runs else 0
            entry = _dir_entry(meta["raw11"], ATTR_ARCHIVE, first, f.size)
            pending_entries[f.parent].append(("file", f, meta["lfns"], entry))
            truth_files[f.path] = FileTruth(
                path=f.path, file_class=f.file_class, size=f.size,
                seed=f.seed, sha256=hashlib.sha256(data).hexdigest(),
                first_cluster=first, clusters=runs,
                entry_offset=-1,  # patched when directories materialize
            )

        truth_dirs: dict[str, DirTruth] = {}
        self._lay_entries(w, pending_entries[""], root_blocks,
                          truth_files, truth_dirs, dir_info)
        for name in dir_names:
            info = dir_info[name]
            head = [("raw", e) for e in info["entries"]]
            self._lay_entries(w, head + pending_entries[name],
                              self._dir_capacity_blocks(info["runs"]),
                              truth_files, truth_dirs, {})

        geom = self.geometry_dict()
        geom["root_cluster"] = self.root_cluster
        boot = _fat_boot_sector(self.kind, geom, self.serial,
                                self.spec.volume_label)
        # Every cluster from the cursor up is still free.
        _write_fat_system_areas(w, self.kind, boot, self.fat_offsets,
                                self.clusters + 2 - self.cursor, self.cursor)
        geometry = self.geometry_dict()
        internal = {
            "fat_offsets": self.fat_offsets,
            "fat_bytes": self.fat_sectors * self.bps,
            "root_blocks": root_blocks,
        }
        return GroundTruth(
            filesystem=self.kind.value,
            total_size=spec.total_size,
            geometry=geometry,
            files=truth_files,
            dirs=truth_dirs,
            internal=internal,
            volume_label=spec.volume_label,
            seed=spec.seed,
        )

    def _dir_capacity_blocks(self, runs):
        return [(self._cluster_off(first), count * self.cs)
                for first, count in runs]

    def _lay_entries(self, w, items, blocks, truth_files, truth_dirs,
                     dir_info):
        slots = []
        for base, length in blocks:
            for pos in range(0, length, DIR_ENTRY_SIZE):
                slots.append(base + pos)
        cursor = 0

        def place(raw: bytes) -> int:
            nonlocal cursor
            if cursor >= len(slots):
                raise ForgeError("directory overflows its allocation")
            off = slots[cursor]
            w.write(off, raw)
            cursor += 1
            return off

        for item in items:
            if item[0] in ("raw", "label"):
                place(item[1])
            elif item[0] == "dir":
                _, name, lfns, entry = item
                lfn_offsets = [place(raw) for raw in lfns]
                off = place(entry)
                runs = dir_info[name]["runs"]
                truth_dirs[name] = DirTruth(
                    path=name, first_cluster=runs[0][0], clusters=runs,
                    entry_offset=off, lfn_offsets=lfn_offsets)
            else:
                _, f, lfns, entry = item
                lfn_offsets = [place(raw) for raw in lfns]
                off = place(entry)
                truth_files[f.path].entry_offset = off
                truth_files[f.path].lfn_offsets = lfn_offsets


def _put_fat12(raw: bytearray, pos: int, index: int, value: int) -> None:
    """Store 12-bit entry ``index`` in the byte pair at ``raw[pos:pos + 2]``
    without disturbing the neighbouring entry's nibble."""
    if index % 2 == 0:
        raw[pos] = value & 0xFF
        raw[pos + 1] = (raw[pos + 1] & 0xF0) | ((value >> 8) & 0x0F)
    else:
        raw[pos] = (raw[pos] & 0x0F) | ((value << 4) & 0xF0)
        raw[pos + 1] = (value >> 4) & 0xFF


def _write_fat_system_areas(w: _Writer, kind: FsKind, boot: bytes,
                            fat_offsets, free: int, next_free: int) -> None:
    """The boot sector, on FAT32 the FSInfo sector and both backups, and
    the two reserved entries at the head of every FAT copy."""
    w.write(0, boot)
    if kind is FsKind.FAT32:
        info = _fsinfo_sector(free, next_free)
        w.write(SECTOR, info)
        w.write(6 * SECTOR, boot)
        w.write(7 * SECTOR, info)
    w.fat_entries(fat_offsets, kind, 0,
                  [(_EOC[kind] & ~0xFF) | MEDIA_FIXED, _EOC[kind]])


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


def _ntfs_boot_sector(bps, spc, total_sectors, mft_lcn, mirror_lcn,
                      record_size, serial) -> bytes:
    boot = bytearray(SECTOR)
    boot[0:3] = b"\xeb\x52\x90"
    boot[3:11] = NTFS_OEM
    struct.pack_into("<H", boot, 0x0B, bps)
    boot[0x0D] = spc
    boot[0x15] = MEDIA_FIXED
    struct.pack_into("<H", boot, 0x18, 63)
    struct.pack_into("<H", boot, 0x1A, 255)
    struct.pack_into("<Q", boot, 0x28, total_sectors)
    struct.pack_into("<Q", boot, 0x30, mft_lcn)
    struct.pack_into("<Q", boot, 0x38, mirror_lcn)
    cs = bps * spc
    if record_size >= cs:
        boot[0x40] = record_size // cs
    else:
        boot[0x40] = (256 - (record_size.bit_length() - 1)) & 0xFF
    boot[0x44] = 1
    struct.pack_into("<Q", boot, 0x48, serial & (1 << 64) - 1)
    boot[510:512] = BOOT_SIGNATURE
    return bytes(boot)


def _system_records(record_size, cluster_size, mft_runs, mft_slots,
                    mft_bitmap_bits: bytes, bitmap_runs, bitmap_real,
                    mirror_runs, label: str):
    """Records 0..15 of a fresh volume.  Returns (records, offset of the
    MFT allocation bitmap's value within record 0)."""
    rs, cs = record_size, cluster_size
    recs: list[bytes] = []

    mft_attrs = _std_and_fn("$MFT", ROOT_RECORD, mft_slots * rs,
                            mft_slots * rs, False)
    mft_attrs.append(_nonresident_attr(ATTR_DATA, mft_runs, mft_slots * rs, cs))
    bitmap_attr_off = 0x30 + sum(len(a) for a in mft_attrs)
    mft_attrs.append(_resident_attr(ATTR_BITMAP, mft_bitmap_bits))
    mft_bitmap_value_off = bitmap_attr_off + 0x18
    if mft_bitmap_value_off + len(mft_bitmap_bits) > 510:
        raise ForgeError("MFT bitmap attribute collides with a fixup word")
    recs.append(_record_bytes(0, RECORD_FLAG_IN_USE, mft_attrs, rs))

    mirror_real = 4 * rs
    recs.append(_record_bytes(1, RECORD_FLAG_IN_USE, _std_and_fn(
        "$MFTMirr", ROOT_RECORD, mirror_real, mirror_real, False) + [
        _nonresident_attr(ATTR_DATA, mirror_runs, mirror_real, cs)], rs))
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
    recs.append(_record_bytes(
        ROOT_RECORD, RECORD_FLAG_IN_USE | RECORD_FLAG_DIRECTORY,
        _std_and_fn(".", ROOT_RECORD, 0, 0, True) + [
            _resident_attr(ATTR_INDEX_ROOT, _index_root_value(), "$I30")], rs))
    recs.append(_record_bytes(6, RECORD_FLAG_IN_USE, _std_and_fn(
        "$Bitmap", ROOT_RECORD, bitmap_real, bitmap_real, False) + [
        _nonresident_attr(ATTR_DATA, bitmap_runs, bitmap_real, cs)], rs))
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


class _NtfsBuilder:
    def __init__(self, spec: CorpusSpec):
        self.spec = spec
        self.bps = spec.bytes_per_sector
        self.spc = spec.sectors_per_cluster or 8
        self.cs = self.bps * self.spc
        self.rs = NTFS_RECORD_SIZE
        if self.cs < self.rs:
            raise ForgeError("cluster size below record size is unsupported")
        self.total_sectors = spec.total_size // self.bps
        self.cluster_count = self.total_sectors // self.spc
        self.mft_lcn = 4
        self.serial = (0x4E54_0000_0000_0000 ^
                       (spec.seed * 0x9E3779B97F4A7C15)) & ((1 << 64) - 1)

    def build(self, w: _Writer) -> GroundTruth:
        spec = self.spec
        files = spec.resolved_files()
        dirs = spec.all_dirs()
        rs, cs = self.rs, self.cs
        per_cluster = cs // rs

        slots_needed = NTFS_FIRST_USER_RECORD + len(dirs) + len(files)
        mft_clusters = max(16, -(-slots_needed // per_cluster))
        mft_slots = mft_clusters * per_cluster
        bitmap_real = -(-self.cluster_count // 8)
        bitmap_clusters = -(-bitmap_real // cs)
        bitmap_lcn = self.mft_lcn + mft_clusters
        mirror_clusters = -(-4 * rs // cs)
        mirror_lcn = self.cluster_count // 2
        cursor = [bitmap_lcn + bitmap_clusters]
        if mft_clusters * per_cluster < slots_needed:
            raise ForgeError("corpus does not fit the MFT")

        def allocate(n: int) -> int:
            start = cursor[0]
            if start + n > min(mirror_lcn, self.cluster_count):
                raise ForgeError("corpus does not fit volume")
            cursor[0] = start + n
            return start

        plan = _plan_file_clusters(files, cs, spec.fragment_pairs, allocate)

        # Record index assignment: directories first, then files.
        dir_index = {name: NTFS_FIRST_USER_RECORD + i
                     for i, name in enumerate(dirs)}
        first_file_index = NTFS_FIRST_USER_RECORD + len(dirs)

        used_bits = bytearray(max(8, _align8(-(-mft_slots // 8))))
        _set_bits(used_bits, [(0, SYSTEM_RECORDS),
                              (first_file_index, len(files))]
                  + [(idx, 1) for idx in dir_index.values()])

        mft_runs = [(self.mft_lcn, mft_clusters)]
        bitmap_runs = [(bitmap_lcn, bitmap_clusters)]
        mirror_runs = [(mirror_lcn, mirror_clusters)]
        system, mft_bitmap_value_off = _system_records(
            rs, cs, mft_runs, mft_slots, bytes(used_bits), bitmap_runs,
            bitmap_real, mirror_runs, spec.volume_label)

        slots: list[bytes | None] = [None] * mft_slots
        for i, rec in enumerate(system):
            slots[i] = rec

        truth_dirs: dict[str, DirTruth] = {}
        mft_base = self.mft_lcn * cs
        for name, idx in dir_index.items():
            rec = _record_bytes(
                idx, RECORD_FLAG_IN_USE | RECORD_FLAG_DIRECTORY,
                _std_and_fn(name, ROOT_RECORD, 0, 0, True) + [
                    _resident_attr(ATTR_INDEX_ROOT, _index_root_value(),
                                   "$I30")], rs)
            slots[idx] = rec
            truth_dirs[name] = DirTruth(
                path=name, first_cluster=0, clusters=[],
                entry_offset=mft_base + idx * rs, record_index=idx)

        truth_files: dict[str, FileTruth] = {}
        for i, f in enumerate(files):
            idx = first_file_index + i
            parent = dir_index.get(f.parent, ROOT_RECORD)
            data = content_bytes(f.file_class, f.size, f.seed)
            runs = plan[f.path]
            base_attrs = _std_and_fn(
                f.name, parent, f.size,
                sum(n for _, n in runs) * cs if runs else _align8(f.size),
                False)
            free = rs - 0x30 - sum(len(a) for a in base_attrs) - 0x18 - 8
            resident = f.size <= free
            if resident:
                attrs = base_attrs + [_resident_attr(ATTR_DATA, data)]
                runs = []
            else:
                attrs = base_attrs + [_nonresident_attr(
                    ATTR_DATA, runs, f.size, cs)]
                w.write_runs(runs, data, cs, lambda lcn: lcn * cs)
            slots[idx] = _record_bytes(idx, RECORD_FLAG_IN_USE, attrs, rs)
            truth_files[f.path] = FileTruth(
                path=f.path, file_class=f.file_class, size=f.size,
                seed=f.seed, sha256=hashlib.sha256(data).hexdigest(),
                first_cluster=runs[0][0] if runs else 0, clusters=runs,
                entry_offset=mft_base + idx * rs,
                resident=resident, record_index=idx)

        # Lay the table, the cluster bitmap, the mirror, and the boot code.
        w.write(mft_base, b"".join(rec or bytes(rs) for rec in slots))

        # Boot code, system files, padding past the last cluster, corpus.
        cluster_bits = bytearray(bitmap_real)
        cc = self.cluster_count
        _set_bits(cluster_bits, [(0, -(-8192 // cs)), *mft_runs, *bitmap_runs,
                                 *mirror_runs, (cc, bitmap_real * 8 - cc)]
                  + [run for runs in plan.values() for run in runs])
        w.write(bitmap_lcn * cs, cluster_bits)

        w.write(mirror_lcn * cs, b"".join(slots[:4]))
        w.write(0, _ntfs_boot_sector(self.bps, self.spc, self.total_sectors,
                                     self.mft_lcn, mirror_lcn, rs,
                                     self.serial))

        geometry = {
            "kind": "NTFS",
            "bytes_per_sector": self.bps,
            "sectors_per_cluster": self.spc,
            "cluster_size": cs,
            "total_sectors": self.total_sectors,
            "cluster_count": self.cluster_count,
            "mft_lcn": self.mft_lcn,
            "mft_clusters": mft_clusters,
            "record_size": rs,
            "mirror_lcn": mirror_lcn,
        }
        internal = {
            "mft_base": mft_base,
            "record_size": rs,
            "mft_slots": mft_slots,
            "mft_bitmap_value_abs": mft_base + mft_bitmap_value_off,
            "cluster_bitmap_abs": bitmap_lcn * cs,
            "cluster_bitmap_bytes": bitmap_real,
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
    with _Writer(image_path, os.O_CREAT | os.O_TRUNC) as w:
        try:
            # Sized, not filled: every byte never written stays a hole
            # that reads as zero, and no volume-sized buffer exists.
            os.ftruncate(w.fd, spec.total_size)
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


def delete_metadata_only(image_path, truth: GroundTruth, path: str) -> None:
    """Delete one file (or directory) the way the filesystem driver does:
    mark its directory metadata unused and free its allocation, touching
    no content byte."""
    if path in truth.files:
        t = truth.files[path]
    elif path in truth.dirs:
        t = truth.dirs[path]
    else:
        raise ForgeError("no such path in ground truth: %r" % path)
    with _Writer(image_path) as w:
        _delete(w, truth, t)


def _delete(w: _Writer, truth: GroundTruth, t) -> None:
    if truth.filesystem == "NTFS":
        flags = struct.unpack("<H", w.read(t.entry_offset + 0x16, 2))[0]
        w.write(t.entry_offset + 0x16,
                struct.pack("<H", flags & ~RECORD_FLAG_IN_USE))
        w.set_bits(truth.internal["mft_bitmap_value_abs"],
                   [(t.record_index, 1)], False)
        w.set_bits(truth.internal["cluster_bitmap_abs"], t.clusters, False)
    else:
        for off in [t.entry_offset, *t.lfn_offsets]:
            w.write(off, bytes([DELETED_MARK]))
        kind = FsKind(truth.filesystem)
        for first, count in t.clusters:
            w.fat_entries(truth.internal["fat_offsets"], kind, first,
                          [0] * count)


def delete_all(image_path, truth: GroundTruth) -> list[str]:
    paths = sorted(truth.files)
    with _Writer(image_path) as w:
        for path in paths:
            _delete(w, truth, truth.files[path])
    return paths


def quick_format(image_path) -> None:
    """Re-initialize metadata in place with the same geometry: fresh boot
    record, empty allocation structures, empty root.  The data area is
    not touched, which is the whole forensic point."""
    with open_image(image_path) as img:
        desc = detect_filesystem(img)
    if desc.kind is FsKind.NTFS:
        _ntfs_quick_format(image_path, desc)
    else:
        _fat_quick_format(image_path, desc)


def _fat_quick_format(image_path, desc: VolumeDescriptor) -> None:
    kind = desc.kind
    geom = {
        "bytes_per_sector": desc.bytes_per_sector,
        "sectors_per_cluster": desc.sectors_per_cluster,
        "reserved_sectors": desc.reserved_sectors,
        "num_fats": desc.num_fats,
        "sectors_per_fat": desc.sectors_per_fat,
        "root_entries": desc.root_entries or 0,
        "total_sectors": desc.total_sectors,
        "root_cluster": desc.root_cluster,
    }
    # Keep the serial: formatting twice must equal formatting once.
    serial = (desc.volume_serial or 0) & 0xFFFFFFFF
    boot = _fat_boot_sector(kind, geom, serial, "NO NAME")
    bps = desc.bytes_per_sector
    fat_offsets = _fat_offsets(desc)
    with _Writer(image_path) as w:
        for off in fat_offsets:
            w.zero(off, desc.sectors_per_fat * bps)
        # The fresh root takes one cluster; the next free is the one after.
        _write_fat_system_areas(w, kind, boot, fat_offsets,
                                desc.cluster_count - 1, 3)
        if kind is FsKind.FAT32:
            w.fat_chain(fat_offsets, kind, [(desc.root_cluster, 1)])
            w.zero(cluster_offset(desc, desc.root_cluster), desc.cluster_size)
        else:
            w.zero(desc.root_dir_sector * bps,
                   desc.root_entries * DIR_ENTRY_SIZE)


def _fat_offsets(desc: VolumeDescriptor) -> list[int]:
    return [(desc.reserved_sectors + i * desc.sectors_per_fat)
            * desc.bytes_per_sector for i in range(desc.num_fats)]


def _ntfs_quick_format(image_path, desc: VolumeDescriptor) -> None:
    rs = desc.mft_record_size
    cs = desc.cluster_size
    cc = desc.total_clusters
    mft_lcn = desc.mft_lcn
    fresh_clusters = -(-SYSTEM_RECORDS * rs // cs)
    bitmap_lcn = mft_lcn + fresh_clusters
    bitmap_real = -(-cc // 8)
    bitmap_clusters = -(-bitmap_real // cs)
    mirror_clusters = -(-4 * rs // cs)
    mirror_lcn = cc // 2
    # Keep the serial: formatting twice must equal formatting once.
    serial = (desc.volume_serial or 0) & ((1 << 64) - 1)

    used = bytearray(8)
    _set_bits(used, [(0, SYSTEM_RECORDS)])
    mft_run = (mft_lcn, fresh_clusters)
    bitmap_run = (bitmap_lcn, bitmap_clusters)
    mirror_run = (mirror_lcn, mirror_clusters)
    recs, _ = _system_records(
        rs, cs, [mft_run], SYSTEM_RECORDS, bytes(used), [bitmap_run],
        bitmap_real, [mirror_run], "")

    cluster_bits = bytearray(bitmap_real)
    _set_bits(cluster_bits, [(0, -(-8192 // cs)), mft_run, bitmap_run,
                             mirror_run, (cc, bitmap_real * 8 - cc)])

    boot = _ntfs_boot_sector(desc.bytes_per_sector, desc.sectors_per_cluster,
                             desc.total_sectors, mft_lcn, mirror_lcn, rs,
                             serial)
    with _Writer(image_path) as w:
        w.write(0, boot)
        w.write(mft_lcn * cs, b"".join(recs))
        w.write(bitmap_lcn * cs, cluster_bits)
        w.write(mirror_lcn * cs, b"".join(recs[:4]))


def full_overwrite(image_path) -> None:
    """Zero the data area, then re-initialize the metadata (a one-pass
    sanitizing format)."""
    with open_image(image_path) as img:
        desc = detect_filesystem(img)
    if desc.kind is FsKind.NTFS:
        start = 2 * desc.cluster_size
        end = desc.total_clusters * desc.cluster_size
    else:
        start = desc.first_data_sector * desc.bytes_per_sector
        end = start + desc.cluster_count * desc.cluster_size
    with _Writer(image_path) as w:
        w.zero(start, end - start)
    quick_format(image_path)


MUTATIONS = ("delete", "delete-all", "quick-format", "full-overwrite")


def apply_mutation(image_path, action: str, truth: GroundTruth | None = None,
                   target: str | None = None) -> dict:
    """One named mutation against a forged image.  Returns a small
    summary of what was changed."""
    if action == "delete":
        if truth is None or target is None:
            raise ForgeError("delete needs a ground truth and a target path")
        delete_metadata_only(image_path, truth, target)
        return {"action": action, "paths": [target]}
    if action == "delete-all":
        if truth is None:
            raise ForgeError("delete-all needs a ground truth")
        return {"action": action, "paths": delete_all(image_path, truth)}
    if action == "quick-format":
        quick_format(image_path)
        return {"action": action, "paths": []}
    if action == "full-overwrite":
        full_overwrite(image_path)
        return {"action": action, "paths": []}
    raise ForgeError("unknown mutation %r" % action)


# -- writing into a live volume (the same-media hazard) --------------------


def add_file(image_path, name: str, data: bytes) -> dict:
    """Create a new file on the volume through normal allocation.  This
    is deliberately destructive to remnants: new content claims the
    lowest free clusters, exactly where deleted files linger."""
    with open_image(image_path) as img:
        desc = detect_filesystem(img)
        if desc.kind is FsKind.NTFS:
            return _ntfs_add_file(image_path, img, desc, name, data)
        return _fat_add_file(image_path, img, desc, name, data)


def _fat_add_file(image_path, img, desc, name, data) -> dict:
    fat = load_fat(img, desc)
    cs = desc.cluster_size
    if desc.kind is FsKind.FAT32:
        root_runs, _ = fat.chain_from(desc.root_cluster)
        blocks = [(cluster_offset(desc, first), count * cs)
                  for first, count in root_runs]
    else:
        blocks = [(desc.root_dir_sector * desc.bytes_per_sector,
                   desc.root_entries * DIR_ENTRY_SIZE)]
    slots = []
    for base, length in blocks:
        block = img.read_at(base, length)
        slots += [(base + pos, block[pos:pos + DIR_ENTRY_SIZE])
                  for pos in range(0, length, DIR_ENTRY_SIZE)]

    # FAT names are case-blind: a live entry that already answers to the
    # name, long or short, is a collision, and a derived short name must
    # differ from every live one.
    live = [e for e in parse_dir_slots(slots, "", desc.kind)[0]
            if not e.deleted and not e.is_label]
    wanted = name.upper()
    if any(wanted in (e.short_name.upper(), (e.lfn_name or "").upper())
           for e in live):
        raise ForgeError("%r already exists in the root directory" % name)
    raw11, needs_lfn = _to_83(name, {e.raw_name for e in live})
    lfns = _lfn_entries(name, raw11) if needs_lfn else []

    runs = _lowest_free_runs(fat.is_free, 2, desc.cluster_count + 2,
                             -(-len(data) // cs))
    entry = _dir_entry(raw11, ATTR_ARCHIVE, runs[0][0] if runs else 0,
                       len(data))
    slot_offs: list[int] = []
    for off, raw in slots:
        if raw[0] in (END_MARK, DELETED_MARK):
            slot_offs.append(off)
            if len(slot_offs) == len(lfns) + 1:
                break
        else:
            slot_offs = []
    else:
        raise ForgeError("no room in the root directory")

    with _Writer(image_path) as w:
        w.write_runs(runs, data, cs, lambda c: cluster_offset(desc, c))
        w.fat_chain(_fat_offsets(desc), desc.kind, runs)
        for off, raw in zip(slot_offs, lfns + [entry]):
            w.write(off, raw)
    return {"path": name, "clusters": runs}


def _lowest_free_runs(is_free, start: int, stop: int,
                      count: int) -> list[list[int]]:
    """The lowest ``count`` clusters in [start, stop) that ``is_free``
    accepts, as [first, count] runs; the walk stops at the last one
    needed."""
    found = list(islice(filter(is_free, range(start, stop)), count))
    if len(found) < count:
        raise ForgeError("volume full")
    return merge_runs((c, 1) for c in found)


def _ntfs_record_slots(img, desc):
    """(index, byte offset) of every slot in the MFT extent."""
    rs = desc.mft_record_size
    cs = desc.cluster_size
    extent = mft_extent(img, desc)
    idx = 0
    for first, count in extent:
        if first is None:
            idx += count * cs // rs
            continue
        base = cluster_offset(desc, first)
        for k in range(count * cs // rs):
            yield idx, base + k * rs
            idx += 1


def _ntfs_add_file(image_path, img, desc, name, data) -> dict:
    rs = desc.mft_record_size
    cs = desc.cluster_size

    slot_index = slot_off = rec0_off = rec6_off = None
    for idx, off in _ntfs_record_slots(img, desc):
        if idx == 0:
            rec0_off = off
        elif idx == 6:
            rec6_off = off
        elif idx >= SYSTEM_RECORDS:
            head = img.read_at(off, 0x18)
            flags, = struct.unpack_from("<H", head, 0x16)
            if head[0:4] != FILE_SIGNATURE or not flags & RECORD_FLAG_IN_USE:
                slot_index, slot_off = idx, off
                break
    if slot_index is None:
        raise ForgeError("no free record slot")
    if rec6_off is None or rec0_off is None:
        raise ForgeError("volume lacks an allocation bitmap")

    # The cluster allocation bitmap is record 6's unnamed data stream.
    rec6 = read_record(img.read_at(rec6_off, rs), rec6_off, 6)
    bitmap_first = None
    bitmap_real = 0
    for attr in parse_attributes(rec6.data, rec6.header).attributes:
        if attr.is_unnamed_data and not attr.resident:
            bitmap_runs = decode_data_runs(attr.run_bytes)
            bitmap_first = bitmap_runs[0][0] if bitmap_runs else None
            bitmap_real = attr.real_size
    # No run, or a sparse first run: the bitmap has no clusters to update.
    if bitmap_first is None:
        raise ForgeError("volume lacks an allocation bitmap")
    bitmap_abs = bitmap_first * cs
    bits = bytearray(img.read_at(bitmap_abs, bitmap_real))

    count = -(-len(data) // cs)
    runs = _lowest_free_runs(lambda c: not bits[c // 8] >> (c % 8) & 1,
                             2, desc.total_clusters, count)

    base_attrs = _std_and_fn(name, ROOT_RECORD, len(data),
                             count * cs if runs else _align8(len(data)),
                             False)
    free = rs - 0x30 - sum(len(a) for a in base_attrs) - 0x18 - 8
    if len(data) <= free:
        attrs = base_attrs + [_resident_attr(ATTR_DATA, data)]
        runs = []
    else:
        attrs = base_attrs + [_nonresident_attr(
            ATTR_DATA, runs, len(data), cs)]
    rec = _record_bytes(slot_index, RECORD_FLAG_IN_USE, attrs, rs)

    # The record-allocation bitmap is record 0's resident $BITMAP value.
    rec0 = read_record(img.read_at(rec0_off, rs), rec0_off, 0)
    walk0 = parse_attributes(rec0.data, rec0.header)
    mft_bits = next((a for a in walk0.attributes
                     if a.type_code == ATTR_BITMAP and a.resident), None)
    if mft_bits is None:
        raise ForgeError("record 0 lacks a record-allocation bitmap")

    with _Writer(image_path) as w:
        w.write_runs(runs, data, cs, lambda c: cluster_offset(desc, c))
        w.set_bits(bitmap_abs, runs, True)
        w.write(slot_off, rec)
        w.set_bits(rec0_off + mft_bits.value_offset, [(slot_index, 1)], True)
    return {"path": name, "clusters": runs}


# -- sanitization audit ----------------------------------------------------


def audit_image(image_path, truth: GroundTruth) -> dict:
    """Compare the bytes on the volume against the originals, file by
    file.  Read-only.

    A non-resident file's runs are streamed into one sha256 first; a
    digest equal to the sidecar's ``sha256`` is taken as byte identity,
    so the whole file is recoverable and its original is never rebuilt.
    Any other outcome regenerates the original and compares it chunk by
    chunk, and a chunk that differs cluster by cluster, which is what
    counts a partial file's surviving bytes.
    """
    with open_image(image_path) as img:
        if img.size != truth.total_size:
            raise ForgeError(
                "ground truth describes a %d-byte volume, image is %d"
                % (truth.total_size, img.size))
        desc = detect_filesystem(img)
        if desc.kind.value != truth.filesystem:
            raise ForgeError(
                "ground truth is for %s, image is %s"
                % (truth.filesystem, desc.kind.value))
        rows = []
        for key in sorted(truth.files):
            t = truth.files[key]
            rows.append(_audit_one(img, desc, t))
    total = sum(r["size_bytes"] for r in rows)
    recoverable = sum(r["recoverable_bytes"] for r in rows)
    counts = {"RECOVERABLE": 0, "PARTIAL": 0, "SANITIZED": 0}
    for r in rows:
        counts[r["verdict"]] += 1
    return {
        "truth_files": len(rows),
        "files": rows,
        "total_bytes": total,
        "recoverable_bytes": recoverable,
        "recoverable_files": counts["RECOVERABLE"],
        "partial_files": counts["PARTIAL"],
        "sanitized_files": counts["SANITIZED"],
        "verdict": "RECOVERABLE" if recoverable else "SANITIZED",
    }


def _audit_one(img, desc, t: FileTruth) -> dict:
    if t.resident:
        matching = _audit_resident(
            img, desc, t, content_bytes(t.file_class, t.size, t.seed))
    elif stream_extents(img, cluster_extents(img, desc, t.clusters),
                        t.size, None)[0] == t.sha256:
        matching = t.size
    else:
        original = content_bytes(t.file_class, t.size, t.seed)
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
                # A chunk that differs is compared cluster by cluster.
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


def _audit_resident(img, desc, t: FileTruth, original: bytes) -> int:
    try:
        rec = read_record(img.read_at(t.entry_offset, desc.mft_record_size),
                          t.entry_offset)
    except MftError:
        return 0
    for attr in parse_attributes(rec.data, rec.header).attributes:
        if attr.is_unnamed_data and attr.resident:
            return t.size if attr.value == original else 0
    return 0
