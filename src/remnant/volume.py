"""Raw volume images and boot-record geometry for FAT and NTFS volumes.

Everything else in the package sits on top of this module: it opens an
image (read-only for every analysis; the forge's writer is a read-write
subclass), decides what filesystem the boot record claims to be, and
turns cluster numbers into byte offsets.  It also owns every
chunked read of the image, at most STREAM_CHUNK bytes at a time:
``find_signatures`` serves both deep carves, and ``read_extents`` serves
recovery and the audit (``stream_extents`` hashes and sinks over it),
the $MFT walk and the FAT decode.
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct
from dataclasses import dataclass
from enum import Enum

BOOT_SIGNATURE = b"\x55\xaa"  # bytes 510..512 of the boot sector
NTFS_OEM = b"NTFS    "        # bytes 3..11
DIR_ENTRY_SIZE = 32           # bytes per FAT directory entry

VALID_SECTOR_SIZES = (512, 1024, 2048, 4096)
MAX_SECTORS_PER_CLUSTER = 128

# FAT type is decided by the count of data clusters, nothing else.
FAT12_CLUSTER_LIMIT = 4085   # below this: FAT12
FAT16_CLUSTER_LIMIT = 65525  # below this: FAT16, else FAT32

MIN_IMAGE_BYTES = 512

STREAM_CHUNK = 1 << 20  # most bytes one read may hold while streaming
HEAD_BYTES = 64         # leading payload bytes kept for classification


class VolumeError(Exception):
    """Base class for volume-level failures."""


class UnrecognizedVolume(VolumeError):
    """The boot sector is not a recognizable FAT or NTFS volume."""


class CorruptBootRecord(VolumeError):
    """Boot record geometry violates filesystem invariants."""


class ClusterRangeError(VolumeError):
    """A cluster number lies outside the volume's addressable heap."""


class FsKind(Enum):
    FAT12 = "FAT12"
    FAT16 = "FAT16"
    FAT32 = "FAT32"
    NTFS = "NTFS"

    @property
    def is_fat(self) -> bool:
        return self is not FsKind.NTFS


class VolumeImage:
    """A window onto a disk image file.

    The window starts ``base_offset`` bytes into the backing store (for
    images that carry a partition table in front of the volume).  Reads
    are positional, so one image can be shared by concurrent readers.
    A file is opened with ``OPEN_FLAGS``: read-only here, and analysis
    opens only through ``open_image``; the forge's writer is the one
    subclass that opens read-write.
    """

    OPEN_FLAGS = os.O_RDONLY

    def __init__(self, *, path, base_offset=0):
        self.path = os.fspath(path)
        self.base_offset = base_offset
        self._fd = os.open(self.path, self.OPEN_FLAGS)
        backing = os.fstat(self._fd).st_size
        if base_offset < 0 or base_offset >= backing:
            self.close()
            raise VolumeError("offset beyond end of image")
        self.size = backing - base_offset
        if self.size < MIN_IMAGE_BYTES:
            self.close()
            raise VolumeError("image smaller than one sector")

    def check_span(self, offset: int, length: int,
                   access: str = "read") -> None:
        """Raise VolumeError unless [offset, offset + length) lies inside
        the volume; the message names the refused ``access``."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise VolumeError(
                "%s [%d:%d) outside volume of %d bytes"
                % (access, offset, offset + length, self.size)
            )

    def read_at(self, offset: int, length: int) -> bytes:
        """Read exactly ``length`` bytes at ``offset`` (volume-relative)."""
        self.check_span(offset, length)
        out = os.pread(self._fd, length, self.base_offset + offset)
        if len(out) != length:
            raise VolumeError("short read from backing file")
        return out

    def next_data(self, offset: int) -> int:
        """The first offset at or after ``offset`` that may hold a nonzero
        byte, or ``size`` when only holes remain.

        A hole in a sparse backing file reads as zeros, so a scan for
        nonzero bytes may skip it.  A file whose holes the system cannot
        report returns ``offset``: every byte may matter.  The seek moves
        the file's own offset, which no read or write uses.
        """
        try:
            pos = os.lseek(self._fd, self.base_offset + offset, os.SEEK_DATA)
        except OSError as exc:
            return self.size if exc.errno == errno.ENXIO else offset
        return min(max(pos - self.base_offset, offset), self.size)

    def close(self) -> None:
        if getattr(self, "_fd", None) is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "VolumeImage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"VolumeImage({self.path!r}, base_offset={self.base_offset}, size={self.size})"


def open_image(path, base_offset: int = 0) -> VolumeImage:
    """Open a disk image file read-only.

    Raises FileNotFoundError for a missing file, VolumeError when the
    offset falls beyond the end or fewer than 512 bytes remain past it.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return VolumeImage(path=path, base_offset=base_offset)


@dataclass(frozen=True)
class VolumeDescriptor:
    """Parsed boot-record geometry, enough to place any cluster."""

    kind: FsKind
    bytes_per_sector: int
    sectors_per_cluster: int
    total_sectors: int
    # FAT-only fields (None on NTFS)
    reserved_sectors: int | None = None
    num_fats: int | None = None
    sectors_per_fat: int | None = None
    root_entries: int | None = None      # FAT12/16 fixed root slots
    root_dir_sector: int | None = None   # FAT12/16 root start sector
    root_cluster: int | None = None      # FAT32 root chain head
    first_data_sector: int | None = None
    cluster_count: int | None = None     # count of data clusters
    # NTFS-only fields
    mft_lcn: int | None = None
    mirror_lcn: int | None = None        # $MFTMirr, which no reader uses
    mft_record_size: int | None = None
    volume_serial: int | None = None

    @property
    def cluster_size(self) -> int:
        return self.bytes_per_sector * self.sectors_per_cluster

    @property
    def total_clusters(self) -> int:
        """Addressable clusters: LCN space on NTFS, heap size on FAT."""
        if self.kind is FsKind.NTFS:
            return self.total_sectors // self.sectors_per_cluster
        return self.cluster_count

    @property
    def max_cluster(self) -> int:
        """Highest valid cluster number."""
        if self.kind is FsKind.NTFS:
            return self.total_clusters - 1
        return self.cluster_count + 1  # FAT numbering starts at 2


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def detect_filesystem(img: VolumeImage) -> VolumeDescriptor:
    """Classify the volume at the image's base offset and parse geometry.

    FAT12/16/32 are told apart by data-cluster count; NTFS by the OEM
    signature.  Geometry that violates the on-disk invariants raises
    CorruptBootRecord, an unrecognizable sector UnrecognizedVolume.
    """
    boot = img.read_at(0, 512)
    if boot[510:512] != BOOT_SIGNATURE:
        raise UnrecognizedVolume("not a recognized volume")
    if boot[3:11] == NTFS_OEM:
        return _parse_ntfs_boot(boot)
    return _parse_fat_boot(boot)


def _parse_ntfs_boot(boot: bytes) -> VolumeDescriptor:
    bps, = struct.unpack_from("<H", boot, 0x0B)
    spc = boot[0x0D]
    total_sectors, = struct.unpack_from("<Q", boot, 0x28)
    mft_lcn, mirror_lcn = struct.unpack_from("<QQ", boot, 0x30)
    clusters_per_record = struct.unpack_from("<b", boot, 0x40)[0]
    serial, = struct.unpack_from("<Q", boot, 0x48)

    if bps not in VALID_SECTOR_SIZES:
        raise CorruptBootRecord("corrupt boot record: bad sector size %d" % bps)
    if not _is_pow2(spc) or spc > MAX_SECTORS_PER_CLUSTER:
        raise CorruptBootRecord("corrupt boot record: bad sectors/cluster %d" % spc)
    if total_sectors == 0:
        raise CorruptBootRecord("corrupt boot record: zero sector count")

    cluster_size = bps * spc
    if clusters_per_record >= 0:
        record_size = clusters_per_record * cluster_size
    else:
        record_size = 1 << (-clusters_per_record)
    if not _is_pow2(record_size) or record_size < 64:
        raise CorruptBootRecord("corrupt boot record: bad MFT record size")

    total_clusters = total_sectors // spc
    if mft_lcn >= total_clusters:
        raise CorruptBootRecord("corrupt boot record: MFT beyond volume")

    return VolumeDescriptor(
        kind=FsKind.NTFS,
        bytes_per_sector=bps,
        sectors_per_cluster=spc,
        total_sectors=total_sectors,
        mft_lcn=mft_lcn,
        mirror_lcn=mirror_lcn,
        mft_record_size=record_size,
        volume_serial=serial,
    )


def _parse_fat_boot(boot: bytes) -> VolumeDescriptor:
    bps, = struct.unpack_from("<H", boot, 0x0B)
    spc = boot[0x0D]
    reserved, = struct.unpack_from("<H", boot, 0x0E)
    num_fats = boot[0x10]
    root_entries, = struct.unpack_from("<H", boot, 0x11)
    totsec16, = struct.unpack_from("<H", boot, 0x13)
    fatsz16, = struct.unpack_from("<H", boot, 0x16)
    totsec32, = struct.unpack_from("<I", boot, 0x20)
    fatsz32, = struct.unpack_from("<I", boot, 0x24)
    root_cluster, = struct.unpack_from("<I", boot, 0x2C)

    if bps not in VALID_SECTOR_SIZES:
        raise CorruptBootRecord("corrupt boot record: bad sector size %d" % bps)
    if not _is_pow2(spc) or spc > MAX_SECTORS_PER_CLUSTER:
        raise CorruptBootRecord("corrupt boot record: bad sectors/cluster %d" % spc)
    if reserved == 0 or num_fats == 0:
        raise CorruptBootRecord("corrupt boot record: reserved/FAT counts")

    total_sectors = totsec16 or totsec32
    sectors_per_fat = fatsz16 or fatsz32
    if total_sectors == 0 or sectors_per_fat == 0:
        raise CorruptBootRecord("corrupt boot record: zero FAT geometry")

    root_dir_sectors = (root_entries * DIR_ENTRY_SIZE + bps - 1) // bps
    first_data_sector = reserved + num_fats * sectors_per_fat + root_dir_sectors
    if first_data_sector >= total_sectors:
        raise CorruptBootRecord("corrupt boot record: no data region")
    cluster_count = (total_sectors - first_data_sector) // spc
    if cluster_count == 0:
        raise CorruptBootRecord("corrupt boot record: empty cluster heap")

    if cluster_count < FAT12_CLUSTER_LIMIT:
        kind = FsKind.FAT12
    elif cluster_count < FAT16_CLUSTER_LIMIT:
        kind = FsKind.FAT16
    else:
        kind = FsKind.FAT32

    if kind is FsKind.FAT32:
        if fatsz16 != 0 or root_entries != 0:
            raise CorruptBootRecord("corrupt boot record: FAT32 with 16-bit fields")
        if root_cluster < 2 or root_cluster >= cluster_count + 2:
            raise CorruptBootRecord("corrupt boot record: root cluster out of heap")
    else:
        if root_entries == 0:
            raise CorruptBootRecord("corrupt boot record: no root directory slots")

    serial_off = 0x43 if kind is FsKind.FAT32 else 0x27
    serial, = struct.unpack_from("<I", boot, serial_off)

    return VolumeDescriptor(
        kind=kind,
        bytes_per_sector=bps,
        sectors_per_cluster=spc,
        total_sectors=total_sectors,
        reserved_sectors=reserved,
        num_fats=num_fats,
        sectors_per_fat=sectors_per_fat,
        root_entries=root_entries if kind is not FsKind.FAT32 else 0,
        root_dir_sector=(reserved + num_fats * sectors_per_fat)
        if kind is not FsKind.FAT32 else None,
        root_cluster=root_cluster if kind is FsKind.FAT32 else None,
        first_data_sector=first_data_sector,
        cluster_count=cluster_count,
        volume_serial=serial,
    )


def cluster_offset(desc: VolumeDescriptor, cluster: int) -> int:
    """Byte offset (volume-relative) of a cluster.

    FAT counts data clusters from 2 past the first data sector; NTFS
    LCNs count from the very start of the volume.
    """
    if desc.kind is FsKind.NTFS:
        if cluster < 0 or cluster >= desc.total_clusters:
            raise ClusterRangeError("LCN %d outside volume" % cluster)
        return cluster * desc.cluster_size
    if cluster < 2 or cluster > desc.max_cluster:
        raise ClusterRangeError("cluster %d outside heap" % cluster)
    return (desc.first_data_sector * desc.bytes_per_sector
            + (cluster - 2) * desc.cluster_size)


def merge_runs(runs) -> list[list[int]]:
    """Collapse (first, count) cluster runs into [first, count] runs,
    joining each run to the one before it when it starts where that one
    ends."""
    merged: list[list[int]] = []
    for first, count in runs:
        if merged and first == merged[-1][0] + merged[-1][1]:
            merged[-1][1] += count
        else:
            merged.append([first, count])
    return merged


def image_clusters(img: VolumeImage, desc: VolumeDescriptor) -> int:
    """The length of an allocation bitmap (one byte per cluster number)
    that covers every cluster lying whole inside the image: at most
    ``max_cluster + 1``, and never more than the image holds, whatever
    size the boot record claims."""
    first = 0 if desc.kind is FsKind.NTFS else 2
    heap = cluster_offset(desc, first)
    inside = first + max(0, img.size - heap) // desc.cluster_size
    return min(desc.max_cluster + 1, inside)


def is_marked(bitmap: bytearray, cluster: int) -> bool:
    """Whether an allocation bitmap marks ``cluster``; a cluster past
    the bitmap's end is not marked."""
    return cluster < len(bitmap) and bitmap[cluster] != 0


def mark_runs(bitmap: bytearray, runs, mark: int = 1) -> None:
    """Set to ``mark`` the bytes of an allocation bitmap (one byte per
    cluster number) that the (first, count) runs cover.  Each run is
    clipped to the bitmap and sparse runs (first None) mark nothing, so
    the work is bounded by the bitmap whatever length a run claims."""
    for first, count in runs:
        if first is None:
            continue
        end = min(first + count, len(bitmap))
        if first < end:
            bitmap[first:end] = bytes([mark]) * (end - first)


def cluster_extents(img: VolumeImage, desc: VolumeDescriptor,
                    runs) -> list[tuple[int | None, int]]:
    """Byte extents (offset, length) of cluster runs (first, count).

    A run whose first cluster is None is sparse and becomes the zero-fill
    extent (None, length).  Every run is checked before any byte is
    read: an out-of-range member raises ClusterRangeError naming the
    first offending cluster, and a run past the end of the image raises
    the VolumeError that reading it would.
    """
    # The valid numbers are one interval, so a run whose ends are valid
    # is valid throughout; when only its last end is not, the first
    # offending member is the one just past the heap.
    for first, count in runs:
        if first is not None:
            cluster_offset(desc, first)
            cluster_offset(desc, min(first + count - 1, desc.max_cluster + 1))
    cs = desc.cluster_size
    extents: list[tuple[int | None, int]] = []
    for first, count in runs:
        if first is None:
            extents.append((None, count * cs))
            continue
        offset = cluster_offset(desc, first)
        img.check_span(offset, count * cs)
        extents.append((offset, count * cs))
    return extents


def find_signatures(img: VolumeImage, start: int, stop: int, step: int,
                    signature: bytes, length: int):
    """Yield (offset, the ``length`` bytes there) for each offset
    ``start + k * step`` below ``stop``, which lies within the image,
    whose bytes open with ``signature``, in ascending order and one hit
    at a time, so a caller may act on a hit before the next is sought.

    The span is read once, STREAM_CHUNK at a time, except the image's
    holes, which read as zeros and so cannot open with a signature.  One
    strided slice takes the first byte of each slot, and ``find`` walks
    it for the signature's first byte, so Python work grows with the
    candidates, not the slots.  A hit whose bytes cross a batch edge
    reads its tail; one whose bytes run past the image is passed over.
    """
    batch = max(1, STREAM_CHUNK // step) * step
    lead = signature[0]
    pos = start
    while pos < stop:
        pos += (img.next_data(pos) - pos) // step * step
        if pos >= stop:
            break
        chunk = img.read_at(pos, min(batch, stop - pos))
        heads = chunk[::step]
        i = heads.find(lead)
        while i != -1:
            at = i * step
            i = heads.find(lead, i + 1)
            hit = chunk[at:at + length]
            if len(hit) < length:
                if pos + at + length > img.size:
                    continue
                hit += img.read_at(pos + at + len(hit), length - len(hit))
            if hit.startswith(signature):
                yield pos + at, hit
        pos += len(chunk)


def read_extents(img: VolumeImage, extents, size: int):
    """The first ``size`` bytes across ``extents``, at most STREAM_CHUNK
    at a time.

    An extent is a volume span (offset, length), a zero-fill run
    (None, length), or ``bytes`` taken as they are (resident data).  No
    read or zero chunk exceeds STREAM_CHUNK bytes, so memory stays
    bounded whatever length the extents claim.
    """
    left = size
    for extent in extents:
        if isinstance(extent, bytes):
            yield extent[:left]
            left -= min(len(extent), left)
            continue
        offset, length = extent
        length = min(length, left)
        if offset is None:
            zeros = memoryview(bytes(min(length, STREAM_CHUNK)))
        for pos in range(0, length, STREAM_CHUNK):
            n = min(STREAM_CHUNK, length - pos)
            yield zeros[:n] if offset is None else img.read_at(offset + pos, n)
        left -= length


def stream_extents(img: VolumeImage, extents, size: int,
                   sink) -> tuple[str, bytes]:
    """Write the first ``size`` bytes of ``extents`` to ``sink``, or
    only hash them when ``sink`` is None.

    Each ``read_extents`` chunk goes to one sha256 and to ``sink.write``.
    Returns the hex digest and the first HEAD_BYTES bytes.
    """
    digest = hashlib.sha256()
    head = b""
    for chunk in read_extents(img, extents, size):
        digest.update(chunk)
        if sink is not None:
            sink.write(chunk)
        if len(head) < HEAD_BYTES:
            head += chunk[:HEAD_BYTES - len(head)]
        del chunk  # free it before the next read, not after
    return digest.hexdigest(), head
