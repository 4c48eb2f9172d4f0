"""Master File Table parsing and deleted-file recovery for NTFS volumes.

Deleting a file on NTFS clears one flag bit in its MFT record, so live,
deleted and carved records are the same thing and take the same path:
one reader (``read_record``: signature, update-sequence fixup, header)
and one entry type (``NtfsEntry``, built by ``_entry_from_record``).
A record is parsed strictly from its first-attribute offset; nothing is
assumed about where individual attributes sit inside the record.  The
fixup is applied before any field beyond the record header is trusted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from .report import RecoveredFile
from .volume import (
    FsKind,
    VolumeDescriptor,
    VolumeError,
    VolumeImage,
    cluster_extents,
    cluster_offset,
    find_signatures,
    image_clusters,
    mark_runs,
    merge_runs,
    read_extents,
)

FILE_SIGNATURE = b"FILE"

# The update sequence protects 512-byte strides regardless of the
# physical sector size.
UPDATE_SEQUENCE_STRIDE = 512

ATTR_STANDARD_INFORMATION = 0x10
ATTR_FILE_NAME = 0x30
ATTR_VOLUME_NAME = 0x60
ATTR_VOLUME_INFORMATION = 0x70
ATTR_DATA = 0x80
ATTR_INDEX_ROOT = 0x90
ATTR_BITMAP = 0xB0
ATTR_END = 0xFFFFFFFF

RECORD_FLAG_IN_USE = 0x0001
RECORD_FLAG_DIRECTORY = 0x0002

FILE_REFERENCE_INDEX_MASK = (1 << 48) - 1

ROOT_RECORD = 5       # the root directory's record
SYSTEM_RECORDS = 16   # records 0..15 hold the volume's metadata files

FILE_NAME_DOS = 2     # $FILE_NAME namespace of an 8.3 alias

_EPOCH_1601 = datetime(1601, 1, 1, tzinfo=timezone.utc)


class MftError(VolumeError):
    """Base error for MFT handling."""


class FixupError(MftError):
    """Update sequence mismatch: the record is torn or overwritten."""


class RunListError(MftError):
    """A non-resident run list cannot be decoded."""


def filetime_to_iso(ticks: int) -> str | None:
    """Render a 64-bit 100ns-since-1601 timestamp as ISO-8601 UTC."""
    if ticks == 0:
        return None
    try:
        dt = _EPOCH_1601 + timedelta(microseconds=ticks // 10)
    except OverflowError:
        return None
    return dt.replace(tzinfo=None).isoformat() + "Z"


@dataclass
class MftRecordHeader:
    usa_count: int
    sequence: int
    first_attr_offset: int
    flags: int
    used_size: int
    allocated_size: int
    base_reference: int
    record_index: int

    @property
    def in_use(self) -> bool:
        return bool(self.flags & RECORD_FLAG_IN_USE)

    @property
    def is_directory(self) -> bool:
        return bool(self.flags & RECORD_FLAG_DIRECTORY)


def parse_record_header(buf: bytes, record_index: int = -1) -> MftRecordHeader:
    if len(buf) < 48 or buf[0:4] != FILE_SIGNATURE:
        raise MftError("record %d: bad signature" % record_index)
    usa_count, = struct.unpack_from("<H", buf, 0x06)
    sequence, = struct.unpack_from("<H", buf, 0x10)
    first_attr, flags, used, allocated = struct.unpack_from("<HHII", buf, 0x14)
    base_ref, = struct.unpack_from("<Q", buf, 0x20)
    hdr = MftRecordHeader(
        usa_count=usa_count,
        sequence=sequence,
        first_attr_offset=first_attr,
        flags=flags,
        used_size=used,
        allocated_size=allocated,
        base_reference=base_ref,
        record_index=record_index,
    )
    if not (hdr.first_attr_offset < hdr.used_size <= hdr.allocated_size <= len(buf)):
        raise MftError("record %d: inconsistent sizes" % record_index)
    if hdr.first_attr_offset < 0x2A:
        raise MftError("record %d: attributes inside header" % record_index)
    return hdr


def apply_fixup(buf: bytearray) -> None:
    """Replace each stride's guard word with the stored original, in place.

    Raises FixupError when a guard word disagrees with the update
    sequence number, which means the record was torn mid-write or the
    bytes are not really a record any more.
    """
    usa_offset, usa_count = struct.unpack_from("<HH", buf, 0x04)
    if usa_count < 2 or usa_offset + 2 * usa_count > len(buf):
        raise FixupError("update sequence array out of bounds")
    if (usa_count - 1) * UPDATE_SEQUENCE_STRIDE > len(buf):
        raise FixupError("update sequence covers more strides than record")
    usn = bytes(buf[usa_offset:usa_offset + 2])
    for i in range(1, usa_count):
        end = i * UPDATE_SEQUENCE_STRIDE
        if bytes(buf[end - 2:end]) != usn:
            raise FixupError("stride %d guard mismatch" % i)
        src = usa_offset + 2 * i
        buf[end - 2:end] = buf[src:src + 2]


@dataclass
class ParsedAttribute:
    type_code: int
    name: str
    resident: bool
    # resident form
    value: bytes | None = None
    # non-resident form
    real_size: int = 0
    run_bytes: bytes = b""

    @property
    def is_unnamed_data(self) -> bool:
        return self.type_code == ATTR_DATA and self.name == ""


@dataclass
class AttributeWalk:
    attributes: list[ParsedAttribute]
    corrupt: bool = False


def parse_attributes(record: bytes, header: MftRecordHeader) -> AttributeWalk:
    """Walk the attribute list from the first-attribute offset.

    The walk stops at the 0xFFFFFFFF terminator.  A zero-length or
    overrunning attribute ends the walk early with the partial list and
    the corruption flag set instead of raising.
    """
    walk = AttributeWalk(attributes=[])
    pos = header.first_attr_offset
    limit = min(header.used_size, len(record))
    while True:
        if pos + 4 > limit:
            walk.corrupt = True
            break
        type_code, = struct.unpack_from("<I", record, pos)
        if type_code == ATTR_END:
            break
        if pos + 16 > limit:
            walk.corrupt = True
            break
        length, = struct.unpack_from("<I", record, pos + 4)
        if length == 0 or length % 8 or pos + length > limit:
            walk.corrupt = True
            break
        non_resident = record[pos + 8]
        name_len = record[pos + 9]
        name_off, = struct.unpack_from("<H", record, pos + 10)
        name = ""
        if name_len:
            raw = record[pos + name_off:pos + name_off + 2 * name_len]
            name = raw.decode("utf-16-le", errors="replace")
        if not non_resident:
            if pos + 0x18 > limit:
                walk.corrupt = True
                break
            value_len, = struct.unpack_from("<I", record, pos + 0x10)
            value_off, = struct.unpack_from("<H", record, pos + 0x14)
            if value_off + value_len > length:
                walk.corrupt = True
                break
            walk.attributes.append(ParsedAttribute(
                type_code=type_code, name=name, resident=True,
                value=bytes(record[pos + value_off:pos + value_off + value_len]),
            ))
        else:
            if pos + 0x40 > limit:
                walk.corrupt = True
                break
            runs_off, = struct.unpack_from("<H", record, pos + 0x20)
            real, = struct.unpack_from("<Q", record, pos + 0x30)
            walk.attributes.append(ParsedAttribute(
                type_code=type_code, name=name, resident=False,
                real_size=real,
                run_bytes=bytes(record[pos + runs_off:pos + length]),
            ))
        pos += length
    return walk


def decode_data_runs(raw: bytes) -> list[tuple[int | None, int]]:
    """Decode a mapping-pairs (run list) byte string into the
    (first, count) cluster runs every extent helper takes, ``first``
    None for a sparse run.

    Each run starts with a header byte: low nibble is the byte count of
    the unsigned run length, high nibble the byte count of the signed
    LCN delta (cumulative from zero).  A zero high nibble is a sparse
    run; a 0x00 header terminates the list.
    """
    runs: list[tuple[int | None, int]] = []
    prev_lcn = 0
    pos = 0
    terminated = False
    while pos < len(raw):
        header = raw[pos]
        pos += 1
        if header == 0x00:
            terminated = True
            break
        length_size = header & 0x0F
        offset_size = header >> 4
        if length_size == 0 or length_size > 8 or offset_size > 8:
            raise RunListError("invalid run header 0x%02x" % header)
        if pos + length_size + offset_size > len(raw):
            raise RunListError("run list truncated")
        length = int.from_bytes(raw[pos:pos + length_size], "little")
        pos += length_size
        if length == 0:
            raise RunListError("invalid run: zero length")
        if offset_size == 0:
            runs.append((None, length))
            continue
        delta = int.from_bytes(raw[pos:pos + offset_size], "little", signed=True)
        pos += offset_size
        prev_lcn += delta
        if prev_lcn < 0:
            raise RunListError("run resolves before volume start")
        runs.append((prev_lcn, length))
    if not terminated:
        raise RunListError("run list truncated")
    return runs


@dataclass
class StandardInfoView:
    created: int
    modified: int


def parse_standard_info(value: bytes) -> StandardInfoView | None:
    if len(value) < 36:   # the four times and the DOS flags
        return None
    return StandardInfoView(*struct.unpack_from("<QQ", value, 0))


@dataclass
class FileNameView:
    parent_index: int
    created: int
    modified: int
    namespace: int
    name: str


def parse_file_name(value: bytes) -> FileNameView | None:
    if len(value) < 0x42:
        return None
    parent_ref, = struct.unpack_from("<Q", value, 0)
    created, modified = struct.unpack_from("<QQ", value, 8)
    name_len = value[0x40]
    namespace = value[0x41]
    raw = value[0x42:0x42 + 2 * name_len]
    if len(raw) < 2 * name_len:
        return None
    return FileNameView(
        parent_index=parent_ref & FILE_REFERENCE_INDEX_MASK,
        created=created, modified=modified, namespace=namespace,
        name=raw.decode("utf-16-le", errors="replace"),
    )


@dataclass
class MftRecord:
    header: MftRecordHeader
    data: bytes          # fixup already applied
    offset: int          # absolute byte offset inside the volume
    orphaned: bool = False


def read_record(buf: bytes, offset: int, index: int = -1,
                orphaned: bool = False) -> MftRecord:
    """The one way a record is read: check the signature, apply the
    fixup and parse the header of the record-sized ``buf`` found at
    byte ``offset``.  Raises MftError when any of the three fails."""
    if buf[0:4] != FILE_SIGNATURE:
        raise MftError("record %d: bad signature" % index)
    raw = bytearray(buf)
    apply_fixup(raw)
    data = bytes(raw)
    return MftRecord(parse_record_header(data, index), data, offset, orphaned)


@dataclass
class MftScanStats:
    records_seen: int = 0
    file_records: int = 0
    corrupt: int = 0
    skipped: int = 0
    carve_candidates: int = 0


def _require_ntfs(desc: VolumeDescriptor) -> None:
    if desc.kind is not FsKind.NTFS:
        raise MftError("not an NTFS volume descriptor")


def mft_extent(img: VolumeImage,
               desc: VolumeDescriptor) -> list[tuple[int | None, int]]:
    """Bootstrap: decode record 0's own $DATA run list."""
    _require_ntfs(desc)
    base = cluster_offset(desc, desc.mft_lcn)
    try:
        rec = read_record(img.read_at(base, desc.mft_record_size), base, 0)
    except MftError as exc:
        raise MftError("MFT unreadable: %s" % exc) from exc
    for attr in parse_attributes(rec.data, rec.header).attributes:
        if attr.is_unnamed_data and not attr.resident:
            return decode_data_runs(attr.run_bytes)
    raise MftError("MFT unreadable: record 0 has no data extent")


def mft_slots(img: VolumeImage, desc: VolumeDescriptor):
    """Yield (index, byte offset, bytes) of every record slot that the
    real runs of the $MFT data stream hold whole: the one walk of the
    runs ``mft_extent`` returns.

    A slot's index is its place in the stream, sparse runs included.  A
    slot that crosses a run edge or a chunk edge is stitched; a sparse
    run holds no slots, and a slot it cuts is lost, not stitched onto
    the next real run.  Each run is read through ``read_extents``, so no
    read holds more than STREAM_CHUNK bytes.
    """
    rs = desc.mft_record_size
    at = 0                # where the next chunk starts in the stream
    pending = b""         # the head of a slot that crosses an edge
    for first, count in mft_extent(img, desc):
        if first is None:
            at += count * desc.cluster_size
            pending = b""
            continue
        # Validated at its two ends before any read: a hostile length
        # costs O(1), not one step per claimed cluster.
        extent = cluster_extents(img, desc, [(first, count)])
        (offset, length), = extent
        for chunk in read_extents(img, extent, length):
            pos = -at % rs            # the first slot starting here
            if pending:
                pending += chunk[:pos]
                if len(pending) == rs:
                    yield pending_index, pending_offset, pending
                    pending = b""
            while pos + rs <= len(chunk):
                yield (at + pos) // rs, offset + pos, chunk[pos:pos + rs]
                pos += rs
            if pos < len(chunk):
                pending = chunk[pos:]
                pending_index, pending_offset = (at + pos) // rs, offset + pos
            at += len(chunk)
            offset += len(chunk)
            del chunk  # free it before the next read, not after


def scan_mft(img: VolumeImage, desc: VolumeDescriptor,
             stats: MftScanStats | None = None):
    """Yield every record of the live MFT, fixups applied, in
    ``mft_slots`` order and numbering.  Slots with a blank or foreign
    signature are skipped and counted; slots whose fixup fails are
    counted as corrupt.
    """
    if stats is None:
        stats = MftScanStats()
    for index, offset, buf in mft_slots(img, desc):
        stats.records_seen += 1
        if buf[0:4] != FILE_SIGNATURE:
            stats.skipped += 1
            continue
        try:
            rec = read_record(buf, offset, index)
        except MftError:
            stats.corrupt += 1
            continue
        stats.file_records += 1
        yield rec


def carve_records(img: VolumeImage, desc: VolumeDescriptor,
                  known_offsets: set[int], skip_clusters: bytearray,
                  stats: MftScanStats):
    """Deep scan: find FILE records outside the live MFT extent.

    Quick-format leaves the old MFT as anonymous clusters; this reads
    every record-aligned FILE signature that ``find_signatures`` meets
    in a cluster not marked in the ``skip_clusters`` allocation bitmap
    (one byte per cluster number) and validates it.
    """
    _require_ntfs(desc)
    record_size = desc.mft_record_size
    cs = desc.cluster_size
    # A truncated image is carved up to its last whole cluster.
    stop = image_clusters(img, desc) * cs
    for offset, buf in find_signatures(img, 0, stop, min(record_size, cs),
                                       FILE_SIGNATURE, record_size):
        if skip_clusters[offset // cs] or offset in known_offsets:
            continue
        try:
            rec = read_record(buf, offset, orphaned=True)
        except MftError:
            continue
        stats.carve_candidates += 1
        yield rec


@dataclass
class NtfsEntry:
    """One base record, live or deleted, read by one rule: the first
    non-DOS $FILE_NAME names it and the first unnamed $DATA holds its
    content."""

    record_index: int
    name: str
    name_known: bool
    is_directory: bool
    size: int
    created: str | None            # ISO-8601 UTC
    modified: str | None
    parent_index: int | None
    resident: bool | None          # None when the record has no data stream
    payload: bytes | None          # resident data
    runs: list[tuple[int | None, int]] | None   # non-resident (first, count)
    confidence: str                # "exact" when the name survived
    orphaned: bool = False
    record_offset: int = 0
    attr_walk_corrupt: bool = False
    path: str = ""                 # the parent directory, set by survey

    @property
    def flags(self) -> list[str]:
        marks = (("carved", self.orphaned),
                 ("name-lost", not self.name_known),
                 ("attributes-corrupt", self.attr_walk_corrupt))
        return [flag for flag, on in marks if on]

    @property
    def entry_id(self) -> str:
        if self.record_index >= 0:
            return "record-%d" % self.record_index
        return "carved@0x%x" % self.record_offset

    @property
    def is_system(self) -> bool:
        """A metadata file: '$'-named, or in a reserved record other
        than the root directory's."""
        return self.name.startswith("$") or (
            self.record_index in range(SYSTEM_RECORDS)
            and self.record_index != ROOT_RECORD)


@dataclass
class NtfsSurvey:
    live: list[NtfsEntry]
    deleted: list[NtfsEntry]
    stats: MftScanStats
    live_clusters: bytearray    # 1 per cluster a live record's runs hold


def _entry_from_record(rec: MftRecord, walk: AttributeWalk) -> NtfsEntry:
    std = None
    best_fn = None
    data_attr = None
    for attr in walk.attributes:
        if attr.type_code == ATTR_STANDARD_INFORMATION and attr.resident:
            std = parse_standard_info(attr.value)
        elif attr.type_code == ATTR_FILE_NAME and attr.resident:
            fn = parse_file_name(attr.value)
            if fn is not None and (best_fn is None
                                   or best_fn.namespace == FILE_NAME_DOS):
                best_fn = fn
        elif attr.is_unnamed_data and data_attr is None:
            data_attr = attr
    name_known = best_fn is not None
    runs = None
    payload = None
    resident = None
    size = 0
    if data_attr is not None:
        resident = data_attr.resident
        if data_attr.resident:
            payload = data_attr.value
            size = len(payload)
        else:
            try:
                runs = decode_data_runs(data_attr.run_bytes)
            except RunListError:
                runs = []
            size = data_attr.real_size
    index = rec.header.record_index
    return NtfsEntry(
        record_index=index,
        name=best_fn.name if name_known else (
            "record-%d" % index if index >= 0 else "carved-%x" % rec.offset),
        name_known=name_known,
        is_directory=rec.header.is_directory,
        size=size,
        created=filetime_to_iso(best_fn.created if name_known
                                else (std.created if std else 0)),
        modified=filetime_to_iso(best_fn.modified if name_known
                                 else (std.modified if std else 0)),
        parent_index=best_fn.parent_index if name_known else None,
        resident=resident,
        payload=payload,
        runs=runs,
        confidence="exact" if name_known else "heuristic",
        orphaned=rec.orphaned,
        record_offset=rec.offset,
        attr_walk_corrupt=walk.corrupt,
    )


def survey(img: VolumeImage, desc: VolumeDescriptor,
           deep: bool = False) -> NtfsSurvey:
    """One pass over the volume: live records, deleted candidates, and
    the allocation bitmap of clusters claimed by anything still in use.
    A deleted or carved slot without attributes was never used and is
    left out.  Each deleted entry's ``path`` names its parent directory,
    resolved one level deep."""
    stats = MftScanStats()
    live: list[NtfsEntry] = []
    deleted: list[NtfsEntry] = []
    # Sized by the image, not the boot record: a cluster past the image
    # cannot be read, and reads as not live.
    live_clusters = bytearray(image_clusters(img, desc))
    known_offsets: set[int] = set()

    for rec in scan_mft(img, desc, stats):
        known_offsets.add(rec.offset)
        if rec.header.base_reference & FILE_REFERENCE_INDEX_MASK:
            continue  # extension record; base record owns the attributes
        walk = parse_attributes(rec.data, rec.header)
        if rec.header.in_use:
            for attr in walk.attributes:
                if not attr.resident:
                    try:
                        mark_runs(live_clusters,
                                  decode_data_runs(attr.run_bytes))
                    except RunListError:
                        pass  # an undecodable run list claims nothing
            live.append(_entry_from_record(rec, walk))
        elif walk.attributes:
            deleted.append(_entry_from_record(rec, walk))

    if deep:
        # Orphaned records are unreachable from the live volume, so they
        # are deleted candidates whatever their flag says.
        for rec in carve_records(img, desc, known_offsets, live_clusters,
                                 stats):
            walk = parse_attributes(rec.data, rec.header)
            if walk.attributes:
                deleted.append(_entry_from_record(rec, walk))

    # One level deep: the corpus keeps a flat tree, and deleted volumes
    # rarely preserve enough of the index structure to walk further
    # with confidence.
    parents: dict[int, str] = {ROOT_RECORD: ""}
    for e in live:
        if e.is_directory and not e.is_system:
            parents.setdefault(e.record_index, e.name)
    for e in deleted:
        if e.is_directory and e.record_index >= 0:
            parents.setdefault(e.record_index, e.name)
    for e in deleted:
        e.path = parents.get(e.parent_index, "")
    return NtfsSurvey(live=live, deleted=deleted, stats=stats,
                      live_clusters=live_clusters)


def plan_file(img: VolumeImage, desc: VolumeDescriptor,
              entry: NtfsEntry,
              live_clusters: bytearray | None = None) -> RecoveredFile:
    """Lay a deleted file's content out as extents, validated.

    Resident data comes straight out of the record; non-resident data
    follows the run list, with zero-fill for sparse runs, and stops at
    the volume edge (flagged, confidence downgraded).  The plan is
    clipped to the real size so slack never leaks into the result.
    Its flags are the plan's own, then the entry's.
    """
    if entry.is_directory:
        raise MftError("record %d is a directory" % entry.record_index)

    flags: list[str] = []
    confidence = entry.confidence
    extents: list = []
    size = 0
    real: list[tuple[int, int]] = []
    if entry.resident is None:
        if entry.size:
            flags.append("no-data-stream")
    elif entry.resident:
        extents = [entry.payload or b""]
        size = len(extents[0])
    else:
        total = desc.total_clusters
        runs: list[tuple[int | None, int]] = []
        for first, length in entry.runs:
            if first is None:
                runs.append((None, length))
                continue
            count = min(length, max(0, total - first))
            if count:
                runs.append((first, count))
                real.append((first, count))
            if count < length:
                flags.append("partial")
                break
        extents = cluster_extents(img, desc, runs)
        held = sum(length for _, length in extents)
        if held < entry.size and "partial" not in flags:
            flags.append("truncated")
        size = min(held, entry.size)
        if "partial" in flags:
            confidence = "partial"
        if live_clusters is not None and any(
                live_clusters.find(1, lcn, lcn + count) != -1
                for lcn, count in real):
            flags.append("overwritten-risk")

    return RecoveredFile(
        name=entry.name,
        path=entry.path,
        size=size,
        sha256="",
        file_class="unknown",
        confidence=confidence,
        source={
            "filesystem": desc.kind.value,
            "entry": entry.entry_id,
            "clusters": merge_runs(real),
        },
        extents=extents,
        flags=flags + entry.flags,
    )


def recover_file(img: VolumeImage, desc: VolumeDescriptor,
                 entry: NtfsEntry, sink=None,
                 live_clusters: bytearray | None = None) -> RecoveredFile:
    """Stream a deleted file's content into ``sink``, a writable object;
    with none the payload is only hashed."""
    return plan_file(img, desc, entry, live_clusters).stream(img, sink)
