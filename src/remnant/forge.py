"""Synthetic FAT and NTFS volumes with byte-exact ground truth.

The forge is the oracle for everything else: it builds a deterministic
image from a declarative corpus spec, records where every byte of every
file went, and applies the three deletion modalities the recovery side
is tested against — metadata-only delete, quick format, full overwrite.
Content is regenerable from (class, size, seed), so a sidecar stays
small but an auditor can still compare full bytes.

This module is the half that reads a sidecar: the ground truth, its
check against an image, and the sanitization audit.  The image writer
(the corpus spec, the encoders and builders, and the mutations) lives in
:mod:`remnant.forge_write`; its public names are served from here and
load it on first use.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from .filetypes import CLASSES, magic_for
from .ntfs import MftError, parse_attributes, read_record
from .report import write_json
from .volume import (
    VolumeDescriptor,
    cluster_extents,
    detect_filesystem,
    open_image,
    read_extents,
    stream_extents,
)


class ForgeError(Exception):
    """Base error for image forging."""


class SidecarMismatch(ForgeError):
    """A ground truth used with an image it does not describe."""


def content_bytes(file_class: str, size: int, seed: int) -> bytes:
    """Deterministic file content: genuine magic prefix, seeded body."""
    if size < 0:
        raise ForgeError("negative file size")
    magic = magic_for(file_class)
    rng = random.Random(seed)
    body = rng.randbytes(max(0, size - len(magic)))
    return (magic + body)[:size]


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

    def save(self, path) -> None:
        raw = dict(vars(self),
                   files={k: vars(v) for k, v in self.files.items()},
                   dirs={k: vars(v) for k, v in self.dirs.items()})
        with open(path, "w") as fh:
            write_json(raw, fh)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        raw = json.loads(text)
        try:
            files = {k: FileTruth(**v) for k, v in raw["files"].items()}
            dirs = {k: DirTruth(**v) for k, v in raw["dirs"].items()}
            ntfs = raw["filesystem"] == "NTFS"
            for key, row in [*files.items(), *dirs.items()]:
                problem = _row_problem(row, ntfs)
                if problem:
                    raise ForgeError("bad ground truth: %s: %s"
                                     % (key, problem))
            if not isinstance(raw["geometry"], dict):
                raise ForgeError("bad ground truth: geometry is not an "
                                 "object")
            # The offsets the mutations read, as the writer needs them.
            internal = raw["internal"]
            offsets = ([internal[key] for key in (
                "mft_bitmap_value_abs", "cluster_bitmap_abs")]
                if ntfs else internal["fat_offsets"])
            if not isinstance(offsets, list) \
                    or any(type(value) is not int for value in offsets):
                raise ForgeError("bad ground truth: internal offsets are "
                                 "not ints")
            return cls(filesystem=raw["filesystem"],
                       total_size=raw["total_size"],
                       geometry=raw["geometry"], files=files, dirs=dirs,
                       internal=internal,
                       volume_label=raw.get("volume_label", ""),
                       seed=raw.get("seed", 0),
                       mutations=list(raw.get("mutations", [])))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ForgeError("bad ground truth: %s" % exc) from exc

    @classmethod
    def load(cls, path) -> "GroundTruth":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def truth_rows(self) -> list[dict]:
        return [{"path": t.path, "class": t.file_class, "size": t.size,
                 "sha256": t.sha256} for t in self.files.values()]


def _row_problem(row, ntfs: bool) -> str | None:
    """What makes a sidecar file or directory row unusable for the audit
    and the mutations, or None: every offset, cluster and count an int,
    ``clusters`` a list of [first, count] pairs, a record index on
    NTFS, a content class the forge writes, and a file resident only
    on NTFS."""
    ints = [row.first_cluster, row.entry_offset]
    if isinstance(row, FileTruth):
        ints += [row.size, row.seed]
        if row.file_class not in CLASSES:
            return "class %r is not one the forge writes" % (row.file_class,)
        if row.resident is not None and type(row.resident) is not bool \
                or row.resident and not ntfs:
            return "resident is %r on %s" % (row.resident,
                                             "NTFS" if ntfs else "FAT")
    if ntfs or row.record_index is not None:
        ints.append(row.record_index)
    if any(type(v) is not int for v in ints):
        return "a size, seed, cluster, offset or record index is not an int"
    if not isinstance(row.lfn_offsets, list) \
            or any(type(v) is not int for v in row.lfn_offsets):
        return "lfn_offsets is not a list of ints"
    if not isinstance(row.clusters, list) or any(
            not isinstance(run, list) or len(run) != 2
            or any(type(v) is not int for v in run) for run in row.clusters):
        return "clusters is not a list of [int, int] pairs"
    return None


MUTATIONS = ("delete", "delete-all", "quick-format", "full-overwrite")

# The image writer's public names, served by ``__getattr__``.
_WRITER_NAMES = ("build_image", "apply_mutation", "standard_corpus",
                 "CorpusSpec", "FileSpec")


def __getattr__(name: str):
    """Load :mod:`remnant.forge_write` on the first use of one of its
    public names (PEP 562), so that the commands which only read a
    sidecar never compile the writer."""
    if name in _WRITER_NAMES:
        from . import forge_write
        return getattr(forge_write, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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
        desc = check_sidecar(img, truth)
        rows = []
        for key in sorted(truth.files):
            t = truth.files[key]
            rows.append(_audit_one(img, desc, t))
    total = sum(r["size_bytes"] for r in rows)
    recoverable = sum(r["recoverable_bytes"] for r in rows)
    counts = Counter(r["verdict"] for r in rows)
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


def boot_geometry(desc: VolumeDescriptor) -> dict:
    """The geometry a boot record fixes, keyed as a sidecar keys it: the
    descriptor's fields in their order, plus the cluster size, the
    cluster count and the MFT record size."""
    return {**vars(desc), "kind": desc.kind.value,
            "cluster_size": desc.cluster_size,
            "cluster_count": desc.total_clusters,
            "record_size": desc.mft_record_size}


def check_sidecar(img, truth: GroundTruth) -> VolumeDescriptor:
    """The image's descriptor, once the image has the size, the
    filesystem and the geometry that ``truth`` describes.  Every
    geometry key the boot record fixes is compared, in the descriptor's
    field order; NTFS ``mft_clusters``, which no boot field fixes, is
    not compared."""
    if img.size != truth.total_size:
        raise SidecarMismatch(
            "ground truth describes a %d-byte volume, image is %d"
            % (truth.total_size, img.size))
    desc = detect_filesystem(img)
    if desc.kind.value != truth.filesystem:
        raise SidecarMismatch(
            "ground truth is for %s, image is %s"
            % (truth.filesystem, desc.kind.value))
    for key, value in boot_geometry(desc).items():
        if key in truth.geometry and truth.geometry[key] != value:
            raise SidecarMismatch(
                "ground truth records %s %r, image has %r"
                % (key, truth.geometry[key], value))
    return desc


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
        extents = cluster_extents(img, desc, t.clusters)
        for disk in read_extents(img, extents, t.size):
            want = original[pos:pos + len(disk)]
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
