"""Filesystem-neutral recovery pipeline.

Ties volume detection, the per-filesystem surveys and single-file
recovery together into the two operations the CLI exposes: scan (list
deleted entries) and recover (write their payloads back out).  The
evidence image is never written; outputs go to a separate directory,
and pointing that directory at the image itself requires an explicit
same-media override.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass, field

from . import fat as fatmod
from . import ntfs as ntfsmod
from .report import RecoveredFile
from .volume import FsKind, VolumeDescriptor, VolumeError, VolumeImage


class UndeleteError(Exception):
    pass


def _deleted_row(entry) -> dict:
    """A listing row for a deleted entry: a ``FatDirEntry`` or an
    ``NtfsEntry``, which share these attributes."""
    return {
        "name": entry.name,
        "path": entry.path,
        "size": entry.size,
        "deleted": True,
        "is_directory": entry.is_directory,
        "confidence": entry.confidence,
        "flags": list(entry.flags),
        "entry": entry.entry_id,
        "created": entry.created,
        "modified": entry.modified,
    }


def _live_row(name, path, size, is_directory, created=None, modified=None):
    return {
        "name": name,
        "path": path,
        "size": size,
        "deleted": False,
        "is_directory": is_directory,
        "confidence": None,
        "flags": [],
        "entry": None,
        "created": created,
        "modified": modified,
    }


@dataclass
class ScanResult:
    desc: VolumeDescriptor
    # The deleted entries, FatDirEntry or NtfsEntry by filesystem.
    candidates: list
    live_clusters: bytearray    # allocation bitmap, one byte per cluster
    live_rows: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def files(self) -> list:
        return [c for c in self.candidates if not c.is_directory]

    def listing_rows(self) -> list[dict]:
        """Live entries then deleted candidates, each group ordered by
        (directory, name) so repeated runs agree byte for byte."""
        live = sorted(self.live_rows,
                      key=lambda r: (r["path"], r["name"]))
        return live + [_deleted_row(c) for c in self.candidates]


def scan_volume(img: VolumeImage, desc: VolumeDescriptor,
                deep: bool = False) -> ScanResult:
    """Survey the volume and list its entries, deterministically
    ordered by (directory, name, entry id)."""
    live_rows: list[dict] = []
    if desc.kind is FsKind.NTFS:
        surv = ntfsmod.survey(img, desc, deep=deep)
        cands = surv.deleted
        for info in surv.live:
            if info.is_system or info.record_index == ntfsmod.ROOT_RECORD:
                continue
            live_rows.append(_live_row(info.name, "", info.size,
                                       info.is_directory))
        stats = {
            "records_seen": surv.stats.records_seen,
            "live_entries": len(live_rows),
            "corrupt_records": surv.stats.corrupt,
            "carve_candidates": surv.stats.carve_candidates,
        }
    else:
        surv = fatmod.survey(img, desc, deep=deep)
        cands = fatmod.find_deleted(surv, desc)
        for e in surv.entries:
            # Orphaned-but-intact entries are deleted candidates, not
            # live files: unreachable from the live tree means deleted.
            if e.deleted or e.orphaned:
                continue
            live_rows.append(_live_row(e.name, e.path, e.size,
                                       e.is_directory, e.created, e.modified))
        stats = {
            "entries_walked": len(surv.entries),
            "live_entries": len(live_rows),
        }
    cands.sort(key=lambda e: (e.path, e.name, e.entry_id))
    return ScanResult(desc=desc, candidates=cands,
                      live_clusters=surv.live_clusters,
                      live_rows=live_rows, stats=stats)


def plan_one(img: VolumeImage, scan: ScanResult, entry) -> RecoveredFile:
    """Plan one candidate's recovery with its filesystem's reader."""
    if scan.desc.kind is FsKind.NTFS:
        return ntfsmod.plan_file(img, scan.desc, entry,
                                 live_clusters=scan.live_clusters)
    return fatmod.plan_file(img, scan.desc, entry)


def recover_one(img: VolumeImage, plan: RecoveredFile,
                dest: str) -> RecoveredFile:
    """Stream one planned file into a new file at ``dest``."""
    with open(dest, "wb") as fh:
        return plan.stream(img, fh)


_UNSAFE = re.compile(r'[\\/:*?"<>|\x00-\x1f]')


def output_name(path: str, name: str, taken: set[str]) -> str:
    """Flatten a volume path into a single safe output filename, with a
    numeric suffix when two candidates collide."""
    flat = "_".join(p for p in (path, name) if p)
    flat = _UNSAFE.sub("_", flat).strip(". ") or "unnamed"
    base, dot, ext = flat.rpartition(".")
    if not base:
        base, ext, dot = flat, "", ""
    candidate = flat
    n = 1
    while candidate.lower() in taken:
        candidate = "%s.%d%s%s" % (base, n, dot, ext)
        n += 1
    taken.add(candidate.lower())
    return candidate


def check_out_dir(img: VolumeImage, out_dir: str,
                  allow_same_media: bool) -> str | None:
    """Refuse an output directory that resolves onto the input image.

    With the override the refusal becomes a returned warning string so
    the caller can print it and continue.
    """
    img_real = os.path.realpath(img.path)
    out_real = os.path.realpath(out_dir)
    on_image = out_real == img_real or out_real.startswith(img_real + os.sep)
    if not on_image:
        return None
    if not allow_same_media:
        raise UndeleteError(
            "output directory %s resides on the image under analysis "
            "(pass the same-media override to proceed)" % out_dir)
    return ("warning: recovering onto the media under analysis; "
            "later writes can destroy what is being recovered")


def recover_all(img: VolumeImage, scan: ScanResult, out_dir: str,
                jobs: int = 1, truth_hashes: set[str] | None = None):
    """Recover every non-directory candidate into ``out_dir``.

    Returns (recovered, errors) where errors is a list of
    (candidate, message) for entries whose metadata no longer supports
    a read.  Every candidate is planned first, so a failed one takes no
    output name; then the calling thread and ``min(jobs, files) - 1``
    helper threads run one loop that takes the files one at a time and
    streams each straight into its output.  Report order
    matches scan order regardless of ``jobs``; an error that escapes a
    worker stops the others taking more, and the earliest file's error
    in that order is raised.
    """
    plans: list[RecoveredFile] = []
    errors: list[tuple[object, str]] = []
    for entry in scan.files:
        try:
            plans.append(plan_one(img, scan, entry))
        except VolumeError as exc:
            errors.append((entry, str(exc)))

    os.makedirs(out_dir, exist_ok=True)
    taken: set[str] = set()
    dests = [os.path.join(out_dir, output_name(p.path, p.name, taken))
             for p in plans]
    todo = enumerate(zip(plans, dests))
    recovered: list = [None] * len(plans)
    lock = threading.Lock()
    failures: list[tuple[int, Exception]] = []

    def drain() -> None:
        while not failures:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            index, (plan, dest) = item
            try:
                recovered[index] = recover_one(img, plan, dest)
            except Exception as exc:
                failures.append((index, exc))

    helpers = [threading.Thread(target=drain)
               for _ in range(min(jobs, len(plans)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures)[1]     # indices are unique

    if truth_hashes is not None:
        for rf in recovered:
            rf.byte_identical = rf.sha256 in truth_hashes
    return recovered, errors
