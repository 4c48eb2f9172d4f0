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
from itertools import repeat

from . import fat as fatmod
from . import ntfs as ntfsmod
from .report import RecoveredFile
from .volume import FsKind, VolumeDescriptor, VolumeError, VolumeImage


class UndeleteError(Exception):
    pass


@dataclass
class Candidate:
    """One deleted entry in filesystem-neutral clothing.

    ``entry`` keeps the parser-specific object so recovery can hand it
    straight back to the module that produced it.
    """

    entry: object
    name: str
    path: str
    size: int
    is_directory: bool
    confidence: str
    flags: list[str]
    entry_id: str
    created: str | None = None
    modified: str | None = None

    def sort_key(self):
        return (self.path, self.name, self.entry_id)

    def to_row(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "size": self.size,
            "deleted": True,
            "is_directory": self.is_directory,
            "confidence": self.confidence,
            "flags": list(self.flags),
            "entry": self.entry_id,
            "created": self.created,
            "modified": self.modified,
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
    candidates: list[Candidate]
    live_clusters: bytearray    # allocation bitmap, one byte per cluster
    live_rows: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def files(self) -> list[Candidate]:
        return [c for c in self.candidates if not c.is_directory]

    def listing_rows(self) -> list[dict]:
        """Live entries then deleted candidates, each group ordered by
        (directory, name) so repeated runs agree byte for byte."""
        live = sorted(self.live_rows,
                      key=lambda r: (r["path"], r["name"]))
        return live + [c.to_row() for c in self.candidates]


def _ntfs_candidates(surv) -> list[Candidate]:
    # Parent names are resolved one level deep: the corpus keeps a flat
    # tree, and deleted volumes rarely preserve enough of the index
    # structure to walk further with confidence.
    parents: dict[int, str] = {ntfsmod.ROOT_RECORD: ""}
    for info in surv.live:
        if info.is_directory and not info.is_system:
            parents.setdefault(info.record_index, info.name)
    for e in surv.deleted:
        if e.is_directory and e.record_index >= 0:
            parents.setdefault(e.record_index, e.name)

    out = []
    for e in surv.deleted:
        path = parents.get(e.parent_index, "")
        flags = []
        if e.orphaned:
            flags.append("carved")
        if not e.name_known:
            flags.append("name-lost")
        if e.attr_walk_corrupt:
            flags.append("attributes-corrupt")
        out.append(Candidate(entry=e, name=e.name, path=path, size=e.size,
                             is_directory=e.is_directory,
                             confidence=e.confidence, flags=flags,
                             entry_id=e.entry_id,
                             created=ntfsmod.filetime_to_iso(e.created),
                             modified=ntfsmod.filetime_to_iso(e.modified)))
    return out


def _fat_candidates(entries) -> list[Candidate]:
    out = []
    for e in entries:
        flags = list(e.flags)
        if e.orphaned and "carved" not in flags:
            flags.append("carved")
        out.append(Candidate(entry=e, name=e.display_name, path=e.dir_path,
                             size=e.size, is_directory=e.is_directory,
                             confidence=e.confidence, flags=flags,
                             entry_id=e.entry_id,
                             created=e.created, modified=e.modified))
    return out


def scan_volume(img: VolumeImage, desc: VolumeDescriptor,
                deep: bool = False) -> ScanResult:
    """Survey the volume and list its entries, deterministically
    ordered by (directory, name, entry id)."""
    live_rows: list[dict] = []
    if desc.kind is FsKind.NTFS:
        surv = ntfsmod.survey(img, desc, deep=deep)
        cands = _ntfs_candidates(surv)
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
        cands = _fat_candidates(fatmod.find_deleted(surv, desc))
        for e in surv.entries:
            # Orphaned-but-intact entries are deleted candidates, not
            # live files: unreachable from the live tree means deleted.
            if e.deleted or e.orphaned or e.is_label or e.is_dot:
                continue
            live_rows.append(_live_row(e.display_name, e.dir_path, e.size,
                                       e.is_directory, e.created_iso(),
                                       e.modified_iso()))
        stats = {
            "entries_walked": len(surv.entries),
            "live_entries": len(live_rows),
        }
    cands.sort(key=Candidate.sort_key)
    return ScanResult(desc=desc, candidates=cands,
                      live_clusters=surv.live_clusters,
                      live_rows=live_rows, stats=stats)


def plan_one(img: VolumeImage, scan: ScanResult,
             cand: Candidate) -> RecoveredFile:
    """Plan one candidate's recovery; the scan's flags ride along."""
    if scan.desc.kind is FsKind.NTFS:
        plan = ntfsmod.plan_file(img, scan.desc, cand.entry,
                                 live_clusters=scan.live_clusters)
    else:
        plan = fatmod.plan_file(img, scan.desc, cand.entry)
    plan.path = cand.path
    for fl in cand.flags:
        if fl not in plan.flags:
            plan.flags.append(fl)
    return plan


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
    output name; then ``min(jobs, files)`` workers take the files one at
    a time and stream each straight into its output.  Report order
    matches scan order regardless of ``jobs``; an error that escapes a
    worker stops the others taking more, and the earliest file's error
    in that order is raised.
    """
    plans: list[RecoveredFile] = []
    errors: list[tuple[Candidate, str]] = []
    for cand in scan.files:
        try:
            plans.append(plan_one(img, scan, cand))
        except VolumeError as exc:
            errors.append((cand, str(exc)))

    os.makedirs(out_dir, exist_ok=True)
    taken: set[str] = set()
    dests = [os.path.join(out_dir, output_name(p.path, p.name, taken))
             for p in plans]

    workers = min(jobs, len(plans))
    if workers > 1:
        # One work item at a time per worker, not one future per file.
        from concurrent.futures import ThreadPoolExecutor

        recovered = [None] * len(plans)
        todo = enumerate(zip(plans, dests))
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

        with ThreadPoolExecutor(max_workers=workers) as pool:
            running = [pool.submit(drain) for _ in range(workers)]
        for worker in running:
            worker.result()
        if failures:
            raise min(failures)[1]     # indices are unique
    else:
        recovered = list(map(recover_one, repeat(img), plans, dests))

    if truth_hashes is not None:
        for rf in recovered:
            rf.byte_identical = rf.sha256 in truth_hashes
    return recovered, errors
