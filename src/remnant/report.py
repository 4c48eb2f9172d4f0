"""Report shapes shared by the recovery pipeline and the CLI.

A report is one plain dict with ``meta``, ``summary``, ``files``,
``audit`` and ``simulation`` sections (see docs/report_schema.md).  The
human rendering is derived from that dict and nothing else, so the two
output forms cannot drift apart.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

from .filetypes import classify
from .volume import VolumeImage, stream_extents

SCHEMA_VERSION = 1
TOOL_NAME = "remnant"
# Pieces (encoder tokens, or text lines) that either writer joins into
# one write.
JSON_BATCH = 2048
# With ``indent`` set, ``iterencode`` is the pure-Python generator whose
# pieces ``json.dumps`` joins, so the bytes are the same.
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def exact_percent(numerator: int, denominator: int) -> float | None:
    """numerator/denominator as a percentage with one decimal, half-up.

    Computed in integer arithmetic so the rendering is an exact rational
    rounded once, not a float artifact.
    """
    if denominator == 0:
        return None
    tenths = (numerator * 1000 * 2 + denominator) // (denominator * 2)
    return tenths / 10.0


@dataclass
class RecoveredFile:
    """One recovered payload plus everything the report needs to say.

    Recovery plans a file first: every field is settled but the hash and
    the class, and ``extents`` say where the bytes lie.  ``stream`` then
    reads them and fills those two in.
    """

    name: str
    size: int
    sha256: str
    file_class: str
    confidence: str
    source: dict
    path: str = ""                      # directory path inside the volume
    flags: list[str] = field(default_factory=list)
    output_path: str | None = None
    byte_identical: bool | None = None
    extents: list = field(default_factory=list)  # never serialized
    entry_offset: int | None = None     # the entry read; never serialized

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "size": self.size,
            "sha256": self.sha256,
            "class": self.file_class,
            "confidence": self.confidence,
            "flags": list(self.flags),
            "source": self.source,
            "output": self.output_path,
            "byte_identical": self.byte_identical,
        }

    def stream(self, img: VolumeImage, sink=None) -> RecoveredFile:
        """Read the payload into ``sink`` (any object with ``write``), or
        only hash it when ``sink`` is None, and fill in the hash and the
        class."""
        self.sha256, head = stream_extents(img, self.extents, self.size, sink)
        self.file_class = classify(head, self.name)
        self.output_path = getattr(sink, "name", None)
        return self


def summarize(files, truth_files=None) -> dict:
    """Build the per-class summary table.

    With ground truth, a collection of ``FileTruth``, each row is
    matched to the truth file of the entry it was read from, by the
    entry's byte offset, and is ``byte_identical`` when their hashes
    agree (never for a row that belongs to no truth file).
    ``attempted`` counts the truth corpus and ``byte_identical`` the
    truth files whose own row matched; the percentage is
    identical/attempted.  Without truth the counts describe only what
    was listed and the percentage stays null.
    """
    listed_by_class = Counter(f.file_class for f in files)

    rows = []
    if truth_files is not None:
        truth_sha = {t.entry_offset: t.sha256 for t in truth_files}
        for f in files:
            f.byte_identical = truth_sha.get(f.entry_offset) == f.sha256
        matched = {f.entry_offset for f in files if f.byte_identical}
        attempted_by_class = Counter(t.file_class for t in truth_files)
        identical_by_class = Counter(t.file_class for t in truth_files
                                     if t.entry_offset in matched)
        for cls in sorted(attempted_by_class):
            att = attempted_by_class[cls]
            ident = identical_by_class[cls]
            rows.append({
                "class": cls,
                "attempted": att,
                "listed": listed_by_class[cls],
                "byte_identical": ident,
                "percent": exact_percent(ident, att),
            })
        total_att = sum(attempted_by_class.values())
        total_ident = sum(identical_by_class.values())
    else:
        for cls, n in sorted(listed_by_class.items()):
            rows.append({
                "class": cls,
                "attempted": n,
                "listed": n,
                "byte_identical": None,
                "percent": None,
            })
        total_att = len(files)
        total_ident = None

    return {
        "classes": rows,
        "totals": {
            "attempted": total_att,
            "listed": len(files),
            "byte_identical": total_ident,
            "percent": exact_percent(total_ident, total_att)
            if total_ident is not None else None,
            "bytes_recovered": sum(f.size for f in files),
        },
    }


def make_report(meta: dict, summary: dict | None = None, files=(),
                audit: dict | None = None,
                simulation: dict | None = None) -> dict:
    meta = dict(meta)
    meta.setdefault("tool", TOOL_NAME)
    meta.setdefault("schema_version", SCHEMA_VERSION)
    return {
        "meta": meta,
        "summary": summary,
        "files": [f.to_dict() if isinstance(f, RecoveredFile) else f
                  for f in files],
        "audit": audit,
        "simulation": simulation,
    }


def _fmt_percent(p) -> str:
    return "n/a" if p is None else "%.1f%%" % p


def _fmt_value(v) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v, sort_keys=True)


def _text_lines(report: dict):
    """The lines of the human-readable rendering, each without its line
    break."""
    meta = report["meta"]
    yield "%s %s" % (meta.get("tool", TOOL_NAME), meta.get("command", ""))
    for key in sorted(meta):
        if key in ("tool", "command", "schema_version"):
            continue
        if meta[key] is not None:
            yield "  %s: %s" % (key, _fmt_value(meta[key]))

    summary = report.get("summary")
    if summary:
        yield ""
        yield ("%-12s %9s %7s %15s %9s"
               % ("class", "attempted", "listed", "byte-identical", "percent"))
        for row in summary["classes"]:
            yield ("%-12s %9d %7d %15s %9s"
                   % (row["class"], row["attempted"], row["listed"],
                      "-" if row["byte_identical"] is None
                      else row["byte_identical"],
                      _fmt_percent(row["percent"])))
        t = summary["totals"]
        yield ("%-12s %9d %7d %15s %9s"
               % ("total", t["attempted"], t["listed"],
                  "-" if t["byte_identical"] is None else t["byte_identical"],
                  _fmt_percent(t["percent"])))
        yield "bytes recovered: %d" % t["bytes_recovered"]

    files = report.get("files") or []
    if files:
        yield ""
        for f in files:
            where = (f["path"] + "/" + f["name"]) if f["path"] else f["name"]
            if "sha256" in f:           # recovered payload row
                line = "  %-40s %10d B  %-20s %s" % (
                    where, f["size"], f["confidence"], f["sha256"][:12])
            else:                       # scan listing row
                status = "deleted" if f["deleted"] else "live"
                kind = "dir " if f.get("is_directory") else "file"
                line = "  %-40s %10d B  %-8s %s" % (
                    where, f["size"], status, kind)
                if f.get("confidence"):
                    line += "  %-20s" % f["confidence"]
                if f.get("modified"):
                    line += "  %s" % f["modified"]
            if f["flags"]:
                line += "  [" + ",".join(f["flags"]) + "]"
            yield line

    audit = report.get("audit")
    if audit:
        yield ""
        yield "sanitization audit: %s" % audit["verdict"]
        for row in audit["files"]:
            yield ("  %-40s %-12s %d/%d bytes recoverable"
                   % (row["path"], row["verdict"],
                      row["recoverable_bytes"], row["size_bytes"]))
        yield ("recoverable: %d of %d bytes; %d recoverable / %d "
               "partial / %d sanitized file(s)"
               % (audit["recoverable_bytes"], audit["total_bytes"],
                  audit["recoverable_files"], audit["partial_files"],
                  audit["sanitized_files"]))

    sim = report.get("simulation")
    if sim:
        yield ""
        yield "simulation (%s):" % sim.get("experiment", "?")
        for key in sorted(sim):
            if key in ("experiment", "iterations", "remanence",
                       "state_hash"):
                continue
            yield "  %s: %s" % (key, _fmt_value(sim[key]))
        for it in sim.get("iterations", []):
            yield ("  iteration %2d: recoverable %8d B, copies %3d, "
                   "identical %.2f"
                   % (it["iteration"], it["recoverable_bytes"],
                      it["copy_count"], it["byte_identical_fraction"]))
        rem = sim.get("remanence")
        if rem:
            yield ("  remanence: %d payload(s), live %d, stale %d, "
                   "retired %d, recoverable %d B"
                   % (len(rem["payloads"]), rem["live_copies"],
                      rem["stale_copies"], rem["retired_copies"],
                      rem["recoverable_bytes"]))
            for p in rem["payloads"]:
                yield ("    %s lpns=%s copies=%d "
                       "(live %d, stale %d, retired %d)"
                       % (p["digest"][:16], p["lpns"], p["copies"],
                          p["live"], p["stale"], p["retired"]))
        if sim.get("state_hash"):
            yield "  state hash: %s" % sim["state_hash"]


def _write_batched(pieces, fh) -> None:
    """Write the strings ``pieces`` to ``fh``, JSON_BATCH at a time, one
    join and one ``write`` per batch."""
    pieces = iter(pieces)
    while batch := list(islice(pieces, JSON_BATCH)):
        fh.write("".join(batch))


def write_text(report: dict, fh) -> None:
    """Write the human-readable rendering of a report dict (same facts,
    no more) to the text file ``fh``, JSON_BATCH lines at a time."""
    _write_batched((line + "\n" for line in _text_lines(report)), fh)


def render_text(report: dict) -> str:
    """:func:`write_text`'s rendering as one string."""
    buf = io.StringIO()
    write_text(report, buf)
    return buf.getvalue()


def write_json(value, fh) -> None:
    """Write ``value`` to the text file ``fh`` as the bytes of
    ``json.dumps(value, indent=2, sort_keys=True)``.

    Those bytes are the pieces of the stdlib encoder's ``iterencode``,
    which go to ``fh`` JSON_BATCH at a time, so memory follows one batch,
    not the document (``json.dumps`` joins every piece before returning).
    """
    _write_batched(_ENCODER.iterencode(value), fh)


def dump_json(report: dict, fh) -> None:
    """Write ``report`` to ``fh`` as JSON, one line break after it."""
    write_json(report, fh)
    fh.write("\n")
