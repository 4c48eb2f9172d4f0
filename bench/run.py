#!/usr/bin/env python3
"""The remnant benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is run from the checkout's
own ``src/``; without it the benchmark exits 2 and prints no result.

``--trace 0`` measures the end-to-end metrics: every disk workload drives
the real ``remnant`` CLI (``scan``, ``recover``, ``audit``), one child
process at a time, on an image the forge built from the seed; the
``ftl-churn`` workload drives the public ``remnant.ftl`` API in a child.
``--trace 1`` alternates those untraced passes with traced ones, whose
spans give the per-layer metrics, and reports the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output check passed, 1 when one failed.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
from statistics import median
import struct
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PROBE = os.path.join(BENCH_DIR, "probe.py")
EXPECTED_FTL = os.path.join(BENCH_DIR, "expected_ftl.json")
PY = sys.executable or "python3"

DEFAULT_SEED = 0
SETUP_REPS = 3          # set-ups per untraced disk run; setup_s: median
IMPORT_REPS = 5         # interpreter start + import samples for cli.import_s
CHILD_TIMEOUT_S = 150
CALIB_SHARE = 0.10      # calibration time after each child, share of its wall
CALIB_REF_S = 0.016     # one calibration sample on the reference host
CALIB_EXPONENT = 0.5    # how far the children's times follow the samples
HARD_STOP_S = 120       # no pass starts later than this, whatever --seconds

MiB = 1 << 20
CLASSES = (("document", "PDF"), ("image", "JPG"), ("audio", "MP3"),
           ("video", "MKV"), ("compressed", "ZIP"), ("executable", "EXE"))

# Disk workloads.  Shapes stay inside the forge's limits (at most 1,440
# NTFS files; the whole image is built in one bytearray).  "reps" runs the
# short read-only stages several times in each untraced pass, so that
# every stage gets about the same measured time in a run and no metric
# rests on a second or two of samples.
DISK = {
    # The per-cluster orphan-directory carve over ~1M clusters, and the
    # bulk read path: 131k cluster reads, sha256 and writes over 64 MiB.
    "fat-mixed": {"fs": "fat32", "deep": True, "jobs": 2,
                  "reps": {"scan": 1, "recover": 1, "audit": 1},
                  "mutations": ("delete-all", "quick-format"),
                  "full": {"size": 512 * MiB, "spc": 1, "files": 2000,
                           "file_size": 4096, "big_files": 16,
                           "big_size": 4 * MiB},
                  "toy": {"size": 40 * MiB, "spc": 1, "files": 20,
                          "file_size": 4096, "big_files": 2,
                          "big_size": 64 * 1024}},
    # The NTFS reader: MFT scan, record carve, run-list recovery.
    "ntfs-deep": {"fs": "ntfs", "deep": True, "jobs": 1,
                  "reps": {"scan": 2, "recover": 1, "audit": 4},
                  "mutations": ("delete-all", "quick-format"),
                  "full": {"size": 512 * MiB, "spc": None, "files": 1400,
                           "file_size": 8192, "big_files": 0},
                  "toy": {"size": 16 * MiB, "spc": None, "files": 20,
                          "file_size": 8192, "big_files": 0}},
}
WORKLOADS = tuple(DISK) + ("ftl-churn",)

# name -> unit.  Must match BENCHMARK.json; the self-test checks that.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_MiB": "MiB",
    "scan_s": "s",
    "datapath_s": "s",
    "audit_s": "s",
}

# Inclusive time of each wrapped call, summed per pass: metric -> spans.
SPAN_TIMES = {
    "volume.detect_s": ("volume.detect_filesystem",),
    "fat.load_fat_s": ("fat.load_fat",),
    "fat.survey_s": ("fat.survey",),
    "fat.find_deleted_s": ("fat.find_deleted",),
    "fat.recover_file_s": ("fat.recover_file",),
    "ntfs.survey_s": ("ntfs.survey",),
    "ntfs.scan_mft_s": ("ntfs.scan_mft",),
    "ntfs.carve_records_s": ("ntfs.carve_records",),
    "ntfs.recover_file_s": ("ntfs.recover_file",),
    "undelete.scan_volume_s": ("undelete.scan_volume",),
    "undelete.recover_all_s": ("undelete.recover_all",),
    "report.render_s": ("report.summarize", "report.make_report",
                        "report.render_text", "report.dump_json"),
    "forge.build_image_s": ("forge.build_image",),
    "forge.apply_mutation_s": ("forge.apply_mutation",),
    "forge.audit_image_s": ("forge.audit_image",),
    "ftl.write_s": ("ftl.write",),
    "ftl.trim_s": ("ftl.trim",),
    "ftl.read_s": ("ftl.read",),
    "ftl.garbage_collect_s": ("ftl.garbage_collect",),
    "ftl.forensic_dump_s": ("ftl.forensic_dump",),
    "ftl.remanence_audit_s": ("ftl.remanence_audit",),
    "ftl.state_hash_s": ("ftl.state_hash",),
}
LAYERS = ("volume", "fat", "ntfs", "undelete", "report", "forge", "ftl",
          "cli")

PER_LAYER = {name: "s" for name in SPAN_TIMES}
PER_LAYER.update({
    "volume.read_at.calls": "count",
    "volume.read_at.bytes": "bytes",
    "fat.recover_file.MBps": "MB/s",
    "ntfs.records_seen": "count",
    "ntfs.carve_candidates": "count",
    "undelete.output_write_s": "s",
    "cli.import_s": "s",
    "ftl.write_us.p50": "us",
    "ftl.write_us.p99": "us",
    "ftl.gc_runs": "count",
    "ftl.relocations": "count",
    "ftl.write_amplification": "ratio",
    "ftl.stale_copies": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "host.calib_ms": "ms",
    "host.scale": "ratio",
})
PER_LAYER.update({"self.%s_s" % layer: "s" for layer in LAYERS})


# -- host speed ---------------------------------------------------------------

# The shared host's speed drifts by a fifth or more over minutes, for any
# code, so a run's raw medians move with the host and not only with the
# program.  The parent times a fixed unit of work of the program's own
# kinds after every child, for a tenth of that child's wall time, so the
# samples cover the run as evenly as the children do.  Every end-to-end
# time is reported as its raw median times
# (CALIB_REF_S / median sample) ** CALIB_EXPONENT.  The samples see the
# host at other moments than the children do, so the children's times
# follow them only in part: over about 240 passes of a FAT deep carve,
# FAT bulk recovery and the FTL churn, exponents from 0 to 1 were best
# for one stage or another, and 0.5 gave the smallest worst-case spread
# of run medians.
# The program never runs this code, so a change to the program moves
# the scaled times exactly as much as the raw ones.

_CAL_BLOCK = bytes(range(256)) * 16          # 4 KiB
CAL_FILE_BLOCKS = 8192                       # 512 B blocks in the read file


def calibration_sample(fd: int) -> float:
    """Wall time of one fixed unit of work: an interpreted arithmetic
    loop, slicing and struct decoding with dict stores, and 512-byte
    positional reads from ``fd``, a file in the page cache."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    buf = _CAL_BLOCK
    seen = {}
    for rep in range(60):
        for off in range(0, len(buf), 32):
            rec = buf[off:off + 32]
            a, b = struct.unpack_from("<II", rec, 8)
            if rec[0] != 0xE5:
                seen[rep, off] = a ^ b
    for i in range(3000):
        rec = os.pread(fd, 512, (i * 7919 % CAL_FILE_BLOCKS) * 512)
        acc += struct.unpack_from("<I", rec, 0)[0] & 1
    return time.perf_counter() - t0


# -- child processes ----------------------------------------------------------


class Child:
    """One finished child: exit code, wall time, peak RSS, log paths."""

    def __init__(self, rc, wall_s, rss_mib, out, err):
        self.rc, self.wall_s, self.rss_mib = rc, wall_s, rss_mib
        self.out, self.err = out, err

    def stdout(self) -> str:
        with open(self.out, encoding="utf-8") as fh:
            return fh.read()

    def stderr_tail(self) -> str:
        with open(self.err, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-400:]


class Runner:
    """Spawns children one at a time and reaps each with ``os.wait4``,
    whose ``ru_maxrss`` is that child's own peak: this parent imports no
    part of ``remnant`` and holds no image, so it lends the child none."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.count = 0
        self.calib: list[float] = []
        cal_path = os.path.join(work, "calibration.bin")
        with open(cal_path, "wb") as fh:
            fh.write(_CAL_BLOCK * (CAL_FILE_BLOCKS // 8))
        self.cal_fd = os.open(cal_path, os.O_RDONLY)

    def close(self) -> None:
        os.close(self.cal_fd)

    def calibrate(self, budget_s: float) -> None:
        """Calibration samples for ``budget_s`` seconds, at least two."""
        t_end = time.perf_counter() + budget_s
        for _ in range(2):
            self.calib.append(calibration_sample(self.cal_fd))
        while time.perf_counter() < t_end:
            self.calib.append(calibration_sample(self.cal_fd))

    def host_scale(self) -> float:
        """Factor that takes this run's host speed out of its raw times."""
        return (CALIB_REF_S / median(self.calib)) ** CALIB_EXPONENT

    def run(self, argv: list[str]) -> Child:
        self.count += 1
        out = os.path.join(self.work, "child-%d.out" % self.count)
        err = os.path.join(self.work, "child-%d.err" % self.count)
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                    env=self.env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        self.calibrate(CALIB_SHARE * wall)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out, err)

    def cli(self, args: list[str], trace_out: str | None = None) -> Child:
        if trace_out is None:
            return self.run([PY, "-m", "remnant.cli", *args])
        return self.run([PY, PROBE, "cli", trace_out, "--", *args])


# -- span arithmetic ----------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_totals(docs) -> tuple[dict, dict, int]:
    """Inclusive time per span name, self time per span name, and the
    span count, summed over the trace documents of one pass.  Self time
    is a span's duration minus the part its children cover."""
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    count = 0
    for doc in docs:
        spans = doc["spans"]
        count += len(spans)
        kids = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        for i, s in enumerate(spans):
            dur = s["end"] - s["start"]
            inclusive[s["name"]] += dur
            inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                      for c in kids[i]]
            self_time[s["name"]] += dur - _covered(inside)
    return inclusive, self_time, count


def layer_metrics(docs) -> dict:
    inclusive, self_time, count = span_totals(docs)
    out = {m: sum(inclusive[n] for n in names)
           for m, names in SPAN_TIMES.items()}
    for layer in LAYERS:
        out["self.%s_s" % layer] = sum(
            t for n, t in self_time.items() if n.split(".")[0] == layer)
    out["undelete.output_write_s"] = self_time["undelete.recover_all"]
    out["volume.read_at.calls"] = sum(d["reads"]["calls"] for d in docs)
    out["volume.read_at.bytes"] = sum(d["reads"]["bytes"] for d in docs)
    out["trace.spans"] = count
    return out


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- disk workloads -----------------------------------------------------------


def corpus_sizes(shape: dict) -> list[tuple[str, int]]:
    """(name prefix, size) of every corpus file, small files first."""
    return ([("F", shape["file_size"])] * shape["files"]
            + [("B", shape.get("big_size", 0))] * shape["big_files"])


def corpus_spec(wl: dict, shape: dict, seed: int) -> dict:
    files = []
    for i, (prefix, size) in enumerate(corpus_sizes(shape)):
        cls, ext = CLASSES[i % len(CLASSES)]
        files.append({"name": "%s%04d.%s" % (prefix, i, ext), "class": cls,
                      "size": size, "parent": "DATA"})
    spec = {"filesystem": wl["fs"], "total_size": shape["size"],
            "files": files, "dirs": ["DATA"], "seed": seed}
    if shape["spc"]:
        spec["sectors_per_cluster"] = shape["spc"]
    return spec


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class DiskWorkload:
    def __init__(self, name: str, seed: int, size: str, runner: Runner):
        self.wl = DISK[name]
        self.shape = self.wl[size]
        self.runner = runner
        w = runner.work
        self.spec = os.path.join(w, "spec.json")
        self.img = os.path.join(w, "volume.img")
        self.truth = os.path.join(w, "volume.img.truth.json")
        self.out_dir = os.path.join(w, "recovered")
        with open(self.spec, "w", encoding="utf-8") as fh:
            json.dump(corpus_spec(self.wl, self.shape, seed), fh)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.truth_sha: dict[str, str] = {}

    def setup(self, trace_dir: str | None = None) -> float:
        """Forge build + mutations, each a CLI child; returns their time."""
        steps = [["forge", self.img, "--spec", self.spec,
                  "--truth", self.truth]]
        steps += [["forge", self.img, "--apply", m, "--truth", self.truth]
                  for m in self.wl["mutations"]]
        total = 0.0
        for i, args in enumerate(steps):
            trace = os.path.join(trace_dir, "setup-%d.json" % i) \
                if trace_dir else None
            child = self.runner.cli(args, trace)
            total += child.wall_s
            if child.rc != 0:
                raise RuntimeError("set-up step %s exited %d: %s"
                                   % (args[2:4], child.rc,
                                      child.stderr_tail()))
        # Flush the image now, untimed, so its write-back cannot land in
        # the middle of a measured pass.
        fd = os.open(self.img, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        truth = load_json(self.truth)
        self.truth_sha = {p: t["sha256"] for p, t in truth["files"].items()}
        return total

    def run_pass(self, trace_dir: str | None = None) -> dict:
        """scan, recover, audit as children, the short ones repeated in an
        untraced pass; returns each stage's wall times and the peak RSS
        after checking every output."""
        w = self.runner.work
        deep = ["--deep"] if self.wl["deep"] else []
        jobs = ["--jobs", str(self.wl["jobs"])] if self.wl["jobs"] > 1 else []
        j = {k: os.path.join(w, "%s.json" % k)
             for k in ("scan", "recover", "audit")}
        stages = {
            "scan": ["scan", self.img, *deep, "--json", j["scan"]],
            "recover": ["recover", self.img, *deep, "--out", self.out_dir,
                        *jobs, "--truth", self.truth, "--json", j["recover"]],
            "audit": ["audit", self.img, self.truth, "--json", j["audit"]],
        }
        checks = {"scan": self._check_scan, "recover": self._check_recover,
                  "audit": self._check_audit}
        result = {"wall": defaultdict(list), "rss": [], "traces": [],
                  "scan_stats": {}, "bytes_recovered": 0}
        bad: set[str] = set()
        exits_failed = 0
        for stage, args in stages.items():
            trace = os.path.join(trace_dir, "%s.json" % stage) \
                if trace_dir else None
            for _ in range(1 if trace else self.wl["reps"][stage]):
                child = self.runner.cli(args, trace)
                result["wall"][stage].append(child.wall_s)
                result["rss"].append(child.rss_mib)
                if child.rc != 0:
                    exits_failed += 1
                    bad |= set(self.truth_sha)
                    self.failures.append("%s exited %d: %s" % (
                        stage, child.rc, child.stderr_tail()))
                    continue
                report = load_json(j[stage])
                bad |= checks[stage](report)
                if stage == "scan":
                    result["scan_stats"] = report["meta"]["stats"]
                elif stage == "recover":
                    result["bytes_recovered"] = \
                        report["summary"]["totals"]["bytes_recovered"]
            if trace:
                result["traces"].append(trace)
        if bad:
            self.failures.append("%d truth files not recovered byte-identical"
                                 " or not RECOVERABLE: %s"
                                 % (len(bad), sorted(bad)[:5]))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += len(self.truth_sha)
        self.failed += len(bad) + exits_failed
        return result

    def _check_scan(self, report: dict) -> set:
        want = Counter(size for _, size in corpus_sizes(self.shape))
        listed = Counter(r["size"] for r in report["files"]
                         if r["deleted"] and not r["is_directory"]
                         and r["size"] in want)
        if listed != want:
            self.failures.append("scan lists deleted files of sizes %r, "
                                 "want %r" % (dict(listed), dict(want)))
        return set()

    def _check_recover(self, rec: dict) -> set:
        """Truth files whose recovered bytes are not byte-identical."""
        n = len(self.truth_sha)
        totals = rec["summary"]["totals"]
        if (totals["attempted"], totals["byte_identical"],
                totals["percent"]) != (n, n, 100.0):
            self.failures.append("recover totals %r, want %d/%d at 100.0%%"
                                 % (totals, n, n))
        verified = set()
        for row in rec["files"]:
            if row["output"] and os.path.isfile(row["output"]) \
                    and sha256_file(row["output"]) == row["sha256"]:
                verified.add(row["sha256"])
        return {p for p, sha in self.truth_sha.items() if sha not in verified}

    def _check_audit(self, report: dict) -> set:
        """Truth files the audit does not call RECOVERABLE."""
        verdicts = {r["path"]: r["verdict"] for r in report["audit"]["files"]}
        return {p for p in self.truth_sha
                if verdicts.get(p) != "RECOVERABLE"}


def run_disk(name, seed, trace, size, runner, t_end, traces):
    wl = DiskWorkload(name, seed, size, runner)
    metrics: dict[str, float] = {}
    t_start = time.perf_counter()
    if trace:
        setup_dir = os.path.join(runner.work, "trace-setup")
        os.makedirs(setup_dir)
        wl.setup(setup_dir)
        setup_docs = [load_json(os.path.join(setup_dir, f))
                      for f in sorted(os.listdir(setup_dir))]
        traces.append({"phase": "setup", "children": setup_docs})
        setup_layers = layer_metrics(setup_docs)

    untraced, traced = [], []

    def one_round():
        untraced.append(wl.run_pass())
        if trace:
            tdir = os.path.join(runner.work, "trace-pass-%d" % len(traced))
            os.makedirs(tdir)
            p = wl.run_pass(tdir)
            p["docs"] = [load_json(t) for t in p["traces"]]
            traces.append({"phase": "pass", "children": p["docs"]})
            traced.append(p)

    if trace:
        run_until(t_end, one_round)
    else:
        # Set-ups interleave with the passes, so the measured passes
        # spread over the whole run instead of one stretch of it.
        setup_s = []
        for rep in range(SETUP_REPS):
            setup_s.append(wl.setup())
            run_until(t_start + (t_end - t_start) * (rep + 1) / SETUP_REPS,
                      one_round)
        metrics["setup_s"] = median(setup_s)
        metrics["peak_rss_MiB"] = max(r for p in untraced for r in p["rss"])
        for metric, stage in (("scan_s", "scan"), ("datapath_s", "recover"),
                              ("audit_s", "audit")):
            metrics[metric] = median([w for p in untraced
                                      for w in p["wall"][stage]])
        return wl, metrics

    per_pass = [layer_metrics(p["docs"]) for p in traced]
    for key in per_pass[0]:
        metrics[key] = median([m[key] for m in per_pass])
    for key in ("forge.build_image_s", "forge.apply_mutation_s"):
        metrics[key] = setup_layers[key]
    for key in LAYERS:
        metrics["self.%s_s" % key] += setup_layers["self.%s_s" % key]
    fat_s = metrics["fat.recover_file_s"]
    nbytes = median([p["bytes_recovered"] for p in traced])
    metrics["fat.recover_file.MBps"] = nbytes / 1e6 / fat_s if fat_s else 0.0
    stats = traced[-1]["scan_stats"]
    metrics["ntfs.records_seen"] = stats.get("records_seen", 0)
    metrics["ntfs.carve_candidates"] = stats.get("carve_candidates", 0)
    _overhead(metrics,
              [sum(median(p["wall"][s]) for s in p["wall"]) for p in untraced],
              [sum(median(p["wall"][s]) for s in p["wall"]) for p in traced])
    return wl, metrics


def run_until(t_end, one_round) -> None:
    """One round, then more until the clock reaches ``t_end``."""
    one_round()
    while time.perf_counter() < t_end:
        one_round()


def _overhead(metrics, untraced_walls, traced_walls) -> None:
    base = median(untraced_walls)
    metrics["trace.overhead_s"] = median(traced_walls) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base


# -- FTL workload -------------------------------------------------------------


FTL_CHECKED = ("state_hash", "gc_runs", "relocations", "stale_copies")


class FtlWorkload:
    def __init__(self, seed: int, size: str, runner: Runner):
        self.seed, self.size, self.runner = seed, size, runner
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        expected = load_json(EXPECTED_FTL).get(size, {})
        self.expected = expected.get(str(seed))
        self.first = None

    def run_pass(self, trace_out: str | None = None) -> dict:
        argv = [PY, PROBE, "ftl", "--seed", str(self.seed),
                "--size", self.size]
        if trace_out:
            argv += ["--trace-out", trace_out]
        child = self.runner.run(argv)
        if child.rc != 0:
            raise RuntimeError("FTL pass exited %d: %s"
                               % (child.rc, child.stderr_tail()))
        res = json.loads(child.stdout().splitlines()[-1])
        res["rss"], res["wall"] = child.rss_mib, child.wall_s
        self._check(res)
        return res

    def _check(self, res: dict) -> None:
        self.attempted += res["attempted"]
        self.failed += res["failed_ops"] + res["read_mismatches"]
        if res["failed_ops"] or res["read_mismatches"]:
            self.failures.append("%d host ops raised, %d reads disagreed with "
                                 "the shadow model" % (res["failed_ops"],
                                                       res["read_mismatches"]))
        if not res["conserved"]:
            self.failures.append("page-state conservation broken")
        got = {k: res[k] for k in FTL_CHECKED}
        if self.first is None:
            self.first = got
        elif got != self.first:
            self.failures.append("pass differs from the first: %r" % got)
        if self.expected is not None and got != self.expected:
            self.failures.append("seed %d: got %r, recorded %r"
                                 % (self.seed, got, self.expected))


def run_ftl(seed, trace, size, runner, t_end, traces):
    wl = FtlWorkload(seed, size, runner)
    untraced, traced = [], []

    def one_round():
        untraced.append(wl.run_pass())
        if trace:
            path = os.path.join(runner.work, "ftl-trace-%d.json" % len(traced))
            p = wl.run_pass(path)
            p["doc"] = load_json(path)
            traces.append({"phase": "pass", "children": [p["doc"]]})
            traced.append(p)

    run_until(t_end, one_round)

    if not trace:
        return wl, {
            "setup_s": median([p["setup_s"] for p in untraced]),
            "peak_rss_MiB": max(p["rss"] for p in untraced),
            "scan_s": median([p["dump_s"] for p in untraced]),
            "datapath_s": median([p["ops_s"] for p in untraced]),
            "audit_s": median([p["audit_s"] + p["hash_s"] for p in untraced]),
        }

    per_pass = [layer_metrics([p["doc"]]) for p in traced]
    metrics = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
    writes = [us for p in untraced for us in p["write_us"]]
    metrics["ftl.write_us.p50"] = median(writes)
    metrics["ftl.write_us.p99"] = statistics.quantiles(writes, n=100)[98]
    last = untraced[-1]
    for key in ("gc_runs", "relocations", "write_amplification",
                "stale_copies"):
        metrics["ftl." + key] = last[key]
    _overhead(metrics, [p["wall"] for p in untraced],
              [p["wall"] for p in traced])
    return wl, metrics


# -- entry point --------------------------------------------------------------


def import_time(runner: Runner, samples: int) -> float | None:
    """Interpreter start + ``import remnant.cli``, the median of
    ``samples`` runs after one that warms the bytecode cache, so no
    timed child pays for compiling."""
    walls = []
    for _ in range(samples + 1):
        child = runner.run([PY, "-c", "import remnant.cli"])
        if child.rc != 0:
            raise RuntimeError("cannot import remnant: " + child.stderr_tail())
        walls.append(child.wall_s)
    return median(walls[1:]) if samples else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=38.0,
                   help="seconds to measure for, set-ups included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every workload for the self-test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "remnant", "cli.py")):
        sys.stderr.write("bench: no remnant sources at %s; run from the root "
                         "of a checkout\n" % SRC)
        return 2

    t_begin = time.perf_counter()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work)
    traces: list[dict] = []
    try:
        cli_import_s = import_time(runner, IMPORT_REPS if args.trace else 0)
        # Set-ups, passes, checks and calibration all count towards
        # --seconds; no pass starts after HARD_STOP_S, whatever it says.
        t_end = min(time.perf_counter() + args.seconds,
                    t_begin + HARD_STOP_S)
        if args.workload == "ftl-churn":
            wl, metrics = run_ftl(args.seed, args.trace, args.size, runner,
                                  t_end, traces)
        else:
            wl, metrics = run_disk(args.workload, args.seed, args.trace,
                                   args.size, runner, t_end, traces)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    scale = runner.host_scale()
    if args.trace:
        metrics["host.calib_ms"] = median(runner.calib) * 1e3
        metrics["host.scale"] = scale
    else:
        print("host scale %.4f over %d calibration samples; raw medians: %s"
              % (scale, len(runner.calib),
                 ", ".join("%s %.4g" % (n, metrics[n]) for n, u in
                           END_TO_END.items() if u == "s")))
        for name, unit in END_TO_END.items():
            if unit == "s":
                metrics[name] *= scale
    if args.trace:
        metrics["cli.import_s"] = cli_import_s
        trace_path = os.path.join(WORK, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "size": args.size, "passes": traces}, fh)
        print("trace: %s" % os.path.relpath(trace_path, ROOT))
    for failure in wl.failures:
        print("CHECK FAILED: %s" % failure)
    for name in units:
        print("%-28s %14.6g %s" % (name, metrics.get(name, 0.0), units[name]))
    correct = not wl.failures and wl.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
