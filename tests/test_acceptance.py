"""Acceptance criteria, one test per criterion.

Each test prints exactly one summary line (PASS/FAIL with the measured
numbers) past pytest's capture so the line lands in the logged test
output.
"""

import hashlib
import json
import random
import sys
import time

import pytest

from remnant import cli, forge, forge_write
from remnant.ftl import (
    FtlState,
    apply_random_operations,
    desk_geometry,
    random_operation,
    remanence_audit,
    run_cycle_experiment,
    run_retirement_experiment,
)
from remnant.ntfs import decode_data_runs

MiB = 1024 * 1024
PAGE = 2048
TAGS = ["free", "valid", "stale", "retired"]      # a ChipDump's tag codes


_CAP = None


@pytest.fixture(autouse=True)
def _passthrough(capfd):
    """Keep a handle on the capture fixture so _report can sidestep it."""
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(num: int, failures: list, detail: str) -> None:
    verdict = "FAIL" if failures else "PASS"
    line = "acceptance criterion %d: %s — %s\n" % (num, verdict, detail)
    if _CAP is not None:
        with _CAP.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert not failures, "; ".join(failures)


def _cli(*argv) -> int:
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 5


def _forge_image(tmp_path, fs):
    img = tmp_path / ("%s.img" % fs)
    truth_path = str(img) + ".truth.json"
    spec = forge.standard_corpus(fs, total_size=64 * MiB)
    forge.build_image(spec, img, truth_path=truth_path)
    return img, truth_path


def _mutate(img, truth_path, action):
    truth = forge.GroundTruth.load(truth_path)
    forge.apply_mutation(img, action, truth=truth)
    truth.mutations.append(action)
    truth.save(truth_path)
    return truth


def _recover_json(tmp_path, img, truth_path, tag, deep=False):
    jp = tmp_path / ("%s.json" % tag)
    argv = ["recover", img, "--out", tmp_path / ("out-%s" % tag),
            "--truth", truth_path, "--json", jp]
    if deep:
        argv.insert(2, "--deep")
    code = _cli(*argv)
    blob = json.loads(jp.read_text()) if jp.exists() else None
    return code, blob


# --------------------------------------------------------------- criteria

def test_criterion_1_metadata_delete_recovers_everything(tmp_path):
    """64 MiB FAT32 and NTFS corpora, metadata-only delete, plain
    recover: 100.0% byte-identical in every class, confidence exact,
    under 10 s per image."""
    failures, stats = [], []
    for fs in ("fat32", "ntfs"):
        t0 = time.perf_counter()
        img, truth_path = _forge_image(tmp_path, fs)
        truth = _mutate(img, truth_path, "delete-all")

        sizes = [r.size for r in truth.files.values()]
        classes = {r.file_class for r in truth.files.values()}
        if len(truth.files) < 12:
            failures.append("%s: corpus only has %d files" % (fs, len(truth.files)))
        if len(classes) < 6:
            failures.append("%s: only %d content classes" % (fs, len(classes)))
        if min(sizes) != 1 or max(sizes) != 4 * MiB:
            failures.append("%s: size span %d..%d" % (fs, min(sizes), max(sizes)))

        code, blob = _recover_json(tmp_path, img, truth_path, "c1-" + fs)
        elapsed = time.perf_counter() - t0
        if code != 0:
            failures.append("%s: recover exited %d" % (fs, code))
            continue
        totals = blob["summary"]["totals"]
        if totals["percent"] != 100.0:
            failures.append("%s: totals %.1f%%" % (fs, totals["percent"] or -1))
        for row in blob["summary"]["classes"]:
            if row["percent"] != 100.0:
                failures.append("%s: class %s at %s%%"
                                % (fs, row["class"], row["percent"]))
        known = {r.sha256 for r in truth.files.values()}
        exact = [r for r in blob["files"] if r["sha256"] in known]
        if not all(r["byte_identical"] for r in exact):
            failures.append("%s: non-identical recovery" % fs)
        if not all(r["confidence"] == "exact" for r in exact):
            failures.append("%s: confidence below exact" % fs)
        if elapsed >= 10.0:
            failures.append("%s: took %.1fs (limit 10)" % (fs, elapsed))
        stats.append("%s %d/%d in %.1fs"
                     % (fs, totals["byte_identical"], totals["attempted"],
                        elapsed))
    _report(1, failures, "metadata-only delete -> 100.0%% byte-identical, "
            "exact (%s)" % ", ".join(stats))


def test_criterion_2_quick_format_needs_deep_scan(tmp_path):
    """Quick-formatted volumes: the plain scan sees nothing; the deep
    scan recovers 100.0%; under 30 s."""
    failures, stats = [], []
    t0 = time.perf_counter()
    for fs in ("fat32", "ntfs"):
        img, truth_path = _forge_image(tmp_path, fs)
        _mutate(img, truth_path, "quick-format")

        code, blob = _recover_json(tmp_path, img, truth_path, "c2s-" + fs)
        if code != 3:
            failures.append("%s: shallow recover exited %d, want 3" % (fs, code))
        if blob and blob["files"]:
            failures.append("%s: shallow scan listed %d entries"
                            % (fs, len(blob["files"])))

        code, blob = _recover_json(tmp_path, img, truth_path, "c2d-" + fs,
                                   deep=True)
        if code != 0:
            failures.append("%s: deep recover exited %d" % (fs, code))
            continue
        pct = blob["summary"]["totals"]["percent"]
        if pct != 100.0:
            failures.append("%s: deep recovery at %s%%" % (fs, pct))
        stats.append("%s %.1f%%" % (fs, pct))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append("took %.1fs (limit 30)" % elapsed)
    _report(2, failures, "quick format -> 0 shallow entries; deep scan %s; %.1fs"
            % (", ".join(stats), elapsed))


def test_criterion_3_full_overwrite_defeats_recovery(tmp_path):
    """After a full overwrite even the deep scan recovers zero files and
    the tool signals it with exit code 3."""
    failures, stats = [], []
    for fs in ("fat32", "ntfs"):
        img, truth_path = _forge_image(tmp_path, fs)
        _mutate(img, truth_path, "full-overwrite")
        code, blob = _recover_json(tmp_path, img, truth_path, "c3-" + fs,
                                   deep=True)
        if code != 3:
            failures.append("%s: exit %d, want 3" % (fs, code))
        truth = forge.GroundTruth.load(truth_path)
        hashes = {r.sha256 for r in truth.files.values()}
        recovered = [r for r in (blob["files"] if blob else [])
                     if r["sha256"] in hashes]
        if recovered:
            failures.append("%s: %d payloads survived" % (fs, len(recovered)))
        stats.append("%s exit %d, 0 recovered" % (fs, code))
    _report(3, failures, "full overwrite -> %s" % ", ".join(stats))


def test_criterion_4_run_list_round_trip():
    """10,000 randomized run lists encode->decode->encode bit-exactly
    in under 5 s."""
    rng = random.Random(0xC4)
    failures = []
    t0 = time.perf_counter()
    for i in range(10_000):
        runs = []
        for _ in range(rng.randrange(0, 16)):
            length = rng.randrange(1, 1 << rng.choice((4, 8, 16, 24)))
            lcn = (None if rng.random() < 0.15
                   else rng.randrange(0, 1 << rng.choice((8, 16, 32, 40))))
            runs.append((lcn, length))
        raw = forge_write.encode_data_runs(runs)
        decoded = decode_data_runs(raw)
        if decoded != runs:
            failures.append("list %d decoded differently" % i)
            break
        if forge_write.encode_data_runs(decoded) != raw:
            failures.append("list %d re-encoded differently" % i)
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append("took %.2fs (limit 5)" % elapsed)
    _report(4, failures,
            "10,000 run lists round-tripped bit-exactly in %.2fs" % elapsed)


def test_criterion_5_overwrites_strand_stale_copies():
    """Desk geometry, collection off: five versions of one page leave
    exactly 4 stale + 1 live; after trim all five are recoverable while
    the host reads the erased pattern."""
    failures = []
    state = FtlState(geometry=desk_geometry(), gc_enabled=False)
    versions = [bytes([v]) * PAGE for v in range(1, 6)]
    for v in versions:
        state.write(0, v)
    tag = state.forensic_dump().tag
    stale = tag.count(TAGS.index("stale"))
    live = tag.count(TAGS.index("valid"))
    if (stale, live) != (4, 1):
        failures.append("after 5 writes: %d stale + %d live" % (stale, live))

    state.trim(0)
    audit = remanence_audit(state.forensic_dump(),
                            [(0, v) for v in versions])
    copies = sum(p.copies for p in audit.payloads)
    if copies != 5 or audit.stale_copies != 5:
        failures.append("after trim: %d copies, %d stale"
                        % (copies, audit.stale_copies))
    if state.read(0) != b"\xFF" * PAGE:
        failures.append("host read returned remnant data after trim")
    _report(5, failures, "k=5 overwrites -> 4 stale + 1 live; trim -> 5 "
            "recoverable copies, host reads erased")


def test_criterion_6_retired_blocks_freeze_their_contents():
    """Endurance limit 10: the worn block retires, its pages dump as
    'retired', and their payloads survive 1,000 further operations
    bit-identically."""
    failures = []
    state = FtlState(geometry=desk_geometry(), seed=6)
    ops = run_retirement_experiment(state)
    if state.retired_count != 1:
        failures.append("no block retired after %d ops" % ops)
    ppb = state.geometry.pages_per_block
    retired = [ppn for b in state.replacement
               for ppn in range(b * ppb, (b + 1) * ppb)]
    dump = state.forensic_dump()
    pages = list(dump.pages())
    frozen = {}
    for ppn in retired:
        if TAGS[dump.tag[ppn]] != "retired":
            failures.append("page %d/%d tagged %r"
                            % (*divmod(ppn, ppb), TAGS[dump.tag[ppn]]))
        frozen[ppn] = pages[ppn]

    apply_random_operations(state, 1_000, random.Random(66))
    after = list(state.forensic_dump().pages())
    changed = sum(1 for ppn in frozen if after[ppn] != frozen[ppn])
    if changed:
        failures.append("%d retired pages changed" % changed)
    _report(6, failures, "block retired after %d writes; %d frozen pages "
            "bit-identical through 1,000 further ops"
            % (ops, len(frozen)))


def test_criterion_7_recovery_cycles_multiply_remnants():
    """Five delete/recover cycles with collection off: recoverable bytes
    never decrease and the distinct-copy count grows every iteration;
    under 5 s."""
    failures = []
    t0 = time.perf_counter()
    state = FtlState(geometry=desk_geometry(), gc_enabled=False)
    payloads = [bytes([0x40 + i]) * PAGE for i in range(4)]
    res = run_cycle_experiment(state, payloads, iterations=5)
    elapsed = time.perf_counter() - t0

    recov = [it.recoverable_bytes for it in res.iterations]
    copies = [it.copy_count for it in res.iterations]
    if len(res.iterations) != 5:
        failures.append("only %d iterations ran" % len(res.iterations))
    if recov != sorted(recov):
        failures.append("recoverable bytes shrank: %s" % recov)
    if any(b - a < 1 for a, b in zip(copies, copies[1:])):
        failures.append("copy count stalled: %s" % copies)
    if elapsed >= 5.0:
        failures.append("took %.2fs (limit 5)" % elapsed)
    _report(7, failures, "5 cycles: recoverable %s bytes, copies %s, %.2fs"
            % (recov, copies, elapsed))


def test_criterion_8_random_walks_conserve_and_replay():
    """50 seeds x 1,000 random operations: page-state conservation holds
    after every step and re-running a seed reproduces the state hash."""
    failures = []
    for seed in range(50):
        state = FtlState(geometry=desk_geometry(), seed=seed)
        rng = random.Random(seed)
        for step in range(1_000):
            random_operation(state, rng)
            if not state.check_conservation():
                failures.append("seed %d step %d broke conservation"
                                % (seed, step))
                break
        replay = FtlState(geometry=desk_geometry(), seed=seed)
        apply_random_operations(replay, 1_000, random.Random(seed))
        if replay.state_hash() != state.state_hash():
            failures.append("seed %d replay hash differs" % seed)
        if failures:
            break
    _report(8, failures, "50 seeds x 1,000 ops: conservation held and "
            "every replay hash matched")


def test_criterion_9_analysis_never_mutates_the_image(tmp_path):
    """scan, recover and audit leave the input image byte-identical."""
    failures, checked = [], 0
    for fs, action in (("fat32", "delete-all"), ("ntfs", "quick-format")):
        img, truth_path = _forge_image(tmp_path, fs)
        _mutate(img, truth_path, action)
        before = hashlib.sha256(img.read_bytes()).hexdigest()
        _cli("scan", img, "--deep")
        _cli("recover", img, "--deep", "--out", tmp_path / ("o-%s" % fs),
             "--truth", truth_path)
        _cli("audit", img, truth_path)
        after = hashlib.sha256(img.read_bytes()).hexdigest()
        checked += 1
        if before != after:
            failures.append("%s image hash changed" % fs)
    _report(9, failures,
            "%d images hashed identically before and after scan/recover/audit"
            % checked)
