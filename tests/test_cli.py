"""End-to-end command-line behavior, including every exit code."""

import contextlib
import hashlib
import json
import os
import resource
import shutil
import struct
import subprocess
import sys
import tracemalloc

import pytest

from remnant import cli
from remnant import forge
from remnant import report as reportmod
from remnant.volume import detect_filesystem, open_image

MiB = 1024 * 1024


def run(capsys, *argv):
    """Invoke the entry point in-process; normalize SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse paths
        code = exc.code if isinstance(exc.code, int) else 5
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def small_image(tmp_path):
    """A freshly forged 8 MiB FAT16 volume plus its sidecar."""
    img = tmp_path / "vol.img"
    spec = forge.standard_corpus("fat16", total_size=8 * MiB)
    truth = forge.build_image(spec, img, truth_path=str(img) + ".truth.json")
    return img, truth


def _mutate(img, action, truth_path=None):
    tp = truth_path or (str(img) + ".truth.json")
    truth = forge.GroundTruth.load(tp)
    forge.apply_mutation(img, action, truth=truth)
    truth.mutations.append(action)
    truth.save(tp)


# ------------------------------------------------------------------ forge

def test_forge_writes_image_and_sidecar(tmp_path, capsys):
    img = tmp_path / "new.img"
    code, out, err = run(capsys, "forge", str(img), "--fs", "fat32",
                         "--size", "64m", "--seed", "3")
    assert code == 0
    assert img.exists() and img.stat().st_size == 64 * MiB
    truth = forge.GroundTruth.load(str(img) + ".truth.json")
    assert len(truth.files) >= 12
    assert str(img) in out


def test_forge_apply_records_the_modality(small_image, capsys):
    img, _ = small_image
    code, out, err = run(capsys, "forge", str(img), "--apply", "delete-all",
                         "--truth", str(img) + ".truth.json")
    assert code == 0
    truth = forge.GroundTruth.load(str(img) + ".truth.json")
    assert truth.mutations == ["delete-all"]


@pytest.mark.parametrize("fs", ["fat16", "ntfs"])
def test_forge_apply_defaults_to_the_image_sidecar(tmp_path, capsys, fs):
    """Without --truth, --apply plans from IMAGE.truth.json and records
    the mutation there; with no such file it exits 5 and writes
    nothing."""
    img = tmp_path / "vol.img"
    sidecar = tmp_path / "vol.img.truth.json"
    forge.build_image(forge.standard_corpus(fs, total_size=8 * MiB), img,
                      truth_path=sidecar)
    code, _, err = run(capsys, "forge", str(img), "--apply", "quick-format")
    assert code == 0, err
    assert forge.GroundTruth.load(sidecar).mutations == ["quick-format"]
    sidecar.unlink()
    before = img.read_bytes()
    code, _, err = run(capsys, "forge", str(img), "--apply", "quick-format")
    assert code == 5
    assert "truth.json" in err
    assert img.read_bytes() == before


def test_forge_refuses_an_ntfs_volume_too_small_for_its_metadata(
        tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"filesystem": "ntfs", "total_size": 65536}))
    img = tmp_path / "t.img"
    code, _, err = run(capsys, "forge", str(img), "--spec", str(spec))
    assert code == 5
    assert "volume too small" in err
    assert "Traceback" not in err
    assert not img.exists()


_FAT16 = {"filesystem": "fat16", "total_size": 16 * 1024 * 1024}
_ROW = {"name": "A.TXT", "class": "document", "size": 10}


@pytest.mark.parametrize("spec", [
    dict(_FAT16, sectors_per_cluster="eight"),
    dict(_FAT16, files=[dict(_ROW, name=5)]),
    dict(_FAT16, files=[dict(_ROW, parent=7)]),
    [_FAT16],
    dict(_FAT16, files=[dict(_ROW, seed="seven")]),
], ids=["spc-not-a-number", "name-not-a-string", "parent-not-a-string",
        "spec-not-an-object", "seed-not-a-number"])
def test_forge_refuses_a_mistyped_spec(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    img = tmp_path / "t.img"
    code, _, err = run(capsys, "forge", str(img), "--spec", str(path))
    assert code == 5
    assert "bad corpus spec" in err
    assert "Traceback" not in err
    assert not img.exists()


def test_forge_reads_a_numeric_string_as_a_cluster_size(tmp_path, capsys):
    """``sectors_per_cluster`` goes through ``int()`` like the other
    sizes, so "8" builds the image that 8 builds."""
    images = []
    for spc in ("8", 8):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(_FAT16, sectors_per_cluster=spc,
                                        files=[_ROW])))
        img = tmp_path / ("%r.img" % spc)
        code, _, _ = run(capsys, "forge", str(img), "--spec", str(path))
        assert code == 0
        images.append(img.read_bytes())
    assert images[0] == images[1]


def test_forge_needs_exactly_one_mode(tmp_path, capsys):
    code, _, err = run(capsys, "forge", str(tmp_path / "x.img"))
    assert code == 5
    code, _, err = run(capsys, "forge", str(tmp_path / "x.img"),
                       "--fs", "fat16", "--apply", "delete-all")
    assert code == 5


# ------------------------------------------------------------------- scan

def test_scan_lists_live_files(small_image, capsys):
    img, truth = small_image
    code, out, err = run(capsys, "scan", str(img))
    assert code == 0
    for path in truth.files:
        base = path.rsplit("/", 1)[-1]
        assert base in out
    assert "deleted_entries: 0" in out
    assert "  live  " in out


def test_scan_json_carries_all_sections(small_image, tmp_path, capsys):
    img, truth = small_image
    jp = tmp_path / "scan.json"
    code, out, err = run(capsys, "scan", str(img), "--json", str(jp))
    assert code == 0
    blob = json.loads(jp.read_text())
    assert set(blob) == {"meta", "summary", "files", "audit", "simulation"}
    assert blob["meta"]["command"] == "scan"
    assert blob["meta"]["filesystem"] == "FAT16"
    live = [r for r in blob["files"] if not r["deleted"]]
    assert len(live) >= len(truth.files)
    #

    # same facts, human form
    for row in blob["files"][:3]:
        assert row["name"] in out


def test_scan_respects_a_partition_offset(small_image, tmp_path, capsys):
    img, _ = small_image
    shifted = tmp_path / "shifted.img"
    shifted.write_bytes(b"\xEE" * 777 + img.read_bytes())
    code, _, err = run(capsys, "scan", str(shifted))
    assert code == 2                   # garbage at offset zero
    code, out, err = run(capsys, "scan", str(shifted), "--offset", "777")
    assert code == 0


def test_scan_family_filter_rejects_mismatch(small_image, capsys):
    img, _ = small_image
    code, _, err = run(capsys, "scan", str(img), "--fs", "ntfs")
    assert code == 2
    assert "ntfs" in err.lower() or "mismatch" in err.lower() or err


def test_scan_unrecognized_volume(tmp_path, capsys):
    blank = tmp_path / "blank.img"
    blank.write_bytes(b"\x00" * MiB)
    code, _, err = run(capsys, "scan", str(blank))
    assert code == 2


def test_scan_zeroed_mft_head_is_exit_2(tmp_path, capsys):
    img = tmp_path / "ntfs.img"
    spec = forge.CorpusSpec(filesystem="ntfs", total_size=16 * MiB)
    forge.build_image(spec, img)
    with open_image(img) as vol:
        desc = detect_filesystem(vol)
    with open(img, "r+b") as fh:
        fh.seek(desc.mft_lcn * desc.cluster_size)
        fh.write(bytes(desc.mft_record_size))
    code, _, err = run(capsys, "scan", str(img))
    assert code == 2
    assert "MFT unreadable" in err
    assert "Traceback" not in err


@contextlib.contextmanager
def _address_space_cap(extra=1 << 30):
    """Cap this process's address space at its present size plus
    ``extra``, so that a buffer sized by a corrupted field raises
    MemoryError here instead of exhausting the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        now = int(fh.read().split()[0]) * resource.getpagesize()
    cap = now + extra
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


# A boot field that claims a volume far larger than the image: FAT32's
# totsec32 (then 4,294,965,968 clusters, with a table of 81,920 entries)
# and one byte of NTFS's 8-byte sector count (438,086,696,960 sectors).
@pytest.mark.parametrize("fs, size, field, value", [
    pytest.param("fat32", 40 * MiB, 0x20, struct.pack("<I", 0xFFFFFFF0),
                 id="fat32-totsec32"),
    pytest.param("ntfs", 16 * MiB, 44, b"\x66", id="ntfs-total-sectors"),
])
@pytest.mark.parametrize("command", ["scan", "recover"])
def test_a_boot_record_claiming_a_huge_volume_costs_only_the_image(
        tmp_path, capsys, fs, size, field, value, command):
    img = tmp_path / "vol.img"
    truth = forge.build_image(forge.standard_corpus(fs, total_size=size),
                              img)
    forge.apply_mutation(img, "delete-all", truth=truth)
    with open(img, "r+b") as fh:
        fh.seek(field)
        fh.write(value)
    argv = [command, str(img), "--deep"]
    if command == "recover":
        argv += ["--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        with _address_space_cap():
            code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak < size // 2


def test_scan_missing_file_is_a_config_error(tmp_path, capsys):
    code, _, err = run(capsys, "scan", str(tmp_path / "nope.img"))
    assert code == 5


# ---------------------------------------------------------------- recover

def test_recover_after_delete_is_exact(small_image, tmp_path, capsys):
    img, truth = small_image
    _mutate(img, "delete-all")
    out_dir = tmp_path / "out"
    jp = tmp_path / "rec.json"
    code, out, err = run(capsys, "recover", str(img), "--out", str(out_dir),
                         "--truth", str(img) + ".truth.json",
                         "--json", str(jp))
    assert code == 0
    assert "100.0%" in out
    blob = json.loads(jp.read_text())
    assert blob["meta"]["modality"] == "delete-all"
    assert blob["summary"]["totals"]["percent"] == 100.0
    by_sha = {r["sha256"]: r for r in blob["files"]}
    for rec in truth.files.values():
        assert rec.sha256 in by_sha
        row = by_sha[rec.sha256]
        assert row["byte_identical"] is True
        written = out_dir / row["output"]
        data = written.read_bytes() if not written.is_absolute() else None
        if data is None:
            data = open(row["output"], "rb").read()
        assert hashlib.sha256(data).hexdigest() == rec.sha256


def test_recover_needs_an_output_directory(small_image, capsys):
    img, _ = small_image
    code, _, err = run(capsys, "recover", str(img))
    assert code == 5


def test_recover_pristine_volume_finds_nothing(small_image, tmp_path, capsys):
    img, _ = small_image
    code, _, err = run(capsys, "recover", str(img), "--out",
                       str(tmp_path / "out"))
    assert code == 3


def test_quick_format_recovery_requires_deep(small_image, tmp_path, capsys):
    img, truth = small_image
    _mutate(img, "quick-format")

    code, out, _ = run(capsys, "recover", str(img), "--out",
                       str(tmp_path / "shallow"))
    assert code == 3                  # the live tree is empty

    jp = tmp_path / "deep.json"
    code, out, _ = run(capsys, "recover", str(img), "--deep",
                       "--out", str(tmp_path / "deep"),
                       "--truth", str(img) + ".truth.json",
                       "--json", str(jp))
    assert code == 0
    blob = json.loads(jp.read_text())
    assert blob["summary"]["totals"]["percent"] == 100.0


def test_full_overwrite_leaves_nothing_even_deep(small_image, tmp_path,
                                                 capsys):
    img, _ = small_image
    _mutate(img, "full-overwrite")
    code, _, err = run(capsys, "recover", str(img), "--deep",
                       "--out", str(tmp_path / "out"))
    assert code == 3


def test_recover_jobs_do_not_change_the_result(small_image, tmp_path, capsys):
    img, _ = small_image
    _mutate(img, "delete-all")
    blobs = []
    for jobs in ("1", "4"):
        jp = tmp_path / ("rec-%s.json" % jobs)
        code, _, _ = run(capsys, "recover", str(img), "--jobs", jobs,
                         "--out", str(tmp_path / ("out" + jobs)),
                         "--json", str(jp))
        assert code == 0
        blob = json.loads(jp.read_text())
        blobs.append([(r["name"], r["sha256"]) for r in blob["files"]])
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_recover_refuses_jobs_below_one(small_image, tmp_path, capsys, jobs):
    img, _ = small_image
    code, _, err = run(capsys, "recover", str(img), "--jobs", jobs,
                       "--out", str(tmp_path / "out"))
    assert code == 5
    assert "--jobs" in err
    assert not (tmp_path / "out").exists()


def test_recover_refuses_the_source_media(small_image, tmp_path, capsys):
    img, _ = small_image
    _mutate(img, "delete-all")
    # An output path resolving onto the evidence is refused outright...
    code, _, err = run(capsys, "recover", str(img), "--out", str(img))
    assert code == 5
    assert "same-media" in err

    # ...even when hidden behind a symlink.
    alias = tmp_path / "alias"
    alias.symlink_to(img)
    code, _, err = run(capsys, "recover", str(img), "--out", str(alias))
    assert code == 5

    # A sibling directory is ordinary and fine.
    code, _, _ = run(capsys, "recover", str(img), "--out",
                     str(img.parent / "rescued"))
    assert code == 0


def test_same_media_override_downgrades_to_a_warning(small_image):
    from remnant.undelete import UndeleteError, check_out_dir
    from remnant.volume import open_image
    img, _ = small_image
    with open_image(img) as vol:
        with pytest.raises(UndeleteError):
            check_out_dir(vol, str(img), allow_same_media=False)
        warning = check_out_dir(vol, str(img), allow_same_media=True)
        assert "warning" in warning
        assert check_out_dir(vol, str(img.parent / "x"), False) is None


def test_recover_never_touches_the_image(small_image, tmp_path, capsys):
    img, _ = small_image
    _mutate(img, "quick-format")
    before = hashlib.sha256(img.read_bytes()).hexdigest()
    for argv in (("scan", str(img)),
                 ("recover", str(img), "--deep", "--out",
                  str(tmp_path / "o")),
                 ("audit", str(img), str(img) + ".truth.json")):
        run(capsys, *argv)
        assert hashlib.sha256(img.read_bytes()).hexdigest() == before


# ------------------------------------------------------------------ audit

def test_audit_verdicts(small_image, tmp_path, capsys):
    img, _ = small_image
    tp = str(img) + ".truth.json"
    code, out, _ = run(capsys, "audit", str(img), tp)
    assert code == 0
    assert "RECOVERABLE" in out

    _mutate(img, "full-overwrite")
    jp = tmp_path / "audit.json"
    code, out, _ = run(capsys, "audit", str(img), tp,
                       "--json", str(jp))
    assert code == 0
    assert "SANITIZED" in out
    blob = json.loads(jp.read_text())
    assert blob["audit"]["verdict"] == "SANITIZED"
    assert blob["audit"]["recoverable_bytes"] == 0
    assert blob["meta"]["modality"] == "full-overwrite"


def test_audit_sidecar_mismatch_is_exit_4(small_image, tmp_path, capsys):
    img, _ = small_image
    other = tmp_path / "other.img"
    forge.build_image(forge.standard_corpus("ntfs", total_size=8 * MiB),
                      other, truth_path=str(other) + ".truth.json")
    code, _, err = run(capsys, "audit", str(img),
                       str(other) + ".truth.json")
    assert code == 4


def test_forge_apply_with_a_mismatched_sidecar_is_exit_4(tmp_path, capsys):
    """A 64 MiB FAT32 sidecar's delete-all against an 8 MiB NTFS image
    writes nothing and exits 4, as audit does."""
    img, other = tmp_path / "n.img", tmp_path / "f.img"
    forge.build_image(forge.standard_corpus("ntfs", total_size=8 * MiB), img)
    forge.build_image(forge.standard_corpus("fat32", total_size=64 * MiB),
                      other, truth_path=str(other) + ".truth.json")
    before = img.read_bytes()
    for action in forge.MUTATIONS:
        code, _, err = run(capsys, "forge", str(img), "--apply", action,
                           "--truth", str(other) + ".truth.json",
                           "--target", "DATA/TINY.TXT")
        assert code == 4, action
        assert "67108864-byte volume" in err
    assert img.read_bytes() == before
    truth = forge.GroundTruth.load(str(other) + ".truth.json")
    assert truth.mutations == []


def test_recover_with_a_mismatched_sidecar_is_exit_4(small_image, tmp_path,
                                                     capsys):
    """recover checks the sidecar as audit and forge do, before the scan
    and before the output directory exists."""
    img, _ = small_image
    _mutate(img, "delete-all")
    other = tmp_path / "other.img"
    forge.build_image(forge.standard_corpus("ntfs"), other,
                      truth_path=str(other) + ".truth.json")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "recover", str(img), "--out", str(out),
                            "--truth", str(other) + ".truth.json")
    assert code == 4
    assert "67108864-byte volume" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("sidecar", [
    '{"filesystem": "FAT12"}', "[1]",
    '{"filesystem": "FAT12", "total_size": 0, "geometry": "FAT12", '
    '"files": {}, "dirs": {}, "internal": {}}',
    '{"filesystem": "NTFS", "total_size": 0, "geometry": {}, '
    '"files": {}, "dirs": {}, "internal": {}}',
    '{"filesystem": "FAT16", "total_size": 0, "geometry": {}, '
    '"files": {}, "dirs": {}, "internal": "x"}',
    # (filesystem, field, value): the image's own sidecar with one field
    # of a file row (a resident one on NTFS) mistyped.
    ("fat16", "resident", True),
    ("ntfs", "entry_offset", "x"),
    ("fat16", "clusters", "zz"),
    ("fat16", "size", "12"),
    ("fat16", "file_class", "zzz"),
], ids=["no-files", "a-list", "geometry-a-string", "internal-empty",
        "internal-a-string", "fat-resident-true", "ntfs-entry-offset-a-string",
        "clusters-a-string", "size-a-string", "class-unknown"])
@pytest.mark.parametrize("command", ["audit", "recover", "forge"])
def test_a_malformed_sidecar_is_exit_5(small_image, tmp_path, capsys,
                                       command, sidecar):
    img, _ = small_image
    if not isinstance(sidecar, str):
        fs, key, value = sidecar
        if fs == "ntfs":
            img = tmp_path / "ntfs.img"
            forge.build_image(forge.standard_corpus("ntfs", total_size=8 * MiB),
                              img, truth_path=str(img) + ".truth.json")
        with open(str(img) + ".truth.json", encoding="utf-8") as fh:
            raw = json.load(fh)
        row = next(row for row in raw["files"].values()
                   if fs != "ntfs" or row["resident"])
        row[key] = value
        sidecar = json.dumps(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(sidecar)
    out = tmp_path / "out"
    argv = {"audit": ["audit", str(img), str(bad)],
            "recover": ["recover", str(img), "--out", str(out),
                        "--truth", str(bad)],
            "forge": ["forge", str(img), "--apply", "delete-all",
                      "--truth", str(bad)]}[command]
    before = img.read_bytes()
    code, _, err = run(capsys, *argv)
    assert code == 5
    assert "bad ground truth" in err
    assert img.read_bytes() == before
    assert bad.read_text() == sidecar
    assert not out.exists()


def test_forge_never_writes_outside_the_volume(small_image, tmp_path,
                                               capsys):
    """A sidecar that places the FAT past the end of the image stops the
    mutation at that write, which leaves the file at its size."""
    img, _ = small_image
    raw = json.loads(img.with_name(img.name + ".truth.json").read_text())
    raw["internal"]["fat_offsets"] = [1 << 34]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    size = img.stat().st_size
    code, _, err = run(capsys, "forge", str(img), "--apply", "delete-all",
                       "--truth", str(bad))
    assert code == 2
    assert "outside volume of %d bytes" % size in err
    assert img.stat().st_size == size
    assert forge.GroundTruth.load(str(bad)).mutations == []


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Each `remnant` line of the README's quick start exits 0."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    quick = readme[readme.index("## Quick start"):]
    block = quick[quick.index("```sh\n") + 6:]
    block = block[:block.index("```")]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("remnant ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)


# --------------------------------------------------------------- simulate

def _sim_config(tmp_path, experiment, **extra):
    cfg = {"experiment": experiment, "seed": 1}
    cfg.update(extra)
    p = tmp_path / ("%s.json" % experiment)
    p.write_text(json.dumps(cfg))
    return p


def test_simulate_overwrite_counts_copies(tmp_path, capsys):
    cfg = _sim_config(tmp_path, "overwrite", k=5, gc_enabled=False)
    jp = tmp_path / "sim.json"
    code, out, _ = run(capsys, "simulate", str(cfg), "--json", str(jp))
    assert code == 0
    blob = json.loads(jp.read_text())["simulation"]
    assert blob["experiment"] == "overwrite"
    rem = blob["remanence"]
    assert rem["stale_copies"] == 4
    assert rem["live_copies"] == 1


def test_simulate_is_deterministic_per_seed(tmp_path, capsys):
    cfg = _sim_config(tmp_path, "random", steps=300)
    hashes = []
    for seed in ("9", "9", "10"):
        jp = tmp_path / ("sim-%s-%d.json" % (seed, len(hashes)))
        code, _, _ = run(capsys, "simulate", str(cfg), "--seed", seed,
                         "--json", str(jp))
        assert code == 0
        hashes.append(json.loads(jp.read_text())["simulation"]["state_hash"])
    assert hashes[0] == hashes[1]
    assert hashes[0] != hashes[2]


def test_simulate_rejects_unknown_experiments(tmp_path, capsys):
    cfg = _sim_config(tmp_path, "time-travel")
    code, _, err = run(capsys, "simulate", str(cfg))
    assert code == 5

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "simulate", str(bad))
    assert code == 5


def test_every_json_document_has_the_bytes_of_json_dumps(
        tmp_path, capsys, monkeypatch):
    """Each report kind and both sidecars, as the CLI writes them, equal
    ``json.dumps(indent=2, sort_keys=True)`` of what was written (a
    report with one line break after it)."""
    want = {}
    real = reportmod.write_json

    def recording(value, fh):
        want[fh.name] = json.dumps(value, indent=2, sort_keys=True)
        real(value, fh)

    monkeypatch.setattr(reportmod, "write_json", recording)
    monkeypatch.setattr(forge, "write_json", recording)
    fat, ntfs = str(tmp_path / "fat.img"), str(tmp_path / "ntfs.img")
    sim = _sim_config(tmp_path, "overwrite", k=3)
    commands = [
        ["forge", ntfs, "--fs", "ntfs", "--size", "8m"],
        ["forge", fat, "--fs", "fat16", "--size", "8m"],
        ["forge", fat, "--apply", "delete-all"],
        ["scan", fat, "--deep"],
        ["recover", fat, "--out", str(tmp_path / "out"),
         "--truth", fat + ".truth.json"],
        ["audit", fat, fat + ".truth.json"],
        ["simulate", str(sim)],
    ]
    reports = []
    for argv in commands:
        reports.append(str(tmp_path / ("%s-%d.json" % (argv[0],
                                                       len(reports)))))
        code, _, err = run(capsys, *argv, "--json", reports[-1])
        assert code == 0, err
    sidecars = [ntfs + ".truth.json", fat + ".truth.json"]
    assert sorted(want) == sorted(reports + sidecars)
    for path in reports + sidecars:
        tail = "\n" if path in reports else ""
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == want[path] + tail, path


def test_disk_commands_do_not_load_the_simulator():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, remnant.cli; print('remnant.ftl' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_disk_commands_load_neither_the_writer_nor_the_pool():
    """``import remnant.cli`` compiles neither the forge's image writer
    nor the thread pool; the writer's names still resolve through
    ``remnant.forge``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, remnant.cli\n"
         "print([m for m in ('remnant.forge_write', 'concurrent.futures')\n"
         "       if m in sys.modules])\n"
         "print(remnant.cli.forgemod.build_image.__module__)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "remnant.forge_write"]


def test_recover_into_an_output_taken_by_a_directory_is_exit_5(
        small_image, tmp_path, capsys):
    img, _ = small_image
    _mutate(img, "delete-all")
    code, out, _ = run(capsys, "scan", str(img), "--json",
                       str(tmp_path / "scan.json"))
    assert code == 0
    first = next(row for row in json.loads(
        (tmp_path / "scan.json").read_text())["files"]
        if row["deleted"] and not row["is_directory"])
    out_dir = tmp_path / "out"
    (out_dir / "_".join(filter(None, [first["path"], first["name"]]))).mkdir(
        parents=True)
    code, _, err = run(capsys, "recover", str(img), "--out", str(out_dir),
                       "--jobs", "2")
    assert code == 5
    assert "Is a directory" in err


# ------------------------------------------------------------ bad usage

def test_unknown_flag_and_command_are_config_errors(small_image, capsys):
    img, _ = small_image
    code, _, _ = run(capsys, "scan", str(img), "--frobnicate")
    assert code == 5
    code, _, _ = run(capsys, "defragment", str(img))
    assert code == 5
