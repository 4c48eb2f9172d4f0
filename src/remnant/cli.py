"""Command-line interface.

Five subcommands — scan, recover, audit, forge, simulate — sharing one
report shape (see docs/report_schema.md) and one exit-code contract:

    0  success
    2  unrecognized volume
    3  nothing recovered
    4  ground-truth sidecar does not match the image
    5  bad configuration or invocation
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import forge as forgemod
from . import report as reportmod
from . import undelete
from .volume import FsKind, UnrecognizedVolume, VolumeError, detect_filesystem, open_image

EXIT_OK = 0
EXIT_UNRECOGNIZED = 2
EXIT_NOTHING_RECOVERED = 3
EXIT_SIDECAR_MISMATCH = 4
EXIT_BAD_CONFIG = 5

_SIZE_SUFFIX = {
    "": 1, "b": 1,
    "k": 1024, "kib": 1024,
    "m": 1024 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gib": 1024 ** 3,
}


def parse_size(text: str) -> int:
    """'65536', '64k', '64MiB' → bytes."""
    t = text.strip().lower()
    digits = t
    suffix = ""
    for i, ch in enumerate(t):
        if not (ch.isdigit() or ch == "_"):
            digits, suffix = t[:i], t[i:]
            break
    if not digits or suffix not in _SIZE_SUFFIX:
        raise argparse.ArgumentTypeError("unparseable size %r" % text)
    return int(digits) * _SIZE_SUFFIX[suffix]


def positive_int(text: str) -> int:
    """'4' → 4; argparse refuses a count below 1, as it refuses text."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our 2 means 'unrecognized
    volume', so route usage problems to the bad-config code instead."""

    def error(self, message):
        self.exit(EXIT_BAD_CONFIG,
                  "%s: error: %s\n" % (self.prog, message))


def _fail(code: int, message: str) -> int:
    sys.stderr.write("remnant: error: %s\n" % message)
    return code


def _emit(rep: dict, json_path: str | None) -> None:
    reportmod.write_text(rep, sys.stdout)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            reportmod.dump_json(rep, fh)


def _open_volume(args):
    """Open + detect, honouring the --fs family filter."""
    img = open_image(args.image, base_offset=args.offset)
    try:
        desc = detect_filesystem(img)
        if args.fs == "fat" and not desc.kind.is_fat:
            raise UnrecognizedVolume(
                "volume is %s, not in the FAT family" % desc.kind.value)
        if args.fs == "ntfs" and desc.kind is not FsKind.NTFS:
            raise UnrecognizedVolume(
                "volume is %s, not NTFS" % desc.kind.value)
    except BaseException:
        img.close()
        raise
    return img, desc


def _volume_meta(command: str, args, desc) -> dict:
    return {
        "command": command,
        "image": args.image,
        "filesystem": desc.kind.value,
        "offset": args.offset,
        "deep": getattr(args, "deep", None),
    }


def cmd_scan(args) -> int:
    img, desc = _open_volume(args)
    with img:
        scan = undelete.scan_volume(img, desc, deep=args.deep)
    rows = scan.listing_rows()
    meta = _volume_meta("scan", args, desc)
    meta["stats"] = scan.stats
    meta["deleted_entries"] = len(scan.candidates)
    _emit(reportmod.make_report(meta, files=rows), args.json)
    return EXIT_OK


def cmd_recover(args) -> int:
    truth = forgemod.GroundTruth.load(args.truth) if args.truth else None
    img, desc = _open_volume(args)
    with img:
        if truth:
            forgemod.check_sidecar(img, truth)
        warning = undelete.check_out_dir(img, args.out, args.same_media)
        if warning:
            sys.stderr.write("remnant: %s\n" % warning)
        scan = undelete.scan_volume(img, desc, deep=args.deep)
        recovered, errors = undelete.recover_all(
            img, scan, out_dir=args.out, jobs=args.jobs)

    meta = _volume_meta("recover", args, desc)
    meta["output_dir"] = args.out
    meta["jobs"] = args.jobs
    meta["same_media"] = args.same_media
    if truth:
        meta["truth"] = args.truth
        meta["modality"] = truth.mutations[-1] if truth.mutations else None
    if errors:
        meta["errors"] = ["%s: %s" % (c.entry_id, msg) for c, msg in errors]
    summary = reportmod.summarize(recovered,
                                  truth.files.values() if truth else None)
    _emit(reportmod.make_report(meta, summary=summary, files=recovered),
          args.json)
    return EXIT_OK if recovered else EXIT_NOTHING_RECOVERED


def cmd_audit(args) -> int:
    truth = forgemod.GroundTruth.load(args.sidecar)
    audit = forgemod.audit_image(args.image, truth)
    meta = {
        "command": "audit",
        "image": args.image,
        "filesystem": truth.filesystem,
        "truth": args.sidecar,
        "modality": truth.mutations[-1] if truth.mutations else None,
    }
    _emit(reportmod.make_report(meta, audit=audit), args.json)
    return EXIT_OK


def cmd_forge(args) -> int:
    chosen = [m for m in (args.fs, args.spec, args.apply) if m]
    if len(chosen) != 1:
        return _fail(EXIT_BAD_CONFIG,
                     "pick exactly one of --fs, --spec, --apply")
    meta: dict = {"command": "forge", "image": args.image}
    truth_path = args.truth or args.image + ".truth.json"

    if args.apply:
        truth = forgemod.GroundTruth.load(truth_path)
        res = forgemod.apply_mutation(args.image, args.apply, truth,
                                      target=args.target)
        truth.mutations.append(args.apply)
        truth.save(truth_path)
        meta["action"] = res["action"]
        meta["targets"] = res["paths"]
    else:
        try:
            if args.spec:
                with open(args.spec, encoding="utf-8") as fh:
                    spec = forgemod.CorpusSpec.from_dict(json.load(fh))
            else:
                spec = forgemod.standard_corpus(args.fs, total_size=args.size,
                                                seed=args.seed)
            truth = forgemod.build_image(spec, args.image,
                                         truth_path=truth_path)
        except (forgemod.ForgeError, VolumeError, ValueError, KeyError) as exc:
            return _fail(EXIT_BAD_CONFIG, "bad corpus spec: %s" % exc)
        meta["filesystem"] = truth.filesystem
        meta["size"] = truth.total_size
        meta["seed"] = truth.seed
        meta["files_written"] = len(truth.files)
        meta["truth"] = truth_path
    _emit(reportmod.make_report(meta), args.json)
    return EXIT_OK


def _run_simulation(cfg: dict, seed: int) -> dict:
    from . import ftl as ftlmod

    geo_cfg = cfg.get("geometry")
    if geo_cfg is None:
        geo = ftlmod.desk_geometry()
    else:
        geo = ftlmod.FlashGeometry(**geo_cfg)
    state = ftlmod.FtlState(geo, seed=seed,
                            gc_enabled=bool(cfg.get("gc_enabled", True)),
                            gc_threshold=float(cfg.get("gc_threshold", 0.125)))
    rng = random.Random(seed)
    experiment = cfg["experiment"]

    if experiment == "cycle":
        count = int(cfg.get("payload_count", 4))
        payloads = [rng.randbytes(geo.page_size) for _ in range(count)]
        res = ftlmod.run_cycle_experiment(
            state, payloads, iterations=int(cfg.get("iterations", 5)),
            force_gc=bool(cfg.get("force_gc", False)))
        return {
            "experiment": "cycle",
            "iterations": [s.as_dict() for s in res.iterations],
            "ended_early": res.ended_early,
            "remanence": res.final_audit.as_dict(),
            "state_hash": state.state_hash(),
        }

    if experiment == "overwrite":
        lpn = int(cfg.get("lpn", 0))
        k = int(cfg.get("k", 5))
        trim = bool(cfg.get("trim", False))
        payloads = [rng.randbytes(geo.page_size) for _ in range(k)]
        for p in payloads:
            state.write(lpn, p)
        if trim:
            state.trim(lpn)
        rep = ftlmod.remanence_audit(state.forensic_dump(),
                                     [(lpn, p) for p in payloads])
        return {
            "experiment": "overwrite",
            "lpn": lpn,
            "k": k,
            "trim": trim,
            "read_erased": state.read(lpn) == geo.erased_page,
            "remanence": rep.as_dict(),
            "state_hash": state.state_hash(),
        }

    if experiment == "retirement":
        ops = ftlmod.run_retirement_experiment(
            state, max_operations=int(cfg.get("max_operations", 100_000)))
        post = int(cfg.get("post_operations", 0))
        if post:
            ftlmod.apply_random_operations(state, post,
                                           random.Random(seed + 1))
        dump = state.forensic_dump()
        retired_payloads = sorted(dump.held("retired"))
        rep = ftlmod.remanence_audit(dump, retired_payloads)
        return {
            "experiment": "retirement",
            "operations": ops,
            "post_operations": post,
            "retired_blocks": state.retired_count,
            "remanence": rep.as_dict(),
            "state_hash": state.state_hash(),
        }

    if experiment == "random":
        steps = int(cfg.get("steps", 1000))
        tally = ftlmod.apply_random_operations(state, steps, rng)
        return {
            "experiment": "random",
            "steps": steps,
            "tally": dict(sorted(tally.items())),
            "state_hash": state.state_hash(),
        }

    raise ValueError("unknown experiment %r" % experiment)


def cmd_simulate(args) -> int:
    # Imported here so that the disk commands never load the simulator.
    from . import ftl as ftlmod

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict) or "experiment" not in cfg:
            raise ValueError("config must be an object with 'experiment'")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        sim = _run_simulation(cfg, seed)
    except (OSError, ValueError, KeyError, TypeError,
            ftlmod.FtlError) as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    meta = {
        "command": "simulate",
        "config": args.config,
        "experiment": sim["experiment"],
        "seed": seed,
    }
    _emit(reportmod.make_report(meta, simulation=sim), args.json)
    return EXIT_OK


def build_parser() -> Parser:
    p = Parser(prog="remnant",
               description="Undelete, sanitization-audit and flash-"
                           "remanence toolkit for FAT/NTFS images.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=Parser)

    def volume_opts(sp):
        sp.add_argument("image", help="volume image file")
        sp.add_argument("--fs", choices=("auto", "fat", "ntfs"),
                        default="auto",
                        help="require this filesystem family")
        sp.add_argument("--offset", type=int, default=0,
                        help="byte offset of the volume inside the image")
        sp.add_argument("--json", metavar="PATH",
                        help="also write the report as JSON")

    s = sub.add_parser("scan", help="list live and deleted entries")
    volume_opts(s)
    s.add_argument("--deep", action="store_true",
                   help="also carve orphaned metadata")
    s.set_defaults(func=cmd_scan)

    r = sub.add_parser("recover", help="recover deleted files")
    volume_opts(r)
    r.add_argument("--deep", action="store_true",
                   help="also carve orphaned metadata")
    r.add_argument("--out", required=True, metavar="DIR",
                   help="directory for recovered files")
    r.add_argument("--jobs", type=positive_int, default=1,
                   help="recovery parallelism (report order is stable)")
    r.add_argument("--same-media", action="store_true",
                   help="allow the output directory to live on the image "
                        "under analysis (prints a warning)")
    r.add_argument("--truth", metavar="PATH",
                   help="ground-truth sidecar for byte-identical scoring")
    r.set_defaults(func=cmd_recover)

    a = sub.add_parser("audit",
                       help="sanitization audit against a ground-truth "
                            "sidecar")
    a.add_argument("image", help="volume image file")
    a.add_argument("sidecar", help="ground-truth sidecar (JSON)")
    a.add_argument("--json", metavar="PATH")
    a.set_defaults(func=cmd_audit)

    f = sub.add_parser("forge",
                       help="build corpus images and apply deletions")
    f.add_argument("image", help="image file to create or mutate")
    f.add_argument("--fs", choices=("fat12", "fat16", "fat32", "ntfs"),
                   help="build the standard corpus on this filesystem")
    f.add_argument("--size", type=parse_size,
                   help="volume size (bytes; k/m/g suffixes allowed)")
    f.add_argument("--seed", type=int, default=0,
                   help="content seed for the standard corpus")
    f.add_argument("--spec", metavar="PATH",
                   help="corpus description JSON instead of --fs")
    f.add_argument("--truth", metavar="PATH",
                   help="sidecar that a build writes and that --apply "
                        "plans from and updates (default: "
                        "IMAGE.truth.json)")
    f.add_argument("--apply", choices=forgemod.MUTATIONS,
                   help="mutate an existing image instead of building")
    f.add_argument("--target", metavar="VOLPATH",
                   help="volume path for --apply delete")
    f.add_argument("--json", metavar="PATH")
    f.set_defaults(func=cmd_forge)

    m = sub.add_parser("simulate", help="run a flash-translation-layer "
                                        "experiment from a config file")
    m.add_argument("config", help="experiment config (JSON)")
    m.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    m.add_argument("--json", metavar="PATH")
    m.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VolumeError as exc:
        return _fail(EXIT_UNRECOGNIZED, str(exc))
    except undelete.UndeleteError as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    except forgemod.SidecarMismatch as exc:
        return _fail(EXIT_SIDECAR_MISMATCH, str(exc))
    except forgemod.ForgeError as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_BAD_CONFIG, "bad JSON: %s" % exc)
    except OSError as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
