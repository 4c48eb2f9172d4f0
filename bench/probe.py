"""Child-side half of the remnant benchmark.

``run.py`` never imports ``remnant`` itself: a parent that held a forged
image would lend its resident set to every child it spawns (Linux keeps
``ru_maxrss`` across ``exec``).  Everything that touches the package runs
in a child started from this file:

    python3 bench/probe.py cli TRACE_OUT -- <remnant CLI arguments>
        Run one CLI subcommand in-process with every layer's public
        functions wrapped in spans; write the spans and the
        ``VolumeImage.read_at`` counts to TRACE_OUT and exit with the
        subcommand's exit code.

    python3 bench/probe.py ftl --seed N [--size toy] [--trace-out PATH]
        Run one flash-translation-layer churn pass through the public
        ``remnant.ftl`` API and print its timings, simulated statistics
        and check results as one JSON object.  With ``--trace-out`` the
        ``FtlState`` operations are wrapped in spans as well.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import random
import sys
import threading
import time

# -- spans ------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name, start, end, parent-span] lists and
    written out once, when the probe exits.

    A span opened on a worker thread with nothing open on that thread
    takes the main thread's innermost open span as its parent, so the
    recovery pool's per-file spans nest under ``undelete.recover_all``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call (for a generator: every resumption)
        recorded as a span called ``name``."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    span = self.begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end(span)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    def as_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s[0], "start": s[1], "end": s[2],
                 "parent": None if s[3] is None else index[id(s[3])]}
                for s in self.spans]


def _rebind(old, new) -> None:
    """Point every ``remnant`` module global that names ``old`` at ``new``,
    so calls between modules and inside one module both go through it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "remnant"
                               or mod_name.startswith("remnant.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


# Public calls wrapped in the traced CLI run: (span name, module, attribute).
CLI_SPANS = (
    ("volume.detect_filesystem", "volume", "detect_filesystem"),
    ("fat.load_fat", "fat", "load_fat"),
    ("fat.survey", "fat", "survey"),
    ("fat.find_deleted", "fat", "find_deleted"),
    ("fat.recover_file", "fat", "recover_file"),
    ("ntfs.survey", "ntfs", "survey"),
    ("ntfs.scan_mft", "ntfs", "scan_mft"),
    ("ntfs.carve_records", "ntfs", "carve_records"),
    ("ntfs.recover_file", "ntfs", "recover_file"),
    ("undelete.scan_volume", "undelete", "scan_volume"),
    ("undelete.recover_all", "undelete", "recover_all"),
    ("undelete.recover_one", "undelete", "recover_one"),
    ("report.summarize", "report", "summarize"),
    ("report.make_report", "report", "make_report"),
    ("report.render_text", "report", "render_text"),
    ("report.dump_json", "report", "dump_json"),
    ("forge.build_image", "forge", "build_image"),
    ("forge.apply_mutation", "forge", "apply_mutation"),
    ("forge.audit_image", "forge", "audit_image"),
)

FTL_METHODS = ("write", "trim", "read", "garbage_collect", "forensic_dump",
               "state_hash")


def _write_trace(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# -- traced CLI subcommand ----------------------------------------------------


def run_cli(trace_out: str, argv: list[str]) -> int:
    tracer = Tracer()
    import_span = tracer.begin("cli.import")
    import remnant.cli as cli
    from remnant import volume
    tracer.end(import_span)

    reads = {"calls": 0, "bytes": 0}
    lock = threading.Lock()

    class CountingImage(volume.VolumeImage):
        """Counts every positional read the readers make."""

        def read_at(self, offset, length):
            with lock:
                reads["calls"] += 1
                reads["bytes"] += length
            return super().read_at(offset, length)

    def open_counting(path, base_offset=0):
        if not os.path.exists(path):        # as volume.open_image does
            raise FileNotFoundError(path)
        return CountingImage(path=path, base_offset=base_offset)

    # Only the scan/recover path opens images through the CLI; the
    # forge's audit opens its own and is timed, not counted.
    cli.open_image = open_counting
    for span_name, mod, attr in CLI_SPANS:
        old = getattr(sys.modules["remnant." + mod], attr)
        _rebind(old, tracer.wrap(span_name, old))

    main_span = tracer.begin("cli.main")
    try:
        rc = cli.main(argv)
    finally:
        tracer.end(main_span)
        sys.stdout.flush()
        _write_trace(trace_out, {"argv": argv, "spans": tracer.as_records(),
                                 "reads": reads})
    return rc


# -- FTL churn pass -----------------------------------------------------------

# Geometry, op count and checkpoint spacing per size.  "full" is the
# benchmark workload; "toy" keeps the self-test quick.
FTL_SIZES = {
    "full": {"blocks": 64, "pages": 64, "page_size": 2048, "reserve": 2,
             "endurance": 10_000, "ops": 3000, "checkpoint": 500},
    "toy": {"blocks": 8, "pages": 32, "page_size": 2048, "reserve": 1,
            "endurance": 10_000, "ops": 300, "checkpoint": 50},
}


def make_op_stream(seed: int, logical_pages: int, page_size: int,
                   count: int) -> list[tuple]:
    """Host ops drawn exactly as ``ftl.random_operation`` draws them:
    60% write, 25% trim, 10% read, 5% garbage collection."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.60:
            ops.append(("write", rng.randrange(logical_pages),
                        rng.randbytes(page_size)))
        elif roll < 0.85:
            ops.append(("trim", rng.randrange(logical_pages)))
        elif roll < 0.95:
            ops.append(("read", rng.randrange(logical_pages)))
        else:
            ops.append(("gc",))
    return ops


def run_ftl(seed: int, size: str, trace_out: str | None) -> dict:
    from remnant import ftl

    cfg = FTL_SIZES[size]
    tracer = Tracer() if trace_out else None
    if tracer:
        for method in FTL_METHODS:
            setattr(ftl.FtlState, method,
                    tracer.wrap("ftl." + method,
                                getattr(ftl.FtlState, method)))
        remanence_audit = tracer.wrap("ftl.remanence_audit",
                                      ftl.remanence_audit)
    else:
        remanence_audit = ftl.remanence_audit

    t0 = time.perf_counter()
    geo = ftl.FlashGeometry(block_count=cfg["blocks"],
                            pages_per_block=cfg["pages"],
                            page_size=cfg["page_size"],
                            reserve_blocks=cfg["reserve"],
                            endurance_limit=cfg["endurance"])
    state = ftl.FtlState(geo, seed=seed)
    ops = make_op_stream(seed, geo.logical_pages, geo.page_size, cfg["ops"])
    setup_s = time.perf_counter() - t0

    history: list[tuple[int, bytes]] = []
    shadow: dict[int, bytes] = {}     # what the host should read back
    erased = geo.erased_page
    write_us: list[float] = []
    failed_ops = read_mismatches = 0
    ops_s = dump_s = audit_s = 0.0
    report = None
    for i, op in enumerate(ops, 1):
        kind = op[0]
        a = time.perf_counter()
        try:
            if kind == "write":
                state.write(op[1], op[2])
            elif kind == "trim":
                state.trim(op[1])
            elif kind == "read":
                data = state.read(op[1])
            else:
                state.garbage_collect()
        except ftl.FtlError:
            failed_ops += 1
            kind = "failed"
        b = time.perf_counter()
        ops_s += b - a
        if kind == "write":
            write_us.append((b - a) * 1e6)
            history.append((op[1], op[2]))
            shadow[op[1]] = op[2]
        elif kind == "trim":
            shadow.pop(op[1], None)
        elif kind == "read" and data != shadow.get(op[1], erased):
            read_mismatches += 1
        if i % cfg["checkpoint"] == 0 or i == len(ops):
            a = time.perf_counter()
            dump = state.forensic_dump()
            b = time.perf_counter()
            report = remanence_audit(dump, history)
            c = time.perf_counter()
            dump_s += b - a
            audit_s += c - b
    a = time.perf_counter()
    digest = state.state_hash()
    hash_s = time.perf_counter() - a

    # Untimed: the host view must match the shadow model everywhere.
    for lpn in range(geo.logical_pages):
        if state.read(lpn) != shadow.get(lpn, erased):
            read_mismatches += 1

    host_writes = len(history)
    relocations = state.op_counter - 1 - host_writes
    result = {
        "attempted": len(ops),
        "failed_ops": failed_ops,
        "read_mismatches": read_mismatches,
        "conserved": state.check_conservation(),
        "setup_s": setup_s,
        "ops_s": ops_s,
        "dump_s": dump_s,
        "audit_s": audit_s,
        "hash_s": hash_s,
        "write_us": write_us,
        "state_hash": digest,
        "gc_runs": state.gc_runs,
        "host_writes": host_writes,
        "relocations": relocations,
        "write_amplification": (host_writes + relocations) / host_writes
        if host_writes else 0.0,
        "stale_copies": report.stale_copies,
    }
    if tracer:
        _write_trace(trace_out, {"argv": ["ftl", "--seed", str(seed)],
                                 "spans": tracer.as_records(),
                                 "reads": {"calls": 0, "bytes": 0}})
    return result


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "cli":
        if len(argv) < 3 or argv[2] != "--":
            sys.stderr.write("usage: probe.py cli TRACE_OUT -- ARGS...\n")
            return 5
        return run_cli(argv[1], argv[3:])
    p = argparse.ArgumentParser(prog="probe.py")
    sub = p.add_subparsers(dest="command", required=True)
    f = sub.add_parser("ftl")
    f.add_argument("--seed", type=int, required=True)
    f.add_argument("--size", choices=sorted(FTL_SIZES), default="full")
    f.add_argument("--trace-out")
    args = p.parse_args(argv)
    result = run_ftl(args.seed, args.size, args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
