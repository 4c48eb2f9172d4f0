"""Flash translation layer: out-of-place writes, remnants, retirement."""

import bisect
import hashlib
import importlib.util
import json
import random
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from remnant.ftl import (
    ChipDump,
    DeviceFull,
    FlashGeometry,
    FlashRangeError,
    FtlError,
    FtlState,
    PageState,
    ReadOnlyDevice,
    apply_random_operations,
    desk_geometry,
    random_operation,
    remanence_audit,
    run_cycle_experiment,
    run_retirement_experiment,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
PAGE = 2048
FREE, VALID = (list(PageState).index(state)       # codes in FtlState.state
               for state in (PageState.FREE, PageState.VALID))
TAGS = ["free", "valid", "stale", "retired"]      # a ChipDump's tag codes


def _state(**kw):
    kw.setdefault("geometry", desk_geometry())
    return FtlState(**kw)


def _payload(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * PAGE


def _tags(dump):
    """Each page's tag name, in physical order."""
    return [TAGS[code] for code in dump.tag]


def _pages(dump, *tags):
    """The physical pages whose tag is one of ``tags``, ascending."""
    return [ppn for ppn, tag in enumerate(_tags(dump)) if tag in tags]


def _read(dump, ppn):
    """Page ``ppn``'s payload; a block with no payload list reads as
    erased."""
    block, index = divmod(ppn, dump.geometry.pages_per_block)
    pages = dump.payload[block]
    return dump.geometry.erased_page if pages is None else pages[index]


def _payload_lists(payload):
    """A copy of a per-block payload column."""
    return [None if pages is None else tuple(pages) for pages in payload]


def _block(dump, block):
    """The physical pages of ``block``."""
    ppb = dump.geometry.pages_per_block
    return range(block * ppb, (block + 1) * ppb)


# ------------------------------------------------------------- geometry

def test_desk_geometry_shape():
    g = desk_geometry()
    assert (g.block_count, g.pages_per_block, g.page_size) == (8, 32, 2048)
    assert g.reserve_blocks == 1
    assert g.endurance_limit == 10
    assert g.total_pages == 256
    assert g.active_blocks == 7
    assert g.logical_pages == 6 * 32      # one active block is headroom
    assert g.erased_page == b"\xFF" * 2048


def test_derived_geometry_values_are_computed_once():
    # Every host op reads logical_pages and every unmapped read returns
    # erased_page; both are kept after the first use.  The class stays
    # frozen, and equality, hashing and repr see only its five fields.
    g = desk_geometry()
    fresh = desk_geometry()
    assert g.erased_page is g.erased_page
    assert g.logical_pages == 192 and "logical_pages" in vars(g)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert repr(g) == ("FlashGeometry(block_count=8, pages_per_block=32, "
                       "page_size=2048, reserve_blocks=1, endurance_limit=10)")
    with pytest.raises(AttributeError):
        g.page_size = 4096
    s = FtlState(geometry=g)
    assert s.read(0) is s.read(1) is g.erased_page


def test_geometry_validation():
    with pytest.raises(FlashRangeError):
        FlashGeometry(block_count=0)
    with pytest.raises(FlashRangeError):
        FlashGeometry(block_count=4, reserve_blocks=4)
    with pytest.raises(FlashRangeError):
        FlashGeometry(block_count=3, reserve_blocks=2)  # one active block
    with pytest.raises(FlashRangeError):
        FlashGeometry(page_size=-1)


def test_geometry_keeps_logical_pages_below_2_31():
    # The lpn columns hold 4-byte ints.  Geometries are checked before
    # any device is built, so neither of these allocates one.
    fits = FlashGeometry(block_count=2 ** 25, pages_per_block=64,
                         reserve_blocks=0)
    assert fits.logical_pages == 2 ** 31 - 64
    with pytest.raises(FlashRangeError):
        FlashGeometry(block_count=2 ** 25 + 1, pages_per_block=64,
                      reserve_blocks=0)


def test_fresh_device_is_fully_erased():
    s = _state()
    dump = s.forensic_dump()
    pages = range(s.geometry.total_pages)
    assert _tags(dump) == ["free"] * len(pages)
    assert {_read(dump, ppn) for ppn in pages} == {b"\xFF" * PAGE}
    assert set(dump.lpn) == {-1}


# ------------------------------------------------------- writes and reads

def test_first_write_lands_in_block_zero():
    s = _state()
    ppn = s.write(0, _payload(1))
    assert ppn == 0
    dump = s.forensic_dump()
    assert _pages(dump, "valid", "stale", "retired") == [0]
    assert _tags(dump)[0] == "valid"
    assert dump.lpn[0] == 0
    assert _read(dump, 0) == _payload(1)


def test_read_returns_the_last_write():
    s = _state()
    s.write(7, _payload(1))
    s.write(7, _payload(2))
    assert s.read(7) == _payload(2)


def test_overwrite_strands_the_old_copy():
    s = _state(gc_enabled=False)
    s.write(0, _payload(1))
    s.write(0, _payload(2))
    dump = s.forensic_dump()
    stale, valid = _pages(dump, "stale"), _pages(dump, "valid")
    assert len(stale) == 1 and len(valid) == 1
    # The stranded page keeps the old bytes verbatim.
    assert _read(dump, stale[0]) == _payload(1)
    assert _read(dump, valid[0]) == _payload(2)


def test_five_overwrites_leave_four_stale_copies():
    s = _state(gc_enabled=False)
    versions = [bytes([v]) * PAGE for v in range(1, 6)]
    for v in versions:
        s.write(0, v)
    dump = s.forensic_dump()
    assert len(_pages(dump, "stale")) == 4
    assert len(_pages(dump, "valid")) == 1
    held = _pages(dump, "valid", "stale")
    # Every superseded version is still physically present...
    assert {_read(dump, ppn) for ppn in held} == set(versions)
    # ...and timestamps reconstruct the overwrite order.
    stamped = sorted(held, key=dump.stamp.__getitem__)
    assert [_read(dump, ppn) for ppn in stamped] == versions


def test_unmapped_read_is_the_erased_pattern():
    s = _state()
    assert s.read(13) == b"\xFF" * PAGE


def test_range_and_size_checks():
    s = _state()
    logical = s.geometry.logical_pages
    with pytest.raises(FlashRangeError):
        s.write(logical, _payload(0))
    with pytest.raises(FlashRangeError):
        s.read(-1)
    with pytest.raises(FlashRangeError):
        s.trim(logical)
    with pytest.raises(FlashRangeError):
        s.write(0, b"short")


def test_device_full_without_collection():
    g = FlashGeometry(block_count=3, pages_per_block=4, page_size=64,
                      reserve_blocks=1, endurance_limit=100)
    s = FtlState(geometry=g, gc_enabled=False)
    for i in range(8):                      # 2 active blocks x 4 pages
        s.write(i % g.logical_pages, bytes([i]) * 64)
    with pytest.raises(DeviceFull):
        s.write(0, bytes([99]) * 64)


# ------------------------------------------------------------------ trim

def test_trim_hides_data_from_the_host_only():
    s = _state(gc_enabled=False)
    versions = [bytes([v]) * PAGE for v in range(1, 6)]
    for v in versions:
        s.write(0, v)
    s.trim(0)
    # Host view: gone.
    assert s.read(0) == b"\xFF" * PAGE
    # Forensic view: all five versions remain, now all stale.
    dump = s.forensic_dump()
    stale = _pages(dump, "stale")
    assert len(stale) == 5
    assert {_read(dump, ppn) for ppn in stale} == set(versions)


def test_trim_unmapped_is_a_noop():
    s = _state()
    before = s.state_hash()
    s.trim(5)
    assert s.state_hash() == before


def test_trim_never_zeroes_a_page():
    s = _state(gc_enabled=False)
    written = []
    for i in range(20):
        p = random.Random(i).randbytes(PAGE)
        s.write(i % 8, p)
        written.append(p)
    for lpn in range(8):
        s.trim(lpn)
    present = set(s.forensic_dump().pages())
    for p in written:
        assert p in present
    assert s.check_conservation()


# ------------------------------------------------------ garbage collection

def _fill_block_zero_with_stale(s):
    """Write one block's worth of pages, then overwrite them all."""
    ppb = s.geometry.pages_per_block
    for lpn in range(ppb):
        s.write(lpn, _payload(lpn))
    for lpn in range(ppb):
        s.write(lpn, _payload(100 + lpn))
    return ppb


def test_gc_erases_the_fully_stale_block():
    s = _state(gc_enabled=False)
    ppb = _fill_block_zero_with_stale(s)
    assert len(_pages(s.forensic_dump(), "stale")) == ppb
    assert s.garbage_collect() is True
    dump = s.forensic_dump()
    tags = _tags(dump)
    assert all(tags[ppn] == "free" and _read(dump, ppn) == b"\xFF" * PAGE
               for ppn in _block(dump, 0))
    assert s.blocks[0].erase_count == 1
    # The stale remnants are gone for good.
    assert _pages(dump, "stale") == []


def test_gc_relocates_valid_pages_first():
    s = _state(gc_enabled=False)
    ppb = s.geometry.pages_per_block
    for lpn in range(ppb):
        s.write(lpn, _payload(lpn))            # fills block 0
    for lpn in range(ppb // 2):
        s.write(lpn, _payload(100 + lpn))      # half of block 0 goes stale
    assert s.garbage_collect() is True         # victim: block 0
    for lpn in range(ppb // 2):
        assert s.read(lpn) == _payload(100 + lpn)
    for lpn in range(ppb // 2, ppb):
        assert s.read(lpn) == _payload(lpn)    # relocated, still readable
    assert s.check_conservation()


def test_gc_with_nothing_stale_says_no():
    s = _state()
    s.write(0, _payload(1))
    assert s.garbage_collect() is False


def test_collection_threshold_triggers_during_writes():
    g = FlashGeometry(block_count=8, pages_per_block=32, page_size=64,
                      reserve_blocks=1, endurance_limit=10_000)
    s = FtlState(geometry=g, gc_enabled=True, gc_threshold=0.125)
    rng = random.Random(42)
    span = g.logical_pages // 2                # leave slack for relocation
    for i in range(600):                       # churn well past capacity
        s.write(rng.randrange(span), rng.randbytes(64))
    assert s.gc_runs > 0
    assert s.check_conservation()


# ------------------------------------------------------------- retirement

def test_block_retires_at_the_endurance_limit():
    s = _state()                               # endurance 10
    ops = run_retirement_experiment(s)
    assert s.retired_count == 1
    assert ops > 0
    retired = [b for b, blk in enumerate(s.blocks) if blk.retired]
    assert len(retired) == 1
    blk = s.blocks[retired[0]]
    assert blk.erase_count >= s.geometry.endurance_limit
    assert blk.replacement is not None
    assert retired[0] not in s.allocatable
    assert blk.replacement in s.allocatable
    # Frozen contents are visible, tagged, and never free.
    dump = s.forensic_dump()
    tags = _tags(dump)
    assert {tags[ppn] for ppn in _block(dump, retired[0])} == {"retired"}


def test_retired_payloads_survive_further_churn():
    s = _state()
    run_retirement_experiment(s)
    retired = next(b for b, blk in enumerate(s.blocks) if blk.retired)
    dump = s.forensic_dump()
    frozen = [_read(dump, ppn) for ppn in _block(dump, retired)]
    apply_random_operations(s, 300, random.Random(7))
    dump = s.forensic_dump()
    assert [_read(dump, ppn) for ppn in _block(dump, retired)] == frozen


def test_retire_block_guards():
    s = _state()
    with pytest.raises(FtlError, match="not at the endurance limit"):
        s.retire_block(0)
    run_retirement_experiment(s)
    retired = next(b for b, blk in enumerate(s.blocks) if blk.retired)
    with pytest.raises(FtlError, match="already retired"):
        s.retire_block(retired)


def test_exhausted_reserve_makes_the_device_read_only():
    g = FlashGeometry(block_count=4, pages_per_block=4, page_size=64,
                      reserve_blocks=1, endurance_limit=5)
    s = FtlState(geometry=g, gc_enabled=False)
    s.write(0, bytes([1]) * 64)
    # Wear two blocks to the brink by hand; the natural path to the same
    # state is exercised by the retirement-experiment tests above.
    s.blocks[0].erase_count = g.endurance_limit - 1
    s.blocks[1].erase_count = g.endurance_limit - 1
    assert s.retire_block(0) is True       # consumes the only reserve
    assert s.read(0) == bytes([1]) * 64    # valid page moved with the block
    assert s.retire_block(1) is False      # nothing left to swap in
    assert s.read_only
    with pytest.raises(ReadOnlyDevice):
        s.write(0, bytes(64))
    # Reads still serve whatever mapping survived.
    assert s.read(0) == bytes([1]) * 64


# ------------------------------------------------------------ chip dumps

def _columns(dump):
    """A copy of every column of ``dump``."""
    return (bytes(dump.tag), _payload_lists(dump.payload),
            dump.lpn.tobytes(), dump.stamp.tobytes())


def test_a_dump_is_a_snapshot():
    s = _state(gc_enabled=False)
    history = ([(lpn, _payload(lpn)) for lpn in range(40)]
               + [(lpn, _payload(100 + lpn)) for lpn in range(10)])
    for lpn, payload in history:
        s.write(lpn, payload)                  # ten stale pages in block 0
    dump = s.forensic_dump()
    columns = _columns(dump)
    pages = list(dump.pages())
    held = dump.held("valid", "stale", "retired")
    audit = remanence_audit(dump, history).as_dict()
    assert dump.payload[0] is s.payload[0]     # full, so shared
    # Fill every open block, the one half written at the dump included.
    lpn = 40
    while s.open_blocks:
        s.write(lpn % s.geometry.logical_pages, _payload(lpn))
        lpn += 1
    # Collect block 0 once none of its pages is valid, and reprogram it.
    for lpn in range(32):
        s.trim(lpn)
    assert s.garbage_collect() is True
    assert s.payload[0] is None
    s.write(0, _payload(7))
    assert s.payload[0][0] == _payload(7)
    # Retire block 1 into the reserve block.
    s.blocks[1].erase_count = s.geometry.endurance_limit - 1
    assert s.retire_block(1) is True
    assert s.payload[s.blocks[1].replacement] is not None
    assert _columns(dump) == columns
    assert list(dump.pages()) == pages
    assert dump.held("valid", "stale", "retired") == held
    assert remanence_audit(dump, history).as_dict() == audit
    assert _columns(s.forensic_dump()) != columns


def test_only_open_blocks_change_their_payload_lists():
    # What lets a dump share payload lists: a block outside the open
    # index keeps its list unchanged until an erase replaces the list.
    s = _state()
    rng = random.Random(5)
    for _ in range(1500):
        closed = [(pages, tuple(pages)) for b, pages in enumerate(s.payload)
                  if pages is not None and b not in s.open_blocks]
        random_operation(s, rng)
        assert all(tuple(pages) == content for pages, content in closed)
    assert s.retired_count == 1 and s.gc_runs > 50


def test_dump_rows_match_the_live_columns():
    # Page by page, the dump reads as the live device, every page of a
    # retired block tagged 'retired'.
    s = _state()
    run_retirement_experiment(s)
    apply_random_operations(s, 500, random.Random(3))
    assert s.retired_count == 1
    dump = s.forensic_dump()
    ppb, pages = s.geometry.pages_per_block, range(s.geometry.total_pages)
    tags = ["retired" if s.blocks[ppn // ppb].retired
            else list(PageState)[s.state[ppn]].value for ppn in pages]
    assert set(tags) == set(TAGS)
    assert _tags(dump) == tags
    assert [_read(dump, ppn) for ppn in pages] == [
        _read(s, ppn) for ppn in pages]
    assert list(dump.lpn) == list(s.lpn)
    assert list(dump.stamp) == list(s.stamp)


# ------------------------------------------------------- remanence audits

def test_audit_counts_every_stranded_copy():
    s = _state(gc_enabled=False)
    versions = [bytes([v]) * PAGE for v in range(1, 6)]
    for v in versions:
        s.write(0, v)
    s.trim(0)
    rep = remanence_audit(s.forensic_dump(), [(0, v) for v in versions])
    assert len(rep.payloads) == 5
    assert all(p.copies == 1 and p.stale == 1 for p in rep.payloads)
    assert rep.live_copies == 0
    assert rep.stale_copies == 5
    assert rep.recoverable_bytes == 5 * PAGE
    assert all(p.lpns == [0] for p in rep.payloads)


def test_audit_accepts_bare_payload_histories():
    s = _state(gc_enabled=False)
    s.write(3, _payload(9))
    rep = remanence_audit(s.forensic_dump(), [_payload(9)])
    assert rep.payloads[0].live == 1
    assert rep.payloads[0].lpns == []
    assert rep.recoverable_bytes == 0      # a live copy is not a remnant


def _reference_audit(pages, history):
    """The pairwise payload x page comparison the indexed audit replaced,
    over (tag, payload) pairs, one per page."""
    order, lpns = [], {}
    for item in history:
        lpn, payload = ((None, bytes(item))
                        if isinstance(item, (bytes, bytearray))
                        else (item[0], bytes(item[1])))
        if payload not in lpns:
            lpns[payload] = set()
            order.append(payload)
        if lpn is not None:
            lpns[payload].add(lpn)
    rows, live_t, stale_t, retired_t, recoverable = [], 0, 0, 0, 0
    for payload in order:
        tags = [tag for tag, held in pages if held == payload]
        live, stale, retired = (tags.count("valid"), tags.count("stale"),
                                tags.count("retired"))
        rows.append({"digest": hashlib.sha256(payload).hexdigest(),
                     "lpns": sorted(lpns[payload]), "live": live,
                     "stale": stale, "retired": retired,
                     "copies": live + stale + retired})
        live_t += live
        stale_t += stale
        retired_t += retired
        recoverable += (stale + retired) * len(payload)
    return {"payloads": rows, "live_copies": live_t, "stale_copies": stale_t,
            "retired_copies": retired_t, "recoverable_bytes": recoverable}


# A tiny alphabet so payloads repeat; b"\xFF" * 4 is the erased pattern
# of a 4-byte page.  A free page holds no payload, a valid or stale page
# holds one, and a retired page may hold either: with none, it reads as
# the erased pattern.  A block is eight such pages, or eight free or
# eight retired pages with no payload, which a dump holds as no list.
_payloads = st.sampled_from([b"\xFF" * 4, b"\x00" * 4, b"ab", b"abc", b"z"])
_page = st.one_of(
    st.tuples(st.just("free"), st.none()),
    st.tuples(st.sampled_from(["valid", "stale", "retired"]), _payloads),
    st.tuples(st.just("retired"), st.none()))
_page_block = st.one_of(
    st.lists(_page, min_size=8, max_size=8),
    st.sampled_from(["free", "retired"]).map(lambda tag: [(tag, None)] * 8))


def _payload_column(pages, geometry):
    """The per-block payload column of a dump of ``pages``, (tag,
    payload) pairs in physical order: a page with no payload holds the
    erased pattern, and a block of blank free or blank retired pages
    has no list."""
    ppb = geometry.pages_per_block
    column = []
    for start in range(0, len(pages), ppb):
        block = pages[start:start + ppb]
        if len(set(block)) == 1 and block[0][1] is None:
            column.append(None)
        else:
            # Equal but distinct payload objects, as a real dump holds.
            column.append([geometry.erased_page if payload is None
                           else bytes(bytearray(payload))
                           for _, payload in block])
    return column


@settings(max_examples=200, deadline=None)
@given(pages=st.lists(_page_block, min_size=2, max_size=5).map(
           lambda blocks: sum(blocks, [])),
       history=st.lists(st.one_of(
           _payloads, _payloads.map(bytearray),
           st.tuples(st.integers(0, 7), _payloads)), max_size=20))
def test_audit_matches_the_pairwise_reference(pages, history):
    geometry = FlashGeometry(block_count=len(pages) // 8, pages_per_block=8,
                             page_size=4, reserve_blocks=0)
    dump = ChipDump(geometry, bytearray(TAGS.index(tag) for tag, _ in pages),
                    _payload_column(pages, geometry),
                    array("i", [-1]) * len(pages),
                    array("q", [0]) * len(pages))
    report = remanence_audit(dump, history)
    read = [(tag, geometry.erased_page if payload is None else payload)
            for tag, payload in pages]
    assert report.as_dict() == _reference_audit(read, history)
    rows = report.payloads
    assert report.live_copies == sum(p.live for p in rows)
    assert report.stale_copies == sum(p.stale for p in rows)
    assert report.retired_copies == sum(p.retired for p in rows)
    distinct = dict.fromkeys(
        bytes(item if isinstance(item, (bytes, bytearray)) else item[1])
        for item in history)
    assert report.recoverable_bytes == sum(
        (p.stale + p.retired) * len(payload)
        for p, payload in zip(rows, distinct, strict=True))
    for tags in (["retired"], ["valid", "stale", "retired"]):
        assert dump.held(*tags) == {held for tag, held in read if tag in tags}


def _churned_audit():
    """A dump of ten writes over four lpns, seven distinct payloads, and
    its history with every payload a bytearray."""
    s = _state(gc_enabled=False)
    history = [(i % 4, bytearray(_payload(i % 7))) for i in range(10)]
    for lpn, payload in history:
        s.write(lpn, bytes(payload))
    return s.forensic_dump(), history


def test_a_report_is_a_snapshot_of_its_history():
    dump, history = _churned_audit()
    read = remanence_audit(dump, history)
    rows, doc = read.payloads, read.as_dict()
    unread = remanence_audit(dump, history)
    history.append((5, _payload(99)))
    history[0][1][:] = _payload(50)
    assert remanence_audit(dump, history).as_dict() != doc
    assert read.payloads is rows and read.as_dict() == doc
    assert unread.as_dict() == doc


def test_rows_are_digested_only_when_read(monkeypatch):
    import remnant.ftl as ftl

    real = ftl.hashlib.sha256
    digested = []

    def counting(data=b""):
        digested.append(bytes(data))
        return real(data)

    dump, history = _churned_audit()
    distinct = list(dict.fromkeys(bytes(p) for _, p in history))
    monkeypatch.setattr(ftl.hashlib, "sha256", counting)
    report = remanence_audit(dump, history)
    assert report.stale_copies == 6
    assert report.recoverable_bytes == 6 * PAGE
    assert digested == []
    rows = report.payloads
    assert report.payloads is rows
    report.as_dict()
    assert sorted(digested) == sorted(distinct)
    assert [row.digest for row in rows] == [real(p).hexdigest()
                                            for p in distinct]


def test_collection_destroys_remnants():
    s = _state(gc_enabled=False)
    versions = [bytes([v]) * PAGE for v in range(1, 6)]
    for v in versions:
        s.write(0, v)
    s.trim(0)
    while s.garbage_collect():
        pass
    rep = remanence_audit(s.forensic_dump(), [(0, v) for v in versions])
    assert rep.recoverable_bytes == 0
    assert all(p.copies == 0 for p in rep.payloads)


def test_audit_classifies_retired_copies_separately():
    s = _state()
    run_retirement_experiment(s)
    retired = next(b for b, blk in enumerate(s.blocks) if blk.retired)
    dump = s.forensic_dump()
    hostage = next(_read(dump, ppn) for ppn in _block(dump, retired)
                   if _read(dump, ppn) != b"\xFF" * PAGE)
    rep = remanence_audit(s.forensic_dump(), [hostage])
    assert rep.payloads[0].retired >= 1
    assert rep.recoverable_bytes >= PAGE


# ------------------------------------------------------ cycle experiments

def test_one_cycle_doubles_every_payload():
    s = _state(gc_enabled=False)
    payloads = [bytes([10 + i]) * PAGE for i in range(4)]
    res = run_cycle_experiment(s, payloads, iterations=1)
    assert not res.ended_early
    one, = res.iterations
    assert one.iteration == 1
    assert one.byte_identical_fraction == 1.0
    # Initial stranded copy + the recovery's fresh write.
    assert one.copy_count == 2 * len(payloads)
    assert all(p.copies == 2 for p in res.final_audit.payloads)


def test_recovery_cycles_multiply_remnants():
    s = _state(gc_enabled=False)
    payloads = [bytes([10 + i]) * PAGE for i in range(4)]
    res = run_cycle_experiment(s, payloads, iterations=5)
    assert not res.ended_early
    assert len(res.iterations) == 5
    recov = [it.recoverable_bytes for it in res.iterations]
    copies = [it.copy_count for it in res.iterations]
    assert recov == sorted(recov), "recoverable bytes must never shrink"
    for prev, cur in zip(copies, copies[1:]):
        assert cur - prev >= 1, "each round must strand at least one copy"
    assert all(it.byte_identical_fraction == 1.0 for it in res.iterations)


def test_forced_collection_caps_the_growth():
    s = _state(gc_enabled=True)
    payloads = [bytes([10 + i]) * PAGE for i in range(4)]
    res = run_cycle_experiment(s, payloads, iterations=5, force_gc=True)
    # No monotonic claim under collection -- the point is it runs and
    # every snapshot stays sane.
    for it in res.iterations:
        assert 0.0 <= it.byte_identical_fraction <= 1.0
        assert it.recoverable_bytes >= 0
    assert len(res.iterations) <= 5


def test_cycle_payload_set_must_fit():
    s = _state()
    too_many = [bytes([i % 256]) * PAGE
                for i in range(s.geometry.logical_pages + 1)]
    with pytest.raises(FlashRangeError):
        run_cycle_experiment(s, too_many, iterations=1)


# -------------------------------------------------- global state checks

def test_wear_stays_level_under_churn():
    # A statement over many trajectories, not one: after 2,000 random ops
    # the spread between the most- and least-erased blocks (about 37
    # erases each) measured a mean of 4.1 and a max of 8 over these 40
    # seeds.
    spreads = []
    for seed in range(40):
        g = FlashGeometry(block_count=6, pages_per_block=8, page_size=64,
                          reserve_blocks=1, endurance_limit=10_000)
        s = FtlState(geometry=g)
        apply_random_operations(s, 2000, random.Random(seed))
        counts = [s.blocks[b].erase_count for b in s.allocatable]
        spreads.append(max(counts) - min(counts))
    assert max(spreads) <= 8
    assert sum(spreads) / len(spreads) <= 4.5


def test_collection_that_cannot_finish_is_not_started():
    # The victim's valid pages outnumber the free pages elsewhere long
    # before the device is full: such a write must fail cleanly, with
    # no page relocated and the victim left unerased.
    g = FlashGeometry(block_count=8, pages_per_block=32, page_size=PAGE,
                      reserve_blocks=1)
    s = FtlState(geometry=g)
    apply_random_operations(s, 2000, random.Random(0))

    def snapshot():
        return (s.op_counter, list(s.stale_count), s.gc_runs,
                [b.erase_count for b in s.blocks], bytes(s.state),
                s.lpn.tobytes(), s.stamp.tobytes(),
                _payload_lists(s.payload), dict(s.mapping))

    failed = 0
    for i in range(300):
        before = snapshot()
        try:
            s.write(i % 192, _payload(i))
        except DeviceFull:
            failed += 1
            assert snapshot() == before
        assert s.check_conservation()
    assert failed


def test_state_hash_tracks_mutations_only():
    s = _state()
    h0 = s.state_hash()
    s.read(0)
    assert s.state_hash() == h0            # reads are not mutations
    s.write(0, _payload(1))
    h1 = s.state_hash()
    assert h1 != h0
    s.trim(0)
    assert s.state_hash() not in (h0, h1)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_walks_conserve_pages_and_replay_exactly(seed):
    a = _state(seed=seed)
    b = _state(seed=seed)
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    for step in range(150):
        op_a = random_operation(a, rng_a)
        op_b = random_operation(b, rng_b)
        assert op_a == op_b
        assert a.check_conservation()
    assert a.state_hash() == b.state_hash()


def test_operation_tally_is_deterministic():
    s1, s2 = _state(), _state()
    t1 = apply_random_operations(s1, 500, random.Random(99))
    t2 = apply_random_operations(s2, 500, random.Random(99))
    assert t1 == t2
    assert sum(t1.values()) == 500
    assert set(t1) <= {"write", "trim", "read", "gc", "skipped"}


def test_conservation_catches_drifted_tallies_and_mappings():
    s = _state(gc_enabled=False)
    s.write(0, _payload(1))
    s.write(0, _payload(2))
    assert s.check_conservation()
    s.stale_count[0] += 1
    assert not s.check_conservation()
    s.stale_count[0] -= 1
    s.mapping[0] = 0                       # the stale copy, not the live one
    assert not s.check_conservation()


def test_conservation_catches_a_drifted_total_and_index():
    s = _state(gc_enabled=False)
    s.write(0, _payload(1))
    assert s.check_conservation()
    s.free_active += 1
    assert not s.check_conservation()
    s.free_active -= 1
    s.stale_active += 1
    assert not s.check_conservation()
    s.stale_active -= 1
    s.payload[0][5] = _payload(1)          # a FREE page with a payload
    assert not s.check_conservation()
    s.payload[0][5] = s.geometry.erased_page
    dropped = s.open_blocks.pop(0)         # block 0 still has free pages
    assert not s.check_conservation()
    s.open_blocks.insert(0, dropped)
    assert s.check_conservation()
    s.open_blocks.reverse()                # every block, in the wrong order
    assert not s.check_conservation()


# --------------------- the allocator and collector against the old ones

def _free_pages(s, block):
    """Count the FREE pages of ``block`` in the state column."""
    ppb = s.geometry.pages_per_block
    return s.state[block * ppb:(block + 1) * ppb].count(FREE)


class _ScanningFtl(FtlState):
    """The allocator before the running free-page total and the
    open-block index: both scan every allocatable block, and the page
    is found by walking the block from its first page.  Collection and
    retirement copy page by page through it, as they did before the
    bulk relocation, and a collection notes when it relocates pages out
    of a victim that still has free ones."""

    skipped_open_victim = False

    def free_pages_active(self):
        return sum(_free_pages(self, b) for b in self.allocatable)

    def _allocate(self, exclude=None):
        best = None
        for b in self.allocatable:
            if (b != exclude and _free_pages(self, b)
                    and (best is None or self.blocks[b].erase_count
                         < self.blocks[best].erase_count)):
                best = b
        if best is None:
            return None
        ppn = best * self.geometry.pages_per_block
        while self.state[ppn] != FREE:
            ppn += 1
        return ppn

    def garbage_collect(self):
        if not self.stale_active:
            return False
        victim = None
        victim_stale = 0
        for b in self.allocatable:
            if self.stale_count[b] > victim_stale:
                victim, victim_stale = b, self.stale_count[b]
        if self.blocks[victim].erase_count + 1 >= self.geometry.endurance_limit:
            return self.retire_block(victim)
        ppb = self.geometry.pages_per_block
        free = _free_pages(self, victim)
        if ppb - free - victim_stale > self.free_pages_active() - free:
            return False
        start, end = victim * ppb, (victim + 1) * ppb
        for p in range(start, end):
            if self.state[p] != VALID:
                continue
            self.skipped_open_victim |= bool(free)
            target = self._allocate(exclude=victim)
            if target is None:
                raise DeviceFull("no room to relocate during collection")
            self._program(target, _read(self, p), self.lpn[p])
            self._mark_stale(p)
        self.state[start:end] = bytes(ppb)
        self.lpn[start:end] = array("i", [-1]) * ppb
        self.stamp[start:end] = array("q", [0]) * ppb
        self.payload[victim] = None
        if free:
            self.open_blocks.remove(victim)
        self.free_active += ppb - free
        self.stale_active -= self.stale_count[victim]
        self.stale_count[victim] = 0
        self.blocks[victim].erase_count += 1
        bisect.insort(self.open_blocks, victim, key=self._wear)
        self.gc_runs += 1
        return True

    def retire_block(self, block):
        blk = self.blocks[block]
        if blk.retired:
            raise FtlError("block %d already retired" % block)
        if blk.erase_count < self.geometry.endurance_limit - 1:
            raise FtlError("block %d is not at the endurance limit" % block)
        if not self.reserve_pool:
            self.read_only = True
            return False
        repl = self.reserve_pool.pop(0)
        blk.retired = True
        blk.replacement = repl
        blk.erase_count = max(blk.erase_count, self.geometry.endurance_limit)
        self.allocatable = sorted(set(self.allocatable) - {block} | {repl})
        self.retired_count += 1
        self.free_active, self.stale_active, self.open_blocks = \
            self._recount()
        ppb = self.geometry.pages_per_block
        shift = (repl - block) * ppb
        for src in range(block * ppb, (block + 1) * ppb):
            if self.state[src] == VALID:
                self._program(src + shift, _read(self, src), self.lpn[src])
        return True


def _device_view(s):
    """Everything a device holds that the comparison checks."""
    return (bytes(s.state), s.lpn.tobytes(), s.stamp.tobytes(),
            _payload_lists(s.payload), s.mapping, s.open_blocks,
            s.free_active, s.stale_active, s.stale_count, s.op_counter,
            s.state_hash())


def _drive_both(geometry, ops):
    """Run ``ops`` on the device and on the scanning, page-by-page
    reference side by side; after every op both must give the same
    result and hold the same pages, tallies and index."""
    new, old = pair = (FtlState(geometry=geometry),
                       _ScanningFtl(geometry=geometry))
    logical = geometry.logical_pages
    for kind, arg in ops:
        results = []
        for s in pair:
            try:
                if kind == "write":
                    results.append(s.write(arg % logical, bytes(
                        [arg & 0xFF]) * geometry.page_size))
                elif kind == "trim":
                    results.append(s.trim(arg % logical))
                elif kind == "wear":
                    # Wear out the open block at the head of the
                    # allocator's index now, whatever its pages hold.
                    block = s.open_blocks[0]
                    s.blocks[block].erase_count = geometry.endurance_limit - 1
                    results.append(s.retire_block(block))
                else:
                    results.append(s.garbage_collect())
            except FtlError as exc:
                results.append(type(exc))
            assert s.check_conservation()
        assert results[0] == results[1]
        assert _device_view(new) == _device_view(old)
    return new, old


# Small blocks and endurance 2-4 retire blocks within a few collections,
# and one or two reserve blocks run out soon after.
_small_geometries = st.builds(
    FlashGeometry, block_count=st.integers(4, 7),
    pages_per_block=st.integers(2, 6), page_size=st.just(16),
    reserve_blocks=st.integers(1, 2), endurance_limit=st.integers(2, 4))
_host_ops = st.lists(st.tuples(
    st.sampled_from(["write", "write", "write", "trim", "gc"]),
    st.integers(0, 255)), max_size=300)


@st.composite
def _worn_early(draw):
    """A geometry and ops that write every logical page, rewrite the
    first few into the last active block and trim the second of them
    and maybe others, so that block holds valid, stale and free pages;
    retire it before any collection; collect; then random host ops.
    The retirement copies at least two runs of valid pages into the
    replacement, which is then the only open block, so the collection
    moves block 0's valid pages into its free hole first.  With at most
    three active blocks, pages_per_block - 2 rewrites leave the free
    pages above the collection trigger."""
    geometry = draw(st.builds(
        FlashGeometry, block_count=st.integers(4, 5),
        pages_per_block=st.integers(5, 8), page_size=st.just(16),
        reserve_blocks=st.just(2), endurance_limit=st.integers(2, 4)))
    trimmed = [False, True, False, *draw(st.lists(
        st.booleans(), max_size=geometry.pages_per_block - 5))]
    logical = geometry.logical_pages
    return geometry, [
        *(("write", lpn) for lpn in range(logical + len(trimmed))),
        *(("trim", lpn) for lpn, trim in enumerate(trimmed) if trim),
        ("wear", 0), ("gc", 0), *draw(_host_ops)]


@settings(max_examples=100, deadline=None)
@given(case=st.tuples(_small_geometries, _host_ops) | _worn_early())
def test_indexed_allocator_matches_the_block_scans(case):
    _drive_both(*case)


def test_the_comparison_reaches_retirement_exhaustion_and_open_victims():
    # The property above is only as strong as the states it visits:
    # seeded walks on the same small geometries must retire blocks, run
    # out of reserve, and collect victims that still have free pages.
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        geometry = FlashGeometry(block_count=5 + seed % 3,
                                 pages_per_block=2 + seed % 5, page_size=16,
                                 reserve_blocks=1 + seed % 2,
                                 endurance_limit=2 + seed % 3)
        ops = [(rng.choice(["write", "write", "write", "trim", "gc"]),
                rng.randrange(256)) for _ in range(300)]
        s, reference = _drive_both(geometry, ops)
        seen |= {"retired"} if s.retired_count else set()
        seen |= {"read-only"} if s.read_only else set()
        seen |= {"open victim"} if reference.skipped_open_victim else set()
    assert seen == {"retired", "read-only", "open victim"}


def test_collection_allocates_no_page_by_page():
    # Relocation fills free runs in bulk: the single-page allocator
    # hands out one page per host write, while collections still
    # relocate.  An allocation that finds no page is retried once
    # after a collection, or the write fails.
    s = _state()
    pages = []
    allocate = s._allocate
    s._allocate = lambda: pages.append(allocate()) or pages[-1]
    counts = apply_random_operations(s, 2000, random.Random(3))
    assert s.gc_runs and s.op_counter - 1 > counts["write"]
    assert len(pages) - pages.count(None) == counts["write"]


# ------------------------------------------------------ recorded behaviour
#
# Values recorded once from the page-scanning implementation that the
# per-block tallies replaced.  They pin the simulated device: the
# allocator, victim choice, relocation and retirement must reproduce
# them exactly.  Never regenerate them from the code under test.

def _retire_then_churn(seed):
    """Desk geometry: one retirement, then churn until the second
    retirement finds no reserve and the device goes read-only."""
    s = _state(seed=seed)
    run_retirement_experiment(s)
    apply_random_operations(s, 3000, random.Random(seed))
    return s


def _churn_through_retirements(seed):
    """Two reserve blocks and endurance 10: random churn retires blocks
    that still hold valid pages, so each replacement starts with free
    holes between copied pages, and later writes fill those holes."""
    s = FtlState(geometry=FlashGeometry(block_count=8, pages_per_block=32,
                                        page_size=64, reserve_blocks=2,
                                        endurance_limit=10), seed=seed)
    apply_random_operations(s, 3000, random.Random(seed))
    return s


def _churn_64x64(seed):
    s = FtlState(geometry=FlashGeometry(block_count=64, pages_per_block=64,
                                        page_size=64, reserve_blocks=2,
                                        endurance_limit=10_000), seed=seed)
    apply_random_operations(s, 3000, random.Random(seed))
    return s


def _cycles(force_gc):
    """40 payloads over two blocks; without collection the device fills
    in the fifth round."""
    s = _state(gc_enabled=force_gc)
    run_cycle_experiment(s, [bytes([10 + i]) * PAGE for i in range(40)],
                         iterations=5, force_gc=force_gc)
    return s


RECORDED = [
    (_retire_then_churn, 0, ("205449ca474ebf8c68d5698fc1c8539e"
                             "839242ec51978114f0507f73e9fa8073",
                             39, 1424, 1, True)),
    (_retire_then_churn, 1, ("fd1dbf3af9a9859b45abd17f7860446e"
                             "dff11f74633a4654d0f0c114e6d10ee9",
                             39, 1407, 1, True)),
    (_retire_then_churn, 2, ("4b7361db2276661aa1e14050b9b2399f"
                             "4eeba7585cb771b5362cf15f5972ee2c",
                             39, 1378, 1, True)),
    (_churn_through_retirements, 0, ("1d19186db8917ee0f897dd73e277c110"
                                     "4f949dcc965467a43ba2c532c6c17a8c",
                                     55, 1893, 2, True)),
    (_churn_through_retirements, 1, ("e21af0c4719b4a1732a610374e4e2933"
                                     "a4a310621dd7deb518fbecb1f88989bc",
                                     56, 1959, 2, True)),
    (_churn_through_retirements, 2, ("6689449ca6986e69361255da9fa2c527"
                                     "172b95a2eadea0bd637270893efbd93c",
                                     56, 1957, 2, True)),
    (_churn_64x64, 3, ("071011f41772a09961dbd7bafb85d0d1"
                       "1b58512a7621645ee2d013e07e9de7cd",
                       138, 10182, 0, False)),
    (_cycles, False, ("9c557d42092aeb1f76d9f807f5a38880"
                      "4e561a4a919860916f2e02d2989b360b",
                      0, 225, 0, False)),
    (_cycles, True, ("a1b079b0173647da4425ee32cc6aeb45"
                     "4c8e85d85c3706b65d74dd2b9c7c88f0",
                     2, 49, 0, False)),
]


@pytest.mark.parametrize(
    "scenario, arg, expected", RECORDED,
    ids=["%s-%s" % (f.__name__.lstrip("_"), a) for f, a, _ in RECORDED])
def test_simulation_reproduces_recorded_state(scenario, arg, expected):
    s = scenario(arg)
    assert (s.state_hash(), s.gc_runs, s.op_counter, s.retired_count,
            s.read_only) == expected
    assert s.check_conservation()


def test_filling_a_volume_sized_device_reproduces_recorded_state():
    # A 64 MiB volume on flash: 520 blocks x 64 pages x 2 KiB, four of
    # them reserve, every logical page written once.  Recorded from the
    # block-scanning allocator.
    g = FlashGeometry(block_count=520, pages_per_block=64, page_size=2048,
                      reserve_blocks=4)
    s = FtlState(geometry=g)
    page = bytes(2048)
    for lpn in range(g.logical_pages):
        s.write(lpn, page)
    assert s.state_hash() == ("8a2a2b153c0fa35be8935ef98d1fe331"
                              "0d1a71794dfb6e97d5d2a1a2770ab742")
    assert s.check_conservation()


# ------------------------------------------------------------- costs

def test_a_volume_sized_page_store_is_small():
    # 4,160 x 64 x 2 KiB (520 MiB of flash): a state byte, a 4-byte lpn
    # and an 8-byte stamp per page come to 3.3 MiB of the 3.9 MiB
    # traced; a page object each traced 29.4 MiB, and two 8-byte columns
    # beside unslotted block records 5.1 MiB.  A fresh device holds no
    # payload.
    g = FlashGeometry(block_count=4160, pages_per_block=64, page_size=2048)
    tracemalloc.start()
    try:
        s = FtlState(geometry=g)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 5 << 20
    assert s.payload == [None] * g.block_count


def test_a_dump_of_a_volume_sized_device_is_small():
    # A tag byte, a 4-byte lpn and an 8-byte stamp per page come to
    # 3.3 MiB on 4,160 x 64 x 2 KiB; a row object per page traced
    # 34.8 MiB.  A fresh device has no payload to copy.
    s = FtlState(geometry=FlashGeometry(block_count=4160, pages_per_block=64,
                                        page_size=2048))
    tracemalloc.start()
    try:
        dump = s.forensic_dump()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 4 << 20
    assert dump.payload == [None] * dump.geometry.block_count


def test_a_programmed_page_costs_a_list_slot():
    # Filling every logical page of 520 x 64 x 2 KiB (one shared payload)
    # traced 108 B per programmed page, the mapping's entry and ints
    # included; a payload dict keyed by physical page traced 139 B.
    g = FlashGeometry(block_count=520, pages_per_block=64, page_size=2048,
                      reserve_blocks=4)
    s = FtlState(geometry=g)
    page = bytes(2048)
    tracemalloc.start()
    try:
        for lpn in range(g.logical_pages):
            s.write(lpn, page)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 120 * g.logical_pages


def test_a_dump_of_a_written_device_copies_only_the_open_blocks():
    # 4,100 x 64 x 2 KiB written to 75 % with one shared page: the dump
    # traced its three columns (13 B per page, 3.25 MiB) and 0.03 MiB
    # more; a copy of a payload dict keyed by physical page traced
    # 10.0 MiB more.
    g = FlashGeometry(block_count=4100, pages_per_block=64, page_size=2048)
    s = FtlState(geometry=g)
    page = bytes(2048)
    for lpn in range(g.logical_pages * 3 // 4):
        s.write(lpn, page)
    tracemalloc.start()
    try:
        dump = s.forensic_dump()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced < 13 * g.total_pages + (1 << 19)
    assert dump.held("valid") == {page}


def test_an_audit_whose_rows_are_unread_keeps_no_set_per_payload():
    # 30,000 distinct 8-byte payloads over 16 lpns of a 64-page device:
    # a set per payload traced 11.0 MiB, the history's two columns and
    # the rank of each payload 4.0 MiB.
    g = FlashGeometry(block_count=4, pages_per_block=16, page_size=8,
                      reserve_blocks=0)
    s = FtlState(geometry=g)
    history = [(i % 16, i.to_bytes(8, "little")) for i in range(30_000)]
    for lpn, payload in history:
        s.write(lpn, payload)
    dump = s.forensic_dump()
    tracemalloc.start()
    try:
        report = remanence_audit(dump, history)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert report.live_copies == 16
    read = [(TAGS[code], _read(dump, ppn))
            for ppn, code in enumerate(dump.tag)]
    assert report.as_dict() == _reference_audit(read, history)


class _ReadCountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_a_sequential_fill_never_scans_for_a_victim():
    # Each logical page written once leaves no stale page, so the
    # collections the threshold triggers have nothing to reclaim and
    # must not read a block's stale tally looking for a victim.
    s = _state(gc_threshold=0.25)
    s.stale_count = _ReadCountingList(s.stale_count)
    triggered = 0
    for lpn in range(s.geometry.logical_pages):
        if s.free_pages_active() < 0.25 * s.active_capacity():
            triggered += 1
        s.write(lpn, _payload(lpn))
    assert triggered
    assert s.stale_count.reads == 0
    assert s.gc_runs == 0
    assert s.check_conservation()


# ------------------------------------------ the benchmark's FTL contract

def _check_bench_runs(size, seeds):
    """bench/probe.py drives the simulator through its public API, and
    bench/expected_ftl.json records what each seed must give at ``size``:
    the state hash, collections, relocations and stale copies."""
    spec = importlib.util.spec_from_file_location("bench_probe",
                                                  BENCH / "probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    expected = json.loads((BENCH / "expected_ftl.json").read_text())[size]
    assert sorted(expected, key=int) == [str(seed) for seed in range(10)]
    for seed in seeds:
        want = expected[str(seed)]
        assert set(want) == {"state_hash", "gc_runs", "relocations",
                             "stale_copies"}
        got = probe.run_ftl(seed, size, None)
        assert got["conserved"] and not got["read_mismatches"]
        assert {key: got[key] for key in want} == want


def test_benchmark_churn_reproduces_its_recorded_toy_runs():
    _check_bench_runs("toy", range(10))


def test_benchmark_churn_reproduces_its_recorded_full_runs():
    # The ftl-churn workload itself: 64 x 64 x 2 KiB, 3,000 ops.
    _check_bench_runs("full", (0, 1))
