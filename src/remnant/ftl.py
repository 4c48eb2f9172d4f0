"""Deterministic page-mapped flash-translation-layer simulator.

The point of the model is remanence: an overwrite or trim never touches
the old physical page, it only remaps.  Stale payloads survive until
garbage collection erases their block, and a block that reaches its
erase-endurance limit is retired with every payload frozen in place.
Garbage collection is the only operation that destroys a stale payload.

The page store is columnar: one state byte per page, an ``lpn`` and a
program stamp per page in two integer arrays, and one payload slot per
block, ``None`` until a page of the block is programmed and then a list
of the block's payloads, so a device costs about 13 bytes per page
before its first write and 8 more per page of a programmed block.
``forensic_dump`` snapshots the columns with C-level copies and shares
every block's payload list but those of the open blocks, the only
lists a later write can change.
"""

from __future__ import annotations

import bisect
import hashlib
import re
import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import add, mul

ERASED_BYTE = 0xFF


class FtlError(Exception):
    """Base error for the simulator."""


class DeviceFull(FtlError):
    """No free page exists even after garbage collection."""


class ReadOnlyDevice(FtlError):
    """The reserve pool is exhausted; writes are refused."""


class FlashRangeError(FtlError):
    """Logical page number or payload size out of range."""


class PageState(Enum):
    FREE = "free"
    VALID = "valid"
    STALE = "stale"


# PageState ordinals: the codes FtlState.state holds and state_hash
# digests.  A ChipDump's tag column holds them too, and a fourth code
# for every page of a retired block; _TAGS names each code.
_FREE, _VALID, _STALE, _RETIRED = range(4)
_TAGS = [state.value for state in PageState] + ["retired"]
# The runs of FREE and of VALID pages in a stretch of the state column.
_FREE_RUNS, _VALID_RUNS = (re.compile(b"%c+" % code)
                           for code in (_FREE, _VALID))
# Map a state byte to 1 where the page is VALID (FREE), to 0 elsewhere.
_VALID_MASK = bytes(code == _VALID for code in range(256))
_FREE_MASK = bytes(code == _FREE for code in range(256))


@dataclass(frozen=True)
class FlashGeometry:
    """Device shape.  The default endurance limit follows commodity
    NAND (10,000 program/erase cycles); desk_geometry() scales it down
    so experiments exercise retirement quickly."""

    block_count: int = 8
    pages_per_block: int = 32
    page_size: int = 2048
    reserve_blocks: int = 1
    endurance_limit: int = 10_000

    def __post_init__(self):
        if min(self.block_count, self.pages_per_block, self.page_size,
               self.endurance_limit) <= 0:
            raise FlashRangeError("geometry fields must be positive")
        if not 0 <= self.reserve_blocks < self.block_count:
            raise FlashRangeError("reserve must be smaller than the device")
        if self.block_count - self.reserve_blocks < 2:
            raise FlashRangeError("need at least two active blocks")
        # The lpn columns hold 4-byte signed ints.
        if self.logical_pages >= 2 ** 31:
            raise FlashRangeError("logical pages must stay below 2**31")

    # The derived values are computed on first use and kept in the
    # instance dict, which frozen dataclasses leave writable to
    # cached_property; equality, hashing and repr see the five fields.

    @cached_property
    def total_pages(self) -> int:
        return self.block_count * self.pages_per_block

    @cached_property
    def active_blocks(self) -> int:
        return self.block_count - self.reserve_blocks

    @cached_property
    def logical_pages(self) -> int:
        # One active block is over-provisioned headroom so garbage
        # collection always has somewhere to relocate valid pages.
        return (self.active_blocks - 1) * self.pages_per_block

    @cached_property
    def erased_page(self) -> bytes:
        return bytes([ERASED_BYTE]) * self.page_size

    @cached_property
    def erased_block(self) -> tuple[bytes, ...]:
        return (self.erased_page,) * self.pages_per_block


def desk_geometry() -> FlashGeometry:
    """The small deterministic geometry used throughout the tests:
    8 blocks x 32 pages x 2048 B, one reserve block, endurance 10."""
    return FlashGeometry(block_count=8, pages_per_block=32, page_size=2048,
                         reserve_blocks=1, endurance_limit=10)


@dataclass(slots=True)
class BlockState:
    erase_count: int = 0
    retired: bool = False
    replacement: int | None = None


@dataclass
class ChipDump:
    """Every physical page of a device at one instant, in columns.

    Page ``ppn`` has the tag code ``tag[ppn]`` (free, valid, stale or
    retired), ``lpn[ppn]`` (-1 for none) and ``stamp[ppn]``.  Its
    payload is item ``ppn % pages_per_block`` of block
    ``ppn // pages_per_block``'s slot in ``payload``, and a slot of
    ``None`` reads as ``geometry.erased_block``; ``pages()`` reads
    every page in physical order.  The lists may be shared with the
    device, which never changes them again."""

    geometry: FlashGeometry
    tag: bytearray
    payload: list[list[bytes] | None]
    lpn: array
    stamp: array

    def pages(self):
        """Every page's payload, in physical order."""
        erased = self.geometry.erased_block
        return chain.from_iterable(erased if block is None else block
                                   for block in self.payload)

    def held(self, *tags: str) -> set[bytes]:
        """The distinct payloads of the pages tagged with one of
        ``tags``, none of which may be 'free'.  A retired page frozen
        while free reads as the erased pattern."""
        codes = {_TAGS.index(t) for t in tags}
        return set(compress(self.pages(), map(codes.__contains__, self.tag)))


class FtlState:
    """The whole device: geometry, page columns, mapping table, wear.

    Physical page ``ppn`` is ``state[ppn]`` (a PageState ordinal),
    ``lpn[ppn]`` (-1 for none), ``stamp[ppn]`` (the op counter when it
    was programmed, 0 when erased) and item ``ppn % pages_per_block`` of
    ``payload[ppn // pages_per_block]``.  A block's payload slot is
    ``None`` while no page of it has been programmed since its last
    erase, and otherwise a list in which every FREE page holds
    ``geometry.erased_page``.

    Only a FREE page is ever programmed, and only an allocatable block
    with a FREE page is open, so the lists of the blocks outside
    ``open_blocks`` never change in place: an erase replaces the slot.
    ``forensic_dump`` copies the open blocks' lists and shares the rest.
    """

    def __init__(self, geometry: FlashGeometry | None = None, seed: int = 0,
                 gc_enabled: bool = True, gc_threshold: float = 0.125):
        self.geometry = geometry or FlashGeometry()
        self.seed = seed
        self.gc_enabled = gc_enabled
        self.gc_threshold = gc_threshold
        g = self.geometry
        self.state = bytearray(g.total_pages)
        self.lpn = array("i", [-1]) * g.total_pages
        self.stamp = array("q", [0]) * g.total_pages
        self.payload: list[list[bytes] | None] = [None] * g.block_count
        self.blocks = [BlockState() for _ in range(g.block_count)]
        # Stale pages per block, kept current wherever a page goes stale
        # or its block is erased.
        self.stale_count = [0] * g.block_count
        self.mapping: dict[int, int] = {}
        # The highest-numbered blocks are held back for bad-block
        # replacement and take no writes until a retirement pulls one in.
        self.allocatable = list(range(g.active_blocks))
        self.reserve_pool = list(range(g.active_blocks, g.block_count))
        # The allocator's whole view: the free pages of the allocatable
        # blocks, and those blocks with a free page ordered by wear; and
        # the stale pages of the allocatable blocks, which a collection
        # needs before it looks for a victim.
        self.free_active, self.stale_active, self.open_blocks = \
            self._recount()
        self.op_counter = 1
        self.read_only = False
        self.gc_runs = 0
        self.retired_count = 0

    # -- bookkeeping -------------------------------------------------

    def _span(self, block: int) -> tuple[int, int]:
        """The first and one-past-last physical page of ``block``."""
        start = block * self.geometry.pages_per_block
        return start, start + self.geometry.pages_per_block

    def _free_in(self, block: int) -> int:
        return self.state.count(_FREE, *self._span(block))

    def free_pages_active(self) -> int:
        return self.free_active

    def _wear(self, block: int) -> tuple[int, int]:
        return (self.blocks[block].erase_count, block)

    def _recount(self) -> tuple[int, int, list[int]]:
        """The free- and stale-page totals of the allocatable blocks and
        the open blocks among them (those with a free page) in ``_wear``
        order, counted afresh from the state column and the stale
        tallies."""
        free = {b: self._free_in(b) for b in self.allocatable}
        return (sum(free.values()),
                sum(self.stale_count[b] for b in self.allocatable),
                sorted((b for b in self.allocatable if free[b]),
                       key=self._wear))

    def active_capacity(self) -> int:
        return len(self.allocatable) * self.geometry.pages_per_block

    def check_conservation(self) -> bool:
        """Recount every block's stale pages against its tally, the
        totals and the open-block index against the state column, check
        that exactly the blocks with a programmed page hold a payload
        list, in which every FREE page holds the erased pattern, and
        that each mapping entry names a VALID page carrying that lpn."""
        if ((self.free_active, self.stale_active, self.open_blocks)
                != self._recount()):
            return False
        if any(self.state.count(_STALE, *self._span(b)) != self.stale_count[b]
               for b in range(self.geometry.block_count)):
            return False
        erased = {self.geometry.erased_page}
        for b, pages in enumerate(self.payload):
            start, end = self._span(b)
            free = self.state[start:end].translate(_FREE_MASK)
            if (pages is None) == (0 in free):
                return False
            if pages is not None and (len(pages) != len(free) or not set(
                    compress(pages, free)) <= erased):
                return False
        return all(self.state[ppn] == _VALID and self.lpn[ppn] == lpn
                   for lpn, ppn in self.mapping.items())

    def _allocate(self) -> int | None:
        """Greedy wear-leveling: the lowest free page in the
        lowest-erase-count allocatable block; ties break to the lowest
        block index.  That is the first open block."""
        if not self.open_blocks:
            return None
        best = self.open_blocks[0]
        ppb = self.geometry.pages_per_block
        return self.state.index(_FREE, best * ppb, (best + 1) * ppb)

    def _program(self, ppn: int, payload: bytes, lpn: int) -> None:
        """Fill a FREE page of an allocatable block with a VALID copy of
        ``payload`` and map ``lpn`` to it."""
        ppb = self.geometry.pages_per_block
        block = ppn // ppb
        start = block * ppb
        pages = self.payload[block]
        if pages is None:
            pages = self.payload[block] = list(self.geometry.erased_block)
        pages[ppn - start] = payload
        self.state[ppn] = _VALID
        self.lpn[ppn] = lpn
        self.stamp[ppn] = self.op_counter
        self.op_counter += 1
        self.free_active -= 1
        if self.state.find(_FREE, start, start + ppb) < 0:
            self.open_blocks.remove(block)
        self.mapping[lpn] = ppn

    def _program_run(self, first: int, lpns: array,
                     payloads: list[bytes]) -> None:
        """Fill the FREE pages ``first``, ``first + 1``, ... of one
        allocatable block with VALID copies of ``payloads``, stamped in
        order, and map each of ``lpns`` (an ``"i"`` array) to its page:
        ``_program`` page by page, as slice assignments."""
        n = len(lpns)
        end = first + n
        stamp = self.op_counter
        block, index = divmod(first, self.geometry.pages_per_block)
        pages = self.payload[block]
        if pages is None:
            pages = self.payload[block] = list(self.geometry.erased_block)
        pages[index:index + n] = payloads
        self.state[first:end] = bytes([_VALID]) * n
        self.lpn[first:end] = lpns
        self.stamp[first:end] = array("q", list(range(stamp, stamp + n)))
        self.mapping.update(zip(lpns, range(first, end)))
        self.op_counter = stamp + n
        self.free_active -= n
        if self.state.find(_FREE, *self._span(block)) < 0:
            self.open_blocks.remove(block)

    def _runs(self, pattern: re.Pattern, block: int) -> list[tuple[int, int]]:
        """The (first, end) spans of ``pattern``'s runs in ``block``'s
        state bytes, ascending."""
        return [m.span() for m in pattern.finditer(self.state,
                                                   *self._span(block))]

    def _free_runs(self, exclude: int):
        """The runs of FREE pages in the order ``_allocate`` would hand
        their pages out with ``exclude`` closed: every open block but
        ``exclude`` in wear order, each block's pages ascending.
        Filling them only ever drops blocks from the index, so a
        snapshot of it holds."""
        for block in list(self.open_blocks):
            if block != exclude:
                yield from self._runs(_FREE_RUNS, block)

    def _mark_stale(self, ppn: int) -> None:
        """Only mapped pages go stale, and every mapped page lies in an
        allocatable block."""
        self.state[ppn] = _STALE
        self.stale_count[ppn // self.geometry.pages_per_block] += 1
        self.stale_active += 1

    # -- host-facing operations ---------------------------------------

    def write(self, lpn: int, data: bytes) -> int:
        """Out-of-place write; the previous physical page goes stale
        with its payload untouched.  Returns the physical page used."""
        if self.read_only:
            raise ReadOnlyDevice("device is read-only: reserve exhausted")
        if not 0 <= lpn < self.geometry.logical_pages:
            raise FlashRangeError("logical page %d out of range" % lpn)
        if len(data) != self.geometry.page_size:
            raise FlashRangeError("payload must be exactly one page")
        if (self.gc_enabled and
                self.free_pages_active() * 1.0
                < self.gc_threshold * self.active_capacity()):
            self.garbage_collect()
        ppn = self._allocate()
        if ppn is None and self.gc_enabled:
            self.garbage_collect()
            ppn = self._allocate()
        if ppn is None:
            raise DeviceFull("device full")
        old = self.mapping.get(lpn)
        self._program(ppn, bytes(data), lpn)
        if old is not None:
            self._mark_stale(old)
        return ppn

    def read(self, lpn: int) -> bytes:
        """Mapped pages return their payload; unmapped logical pages
        read as the erased pattern — the host never sees remnants."""
        if not 0 <= lpn < self.geometry.logical_pages:
            raise FlashRangeError("logical page %d out of range" % lpn)
        ppn = self.mapping.get(lpn)
        if ppn is None:
            return self.geometry.erased_page
        block, index = divmod(ppn, self.geometry.pages_per_block)
        return self.payload[block][index]

    def trim(self, lpn: int) -> None:
        """Drop the mapping; the physical payload stays put as stale."""
        if not 0 <= lpn < self.geometry.logical_pages:
            raise FlashRangeError("logical page %d out of range" % lpn)
        ppn = self.mapping.pop(lpn, None)
        if ppn is not None:
            self._mark_stale(ppn)

    # -- maintenance ---------------------------------------------------

    def garbage_collect(self) -> bool:
        """Reclaim the block with the most stale pages (ties: lowest
        index).  Valid pages are relocated first, then the whole block
        is erased.  A block whose next erase would reach the endurance
        limit is retired instead of erased.  With no stale page in the
        allocatable blocks there is no victim, and none is looked for."""
        if not self.stale_active:
            return False
        # max keeps the first of equals, and allocatable is ascending.
        victim = max(self.allocatable, key=self.stale_count.__getitem__)
        victim_stale = self.stale_count[victim]
        if self.blocks[victim].erase_count + 1 >= self.geometry.endurance_limit:
            return self.retire_block(victim)
        # Start no collection that cannot finish: the victim's valid
        # pages must fit the free pages of the other blocks.
        ppb = self.geometry.pages_per_block
        free = self._free_in(victim)
        if ppb - free - victim_stale > self.free_pages_active() - free:
            return False
        # The valid pages move in one pass, in page order, to the free
        # pages allocation would pick for them one at a time; the check
        # above leaves room for all of them.  Their source pages are
        # erased below without first going stale.
        start, end = self._span(victim)
        valid = self.state[start:end].translate(_VALID_MASK)
        lpns = array("i", list(compress(self.lpn[start:end], valid)))
        payloads = list(compress(self.payload[victim], valid))
        runs = self._free_runs(exclude=victim)
        moved = 0
        while moved < len(lpns):
            first, stop = next(runs)
            n = min(stop - first, len(lpns) - moved)
            self._program_run(first, lpns[moved:moved + n],
                              payloads[moved:moved + n])
            moved += n
        self.payload[victim] = None
        self.state[start:end] = bytes(ppb)
        self.lpn[start:end] = array("i", [-1]) * ppb
        self.stamp[start:end] = array("q", [0]) * ppb
        if free:
            self.open_blocks.remove(victim)
        self.free_active += ppb - free
        self.stale_active -= self.stale_count[victim]
        self.stale_count[victim] = 0
        self.blocks[victim].erase_count += 1
        bisect.insort(self.open_blocks, victim, key=self._wear)
        self.gc_runs += 1
        return True

    def retire_block(self, block: int) -> bool:
        """Freeze a worn-out block and swap in a reserve block.

        Valid pages are copied page-for-page into the replacement; the
        retired block is never erased again, so everything it holds —
        valid-at-retirement and stale alike — stays readable through
        forensic_dump forever.  With no reserve left the device drops
        to read-only instead.
        """
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
        # The forgone final erase is what wore the block out; account it.
        blk.erase_count = max(blk.erase_count, self.geometry.endurance_limit)
        self.allocatable = sorted(set(self.allocatable) - {block} | {repl})
        self.retired_count += 1
        # The replacement joins before its copies are programmed, so
        # _program_run keeps the totals and the index current for it too.
        self.free_active, self.stale_active, self.open_blocks = \
            self._recount()
        base = block * self.geometry.pages_per_block
        shift = (repl - block) * self.geometry.pages_per_block
        pages = self.payload[block]
        for first, end in self._runs(_VALID_RUNS, block):
            self._program_run(first + shift, self.lpn[first:end],
                              pages[first - base:end - base])
        return True

    # -- forensic interface --------------------------------------------

    def forensic_dump(self) -> ChipDump:
        """Every physical page, payload verbatim, as a snapshot that
        later operations leave unchanged.  Pages in retired blocks are
        tagged 'retired' whatever their frozen state was.

        The cost is O(blocks + pages of the open blocks) beside the
        three C-level column copies: the block slots are copied, and of
        the payload lists only those of the open blocks, since no other
        list is ever changed in place (see the class docstring)."""
        tag = bytearray(self.state)
        retired = bytes([_RETIRED]) * self.geometry.pages_per_block
        for b, blk in enumerate(self.blocks):
            if blk.retired:
                start, end = self._span(b)
                tag[start:end] = retired
        payload = self.payload[:]
        for b in self.open_blocks:
            if payload[b] is not None:
                payload[b] = payload[b][:]
        return ChipDump(self.geometry, tag, payload, self.lpn[:],
                        self.stamp[:])

    def state_hash(self) -> str:
        """Stable digest of the complete device state."""
        h = hashlib.sha256()
        g = self.geometry
        ppb = g.pages_per_block
        h.update(struct.pack("<5q", g.block_count, g.pages_per_block,
                             g.page_size, g.reserve_blocks, g.endurance_limit))
        # Each page's packed row, then its payload: one block per update.
        rows = map(struct.Struct("<bqq").pack, self.state, self.lpn,
                   self.stamp)
        block = [b""] * (2 * ppb)
        for pages in self.payload:
            block[0::2] = islice(rows, ppb)
            block[1::2] = g.erased_block if pages is None else pages
            h.update(b"".join(block))
        h.update(b"".join(
            struct.pack("<qbq", blk.erase_count, blk.retired,
                        -1 if blk.replacement is None else blk.replacement)
            for blk in self.blocks))
        lpns = sorted(self.mapping)
        h.update(b"".join(map(struct.Struct("<qq").pack, lpns,
                              map(self.mapping.__getitem__, lpns))))
        h.update(struct.pack("<q", len(self.reserve_pool)))
        for b in self.reserve_pool:
            h.update(struct.pack("<q", b))
        h.update(struct.pack("<bq", self.read_only, self.op_counter))
        return h.hexdigest()


# -- remanence auditing ------------------------------------------------


@dataclass
class PayloadAudit:
    digest: str
    lpns: list[int]
    live: int
    stale: int
    retired: int

    @property
    def copies(self) -> int:
        return self.live + self.stale + self.retired

    def as_dict(self) -> dict:
        return {"digest": self.digest, "lpns": self.lpns, "live": self.live,
                "stale": self.stale, "retired": self.retired,
                "copies": self.copies}


class RemanenceReport:
    """The copies of every history payload on one dump.

    The four totals are counted when the report is made.  The rows, one
    PayloadAudit per distinct payload in order of first appearance, are
    built (a sha256 digest and the sorted lpns of each) the first time
    ``payloads`` or ``as_dict()`` is read, and kept; until then the
    history is held as two columns, each item's payload and its lpn,
    and no payload has a set of its own.  The report owns those columns,
    so later changes to the history leave it as it was."""

    def __init__(self, written: list[bytes], lpns: list[int | None],
                 distinct: dict[bytes, int], copies: list[int]):
        # written, lpns: each history item's payload and lpn (None for a
        # bare payload); distinct: keyed by the distinct payloads in
        # order of first appearance; copies: the live, stale and retired
        # copies of each in turn.
        self._written = written
        self._lpns = lpns
        self._distinct = distinct
        self._copies = copies
        stale, retired = copies[1::3], copies[2::3]
        self.live_copies = sum(copies[0::3])
        self.stale_copies = sum(stale)
        self.retired_copies = sum(retired)
        self.recoverable_bytes = sum(map(mul, map(add, stale, retired),
                                         map(len, distinct)))

    @cached_property
    def payloads(self) -> list[PayloadAudit]:
        lpn_sets = {payload: set() for payload in self._distinct}
        for payload, lpn in zip(self._written, self._lpns):
            if lpn is not None:
                lpn_sets[payload].add(lpn)
        copies = self._copies
        return [PayloadAudit(hashlib.sha256(payload).hexdigest(),
                             sorted(lpns), *copies[i:i + 3])
                for i, (payload, lpns) in zip(count(0, 3), lpn_sets.items())]

    def as_dict(self) -> dict:
        return {
            "payloads": [p.as_dict() for p in self.payloads],
            "live_copies": self.live_copies,
            "stale_copies": self.stale_copies,
            "retired_copies": self.retired_copies,
            "recoverable_bytes": self.recoverable_bytes,
        }


def remanence_audit(dump: ChipDump, history) -> RemanenceReport:
    """Count the physical copies of every historical payload.

    ``history`` is the experiment's write log: (lpn, payload) pairs or
    bare payloads.  Recoverable bytes counts stale and retired copies —
    data the host can no longer address but a chip-level dump still
    yields.  The cost is one pass over the history, which copies each
    item's payload and lpn into two lists, and one over the pages of
    the blocks that hold a payload list and of the retired blocks; no
    payload is digested, and no payload's lpn set is built, until a row
    is read."""
    written: list[bytes] = []
    lpns: list[int | None] = []
    keep, keep_lpn = written.append, lpns.append
    for item in history:
        if isinstance(item, (bytes, bytearray)):
            keep(bytes(item))
            keep_lpn(None)
        else:
            keep(bytes(item[1]))
            keep_lpn(item[0])
    # payload -> 4 * rank, ranked in order of first appearance.  The
    # update only replaces values, so iterating the keys stays valid.
    base = dict.fromkeys(written)
    base.update(zip(base, count(0, 4)))

    # One pass tallies each page in slot 4 * rank + tag: tag codes 1-3
    # are the live, stale and retired copies, and the FREE slot of each
    # rank is dropped, so a FREE page counts for nothing even when the
    # erased pattern is in the history, while a retired page frozen
    # while free is a retired copy of it.  Pages of no history payload
    # fill the four slots past the last rank.  A block with no payload
    # list is all FREE unless it is retired, so only the blocks with a
    # list and the retired blocks are read.
    ppb = dump.geometry.pages_per_block
    erased, tag = dump.geometry.erased_block, dump.tag
    read = [(start, erased if block is None else block)
            for start, block in zip(count(0, ppb), dump.payload)
            if block is not None or tag[start] == _RETIRED]
    pages = chain.from_iterable(block for _, block in read)
    tags = chain.from_iterable(tag[start:start + ppb] for start, _ in read)
    end = 4 * len(base)
    copies = [0] * (end + 4)
    for slot in map(add, map(base.get, pages, repeat(end)), tags):
        copies[slot] += 1
    del copies[end:]
    del copies[::4]
    return RemanenceReport(written, lpns, base, copies)


# -- canned experiments -------------------------------------------------


@dataclass
class CycleStats:
    iteration: int
    recoverable_bytes: int
    copy_count: int
    byte_identical_fraction: float

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "recoverable_bytes": self.recoverable_bytes,
            "copy_count": self.copy_count,
            "byte_identical_fraction": self.byte_identical_fraction,
        }


@dataclass
class CycleExperimentResult:
    iterations: list[CycleStats]
    final_audit: RemanenceReport
    ended_early: bool = False


def run_cycle_experiment(state: FtlState, payloads: list[bytes],
                         iterations: int,
                         force_gc: bool = False) -> CycleExperimentResult:
    """Delete files, recover them onto the same device, delete again.

    Each iteration copies every payload still present anywhere in the
    dump back as a fresh write (the recovery), snapshots statistics,
    then trims everything again.  Every recover leaves one more stale
    copy behind, which is exactly the multiplication the remanence
    audit is built to show.  Runs end early if the device fills.
    """
    if len(payloads) > state.geometry.logical_pages:
        raise FlashRangeError("payload set does not fit the device")
    history = [(i, bytes(p)) for i, p in enumerate(payloads)]
    for lpn, payload in history:
        state.write(lpn, payload)
    for lpn, _ in history:
        state.trim(lpn)

    stats: list[CycleStats] = []
    ended_early = False
    for it in range(1, iterations + 1):
        if force_gc:
            state.garbage_collect()
        present = state.forensic_dump().held("valid", "stale", "retired")
        recovered = [lpn for lpn, p in history if p in present]
        try:
            for lpn in recovered:
                state.write(lpn, history[lpn][1])
        except (DeviceFull, ReadOnlyDevice):
            ended_early = True
        audit = remanence_audit(state.forensic_dump(), history)
        stats.append(CycleStats(
            iteration=it,
            recoverable_bytes=audit.recoverable_bytes,
            copy_count=(audit.live_copies + audit.stale_copies
                        + audit.retired_copies),
            byte_identical_fraction=len(recovered) / len(history),
        ))
        for lpn, _ in history:
            state.trim(lpn)
        if ended_early:
            break
    return CycleExperimentResult(
        iterations=stats,
        final_audit=remanence_audit(state.forensic_dump(), history),
        ended_early=ended_early,
    )


def _pattern_payload(n: int, page_size: int) -> bytes:
    return (struct.pack("<Q", n) * ((page_size + 7) // 8))[:page_size]


def run_retirement_experiment(state: FtlState, max_operations: int = 100_000):
    """Churn writes until a block retires (or the device gives up).

    Returns the number of writes issued.  Deterministic: payloads are
    derived from the operation counter."""
    ops = 0
    lpn = 0
    logical = state.geometry.logical_pages
    while state.retired_count == 0 and ops < max_operations:
        try:
            state.write(lpn, _pattern_payload(ops, state.geometry.page_size))
        except (DeviceFull, ReadOnlyDevice):
            break
        ops += 1
        lpn = (lpn + 1) % max(1, logical // 4)  # hammer a quarter of the space
    return ops


def random_operation(state: FtlState, rng) -> str:
    """One random host operation; full/read-only errors are swallowed
    so long random sequences can run to completion."""
    logical = state.geometry.logical_pages
    roll = rng.random()
    try:
        if roll < 0.60:
            state.write(rng.randrange(logical),
                        rng.randbytes(state.geometry.page_size))
            return "write"
        if roll < 0.85:
            state.trim(rng.randrange(logical))
            return "trim"
        if roll < 0.95:
            state.read(rng.randrange(logical))
            return "read"
        state.garbage_collect()
        return "gc"
    except (DeviceFull, ReadOnlyDevice):
        return "skipped"


def apply_random_operations(state: FtlState, count: int, rng) -> dict[str, int]:
    tally: dict[str, int] = {}
    for _ in range(count):
        op = random_operation(state, rng)
        tally[op] = tally.get(op, 0) + 1
    return tally
