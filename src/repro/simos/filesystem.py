"""Simulated filesystem: volumes, extents, fragmentation, change journal.

Provides exactly the substrate the paper's two low-importance applications
need:

* the **disk defragmenter** (section 8) examines file layouts and
  "rearranges the blocks of one or more files to improve their physical
  locality" — so files here are lists of *extents* (contiguous block runs),
  volumes track free space, and a relocation plan can be computed and
  committed;
* the **SIS Groveler** (section 8) "scans the file system change journal, a
  log that records all changes to the contents of the file system", reads
  file contents, computes signatures, and merges duplicates — so volumes
  keep a USN-style change journal and files carry a content identity that
  duplicate files share.

A volume occupies a block range of one simulated disk; filesystem metadata
operations are free (they would be cached in RAM), while data I/O costs are
paid by the *applications*, which turn the plans produced here into
:class:`~repro.simos.effects.DiskRead`/:class:`DiskWrite` effects.  This
split keeps policy (what to read/write) in the filesystem and timing in the
disk model.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import compress, count, islice
from typing import Iterator

from repro.simos.engine import SimulationError

__all__ = [
    "Extent",
    "SimFile",
    "ChangeRecord",
    "Volume",
    "populate_volume",
]

#: Free-list index block size: a block of address-ordered free runs splits
#: in two when it grows past ``_MAX_RUNS`` runs, and one that shrinks to
#: ``_BLOCK // 2`` runs merges with a neighbour when the two fit in
#: ``_BLOCK`` runs.
_BLOCK = 32
_MAX_RUNS = 2 * _BLOCK


def _grow(lengths: list[int], old: int, new: int) -> None:
    """Replace one ``old`` with a larger ``new`` in the sorted ``lengths``.

    A grown run often keeps its rank, and then one store does what a delete
    and an insort would.  :meth:`Volume.free` inlines the same steps.
    """
    if lengths[-1] == old:
        lengths[-1] = new
        return
    i = bisect_left(lengths, old)
    if lengths[i + 1] >= new:
        lengths[i] = new
    else:
        del lengths[i]
        insort(lengths, new)


@dataclass(frozen=True, slots=True)
class Extent:
    """A contiguous run of volume blocks."""

    start: int
    count: int

    @property
    def end(self) -> int:
        """One past the last block."""
        return self.start + self.count


@dataclass(slots=True)
class SimFile:
    """One file: a named sequence of extents with a content identity."""

    file_id: int
    path: str
    size: int
    extents: list[Extent]
    #: Files with equal ``content_id`` are byte-identical (what the
    #: Groveler's signature ultimately establishes).
    content_id: int
    mtime: float
    #: Set when the Groveler has merged this file into a common-store file.
    sis_link: int | None = None

    @property
    def blocks(self) -> int:
        """Number of blocks the file occupies."""
        return sum(e.count for e in self.extents)

    @property
    def fragments(self) -> int:
        """Number of extents (1 = fully contiguous)."""
        return len(self.extents)


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One entry of the USN-style change journal."""

    usn: int
    file_id: int
    reason: str  # "create" | "modify" | "delete" | "relocate" | "merge"
    when: float


class Volume:
    """A filesystem volume over a block range of one disk."""

    __slots__ = (
        "name", "disk", "start_block", "total_blocks", "block_size", "_files",
        "_by_path", "_blocks", "_maxes", "_firsts", "_sizes", "_free_total",
        "_journal", "_next_file_id", "_next_usn",
    )

    def __init__(
        self,
        name: str,
        disk: str,
        total_blocks: int,
        block_size: int = 4096,
        start_block: int = 0,
    ) -> None:
        if total_blocks <= 0:
            raise SimulationError(f"volume needs blocks, got {total_blocks}")
        self.name = name
        #: Name of the backing disk (as registered with the kernel).
        self.disk = disk
        self.block_size = block_size
        self.total_blocks = total_blocks
        self.start_block = start_block
        # The free list, indexed in blocks of address-ordered runs.  A block
        # is [starts, counts, lengths]: parallel start/count lists and its
        # run lengths sorted; ``_maxes`` and ``_firsts`` hold each block's
        # largest run and first start.  ``_sizes`` is the sorted multiset of
        # every run length and ``_free_total`` their sum.  Blocks are never
        # empty and hold at most _MAX_RUNS runs.  A lone block uses
        # ``_sizes`` as its lengths, so a short free list keeps one sorted
        # multiset, as a flat list would.
        self._sizes: list[int] = [total_blocks]
        self._blocks: list[list[list[int]]] = [[[0], [total_blocks], self._sizes]]
        self._maxes: list[int] = [total_blocks]
        self._firsts: list[int] = [0]
        self._free_total = total_blocks
        self._files: dict[int, SimFile] = {}
        self._by_path: dict[str, int] = {}
        self._next_file_id = 1
        self._next_usn = 1
        self._journal: list[ChangeRecord] = []

    # -- bookkeeping ------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Unallocated blocks."""
        return self._free_total

    @property
    def used_blocks(self) -> int:
        """Allocated blocks."""
        return self.total_blocks - self.free_blocks

    @property
    def file_count(self) -> int:
        """Number of live files."""
        return len(self._files)

    def files(self) -> Iterator[SimFile]:
        """Iterate live files in file-id order."""
        for file_id in sorted(self._files):
            yield self._files[file_id]

    def file(self, file_id: int) -> SimFile:
        """Look up a file by id."""
        try:
            return self._files[file_id]
        except KeyError:
            raise SimulationError(f"no file id {file_id} on {self.name}") from None

    def lookup(self, path: str) -> SimFile:
        """Look up a file by path."""
        try:
            return self._files[self._by_path[path]]
        except KeyError:
            raise SimulationError(f"no file {path!r} on {self.name}") from None

    def mean_fragments_per_file(self) -> float:
        """Average extent count across files (1.0 = perfectly defragmented)."""
        if not self._files:
            return 0.0
        return sum(f.fragments for f in self._files.values()) / len(self._files)

    def to_disk_block(self, volume_block: int) -> int:
        """Translate a volume-relative block to a disk block number."""
        return self.start_block + volume_block

    # -- journal -------------------------------------------------------------------
    @property
    def last_usn(self) -> int:
        """USN of the most recent journal record (0 when empty)."""
        return self._next_usn - 1

    def journal_since(self, usn: int) -> list[ChangeRecord]:
        """Records with USN strictly greater than ``usn``."""
        # The journal is append-only and USNs are dense, so slice directly.
        if usn >= self.last_usn:
            return []
        return self._journal[usn:]

    def _log(self, file_id: int, reason: str, when: float) -> None:
        self._journal.append(ChangeRecord(self._next_usn, file_id, reason, when))
        self._next_usn += 1

    # -- allocation --------------------------------------------------------------------
    def allocate(self, blocks: int, fragments: int = 1, spread_seed: int | None = None) -> list[Extent]:
        """Allocate ``blocks``, optionally deliberately split into fragments.

        ``fragments > 1`` scatters the allocation across the free list to
        build aged, fragmented layouts for experiments (cf. Smith &
        Seltzer's file-system aging, the paper's citation 24).
        """
        if blocks <= 0:
            raise SimulationError(f"allocation must be positive, got {blocks}")
        if blocks > self.free_blocks:
            raise SimulationError(
                f"volume {self.name} full: need {blocks}, have {self.free_blocks}"
            )
        fragments = max(1, min(fragments, blocks))
        piece_sizes = self._split_sizes(blocks, fragments)
        rng = random.Random(spread_seed) if spread_seed is not None else None
        out: list[Extent] = []
        try:
            for size in piece_sizes:
                out.append(self._allocate_piece(size, rng))
        except SimulationError:
            self.free(out)  # All or nothing: return the pieces already taken.
            raise
        return out

    def _split_sizes(self, blocks: int, fragments: int) -> list[int]:
        base = blocks // fragments
        sizes = [base] * fragments
        for i in range(blocks - base * fragments):
            sizes[i] += 1
        return [s for s in sizes if s > 0]

    def _allocate_piece(self, size: int, rng: random.Random | None) -> Extent:
        sizes = self._sizes
        if not sizes or sizes[-1] < size:
            raise SimulationError(
                f"volume {self.name}: no contiguous run of {size} blocks "
                f"(largest free: {self.largest_free_extent()}); "
                "allocate with more fragments"
            )
        # First-fit for determinism; a seeded rng picks a random fit instead,
        # which is how fragmented (aged) layouts are manufactured.  The seeded
        # pick must be the k-th fit in address order, k drawn as
        # ``rng.choice`` over the list of all fits would draw it, or every
        # aged layout changes: ``randrange(n)`` and ``choice`` of n items
        # both draw ``_randbelow(n)``.  Fit scans run in C; a lone block
        # skips the block search.
        blocks = self._blocks
        b = 0
        if rng is None:
            if len(blocks) > 1:
                b = next(compress(count(), map(size.__le__, self._maxes)))
            starts, counts, lengths = blocks[b]
            i = 0 if counts[0] >= size else next(compress(count(), map(size.__le__, counts)))
        else:
            n = len(sizes) - bisect_left(sizes, size)
            k = rng.randrange(n)
            # Find the k-th fit's block from each block's fit count, walking
            # from whichever end is nearer.
            if len(blocks) > 1:
                if k + k < n:
                    for _, _, lengths in blocks:
                        fits = len(lengths) - bisect_left(lengths, size)
                        if k < fits:
                            break
                        k -= fits
                        b += 1
                else:
                    k = n - 1 - k
                    b = len(blocks) - 1
                    for _, _, lengths in reversed(blocks):
                        fits = len(lengths) - bisect_left(lengths, size)
                        if k < fits:
                            k = fits - 1 - k
                            break
                        k -= fits
                        b -= 1
            starts, counts, lengths = blocks[b]
            i = next(islice(compress(count(), map(size.__le__, counts)), k, None))
        start, run = starts[i], counts[i]
        self._free_total -= size
        if run > size:
            starts[i] = start + size
            counts[i] = rest = run - size
            # The shrunk run often keeps its rank: then a store does what a
            # delete and an insort would.
            j = bisect_left(sizes, run)
            if j and sizes[j - 1] > rest:
                del sizes[j]
                insort(sizes, rest)
            else:
                sizes[j] = rest
            if lengths is not sizes:
                j = bisect_left(lengths, run)
                if j and lengths[j - 1] > rest:
                    del lengths[j]
                    insort(lengths, rest)
                else:
                    lengths[j] = rest
            if i == 0:
                self._firsts[b] = start + size
        else:
            del sizes[bisect_left(sizes, run)]
            if len(starts) == 1:
                self._drop_block(b)
                return Extent(start, size)
            del starts[i]
            del counts[i]
            if lengths is not sizes:
                del lengths[bisect_left(lengths, run)]
            if i == 0:
                self._firsts[b] = starts[0]
        self._maxes[b] = lengths[-1]
        if run == size and len(starts) <= _BLOCK // 2 and lengths is not sizes:
            self._rebalance(b)
        return Extent(start, size)

    def free(self, extents: list[Extent]) -> None:
        """Return extents to the free pool (coalescing neighbours)."""
        blocks, maxes, firsts, sizes = self._blocks, self._maxes, self._firsts, self._sizes
        for extent in extents:
            start, run = extent.start, extent.count
            self._free_total += run
            # The run belongs to the last block starting before it, so its
            # left neighbour is always in that block.
            b = bisect_right(firsts, start) - 1
            if b < 0:
                if not blocks:  # The volume was full.
                    blocks.append([[start], [run], sizes])
                    maxes.append(run)
                    firsts.append(start)
                    sizes.append(run)
                    continue
                b = 0
            starts, counts, lengths = blocks[b]
            i = bisect_left(starts, start)
            end = start + run
            if starts[-1] > start:
                right = starts[i] == end
            elif b + 1 < len(firsts) and firsts[b + 1] == end:
                self._free_at_edge(b, start, run)
                continue
            else:
                right = False
            # Coalesce with the left neighbour, the right one, or both, in
            # place; a lone run is inserted.
            if i and starts[i - 1] + counts[i - 1] == start:
                i -= 1
                if right:
                    gone = counts[i + 1]
                    run += gone
                    del starts[i + 1]
                    del counts[i + 1]
                    del sizes[bisect_left(sizes, gone)]
                    if lengths is not sizes:
                        del lengths[bisect_left(lengths, gone)]
            elif right:
                starts[i] = start
                if i == 0:
                    firsts[b] = start
            else:
                starts.insert(i, start)
                counts.insert(i, run)
                if i == 0:
                    firsts[b] = start
                insort(sizes, run)
                if len(starts) > _MAX_RUNS:
                    self._split_block(b)
                    continue
                if lengths is not sizes:
                    insort(lengths, run)
                maxes[b] = lengths[-1]
                continue
            old = counts[i]
            counts[i] = run = run + old
            # The grown run often keeps its rank (in the defragmenter's
            # relocations it is nearly always the largest): then a store
            # does what a delete and an insort would.
            if sizes[-1] == old:
                sizes[-1] = run
            else:
                j = bisect_left(sizes, old)
                if sizes[j + 1] >= run:
                    sizes[j] = run
                else:
                    del sizes[j]
                    insort(sizes, run)
            if lengths is not sizes:
                if lengths[-1] == old:
                    lengths[-1] = run
                else:
                    j = bisect_left(lengths, old)
                    if lengths[j + 1] >= run:
                        lengths[j] = run
                    else:
                        del lengths[j]
                        insort(lengths, run)
            maxes[b] = lengths[-1]
            if right and len(starts) <= _BLOCK // 2 and lengths is not sizes:
                self._rebalance(b)

    def _free_at_edge(self, b: int, start: int, run: int) -> None:
        """Free a run whose right neighbour is the first run of block b + 1.

        There are two blocks at least, so neither uses ``_sizes`` as its
        lengths.
        """
        sizes, maxes, firsts = self._sizes, self._maxes, self._firsts
        starts, counts, lengths = self._blocks[b]
        after_starts, after_counts, after_lengths = self._blocks[b + 1]
        right = after_counts[0]
        if starts[-1] + counts[-1] != start:
            # Only the right neighbour: it grows leftwards.
            after_starts[0] = firsts[b + 1] = start
            after_counts[0] = run + right
            _grow(sizes, right, run + right)
            _grow(after_lengths, right, run + right)
            maxes[b + 1] = after_lengths[-1]
            return
        # Both: block b's last run takes in the run and block b + 1's first
        # run, which leaves block b + 1 (and drops it, if it was its only).
        left = counts[-1]
        counts[-1] = left + run + right
        _grow(sizes, left, counts[-1])
        _grow(lengths, left, counts[-1])
        maxes[b] = lengths[-1]
        del sizes[bisect_left(sizes, right)]
        if len(after_starts) == 1:
            self._drop_block(b + 1)
            return
        del after_starts[0]
        del after_counts[0]
        del after_lengths[bisect_left(after_lengths, right)]
        firsts[b + 1] = after_starts[0]
        maxes[b + 1] = after_lengths[-1]
        if len(after_starts) <= _BLOCK // 2:
            self._rebalance(b + 1)

    def _split_block(self, b: int) -> None:
        starts, counts, _ = self._blocks[b]
        tail = [starts[_BLOCK:], counts[_BLOCK:], sorted(counts[_BLOCK:])]
        del starts[_BLOCK:]
        del counts[_BLOCK:]
        # A new list, never an in-place sort: a lone block's lengths are
        # ``_sizes``.
        self._blocks[b][2] = lengths = sorted(counts)
        self._maxes[b] = lengths[-1]
        self._blocks.insert(b + 1, tail)
        self._maxes.insert(b + 1, tail[2][-1])
        self._firsts.insert(b + 1, tail[0][0])

    def _rebalance(self, b: int) -> None:
        """Merge a shrunk block b with a neighbour when the two fit in
        ``_BLOCK`` runs, so a free list that shrinks keeps few blocks."""
        blocks = self._blocks
        runs = len(blocks[b][0])
        if b + 1 < len(blocks) and runs + len(blocks[b + 1][0]) <= _BLOCK:
            self._merge_next(b)
        elif b and len(blocks[b - 1][0]) + runs <= _BLOCK:
            self._merge_next(b - 1)

    def _merge_next(self, b: int) -> None:
        starts, counts, _ = self._blocks[b]
        after_starts, after_counts, _ = self._blocks[b + 1]
        starts += after_starts
        counts += after_counts
        self._drop_block(b + 1)
        if len(self._blocks) > 1:
            self._blocks[b][2] = sorted(counts)
        self._maxes[b] = self._blocks[b][2][-1]

    def _drop_block(self, b: int) -> None:
        del self._blocks[b]
        del self._maxes[b]
        del self._firsts[b]
        if len(self._blocks) == 1:
            self._blocks[0][2] = self._sizes

    def largest_free_extent(self) -> int:
        """Size in blocks of the largest contiguous free run."""
        return self._sizes[-1] if self._sizes else 0

    # -- file operations -----------------------------------------------------------------
    def create_file(
        self,
        path: str,
        size: int,
        when: float,
        content_id: int | None = None,
        fragments: int = 1,
        spread_seed: int | None = None,
    ) -> SimFile:
        """Create a file of ``size`` bytes; logs a journal record."""
        if path in self._by_path:
            raise SimulationError(f"file {path!r} already exists on {self.name}")
        blocks = max(1, -(-size // self.block_size))
        extents = self.allocate(blocks, fragments=fragments, spread_seed=spread_seed)
        file_id = self._next_file_id
        self._next_file_id += 1
        if content_id is None:
            content_id = file_id  # Unique content by default.
        f = SimFile(file_id, path, size, extents, content_id, when)
        self._files[file_id] = f
        self._by_path[path] = file_id
        self._log(file_id, "create", when)
        return f

    def modify_file(self, file_id: int, when: float, new_content_id: int | None = None) -> None:
        """Mark a file's contents changed; logs a journal record.

        Modifying a SIS-merged file breaks the link copy-on-write style:
        the file gets its own freshly allocated blocks again.
        """
        f = self.file(file_id)
        f.mtime = when
        if f.sis_link is not None:
            f.sis_link = None
            blocks = max(1, -(-f.size // self.block_size))
            f.extents = self.allocate(blocks, fragments=1)
        if new_content_id is not None:
            f.content_id = new_content_id
        self._log(file_id, "modify", when)

    def delete_file(self, file_id: int, when: float) -> None:
        """Delete a file, freeing its blocks; logs a journal record."""
        f = self.file(file_id)
        self.free(f.extents)
        del self._files[file_id]
        del self._by_path[f.path]
        self._log(file_id, "delete", when)

    def merge_duplicate(self, file_id: int, into_file_id: int, when: float) -> int:
        """SIS merge: replace a duplicate with a link to the common store.

        Frees the duplicate's blocks and records the link.  Returns the
        number of blocks reclaimed.  Both files must have equal content.
        """
        dup = self.file(file_id)
        keeper = self.file(into_file_id)
        if dup.content_id != keeper.content_id:
            raise SimulationError(
                f"files {file_id} and {into_file_id} are not duplicates"
            )
        if dup.sis_link is not None:
            return 0
        reclaimed = dup.blocks
        self.free(dup.extents)
        dup.extents = []
        dup.sis_link = into_file_id
        self._log(file_id, "merge", when)
        return reclaimed

    # -- I/O planning -------------------------------------------------------------------------
    def read_plan(self, file_id: int, chunk_bytes: int = 65536) -> list[tuple[int, int]]:
        """(disk block, nbytes) operations needed to read the whole file.

        One operation per contiguous chunk, capped at ``chunk_bytes`` — the
        shape of a real buffered read loop.  SIS links read through to the
        common-store file.
        """
        f = self.file(file_id)
        if f.sis_link is not None:
            return self.read_plan(f.sis_link, chunk_bytes)
        chunk_blocks = max(1, chunk_bytes // self.block_size)
        remaining_bytes = f.size
        ops: list[tuple[int, int]] = []
        for extent in f.extents:
            offset = 0
            while offset < extent.count and remaining_bytes > 0:
                run = min(chunk_blocks, extent.count - offset)
                nbytes = min(run * self.block_size, remaining_bytes)
                ops.append((self.to_disk_block(extent.start + offset), nbytes))
                remaining_bytes -= nbytes
                offset += run
        return ops

    def relocation_plan(
        self, file_id: int, chunk_bytes: int = 65536
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[Extent]] | None:
        """Defragmentation plan for one file.

        Returns ``(reads, writes, new_extents)`` — the read operations for
        the current layout, the write operations into a fresh contiguous
        allocation, and the new extents to commit afterwards with
        :meth:`commit_relocation`.  Returns ``None`` when the file is
        already contiguous or no contiguous free run is large enough.
        """
        f = self.file(file_id)
        if f.fragments <= 1 or f.sis_link is not None:
            return None
        blocks = f.blocks
        if self.largest_free_extent() < blocks:
            return None
        reads = self.read_plan(file_id, chunk_bytes)
        new_extents = self.allocate(blocks, fragments=1)
        chunk_blocks = max(1, chunk_bytes // self.block_size)
        writes: list[tuple[int, int]] = []
        target = new_extents[0]
        offset = 0
        remaining_bytes = f.size
        while offset < target.count and remaining_bytes > 0:
            run = min(chunk_blocks, target.count - offset)
            nbytes = min(run * self.block_size, remaining_bytes)
            writes.append((self.to_disk_block(target.start + offset), nbytes))
            remaining_bytes -= nbytes
            offset += run
        return reads, writes, new_extents

    def commit_relocation(self, file_id: int, new_extents: list[Extent], when: float) -> None:
        """Finish a relocation: free old extents, install the new layout."""
        f = self.file(file_id)
        self.free(f.extents)
        f.extents = new_extents
        self._log(file_id, "relocate", when)

    def abort_relocation(self, new_extents: list[Extent]) -> None:
        """Roll back a relocation plan whose I/O never completed."""
        self.free(new_extents)


def populate_volume(
    volume: Volume,
    rng: random.Random,
    file_count: int,
    when: float = 0.0,
    size_range: tuple[int, int] = (8 * 1024, 1024 * 1024),
    fragment_range: tuple[int, int] = (1, 12),
    duplicate_fraction: float = 0.0,
    path_prefix: str = "data",
    age: bool = True,
) -> list[SimFile]:
    """Fill a volume with an aged directory tree.

    ``duplicate_fraction`` of the files duplicate the content of an earlier
    file (the Groveler's prey); fragment counts are uniform over
    ``fragment_range`` (the defragmenter's prey).

    With ``age`` (the default), a same-sized filler file is created after
    each real file and all fillers are deleted at the end — the classic
    create/delete interleaving of file-system aging (cf. Smith & Seltzer,
    the paper's citation 24).  This spreads files uniformly over the
    occupied region, so access-time statistics are stationary across the
    directory tree: an application walking the files sees the same ideal
    progress rate at the start and the end of its pass, which is the
    property the paper's fixed workloads have.
    """
    files: list[SimFile] = []
    fillers: list[SimFile] = []
    for i in range(file_count):
        size = rng.randint(*size_range)
        fragments = rng.randint(*fragment_range)
        content_id: int | None = None
        if files and rng.random() < duplicate_fraction:
            content_id = rng.choice(files).content_id
        f = volume.create_file(
            f"{path_prefix}/dir{i % 16:02d}/file{i:05d}",
            size,
            when=when,
            content_id=content_id,
            fragments=fragments,
            spread_seed=rng.randrange(1 << 30),
        )
        files.append(f)
        if age:
            filler = volume.create_file(
                f"{path_prefix}/__filler{i:05d}",
                rng.randint(*size_range),
                when=when,
                fragments=1,
            )
            fillers.append(filler)
    for filler in fillers:
        volume.delete_file(filler.file_id, when)
    return files
