"""Filesystem: extents, allocation, journal, relocation, SIS merges."""

from __future__ import annotations

import bisect
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simos.engine import SimulationError
from repro.simos.filesystem import _BLOCK, Extent, Volume, populate_volume


def make_volume(blocks=10_000) -> Volume:
    return Volume("C", "C", total_blocks=blocks)


class TestAllocation:
    def test_create_file_accounts_blocks(self):
        vol = make_volume()
        f = vol.create_file("a", 10 * 4096, when=0.0)
        assert f.blocks == 10
        assert vol.used_blocks == 10
        assert vol.free_blocks == 10_000 - 10

    def test_delete_frees_blocks(self):
        vol = make_volume()
        f = vol.create_file("a", 10 * 4096, when=0.0)
        vol.delete_file(f.file_id, when=1.0)
        assert vol.free_blocks == 10_000
        assert vol.file_count == 0

    def test_free_extents_coalesce(self):
        vol = make_volume()
        files = [vol.create_file(f"f{i}", 4096, when=0.0) for i in range(5)]
        for f in files:
            vol.delete_file(f.file_id, when=1.0)
        assert vol.largest_free_extent() == 10_000

    def test_fragmented_allocation(self):
        vol = make_volume()
        f = vol.create_file("a", 100 * 4096, when=0.0, fragments=5, spread_seed=3)
        assert f.fragments == 5
        assert f.blocks == 100

    def test_full_volume_rejected(self):
        vol = make_volume(blocks=10)
        with pytest.raises(SimulationError, match="full"):
            vol.create_file("a", 11 * 4096, when=0.0)

    def test_duplicate_path_rejected(self):
        vol = make_volume()
        vol.create_file("a", 4096, when=0.0)
        with pytest.raises(SimulationError):
            vol.create_file("a", 4096, when=0.0)

    def test_no_contiguous_run(self):
        vol = make_volume(blocks=100)
        # Fragment the free space completely with alternating files.
        keep = []
        for i in range(50):
            keep.append(vol.create_file(f"k{i}", 4096, when=0.0))
            vol.create_file(f"d{i}", 4096, when=0.0)
        for f in keep:
            vol.delete_file(f.file_id, when=1.0)
        with pytest.raises(SimulationError, match="contiguous"):
            vol.allocate(2, fragments=1)

    def test_failed_allocation_returns_pieces_already_taken(self):
        vol = make_volume(blocks=100)
        x = vol.allocate(30)
        vol.allocate(5)
        z = vol.allocate(65)
        vol.free(x)
        vol.free([Extent(z[0].start, 5)])
        assert vol.free_blocks == 35
        # Pieces of 18 and 17: the 18 fits in the 30-block run, the 17 then
        # fits nowhere, and the 18 must go back.
        with pytest.raises(SimulationError, match="contiguous"):
            vol.allocate(35, fragments=2)
        assert vol.free_blocks == 35
        assert vol.largest_free_extent() == 30
        assert vol.allocate(30) == [Extent(0, 30)]


class TestJournal:
    def test_create_logs_record(self):
        vol = make_volume()
        f = vol.create_file("a", 4096, when=1.5)
        records = vol.journal_since(0)
        assert len(records) == 1
        assert records[0].reason == "create"
        assert records[0].file_id == f.file_id
        assert records[0].when == 1.5

    def test_journal_since_is_exclusive(self):
        vol = make_volume()
        vol.create_file("a", 4096, when=0.0)
        usn = vol.last_usn
        vol.create_file("b", 4096, when=1.0)
        records = vol.journal_since(usn)
        assert [r.reason for r in records] == ["create"]
        assert vol.journal_since(vol.last_usn) == []

    def test_modify_and_delete_logged(self):
        vol = make_volume()
        f = vol.create_file("a", 4096, when=0.0)
        vol.modify_file(f.file_id, when=1.0, new_content_id=99)
        vol.delete_file(f.file_id, when=2.0)
        reasons = [r.reason for r in vol.journal_since(0)]
        assert reasons == ["create", "modify", "delete"]

    def test_usns_strictly_increase(self):
        vol = make_volume()
        for i in range(10):
            vol.create_file(f"f{i}", 4096, when=0.0)
        usns = [r.usn for r in vol.journal_since(0)]
        assert usns == sorted(usns)
        assert len(set(usns)) == len(usns)


class TestReadPlan:
    def test_covers_whole_file(self):
        vol = make_volume()
        f = vol.create_file("a", 300_000, when=0.0, fragments=4, spread_seed=1)
        plan = vol.read_plan(f.file_id)
        assert sum(nbytes for _, nbytes in plan) == 300_000

    def test_chunk_cap(self):
        vol = make_volume()
        f = vol.create_file("a", 1_000_000, when=0.0)
        plan = vol.read_plan(f.file_id, chunk_bytes=65536)
        assert all(nbytes <= 65536 for _, nbytes in plan)

    def test_disk_block_offset_applied(self):
        vol = Volume("C", "C", total_blocks=100, start_block=5000)
        f = vol.create_file("a", 4096, when=0.0)
        plan = vol.read_plan(f.file_id)
        assert plan[0][0] >= 5000


class TestRelocation:
    def test_contiguous_file_needs_no_plan(self):
        vol = make_volume()
        f = vol.create_file("a", 40_960, when=0.0, fragments=1)
        assert vol.relocation_plan(f.file_id) is None

    def test_plan_and_commit_defragment(self):
        vol = make_volume()
        f = vol.create_file("a", 40 * 4096, when=0.0, fragments=4, spread_seed=7)
        plan = vol.relocation_plan(f.file_id)
        assert plan is not None
        reads, writes, new_extents = plan
        assert sum(n for _, n in reads) == f.size
        assert sum(n for _, n in writes) == f.size
        assert len(new_extents) == 1
        vol.commit_relocation(f.file_id, new_extents, when=1.0)
        assert vol.file(f.file_id).fragments == 1
        # Block accounting is conserved.
        assert vol.used_blocks == 40

    def test_abort_restores_free_space(self):
        vol = make_volume()
        f = vol.create_file("a", 40 * 4096, when=0.0, fragments=4, spread_seed=7)
        free_before = vol.free_blocks
        plan = vol.relocation_plan(f.file_id)
        assert plan is not None
        _, _, new_extents = plan
        vol.abort_relocation(new_extents)
        assert vol.free_blocks == free_before

    def test_relocation_logged(self):
        vol = make_volume()
        f = vol.create_file("a", 40 * 4096, when=0.0, fragments=4, spread_seed=7)
        _, _, new_extents = vol.relocation_plan(f.file_id)
        vol.commit_relocation(f.file_id, new_extents, when=2.0)
        assert vol.journal_since(0)[-1].reason == "relocate"


class TestSisMerge:
    def test_merge_reclaims_blocks(self):
        vol = make_volume()
        a = vol.create_file("a", 10 * 4096, when=0.0, content_id=7)
        b = vol.create_file("b", 10 * 4096, when=0.0, content_id=7)
        reclaimed = vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        assert reclaimed == 10
        assert vol.used_blocks == 10
        assert vol.file(b.file_id).sis_link == a.file_id

    def test_merge_requires_equal_content(self):
        vol = make_volume()
        a = vol.create_file("a", 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4096, when=0.0, content_id=2)
        with pytest.raises(SimulationError):
            vol.merge_duplicate(b.file_id, a.file_id, when=1.0)

    def test_double_merge_is_noop(self):
        vol = make_volume()
        a = vol.create_file("a", 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        assert vol.merge_duplicate(b.file_id, a.file_id, when=2.0) == 0

    def test_link_reads_through_to_keeper(self):
        vol = make_volume()
        a = vol.create_file("a", 8 * 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 8 * 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        assert vol.read_plan(b.file_id) == vol.read_plan(a.file_id)

    def test_modify_clears_link(self):
        vol = make_volume()
        a = vol.create_file("a", 4096, when=0.0, content_id=1)
        b = vol.create_file("b", 4096, when=0.0, content_id=1)
        vol.merge_duplicate(b.file_id, a.file_id, when=1.0)
        vol.modify_file(b.file_id, when=2.0, new_content_id=5)
        assert vol.file(b.file_id).sis_link is None


class TestPopulate:
    def test_populate_respects_parameters(self):
        vol = Volume("C", "C", total_blocks=200_000)
        rng = random.Random(1)
        files = populate_volume(
            vol, rng, file_count=100, duplicate_fraction=0.5
        )
        assert len(files) == 100
        assert vol.file_count == 100  # fillers deleted
        content_ids = [f.content_id for f in files]
        assert len(set(content_ids)) < 100  # duplicates exist

    def test_aging_spreads_files(self):
        """Aged layout: files are interleaved with holes, not densely packed."""
        vol = Volume("C", "C", total_blocks=200_000)
        rng = random.Random(2)
        files = populate_volume(vol, rng, file_count=100)
        first_starts = [f.extents[0].start for f in files]
        span = max(first_starts) - min(first_starts)
        used = sum(f.blocks for f in files)
        # The deleted fillers leave the live files spread over a region
        # substantially larger than their own footprint.
        assert span > 1.5 * used


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 60))
    def test_block_conservation_under_churn(self, seed, operations):
        """used + free == total after any create/delete/relocate sequence."""
        vol = make_volume(blocks=5_000)
        rng = random.Random(seed)
        live: list[int] = []
        for i in range(operations):
            action = rng.random()
            if action < 0.5 or not live:
                blocks = rng.randint(1, 40)
                if blocks <= vol.free_blocks:
                    try:
                        f = vol.create_file(
                            f"f{i}", blocks * 4096, when=float(i),
                            fragments=rng.randint(1, 4),
                            spread_seed=rng.randrange(1 << 20),
                        )
                        live.append(f.file_id)
                    except SimulationError:
                        pass  # fragmentation can defeat allocation
            elif action < 0.8:
                fid = live.pop(rng.randrange(len(live)))
                vol.delete_file(fid, when=float(i))
            else:
                fid = rng.choice(live)
                plan = vol.relocation_plan(fid)
                if plan is not None:
                    vol.commit_relocation(fid, plan[2], when=float(i))
            assert vol.used_blocks + vol.free_blocks == 5_000
            total_file_blocks = sum(vol.file(fid).blocks for fid in live)
            assert total_file_blocks == vol.used_blocks

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_extents_never_overlap(self, seed):
        vol = make_volume(blocks=3_000)
        rng = random.Random(seed)
        for i in range(20):
            try:
                vol.create_file(
                    f"f{i}", rng.randint(1, 50) * 4096, when=0.0,
                    fragments=rng.randint(1, 5),
                    spread_seed=rng.randrange(1 << 20),
                )
            except SimulationError:
                break
        claimed: set[int] = set()
        for f in vol.files():
            for extent in f.extents:
                blocks = set(range(extent.start, extent.end))
                assert not (blocks & claimed)
                claimed |= blocks


class ListAllocator:
    """Reference twin: the plain list-of-``Extent`` free list, rescanned."""

    def __init__(self, total_blocks: int) -> None:
        self.runs = [Extent(0, total_blocks)]
        #: Per piece of the last allocation: the start of the run it was cut
        #: from, that run's rank among the fits, and the number of fits.
        self.picks: list[tuple[int, int, int]] = []

    def allocate(self, sizes: list[int], spread_seed: int | None) -> list[Extent]:
        if sum(sizes) > sum(e.count for e in self.runs):
            raise SimulationError("full")
        rng = random.Random(spread_seed) if spread_seed is not None else None
        saved, out = list(self.runs), []
        self.picks = []
        for size in sizes:
            candidates = [i for i, e in enumerate(self.runs) if e.count >= size]
            if not candidates:
                self.runs = saved
                raise SimulationError("no contiguous run")
            i = rng.choice(candidates) if rng is not None else candidates[0]
            k = candidates.index(i)
            chunk = self.runs[i]
            self.picks.append((chunk.start, k, len(candidates)))
            out.append(Extent(chunk.start, size))
            if chunk.count > size:
                self.runs[i] = Extent(chunk.start + size, chunk.count - size)
            else:
                del self.runs[i]
        return out

    def free(self, extents: list[Extent]) -> None:
        for extent in extents:
            i = bisect.bisect_left([e.start for e in self.runs], extent.start)
            if i < len(self.runs) and extent.end == self.runs[i].start:
                extent = Extent(extent.start, extent.count + self.runs.pop(i).count)
            if i > 0 and self.runs[i - 1].end == extent.start:
                i -= 1
                left = self.runs.pop(i)
                extent = Extent(left.start, left.count + extent.count)
            self.runs.insert(i, extent)


def _coalesce_kind(before: list[Extent], freed: Extent) -> str:
    left = any(e.end == freed.start for e in before)
    right = any(e.start == freed.end for e in before)
    return {(False, False): "alone", (True, False): "left",
            (False, True): "right", (True, True): "both"}[left, right]


def free_runs(vol: Volume) -> list[tuple[int, int]]:
    """The volume's free runs in address order, flattened across blocks."""
    return [run for starts, counts, _ in vol._blocks for run in zip(starts, counts)]


def check_index(vol: Volume) -> None:
    """Assert the blocked free-list index's structural invariants."""
    assert len(vol._blocks) == len(vol._maxes) == len(vol._firsts)
    for (starts, counts, lengths), biggest, first in zip(vol._blocks, vol._maxes, vol._firsts):
        assert 0 < len(starts) == len(counts) <= 2 * _BLOCK
        assert lengths == sorted(counts)
        assert biggest == lengths[-1]
        assert first == starts[0]
        # A lone block shares the global multiset; blocks of a longer list
        # each own theirs.
        assert (lengths is vol._sizes) == (len(vol._blocks) == 1)
    runs = free_runs(vol)
    assert all(s + c < t for (s, c), (t, _) in zip(runs, runs[1:]))  # Ordered, coalesced.
    assert vol._sizes == sorted(c for _, c in runs)


def drive_against_twin(seed: int, steps: int, total_blocks: int = 600) -> set[str]:
    """Run one seeded script on a Volume and its twin; return what it hit."""
    vol = Volume("C", "C", total_blocks=total_blocks)
    twin = ListAllocator(total_blocks)
    rng = random.Random(seed)
    live: list[int] = []
    seen: set[str] = set()

    def freed(extents: list[Extent]) -> None:
        # The volume is still as before the free, so its blocks are current
        # for the first extent.
        if extents and extents[0].end in vol._firsts[1:]:
            seen.add("free-block-edge-" + _coalesce_kind(twin.runs, extents[0]))
        for extent in extents:
            seen.add("free-" + _coalesce_kind(twin.runs, extent))
            twin.free([extent])

    def crossing(size: int, pick: tuple[int, int, int]) -> str | None:
        """How a seeded pick's walk crossed blocks that had fits, if it did."""
        start, k, n = pick
        b = bisect.bisect_right(vol._firsts, start) - 1
        if k + k < n:  # The walk runs forwards.
            skipped, direction = vol._blocks[:b], "forward"
        else:
            skipped, direction = vol._blocks[b + 1:], "backward"
        if any(c >= size for _, counts, _ in skipped for c in counts):
            return "spread-cross-" + direction
        return None

    i = 0
    while i < steps or live:
        blocks_before = len(vol._firsts)
        # After ``steps`` the script drains: it deletes every live file.
        action = rng.random() if i < steps else 0.5
        if action < 0.45 or not live:
            blocks = rng.randint(1, 60)
            fragments = rng.randint(1, 4)
            spread = rng.randrange(1 << 20) if rng.random() < 0.6 else None
            sizes = vol._split_sizes(blocks, max(1, min(fragments, blocks)))
            try:
                expected = twin.allocate(sizes, spread)
            except SimulationError:
                expected = None
            if expected and spread is not None:
                seen.add(crossing(sizes[0], twin.picks[0]) or "spread-in-block")
            try:
                f = vol.create_file(
                    f"f{i}", blocks * 4096, when=float(i),
                    fragments=fragments, spread_seed=spread,
                )
            except SimulationError:
                assert expected is None
                seen.add("failed")
            else:
                assert f.extents == expected
                live.append(f.file_id)
                seen.add("first-fit" if spread is None else "spread")
        elif action < 0.7:
            f = vol.file(live.pop(rng.randrange(len(live))))
            freed(f.extents)
            vol.delete_file(f.file_id, when=float(i))
            seen.add("delete")
        else:
            f = vol.file(rng.choice(live))
            plan = vol.relocation_plan(f.file_id)
            if plan is not None:
                new_extents = plan[2]
                assert new_extents == twin.allocate([f.blocks], None)
                if action < 0.85:
                    freed(f.extents)
                    vol.commit_relocation(f.file_id, new_extents, when=float(i))
                    seen.add("relocate")
                else:
                    freed(new_extents)
                    vol.abort_relocation(new_extents)
                    seen.add("abort")
        if len(vol._firsts) > blocks_before:
            seen.add("block-split")
        if len(vol._firsts) > 2:
            seen.add("several-blocks")
        check_index(vol)
        assert free_runs(vol) == [(e.start, e.count) for e in twin.runs]
        assert vol.free_blocks == sum(e.count for e in twin.runs)
        assert vol.largest_free_extent() == max((e.count for e in twin.runs), default=0)
        i += 1
    assert free_runs(vol) == [(0, total_blocks)]
    return seen


class TestFreeListIndex:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1 << 30))
    def test_matches_list_allocator(self, seed):
        drive_against_twin(seed, steps=150)

    def test_script_covers_every_path(self):
        seen = drive_against_twin(7, steps=400)
        assert seen >= {
            "first-fit", "spread", "failed", "delete", "relocate", "abort",
            "free-alone", "free-left", "free-right", "free-both",
        }

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 1 << 30))
    def test_matches_list_allocator_across_blocks(self, seed):
        drive_against_twin(seed, steps=1500, total_blocks=5000)

    def test_script_covers_block_paths(self):
        with mock.patch.object(
            Volume, "_merge_next", autospec=True, side_effect=Volume._merge_next
        ) as merges:
            seen = drive_against_twin(11, steps=1500, total_blocks=5000)
        assert seen >= {
            "several-blocks", "spread-cross-forward", "spread-cross-backward",
            "free-block-edge-both", "free-block-edge-right", "block-split",
        }
        assert merges.called  # A shrunk block merged into a neighbour.

    def test_a_block_whose_runs_are_all_taken_is_dropped(self):
        vol = Volume("C", "C", total_blocks=20_000)
        holes = []
        for i in range(130):
            # Holes 32..63, the only ones of 20 blocks, make up block 1.
            size = 20 if 32 <= i < 64 else 10
            holes.append(vol.create_file(f"h{i}", size * 4096, when=0.0))
            vol.create_file(f"k{i}", 10 * 4096, when=0.0)
        for f in holes:
            vol.delete_file(f.file_id, when=1.0)
        assert [len(starts) for starts, _, _ in vol._blocks] == [32, 32, 32, 35]
        for i in range(32):
            vol.create_file(f"g{i}", 20 * 4096, when=2.0)  # First fit: block 1.
            check_index(vol)
        # Its neighbours are too full to merge with, so block 1 empties.
        assert [len(starts) for starts, _, _ in vol._blocks] == [32, 32, 35]

    def test_filling_the_volume_empties_the_index(self):
        vol = Volume("C", "C", total_blocks=5000)
        files = [vol.create_file(f"f{i}", 10 * 4096, when=0.0) for i in range(200)]
        for f in files[::2]:
            vol.delete_file(f.file_id, when=1.0)
        assert len(vol._blocks) > 1  # 100 holes and the tail.
        check_index(vol)
        fillers = [vol.create_file(f"g{i}", 10 * 4096, when=2.0) for i in range(100)]
        check_index(vol)
        assert free_runs(vol) == [(2000, 3000)]
        tail = vol.create_file("tail", 3000 * 4096, when=3.0)
        check_index(vol)
        assert vol._blocks == [] and vol.largest_free_extent() == 0
        for f in [tail, *fillers, *files[1::2]]:
            vol.delete_file(f.file_id, when=4.0)
            check_index(vol)
        assert free_runs(vol) == [(0, 5000)]
