"""Tests for the page pool and block tables."""

import numpy as np
import pytest

from repro.kvcache import BlockTable, PagePool, PagePoolExhausted


class TestPagePool:
    def test_allocate_and_free(self):
        pool = PagePool(num_pages=4, page_size=16)
        assert pool.num_free_pages == 4
        assert pool.capacity_tokens == 64
        a = pool.allocate_page()
        b = pool.allocate_page()
        assert a != b
        assert pool.num_allocated_pages == 2
        pool.free_page(a)
        assert pool.num_free_pages == 3
        assert pool.free_tokens == 48

    def test_exhaustion(self):
        pool = PagePool(num_pages=1, page_size=8)
        pool.allocate_page()
        with pytest.raises(PagePoolExhausted):
            pool.allocate_page()

    def test_double_free_rejected(self):
        pool = PagePool(num_pages=2, page_size=8)
        page = pool.allocate_page()
        pool.free_page(page)
        with pytest.raises(ValueError):
            pool.free_page(page)

    def test_out_of_range_free_rejected(self):
        pool = PagePool(num_pages=2, page_size=8)
        with pytest.raises(ValueError):
            pool.free_page(7)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PagePool(0, 8)
        with pytest.raises(ValueError):
            PagePool(4, 0)

    def test_lifo_reuse_fragments_sequences(self):
        """Freed pages are reused immediately, so interleaved sequences
        end up physically scattered — the property the paged kernels rely
        on being exercised."""
        pool = PagePool(num_pages=8, page_size=4)
        first = [pool.allocate_page() for _ in range(3)]
        pool.free_page(first[1])
        reused = pool.allocate_page()
        assert reused == first[1]


class TestBlockTable:
    @pytest.fixture
    def pool(self):
        return PagePool(num_pages=16, page_size=4)

    def test_append_allocates_pages_lazily(self, pool):
        table = BlockTable(pool)
        table.append_tokens(3)
        assert table.num_pages == 1
        table.append_tokens(1)
        assert table.num_pages == 1  # still fits in page 0
        table.append_tokens(1)
        assert table.num_pages == 2

    def test_slot_mapping(self, pool):
        table = BlockTable(pool)
        table.append_tokens(10)
        pages = [table.slot(i) // 4 for i in range(0, 10, 4)]
        assert len(set(pages)) == len(pages)
        for i in range(10):
            expected = pages[i // 4] * 4 + i % 4
            assert table.slot(i) == expected

    def test_slots_range(self, pool):
        table = BlockTable(pool)
        table.append_tokens(8)
        assert table.slots(2, 5) == [table.slot(i) for i in (2, 3, 4)]

    def test_out_of_range_slot(self, pool):
        table = BlockTable(pool)
        table.append_tokens(4)
        with pytest.raises(KeyError):
            table.slot(4)
        with pytest.raises(KeyError):
            table.slot(-1)

    def test_append_failure_leaves_table_unchanged(self):
        pool = PagePool(num_pages=2, page_size=4)
        table = BlockTable(pool)
        table.append_tokens(8)
        with pytest.raises(PagePoolExhausted):
            table.append_tokens(1)
        assert table.length == 8
        assert pool.num_free_pages == 0

    def test_vacate_front_frees_pages(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        free_before = pool.num_free_pages
        table.vacate_front(8)
        assert pool.num_free_pages == free_before + 2
        assert table.length - table.resident_tokens == 8
        assert table.resident_tokens == 4
        with pytest.raises(KeyError):
            table.slot(0)
        assert table.slot(8) >= 0

    def test_vacate_requires_page_alignment(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        with pytest.raises(ValueError):
            table.vacate_front(3)

    def test_vacate_entire_unaligned_sequence_allowed(self, pool):
        table = BlockTable(pool)
        table.append_tokens(10)
        table.vacate_front(10)  # 10 is not page aligned but covers all
        assert table.resident_tokens == 0

    def test_vacate_too_much_rejected(self, pool):
        table = BlockTable(pool)
        table.append_tokens(4)
        with pytest.raises(ValueError):
            table.vacate_front(5)

    def test_restore_front(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        table.vacate_front(8)
        slots = table.restore_front(4)
        assert len(slots) == 4
        assert table.length - table.resident_tokens == 4
        # Restored positions are addressable again.
        assert table.slot(4) == slots[0]

    def test_restore_lands_on_fresh_pages(self, pool):
        """After interleaved traffic, restored tokens occupy different
        physical pages: the non-contiguity Pensieve's kernel must handle."""
        table = BlockTable(pool)
        table.append_tokens(8)
        original = table.slots(0, 4)
        table.vacate_front(4)
        # Another sequence grabs the freed page.
        other = BlockTable(pool)
        other.append_tokens(4)
        restored = table.restore_front(4)
        assert restored != original

    def test_restore_too_much_rejected(self, pool):
        table = BlockTable(pool)
        table.append_tokens(8)
        table.vacate_front(4)
        with pytest.raises(ValueError):
            table.restore_front(8)

    def test_restore_alignment_enforced(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        table.vacate_front(8)
        with pytest.raises(ValueError):
            table.restore_front(3)  # boundary at 5: not page aligned

    def test_release_frees_everything(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        table.release()
        assert pool.num_free_pages == 16
        assert table.resident_tokens == 0

    def test_resident_slots_iteration(self, pool):
        table = BlockTable(pool)
        table.append_tokens(8)
        table.vacate_front(4)
        assert list(table) == table.slots(4, 8)


class TestSlotsArray:
    """Bulk slot lookup used by the coalesced data path and the
    transformer hot paths: same results and the same KeyErrors as the
    per-position loop, computed with one bounds/vacancy check."""

    @pytest.fixture
    def pool(self):
        return PagePool(num_pages=16, page_size=4)

    def test_matches_per_position_slots(self, pool):
        table = BlockTable(pool)
        table.append_tokens(11)
        for start, end in [(0, 11), (2, 5), (3, 11), (4, 8), (7, 7)]:
            arr = table.slots_array(start, end)
            assert arr.dtype == np.int64
            assert arr.tolist() == [table.slot(i) for i in range(start, end)]

    def test_empty_range(self, pool):
        table = BlockTable(pool)
        table.append_tokens(4)
        assert table.slots_array(3, 3).size == 0
        assert table.slots_array(4, 2).size == 0

    def test_out_of_range_raises_keyerror(self, pool):
        table = BlockTable(pool)
        table.append_tokens(6)
        with pytest.raises(KeyError):
            table.slots_array(0, 7)
        with pytest.raises(KeyError):
            table.slots_array(6, 8)
        with pytest.raises(KeyError):
            table.slots_array(-1, 3)

    def test_vacated_positions_raise_keyerror(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        table.vacate_front(8)
        with pytest.raises(KeyError):
            table.slots_array(0, 12)
        with pytest.raises(KeyError):
            table.slots_array(6, 10)
        assert table.slots_array(8, 12).tolist() == table.slots(8, 12)

    def test_survives_restore_cycle(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        table.vacate_front(8)
        table.restore_front(8)
        assert table.slots_array(0, 12).tolist() == [
            table.slot(i) for i in range(12)
        ]


class TestStructureVersion:
    """The one counter a table keeps: it moves only when existing
    positions remap, which the packed decode cache's extend relies on."""

    @pytest.fixture
    def pool(self):
        return PagePool(num_pages=16, page_size=4)

    def test_append_leaves_structure_version(self, pool):
        table = BlockTable(pool)
        sv = table.structure_version
        table.append_tokens(5)
        assert table.length == 5
        assert table.structure_version == sv

    def test_zero_token_append_changes_nothing(self, pool):
        table = BlockTable(pool)
        table.append_tokens(4)
        sv, pages, free = (
            table.structure_version, table.num_pages, pool.num_free_pages)
        table.append_tokens(0)
        assert table.length == 4
        assert (table.structure_version, table.num_pages) == (sv, pages)
        assert pool.num_free_pages == free

    def test_structural_ops_bump_structure_version(self, pool):
        table = BlockTable(pool)
        table.append_tokens(12)
        sv = table.structure_version
        table.vacate_front(8)
        assert table.structure_version == sv + 1
        table.restore_front(8)
        assert table.structure_version == sv + 2
        table.release()
        assert table.structure_version == sv + 3
