"""Page pool and per-sequence block tables.

GPU KV-cache memory is divided into fixed-size pages of ``page_size`` token
slots.  A sequence's tokens are mapped to physical slots through a
:class:`BlockTable`; consecutive logical tokens may land on arbitrary,
non-contiguous pages — exactly the layout Pensieve's multi-token attention
kernel must handle (Figure 6 of the paper).

Pages are identified by small integers.  The *flat slot index* of logical
token ``i`` is ``page_id * page_size + (i % page_size)``; the numpy storage
layer and the attention kernels address K/V arrays by flat slot index.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np


class PagePoolExhausted(RuntimeError):
    """Raised when an allocation cannot be satisfied."""


class PagePool:
    """A fixed inventory of KV-cache pages with a LIFO free list.

    The pool only does bookkeeping; tensor storage is the concern of
    :class:`repro.kvcache.storage.KVStorage`.  LIFO reuse is intentional:
    it maximises physical fragmentation across a sequence's lifetime, which
    keeps the non-contiguity the paged kernels must support honest in tests.
    """

    def __init__(self, num_pages: int, page_size: int) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive, got {num_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.num_pages = num_pages
        self.page_size = page_size
        self._free: List[int] = list(range(num_pages - 1, -1, -1))
        self._allocated = [False] * num_pages

    @property
    def num_free_pages(self) -> int:
        return len(self._free)

    @property
    def num_allocated_pages(self) -> int:
        return self.num_pages - len(self._free)

    @property
    def capacity_tokens(self) -> int:
        """Total token slots in the pool."""
        return self.num_pages * self.page_size

    @property
    def free_tokens(self) -> int:
        """Token slots available in free pages."""
        return self.num_free_pages * self.page_size

    def allocate_page(self) -> int:
        """Take one page from the free list.

        Raises:
            PagePoolExhausted: when no pages remain.
        """
        if not self._free:
            raise PagePoolExhausted(
                f"no free pages ({self.num_pages} pages of {self.page_size} slots)"
            )
        page = self._free.pop()
        self._allocated[page] = True
        return page

    def free_page(self, page: int) -> None:
        """Return a page to the free list.

        Raises:
            ValueError: on double free or out-of-range page id.
        """
        if not 0 <= page < self.num_pages:
            raise ValueError(f"page id {page} out of range [0, {self.num_pages})")
        if not self._allocated[page]:
            raise ValueError(f"double free of page {page}")
        self._allocated[page] = False
        self._free.append(page)

    def can_allocate(self, num_pages: int) -> bool:
        return len(self._free) >= num_pages

    def __repr__(self) -> str:
        return (
            f"PagePool(pages={self.num_pages}, page_size={self.page_size}, "
            f"free={self.num_free_pages})"
        )


class BlockTable:
    """Maps a sequence's logical token positions to physical pages.

    Logical position ``i`` lives on ``pages[i // page_size]`` at page offset
    ``i % page_size``.  Leading positions may be *vacated* (after eviction
    to the CPU tier): their entries become ``None`` and fully vacated pages
    return to the pool.  ``offset`` records how many leading positions have
    been vacated so invariants can be checked cheaply.
    """

    #: Cap on memoized ``slots_array`` results per table.  Callers hit a
    #: handful of distinct ranges (full context, restore windows), so a
    #: small cap bounds memory without hurting the hit rate.
    _MEMO_CAP = 64

    def __init__(self, pool: PagePool) -> None:
        self._pool = pool
        self._pages: List[Optional[int]] = []
        self._length = 0          # logical sequence length (tokens appended)
        self._vacated = 0         # leading tokens no longer resident
        self._version = 0         # bumps on every mutation (append included)
        self._structure_version = 0  # bumps only when existing slots remap
        self._slots_memo: dict = {}  # (start, end) -> read-only int64 array

    @property
    def page_size(self) -> int:
        return self._pool.page_size

    @property
    def version(self) -> int:
        """Monotonic counter bumped by **every** successful mutation
        (append / vacate / restore / release).  Consumers that memoize
        derived arrays key them on this value."""
        return self._version

    @property
    def structure_version(self) -> int:
        """Monotonic counter bumped only when the mapping of *existing*
        logical positions changes (vacate / restore / release).  Appends
        leave it untouched: previously returned slots stay valid, which
        is exactly the invariant the incremental decode packing cache
        relies on for its +1-slot extend fast path."""
        return self._structure_version

    def _bump(self, structural: bool) -> None:
        self._version += 1
        if structural:
            self._structure_version += 1
        self._slots_memo.clear()

    @property
    def length(self) -> int:
        """Logical sequence length in tokens."""
        return self._length

    @property
    def vacated(self) -> int:
        """Number of leading tokens whose slots were released."""
        return self._vacated

    @property
    def resident_tokens(self) -> int:
        """Tokens currently occupying GPU slots."""
        return self._length - self._vacated

    @property
    def num_pages(self) -> int:
        return sum(1 for p in self._pages if p is not None)

    def append_tokens(self, count: int) -> None:
        """Extend the sequence by ``count`` tokens, allocating pages as needed.

        Raises:
            PagePoolExhausted: if the pool cannot supply enough pages; the
                table is left unchanged in that case.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        ps = self.page_size
        new_length = self._length + count
        pages_needed = (new_length + ps - 1) // ps - len(self._pages)
        if pages_needed > 0 and not self._pool.can_allocate(pages_needed):
            raise PagePoolExhausted(
                f"need {pages_needed} pages, only {self._pool.num_free_pages} free"
            )
        for _ in range(max(0, pages_needed)):
            self._pages.append(self._pool.allocate_page())
        self._length = new_length
        if count > 0:
            self._bump(structural=False)

    def slot(self, position: int) -> int:
        """Flat physical slot index of logical ``position``.

        Raises:
            KeyError: if the position is out of range or vacated.
        """
        if not 0 <= position < self._length:
            raise KeyError(f"position {position} out of range [0, {self._length})")
        page = self._pages[position // self.page_size]
        if page is None:
            raise KeyError(f"position {position} has been vacated")
        return page * self.page_size + position % self.page_size

    def slots(self, start: int, end: int) -> List[int]:
        """Flat slot indices for positions ``[start, end)``."""
        return self.slots_array(start, end).tolist()

    def slots_array(self, start: int, end: int) -> np.ndarray:
        """Flat slot indices for positions ``[start, end)`` as one
        vectorized computation (``int64`` array).

        The page vector is computed once and range/vacancy are validated
        in bulk instead of re-checking every position through
        :meth:`slot`; on invalid input the same ``KeyError`` is raised,
        for the first offending position.
        """
        if start >= end:
            return np.empty(0, dtype=np.int64)
        memo = self._slots_memo.get((start, end))
        if memo is not None:
            return memo
        if start < 0 or start >= self._length:
            raise KeyError(f"position {start} out of range [0, {self._length})")
        if end > self._length:
            raise KeyError(
                f"position {self._length} out of range [0, {self._length})"
            )
        ps = self.page_size
        first_page = start // ps
        pages = self._pages[first_page : (end - 1) // ps + 1]
        if any(page is None for page in pages):
            offset = next(i for i, page in enumerate(pages) if page is None)
            bad = max(start, (first_page + offset) * ps)
            raise KeyError(f"position {bad} has been vacated")
        positions = np.arange(start, end, dtype=np.int64)
        page_vec = np.asarray(pages, dtype=np.int64)
        result = page_vec[positions // ps - first_page] * ps + positions % ps
        # Memoized results are shared across callers; freeze them so one
        # caller's in-place edit cannot corrupt another's view.
        result.setflags(write=False)
        if len(self._slots_memo) >= self._MEMO_CAP:
            self._slots_memo.clear()
        self._slots_memo[(start, end)] = result
        return result

    def vacate_front(self, count: int) -> None:
        """Release the slots of the ``count`` leading resident tokens.

        Only whole pages are returned to the pool; ``count`` must therefore
        keep the vacated prefix page-aligned (eviction operates on 32-token
        chunks and chunk size is a multiple of page size, so this holds by
        construction in the serving stack).

        Raises:
            ValueError: if the resulting prefix is not page-aligned or
                exceeds the resident range.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        new_vacated = self._vacated + count
        if new_vacated > self._length:
            raise ValueError(
                f"cannot vacate {count} tokens; only "
                f"{self.resident_tokens} resident"
            )
        if new_vacated % self.page_size != 0 and new_vacated != self._length:
            raise ValueError(
                f"vacated prefix ({new_vacated}) must stay page-aligned "
                f"(page_size={self.page_size})"
            )
        first_page = self._vacated // self.page_size
        last_page = new_vacated // self.page_size
        for idx in range(first_page, last_page):
            page = self._pages[idx]
            if page is not None:
                self._pool.free_page(page)
                self._pages[idx] = None
        self._vacated = new_vacated
        self._bump(structural=True)

    def restore_front(self, count: int) -> List[int]:
        """Re-allocate slots for ``count`` tokens at the front of the
        vacated prefix's *tail* (i.e. the most recently vacated tokens are
        restored first, keeping the resident region contiguous in logical
        space).

        Returns the flat slot indices of the restored positions in logical
        order.

        Raises:
            PagePoolExhausted: if pages cannot be allocated.
            ValueError: if ``count`` exceeds the vacated prefix or breaks
                page alignment.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        if count > self._vacated:
            raise ValueError(
                f"cannot restore {count} tokens; only {self._vacated} vacated"
            )
        new_vacated = self._vacated - count
        if new_vacated % self.page_size != 0:
            raise ValueError(
                f"restored prefix boundary ({new_vacated}) must be page-aligned"
            )
        first_page = new_vacated // self.page_size
        last_page = (self._vacated + self.page_size - 1) // self.page_size
        pages_needed = sum(
            1 for idx in range(first_page, last_page) if self._pages[idx] is None
        )
        if not self._pool.can_allocate(pages_needed):
            raise PagePoolExhausted(
                f"need {pages_needed} pages, only {self._pool.num_free_pages} free"
            )
        for idx in range(first_page, last_page):
            if self._pages[idx] is None:
                self._pages[idx] = self._pool.allocate_page()
        self._vacated = new_vacated
        self._bump(structural=True)
        return self.slots(new_vacated, new_vacated + count)

    def release(self) -> None:
        """Free every resident page and reset the table."""
        for idx, page in enumerate(self._pages):
            if page is not None:
                self._pool.free_page(page)
                self._pages[idx] = None
        self._vacated = self._length
        self._bump(structural=True)

    def resident_slots(self) -> List[int]:
        """Flat slot indices of all resident positions, in logical order."""
        return self.slots(self._vacated, self._length)

    def __iter__(self) -> Iterator[int]:
        return iter(self.resident_slots())

    def __repr__(self) -> str:
        return (
            f"BlockTable(length={self._length}, vacated={self._vacated}, "
            f"pages={self.num_pages})"
        )
