"""The OpenIB-like kernel driver.

One paper-critical behaviour lives here (§5): "The OpenIB stack is not
able to detect hugepages as the kernel pretends 4 KB pages instead.  So
we modified it in a way to send hugepages to the adapter when those are
used (the appropriate patch was sent to the OpenIB mailing list in
August 2006)."

:attr:`OpenIBDriver.hugepage_aware` is that patch as a toggle:

- **False** (stock driver): every registration is uploaded to the HCA as
  4 KB translation entries — a hugepage-backed buffer is expanded to 512
  entries per hugepage, so the adapter's ATT working set is identical to
  a small-page buffer.
- **True** (patched): hugepage-backed ranges upload one entry per 2 MB
  page — 512× fewer entries to upload and to cache.

Host-side pinning always sees the real page structure (the kernel knows
its own hugepages even when the driver hides them from the adapter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.mem.physical import PAGE_2M, PAGE_4K


@dataclass
class OpenIBDriver:
    """Driver policy object handed to the registration engine."""

    hugepage_aware: bool = False

    def plan_entries(self, extents: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
        """Decide the translation layout for a registration.

        *extents* are ``(page_size, n_pages)`` stretches of the leaf
        pages covering the buffer, in address order.  Returns
        ``(entry_page_size, n_entries)``.

        The patched driver only uses 2 MB entries when *every* page in
        the range is a hugepage (a mixed range falls back to 4 KB — the
        adapter needs one uniform entry size per region).
        """
        if not extents:
            raise ValueError("registration covers no pages")
        if self.hugepage_aware and all(ps == PAGE_2M for ps, _ in extents):
            return PAGE_2M, sum(n for _, n in extents)
        return PAGE_4K, sum(n * (ps // PAGE_4K) for ps, n in extents)
