"""Unit tests for the pager and page-capacity arithmetic."""

import pytest

from repro.storage import (PAGE_SIZE_1K, AccessStats, MeteredReader,
                           NoBuffer, Pager, PathBuffer, node_capacity)


class TestNodeCapacity:
    def test_paper_value_1d(self):
        # The paper: 1 Kbyte pages -> M = 84 for n = 1.
        assert node_capacity(PAGE_SIZE_1K, 1) == 84

    def test_paper_value_2d(self):
        # The paper: 1 Kbyte pages -> M = 50 for n = 2.
        assert node_capacity(PAGE_SIZE_1K, 2) == 50

    def test_bench_scale_values(self):
        assert node_capacity(512, 1) == 41
        assert node_capacity(512, 2) == 24

    def test_capacity_decreases_with_dimension(self):
        caps = [node_capacity(PAGE_SIZE_1K, n) for n in range(1, 6)]
        assert caps == sorted(caps, reverse=True)

    def test_tiny_page_rejected(self):
        with pytest.raises(ValueError):
            node_capacity(16, 2)

    def test_page_smaller_than_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            node_capacity(8, 1)

    def test_bad_ndim_rejected(self):
        with pytest.raises(ValueError):
            node_capacity(1024, 0)

    def test_custom_entry_layout(self):
        # 8-byte coords, 8-byte pointers, no header: entry = 2*2*8+8 = 40.
        assert node_capacity(400, 2, coord_bytes=8, pointer_bytes=8,
                             header_bytes=0) == 10


class TestPager:
    def test_allocate_assigns_distinct_ids(self):
        pager = Pager()
        ids = {pager.allocate() for _ in range(100)}
        assert len(ids) == 100

    def test_write_read_roundtrip(self):
        pager = Pager()
        pid = pager.allocate()
        pager.write(pid, {"payload": 1})
        assert pager.read(pid) == {"payload": 1}

    def test_allocate_with_payload(self):
        pager = Pager()
        pid = pager.allocate("hello")
        assert pager.read(pid) == "hello"

    def test_write_unallocated_raises(self):
        with pytest.raises(KeyError):
            Pager().write(7, "x")

    def test_read_missing_raises(self):
        with pytest.raises(KeyError):
            Pager().read(0)

    def test_free(self):
        pager = Pager()
        pid = pager.allocate("x")
        pager.free(pid)
        assert pid not in pager
        with pytest.raises(KeyError):
            pager.read(pid)

    def test_free_is_idempotent(self):
        pager = Pager()
        pid = pager.allocate()
        pager.free(pid)
        pager.free(pid)  # must not raise

    def test_len_and_contains(self):
        pager = Pager()
        a = pager.allocate()
        assert len(pager) == 1 and a in pager

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            Pager(page_size=0)


class _Source:
    """An unread-page source that records what it builds."""

    def __init__(self):
        self.built = []

    def build(self, page_id):
        self.built.append(page_id)
        return f"page {page_id}"


class TestUnreadPages:
    def test_first_read_builds_once(self):
        pager, source = Pager(), _Source()
        pager.install(source, [3, 4])
        assert pager.read(3) == "page 3"
        assert pager.peek(3) is pager.read(3)
        assert source.built == [3]

    def test_unread_pages_are_present(self):
        pager, source = Pager(), _Source()
        pager.allocate("x")
        pager.install(source, [2, 5])
        assert len(pager) == 3
        assert [p in pager for p in range(7)] == \
            [True, False, True, False, False, True, False]
        assert pager.allocate() == 6    # clear of the installed ids
        assert source.built == []

    def test_free_never_builds(self):
        pager, source = Pager(), _Source()
        pager.install(source, [0, 1])
        pager.free(0)
        assert 0 not in pager and len(pager) == 1
        with pytest.raises(KeyError):
            pager.read(0)
        assert source.built == []

    def test_write_and_put_replace_an_unread_page(self):
        pager, source = Pager(), _Source()
        pager.install(source, [0, 1])
        pager.write(0, "written")
        pager.put(1, "put")
        assert (pager.read(0), pager.read(1)) == ("written", "put")
        assert len(pager) == 2 and source.built == []

    def test_source_dropped_with_its_last_page(self):
        pager, source = Pager(), _Source()
        pager.install(source, [0, 1])
        pager.read(0)
        pager.free(1)
        assert pager._unread == {}


class TestMeteredReader:
    def test_counts_node_and_disk_accesses(self):
        pager = Pager()
        pid = pager.allocate("node")
        stats = AccessStats()
        reader = MeteredReader(pager, "T", stats, NoBuffer())
        assert reader.fetch(pid, level=1) == "node"
        assert stats.na("T") == 1
        assert stats.da("T") == 1

    def test_buffer_hit_counts_na_not_da(self):
        pager = Pager()
        pid = pager.allocate("node")
        stats = AccessStats()
        reader = MeteredReader(pager, "T", stats, PathBuffer())
        reader.fetch(pid, level=1)
        reader.fetch(pid, level=1)  # same node again: path-buffer hit
        assert stats.na("T") == 2
        assert stats.da("T") == 1

    def test_levels_recorded_separately(self):
        pager = Pager()
        a, b = pager.allocate("a"), pager.allocate("b")
        stats = AccessStats()
        reader = MeteredReader(pager, "T", stats, NoBuffer())
        reader.fetch(a, level=2)
        reader.fetch(b, level=1)
        assert stats.na("T", level=2) == 1
        assert stats.na("T", level=1) == 1
