"""Unit tests for site lists, the invalidation table, known-sites log."""


from repro.server import (
    ENTRY_BYTES,
    InvalidationTable,
    KnownSitesLog,
    SiteList,
)


class TestSiteList:
    def test_register_and_len(self):
        lst = SiteList()
        lst.register("c1", "proxy-0", now=0.0)
        lst.register("c2", "proxy-1", now=1.0)
        assert len(lst) == 2
        assert "c1" in lst

    def test_reregistration_refreshes_lease(self):
        lst = SiteList()
        lst.register("c1", "p", now=0.0, lease_expires=10.0)
        lst.register("c1", "p", now=5.0, lease_expires=15.0)
        assert len(lst) == 1
        assert lst.live_entries(12.0)[0].lease_expires == 15.0

    def test_live_entries_respect_leases(self):
        lst = SiteList()
        lst.register("c1", "p", now=0.0, lease_expires=10.0)
        lst.register("c2", "p", now=0.0)  # infinite lease
        assert {e.client_id for e in lst.live_entries(5.0)} == {"c1", "c2"}
        assert {e.client_id for e in lst.live_entries(11.0)} == {"c2"}

    def test_purge_expired(self):
        lst = SiteList()
        lst.register("c1", "p", now=0.0, lease_expires=10.0)
        lst.register("c2", "p", now=0.0, lease_expires=20.0)
        assert lst.purge_expired(15.0) == 1
        assert len(lst) == 1

    def test_remove(self):
        lst = SiteList()
        lst.register("c1", "p", now=0.0)
        lst.remove("c1")
        lst.remove("c1")  # idempotent
        assert len(lst) == 0

    def test_storage_accounting(self):
        lst = SiteList()
        for i in range(5):
            lst.register(f"c{i}", "p", now=0.0)
        assert lst.storage_bytes() == 5 * ENTRY_BYTES


class TestInvalidationTable:
    def test_register_and_total_entries(self):
        table = InvalidationTable()
        table.register("/a", "c1", "p", now=0.0)
        table.register("/a", "c2", "p", now=0.0)
        table.register("/b", "c1", "p", now=0.0)
        assert table.total_entries() == 3
        assert table.storage_bytes() == 3 * ENTRY_BYTES

    def test_total_entries_live_only(self):
        table = InvalidationTable()
        table.register("/a", "c1", "p", now=0.0, lease_expires=10.0)
        table.register("/a", "c2", "p", now=0.0)
        assert table.total_entries(now=20.0) == 1

    def test_note_modification_returns_live_sites(self):
        table = InvalidationTable()
        table.register("/a", "c1", "p", now=0.0, lease_expires=5.0)
        table.register("/a", "c2", "p", now=0.0, lease_expires=50.0)
        live = table.note_modification("/a", now=10.0)
        assert [e.client_id for e in live] == ["c2"]

    def test_clear_after_invalidation(self):
        table = InvalidationTable()
        table.register("/a", "c1", "p", now=0.0)
        table.note_modification("/a", now=1.0)
        table.clear_after_invalidation("/a", ["c1"])
        assert table.total_entries() == 0

    def test_modified_list_lengths_stats(self):
        table = InvalidationTable()
        for i in range(4):
            table.register("/hot", f"c{i}", "p", now=0.0)
        table.register("/cold", "c0", "p", now=0.0)
        table.note_modification("/hot", now=1.0)
        table.note_modification("/cold", now=2.0)
        assert table.lengths_at_modification == [4, 1]

    def test_modified_list_lengths_empty(self):
        assert InvalidationTable().lengths_at_modification == []

    def test_purge_expired_everywhere(self):
        table = InvalidationTable()
        table.register("/a", "c1", "p", now=0.0, lease_expires=1.0)
        table.register("/b", "c2", "p", now=0.0, lease_expires=1.0)
        assert table.purge_expired(now=2.0) == 2
        assert table.total_entries() == 0


class TestKnownSitesLog:
    def test_first_sight_costs_a_disk_write(self):
        log = KnownSitesLog()
        assert log.record("c1", "p0") is True
        assert log.record("c1", "p0") is False
        assert log.record("c2", "p1") is True
        assert len(log) == 2
        assert "c1" in log

    def test_all_sites(self):
        log = KnownSitesLog()
        log.record("c1", "p0")
        log.record("c2", "p1")
        assert sorted(log.all_sites()) == [("c1", "p0"), ("c2", "p1")]
