"""Unit tests for the lending/borrowing ledger."""

from repro.core.records import JobRecords


def test_unknown_job_is_zero():
    assert JobRecords().get("ghost") == 0


def test_add_and_get():
    r = JobRecords()
    assert r.add("a", 5) == 5
    assert r.add("a", -2) == 3
    assert r.get("a") == 3


def test_set_overwrites():
    r = JobRecords()
    r.add("a", 5)
    r.set("a", -7)
    assert r.get("a") == -7


def test_positive_negative_partition():
    r = JobRecords()
    r.set("lender", 10)
    r.set("borrower", -10)
    r.set("even", 0)
    jobs = ["lender", "borrower", "even", "ghost"]
    assert r.positive_jobs(jobs) == ["lender"]
    assert r.negative_jobs(jobs) == ["borrower"]


def test_partition_respects_among_filter():
    r = JobRecords()
    r.set("a", 5)
    r.set("b", 7)
    assert r.positive_jobs(["a"]) == ["a"]


def test_snapshot_is_a_copy():
    r = JobRecords()
    r.set("a", 1)
    snap = r.snapshot()
    snap["a"] = 99
    assert r.get("a") == 1


def test_total_and_len_and_contains():
    r = JobRecords()
    r.set("a", 5)
    r.set("b", -5)
    assert r.total() == 0
    assert len(r) == 2
    assert "a" in r
    assert "ghost" not in r


def test_version_moves_only_when_the_ledger_changes():
    """A snapshot taken at one version equals the ledger while the version
    stands: writes that change nothing leave it alone."""
    r = JobRecords()
    start = r.version
    r.set_many([("a", 0), ("b", 3)])  # two new jobs
    assert r.version == start + 1
    snapshot, version = r.snapshot(), r.version
    r.set_many([("a", 0), ("b", 3)])  # the same records again
    r.set("b", 3)
    r.add("a", 0)
    assert r.version == version and r.snapshot() == snapshot
    for write in (
        lambda: r.set_many([("a", 0), ("c", 0)]),  # a new job at 0
        lambda: r.set("a", 1),  # a record that moved
        lambda: r.add("b", -1),
        lambda: r.set_many([("a", 1), ("b", 2), ("a", 0)]),  # last one wins
    ):
        before = r.snapshot()
        write()
        assert r.version == version + 1
        assert r.snapshot() != before
        version = r.version
    assert r.get("a") == 0 and list(r.snapshot()) == ["a", "b", "c"]
