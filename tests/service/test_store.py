"""Unit tests for the spillover session store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.service.store import SPILL_SUFFIX, SessionStore, SpilloverSessionStore


class TestBasics:
    def test_put_get_delete_roundtrip(self):
        store = SpilloverSessionStore()
        store.put("a", b"payload-a")
        assert store.get("a") == b"payload-a"
        assert "a" in store
        assert store.ids() == ["a"]
        store.delete("a")
        assert store.get("a") is None
        assert "a" not in store
        store.delete("a")  # idempotent

    def test_put_replaces(self):
        store = SpilloverSessionStore()
        store.put("a", b"v1")
        store.put("a", b"v2-longer")
        assert store.get("a") == b"v2-longer"
        assert store.stats()["memory_bytes"] == len(b"v2-longer")

    def test_get_unknown_is_none(self):
        assert SpilloverSessionStore().get("nope") is None

    def test_satisfies_protocol(self):
        assert isinstance(SpilloverSessionStore(), SessionStore)

    def test_budget_requires_spill_dir(self):
        with pytest.raises(ConfigurationError):
            SpilloverSessionStore(byte_budget=100)

    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SpilloverSessionStore(byte_budget=0, spill_dir=tmp_path)


class TestSpillover:
    def test_lru_spills_to_disk_and_restores(self, tmp_path):
        store = SpilloverSessionStore(byte_budget=25, spill_dir=tmp_path)
        store.put("a", b"x" * 10)
        store.put("b", b"y" * 10)
        store.put("c", b"z" * 10)  # 30 bytes: evicts "a" (LRU)
        assert (tmp_path / f"a{SPILL_SUFFIX}").exists()
        stats = store.stats()
        assert stats["memory_entries"] == 2
        assert stats["disk_entries"] == 1
        # Transparent restore promotes it back and spills another.
        assert store.get("a") == b"x" * 10
        assert not (tmp_path / f"a{SPILL_SUFFIX}").exists()
        assert store.get("b") == b"y" * 10
        assert store.get("c") == b"z" * 10

    def test_access_refreshes_lru_order(self, tmp_path):
        store = SpilloverSessionStore(byte_budget=25, spill_dir=tmp_path)
        store.put("a", b"x" * 10)
        store.put("b", b"y" * 10)
        store.get("a")  # now "b" is least recently used
        store.put("c", b"z" * 10)
        assert (tmp_path / f"b{SPILL_SUFFIX}").exists()
        assert not (tmp_path / f"a{SPILL_SUFFIX}").exists()

    def test_oversized_entry_goes_to_disk(self, tmp_path):
        store = SpilloverSessionStore(byte_budget=10, spill_dir=tmp_path)
        store.put("big", b"x" * 1000)
        assert (tmp_path / f"big{SPILL_SUFFIX}").exists()
        assert store.get("big") == b"x" * 1000  # restore still works

    def test_delete_covers_both_tiers(self, tmp_path):
        store = SpilloverSessionStore(byte_budget=10, spill_dir=tmp_path)
        store.put("a", b"x" * 20)  # immediately spilled
        store.delete("a")
        assert store.get("a") is None
        assert not (tmp_path / f"a{SPILL_SUFFIX}").exists()

    def test_flush_to_disk_demotes_hot_entries(self, tmp_path):
        store = SpilloverSessionStore(byte_budget=100, spill_dir=tmp_path)
        store.put("a", b"x" * 10)
        store.put("b", b"y" * 10)
        assert store.flush_to_disk("a") == 1
        assert (tmp_path / f"a{SPILL_SUFFIX}").exists()
        assert store.flush_to_disk("a") == 0  # already cold: no-op
        assert store.flush_to_disk() == 1  # drains the rest ("b")
        stats = store.stats()
        assert stats["memory_entries"] == 0 and stats["disk_entries"] == 2
        assert store.get("a") == b"x" * 10

    def test_flush_to_disk_requires_spill_dir(self):
        with pytest.raises(ConfigurationError):
            SpilloverSessionStore().flush_to_disk()

    def test_adopts_existing_spill_files(self, tmp_path):
        first = SpilloverSessionStore(byte_budget=10, spill_dir=tmp_path)
        first.put("survivor", b"x" * 50)
        # A new store over the same directory (process restart).
        second = SpilloverSessionStore(byte_budget=10, spill_dir=tmp_path)
        assert "survivor" in second
        assert second.get("survivor") == b"x" * 50

    def test_failed_spill_write_leaves_no_checkpoint(
        self, tmp_path, monkeypatch
    ):
        store = SpilloverSessionStore(byte_budget=100, spill_dir=tmp_path)
        store.put("torn", b"t" * 50)
        real_open = open

        class HalfWriter:
            """A file whose write lands half the bytes, then fails."""

            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                self._fh.write(bytes(data[: len(data) // 2]))
                raise OSError("disk went away mid-write")

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._fh.close()

        def half_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh

        monkeypatch.setattr("builtins.open", half_open)
        monkeypatch.setattr("io.open", half_open)
        with pytest.raises(OSError):
            store.flush_to_disk("torn")
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == []
        # The hot copy is untouched, so the session is not lost.
        assert store.get("torn") == b"t" * 50
        assert SpilloverSessionStore(spill_dir=tmp_path).ids() == []

    def test_stray_tmp_file_is_not_adopted(self, tmp_path):
        (tmp_path / f"stray{SPILL_SUFFIX}.tmp").write_bytes(b"half a checkp")
        store = SpilloverSessionStore(byte_budget=10, spill_dir=tmp_path)
        assert "stray" not in store
        assert store.ids() == []


class TestEvictionProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get"]),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=40,
        ),
        budget=st.integers(min_value=8, max_value=64),
    )
    def test_contents_survive_any_eviction_order(self, tmp_path_factory, ops, budget):
        """Whatever access pattern drives eviction, every session's
        latest payload stays retrievable and both tiers stay disjoint."""
        tmp_path = tmp_path_factory.mktemp("spill")
        store = SpilloverSessionStore(byte_budget=budget, spill_dir=tmp_path)
        expected: dict[str, bytes] = {}
        for kind, key_index in ops:
            key = f"s{key_index}"
            if kind == "put":
                payload = (key * (key_index + 1)).encode()
                store.put(key, payload)
                expected[key] = payload
            else:
                got = store.get(key)
                assert got == expected.get(key)
        for key, payload in expected.items():
            assert store.get(key) == payload
        stats = store.stats()
        assert stats["memory_entries"] + stats["disk_entries"] == len(expected)
        if expected:
            assert stats["memory_bytes"] <= max(
                budget, max(len(p) for p in expected.values())
            )
