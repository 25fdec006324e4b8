"""FileBackedDisk: backend equivalence, store round trips, freshness.

The durable backend must be indistinguishable from :class:`SimulatedDisk`
to everything above the storage tier — same query answers, same
page-granular :class:`DiskStats` accounting (lazy fault-ins are not
charged) — while adding crash-safe persistence underneath.  The crash
and corruption matrices live in ``test_durability.py``; this file covers
the sunny-day contract plus the persistence-format regressions.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import zlib

import numpy as np
import pytest

from benchmarks.client_protocol import s_query
from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.directory import DIRECTORY_COLUMNS, TimeListDirectory
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, SQuery
from repro.core.service import QueryService
from repro.core.st_index import STIndex
from repro.io.persist import (
    STORE_FORMAT_VERSION,
    PersistFormatError,
    load_database,
    open_store,
    save_store,
)
from repro.network.generator import grid_city
from repro.spatial.geometry import Point
from repro.storage.backends import (
    DISK_BACKENDS,
    FileBackedDisk,
    create_disk,
    filedisk,
)
from repro.storage.backends.filedisk import generation_file
from repro.storage.disk import DiskError, SimulatedDisk
from repro.storage.serialization import encode_append_delta
from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time
from repro.trajectory.store import TrajectoryDatabase

T = float(day_time(11))


@pytest.fixture()
def network():
    return grid_city(rows=4, cols=4, spacing=600.0, primary_every=0, seed=3)


def make_day(route, day, traj_id):
    return MatchedTrajectory(
        trajectory_id=traj_id, taxi_id=traj_id % 5, date=day,
        visits=[SegmentVisit(route[i], T + 10 + 30 * i, 6.0)
                for i in range(len(route))],
    )


@pytest.fixture()
def route(network):
    path = [0]
    while len(path) < 4:
        path.append(network.successors(path[-1])[0])
    return path


def make_database(route, days=3):
    db = TrajectoryDatabase(num_taxis=5, num_days=days)
    for day in range(days):
        db.add(make_day(route, day, day))
    db.finalize()
    return db


class TestBackendEquivalence:
    def test_create_disk_registry(self, tmp_path):
        assert DISK_BACKENDS == ("sim", "file")
        sim = create_disk("sim", page_size=512)
        assert type(sim) is SimulatedDisk
        filed = create_disk("file", path=tmp_path / "d", page_size=512)
        assert isinstance(filed, FileBackedDisk)
        with pytest.raises(ValueError):
            create_disk("file")  # path required
        with pytest.raises(ValueError):
            create_disk("ramcloud")

    def test_same_answers_same_accounting(self, network, route, tmp_path):
        db = make_database(route)
        disks = {
            "sim": SimulatedDisk(page_size=1024),
            "file": FileBackedDisk(tmp_path / "store", page_size=1024),
        }
        results, stats = {}, {}
        query = SQuery(Point(0, 0), T, 600, 0.3)
        for name, disk in disks.items():
            engine = ReachabilityEngine(network, db, disk=disk)
            engine.st_index(300)
            results[name] = s_query(engine, query)
            stats[name] = disk.snapshot()
        assert results["sim"].segments == results["file"].segments
        # Page-granular accounting identical: fault-ins are uncharged.
        assert stats["sim"] == stats["file"]

    def test_index_reads_identical(self, network, route, tmp_path):
        db = make_database(route)
        sim_index = STIndex(network, 300, disk=SimulatedDisk(page_size=512))
        sim_index.build(db)
        file_index = STIndex(
            network, 300, disk=FileBackedDisk(tmp_path / "s", page_size=512)
        )
        file_index.build(db)
        slot = sim_index.slot_of(T)
        for seg in set(route):
            assert sim_index.time_list(seg, slot) == file_index.time_list(seg, slot)

    def test_a_read_only_open_survives_a_writers_compaction(self, tmp_path):
        """A read-only disk holds its generation's data file from the open
        on, so a compaction that unlinks the file before the first read
        leaves every page readable."""
        writer = FileBackedDisk(tmp_path / "s", page_size=512)
        writer.write_extent(writer.allocate(3), b"\x07" * 1300)
        writer.compact()
        reader = FileBackedDisk.open(tmp_path / "s", readonly=True)
        data = generation_file(tmp_path / "s", "bin")
        writer.write_page(0, b"\x01" * 512)
        writer.compact()
        assert not data.exists()
        assert reader.read_page(2) == b"\x07" * 276
        reader.close()
        writer.close()


class TestStoreRoundTrip:
    @pytest.fixture()
    def saved(self, test_dataset, tmp_path):
        engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
        store = tmp_path / "store"
        save_store(engine, store, 300)
        return store, engine

    @pytest.fixture()
    def dataset_route(self, test_dataset):
        network = test_dataset.network
        path = [0]
        while len(path) < 4:
            path.append(network.successors(path[-1])[0])
        return path

    def test_query_equivalence_and_lazy_faulting(self, saved):
        store, engine = saved
        query = SQuery(Point(0, 0), T, 600, 0.2)
        expected = s_query(engine, query)
        reopened = open_store(store)
        got = s_query(reopened, query)
        assert expected.segments  # non-trivial query on the real dataset
        assert got.segments == expected.segments
        disk = reopened.disk
        assert isinstance(disk, FileBackedDisk)
        # Cold start touched only the pages the query needed.
        assert 0 < disk.pages_faulted < disk.num_pages

    def test_bundle_with_retired_keys_answers_like_a_fresh_save(self, saved, tmp_path):
        """An older bundle also carries the ST-Index pool and record-cache
        sizes in ``store.json`` and the I/O latencies in the superblock.
        No reader needs them: such a bundle opens, sizes its pools from
        ``engine_pool_pages`` and answers a batch like a fresh save."""
        store, _ = saved
        old = tmp_path / "old"
        shutil.copytree(store, old)
        config = json.loads((old / "store.json").read_text())
        config.update(st_pool_pages=config["engine_pool_pages"], record_cache_size=4096)
        (old / "store.json").write_text(json.dumps(config, indent=2, sort_keys=True))
        superblock = old / "disk" / "superblock.json"
        payload = json.loads(superblock.read_text())
        del payload["checksum"]
        payload.update(read_latency_ms=8.0, write_latency_ms=10.0)
        payload["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
        superblock.write_text(json.dumps(payload, indent=2, sort_keys=True))

        requests = [
            Request(SQuery(Point(0, 0), T, 600, 0.2)),
            Request(SQuery(Point(0, 0), T, 120, 0.3)),
            Request(SQuery(Point(500, 500), T, 900, 0.2), QueryOptions(direction="reverse")),
            Request(MQuery((Point(0, 0), Point(1000, 600)), T, 600, 0.2)),
        ]
        reports = []
        for path in (store, old):
            with ReachabilityClient.open(path) as client:
                index = client.engine.st_index(300)
                assert index.pool.capacity == config["engine_pool_pages"]
                reports.append(client.run_batch(requests))
        fresh, legacy = reports
        assert legacy.routes == fresh.routes
        assert legacy.io == fresh.io
        for expected, actual in zip(fresh.results, legacy.results):
            assert actual.segments == expected.segments
            assert actual.probabilities == expected.probabilities

    def test_append_durable_across_reopen(self, saved, dataset_route):
        store, _ = saved
        route = dataset_route
        new_day = 12  # outside the dataset's 10 days: unambiguous marker
        engine = open_store(store)
        index = engine.st_index(300)
        slot = index.slot_of(T)
        before = index.time_list(route[0], slot)
        engine.append_trajectories(
            [make_day(route, new_day, 7)], update_database=False
        )
        after = index.time_list(route[0], slot)
        assert set(after) == set(before) | {new_day}
        # No checkpoint ran: the append lives in the journal only.
        assert engine.disk.journal_record_count > 0

        fresh = open_store(store)
        replayed = fresh.st_index(300).time_list(route[0], slot)
        assert replayed == after

    def test_double_open_idempotent(self, saved, dataset_route):
        store, _ = saved
        engine = open_store(store)
        engine.append_trajectories(
            [make_day(dataset_route, 13, 9)], update_database=False
        )
        slot_lists = {}
        for attempt in range(2):
            reopened = open_store(store)
            index = reopened.st_index(300)
            slot = index.slot_of(T)
            slot_lists[attempt] = {
                seg: index.time_list(seg, slot) for seg in set(dataset_route)
            }
            assert reopened.disk.journal_record_count == engine.disk.journal_record_count
        assert slot_lists[0] == slot_lists[1]

    def test_in_place_resave_page_stable(self, saved, dataset_route):
        store, _ = saved
        engine = open_store(store)
        pages_before = engine.disk.num_pages
        engine.append_trajectories(
            [make_day(dataset_route, 14, 11)], update_database=False
        )
        save_store(engine, store, 300)  # in-place: no re-export
        assert engine.disk.journal_record_count == 1  # the journal is the delta
        reopened = open_store(store)
        assert reopened.disk.num_pages == engine.disk.num_pages
        # Page count grew only by the appended tail, not a rewrite.
        assert reopened.disk.num_pages >= pages_before

    def test_reopened_and_resaved_directory_equals_one_that_never_closed(
        self, saved, dataset_route, monkeypatch
    ):
        """Two appends, then a compacting save: ``directory.npz`` holds the
        same arrays whether the index stayed open throughout or was closed
        after the appends and rebuilt them from the journal on reopen."""
        store, _ = saved
        monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", 0.0)
        written, merged = [], []
        for reopen in (False, True):
            path = shutil.copytree(store, store.parent / f"reopen-{reopen}")
            engine = open_store(path)
            for day, trajectory_id in ((15, 21), (16, 22)):
                engine.append_trajectories(
                    [make_day(dataset_route, day, trajectory_id)], update_database=False
                )
            if reopen:
                engine.disk.close()
                engine = open_store(path)
            save_store(engine, path, 300)
            assert engine.disk.journal_record_count == 0
            with np.load(path / "directory.npz") as data:
                written.append({name: data[name] for name in DIRECTORY_COLUMNS})
            merged.append(open_store(path).st_index(300).directory.columns())
        assert max(written[0]["dir_position"]) == 2
        for name in DIRECTORY_COLUMNS:
            assert merged[1][name].tolist() == merged[0][name].tolist()
            assert written[0][name].tolist() == merged[0][name].tolist()
            # Each column is stored in the narrowest integer dtype holding it.
            column = written[1][name]
            holding = [
                np.dtype(code).itemsize
                for code in "bBhHiIqQ"
                if np.iinfo(code).min <= column.min() and column.max() <= np.iinfo(code).max
            ]
            assert column.dtype.kind in "iu" and column.dtype.itemsize == min(holding)
            assert written[1][name].tolist() == written[0][name].tolist()

    def test_speed_model_round_trips_bit_exact(self, saved):
        """``speed_model.npz`` restores the speed-model columns exactly:
        ``int64`` keys and counts, ``float64`` speeds, byte for byte."""
        store, engine = saved
        before = engine.database.export_speed_model()
        after = open_store(store).database.export_speed_model()
        for field, dtype in (
            ("keys", np.int64),
            ("stats_min", np.float64),
            ("stats_max", np.float64),
            ("stats_sum", np.float64),
            ("stats_count", np.int64),
        ):
            assert after[field].dtype == before[field].dtype == dtype
            assert np.array_equal(after[field], before[field]) and after[field].size
            assert after[field].tobytes() == before[field].tobytes()
        assert (after["num_taxis"], after["num_days"]) == (before["num_taxis"], before["num_days"])

    def test_two_saves_write_identical_store_files(self, saved, dataset_route):
        """No wall-clock timestamp in the ``.npz`` members: saving one
        engine twice gives byte-identical files, and so do two equal
        histories of appends and in-place saves, journals included."""
        store, engine = saved
        again = save_store(engine, store.parent / "again", 300)
        for name in ("directory.npz", "speed_model.npz"):
            assert (store / name).read_bytes() == (again / name).read_bytes()
        for path in (store, again):
            for day in (12, 13):
                reopened = open_store(path)
                reopened.append_trajectories(
                    [make_day(dataset_route, day, 30 + day)], update_database=False
                )
                save_store(reopened, path, 300)
                reopened.disk.close()
        files = [sorted(p.relative_to(path) for p in path.rglob("*")) for path in (store, again)]
        assert files[0] == files[1]
        assert "disk/journal.1.log" in {str(f) for f in files[0]}
        assert (store / "disk" / "journal.1.log").stat().st_size
        for name in files[0]:
            if (store / name).is_file():
                assert (store / name).read_bytes() == (again / name).read_bytes(), name

    def test_readonly_open_serves_but_never_writes(self, saved):
        store, _ = saved
        engine = open_store(store, readonly=True)
        query = SQuery(Point(0, 0), T, 600, 0.3)
        assert s_query(engine, query).segments
        disk = engine.disk
        assert isinstance(disk, FileBackedDisk)
        disk.commit(meta=b"ignored")  # no-op, not an error
        assert disk.journal_record_count == 0
        with pytest.raises(DiskError):
            disk.checkpoint()

    def test_open_missing_store_rejected(self, tmp_path):
        with pytest.raises(PersistFormatError, match="incomplete|missing"):
            open_store(tmp_path / "nowhere")


class TestInPlaceSaves:
    """The journal already holds every append, so an in-place save writes
    a file only when the bundle key moved or the journal is due for a
    compaction."""

    QUERIES = (
        SQuery(Point(0, 0), T, 600, 0.2),
        SQuery(Point(500, 500), T, 900, 0.1),
        MQuery((Point(0, 0), Point(1000, 600)), T, 600, 0.2),
    )

    @pytest.fixture()
    def store(self, test_dataset, tmp_path):
        engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
        return save_store(engine, tmp_path / "store", 300)

    @pytest.fixture()
    def route(self, test_dataset):
        path = [0]
        while len(path) < 4:
            path.append(test_dataset.network.successors(path[-1])[0])
        return path

    @staticmethod
    def append(store, route, day):
        engine = open_store(store)
        engine.append_trajectories([make_day(route, day, 40 + day)], update_database=False)
        return engine

    @staticmethod
    def files(store):
        return {p: (os.stat(p).st_ino, p.read_bytes()) for p in store.rglob("*") if p.is_file()}

    def reopened(self, store):
        """Page state, directory columns and answers."""
        with ReachabilityClient.open(store) as client:
            disk = client.engine.disk
            columns = client.engine.st_index(300).directory.columns()
            report = client.run_batch([Request(query) for query in self.QUERIES])
            return (
                disk.export_state(),
                {name: column.tolist() for name, column in columns.items()},
                [(r.segments, r.probabilities) for r in report.results],
            )

    def test_journal_saves_reopen_like_compacted_saves(self, store, route, monkeypatch):
        """Appends and in-place saves that never compact reopen to the
        state the same history reaches when every save compacts."""
        compacted = shutil.copytree(store, store.parent / "compacted")
        for path, share in ((store, 1.0), (compacted, 0.0)):
            monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", share)
            for day in (12, 13, 14):
                engine = self.append(path, route, day)
                save_store(engine, path, 300)
                engine.disk.close()
            engine = self.append(path, route, 15)  # journaled, not saved
            engine.disk.close()
        journals = [FileBackedDisk.open(path / "disk").journal_record_count for path in (store, compacted)]
        assert journals == [4, 1]
        assert self.reopened(store) == self.reopened(compacted)

    @pytest.mark.parametrize("share", [1.0, 0.0], ids=["journal", "compacting"])
    def test_append_save_reopen_cycles_keep_the_engines_directory(
        self, store, route, monkeypatch, share
    ):
        monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", share)
        for day in range(12, 18):
            engine = self.append(store, route, day)
            expected = engine.st_index(300).directory.columns()
            save_store(engine, store, 300)
            engine.disk.close()
            reopened = open_store(store)
            columns = reopened.st_index(300).directory.columns()
            reopened.disk.close()
            for name in DIRECTORY_COLUMNS:
                assert columns[name].tolist() == expected[name].tolist()
        assert reopened.disk.journal_record_count == (6 if share else 0)

    def test_a_commit_that_makes_the_journal_due_writes_the_directory(
        self, store, route, monkeypatch
    ):
        """The save commits before it asks whether the disk will compact:
        a commit that tips the journal past its share makes the save write
        ``directory.npz`` at the post-commit position, so the compaction
        folds no record the directory lacks."""
        engine = self.append(store, route, 12)  # one record past directory.npz
        disk = engine.disk
        disk.write_page(disk.allocate(1), b"\x01")  # dirty at the save
        journal = (store / "disk" / "journal.1.log").stat().st_size
        data = (store / "disk" / "pages.1.bin").stat().st_size
        monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", journal / data)
        assert not disk.checkpoint_compacts
        expected = engine.st_index(300).directory.columns()
        save_store(engine, store, 300)
        assert disk.journal_record_count == 0  # the save compacted
        columns = open_store(store).st_index(300).directory.columns()
        for name in DIRECTORY_COLUMNS:
            assert columns[name].tolist() == expected[name].tolist()

    def test_an_unchanged_save_reads_no_page_and_writes_no_file(self, store, route):
        engine = self.append(store, route, 12)
        files, faulted = self.files(store), engine.disk.pages_faulted
        save_store(engine, store, 300)
        assert engine.disk.pages_faulted == faulted
        assert self.files(store) == files

    def test_metadata_files_are_rewritten_only_when_they_change(self, store, route):
        metadata = ("network.json", "speed_model.npz", "store.json")
        inodes = {name: os.stat(store / name).st_ino for name in (*metadata, "directory.npz")}
        engine = self.append(store, route, 12)
        save_store(engine, store, 300)
        assert {name: os.stat(store / name).st_ino for name in inodes} == inodes
        num_days = engine.database.num_days + 1
        engine.database.extend_days(num_days)  # the speed model changes
        save_store(engine, store, 300)
        assert all(os.stat(store / name).st_ino != inodes[name] for name in inodes)
        assert open_store(store).database.num_days == num_days

    def test_a_save_elsewhere_leaves_the_in_place_store_whole(self, store, route):
        """A save to another path writes that bundle whole and leaves the
        engine's own store be: the next in-place save still reopens to
        every row appended since the engine opened it."""
        engine = self.append(store, route, 12)
        copy = save_store(engine, store.parent / "copy", 300)
        copied = engine.st_index(300).directory.columns()
        engine.append_trajectories([make_day(route, 13, 53)], update_database=False)
        save_store(engine, store, 300)
        for path, columns in ((copy, copied), (store, engine.st_index(300).directory.columns())):
            reopened = open_store(path).st_index(300).directory.columns()
            for name in DIRECTORY_COLUMNS:
                assert reopened[name].tolist() == columns[name].tolist()


class TestIngestIntoRestoredDatabase:
    def test_append_folds_into_the_restored_speed_model(self, test_dataset, tmp_path):
        """A restored database keeps its statistics when data arrives: the
        new visits fold into the touched ``(segment, hour)`` rows, every
        other row keeps its bounds, and a save and reopen keep the merge."""
        builder = ReachabilityEngine(test_dataset.network, test_dataset.database)
        store = save_store(builder, tmp_path / "store", 300)
        before = builder.database.export_speed_model()
        route = [0]
        while len(route) < 4:
            route.append(test_dataset.network.successors(route[-1])[0])
        engine = open_store(store)
        QueryService(engine).append_trajectories([make_day(route, 0, 10**6)])
        after = engine.database.export_speed_model()
        touched = np.isin(after["keys"], [segment * 24 + 11 for segment in route])
        assert touched.sum() == len(set(route))
        old = np.searchsorted(before["keys"], after["keys"])
        kept = ~touched
        assert np.array_equal(after["keys"][kept], before["keys"][old[kept]])
        for name in ("stats_min", "stats_max", "stats_sum", "stats_count"):
            assert np.array_equal(after[name][kept], before[name][old[kept]])
        known = np.isin(after["keys"], before["keys"]) & touched
        assert known.any()
        visits = np.array([route.count(s) for s in after["keys"][known] // 24])
        merged = old[known]
        for name, fold in (("stats_min", np.minimum), ("stats_max", np.maximum)):
            assert np.array_equal(after[name][known], fold(before[name][merged], 6.0))
        assert np.array_equal(after["stats_sum"][known], before["stats_sum"][merged] + 6.0 * visits)
        assert np.array_equal(after["stats_count"][known], before["stats_count"][merged] + visits)
        built = builder.database.observed_speed_bounds
        for segment in set(range(20)) - set(route):
            assert engine.database.observed_speed_bounds(segment, T) == built(segment, T)
        save_store(engine, store, 300)
        reopened = open_store(store).database.export_speed_model()
        for name in ("keys", "stats_min", "stats_max", "stats_sum", "stats_count"):
            assert reopened[name].tobytes() == after[name].tobytes()


@pytest.mark.durability
class TestColdStart:
    """A store opens without zero-filling its page buffer or re-sorting
    its directory; both shortcuts keep every byte and every check."""

    @pytest.fixture()
    def columns(self, test_dataset):
        engine = ReachabilityEngine(test_dataset.network, test_dataset.database)
        directory = engine.st_index(300).committed_directory()
        return directory.columns(), engine.disk.num_pages, engine.disk.page_size

    def test_chains_out_of_key_order_open_to_the_same_columns(self, columns):
        columns, pages, size = columns
        # Slot-major: every chain keeps its row order, the keys do not ascend.
        order = np.argsort(columns["dir_slot"], kind="stable")
        assert (np.diff(order) < 0).any()
        shuffled = {name: column[order] for name, column in columns.items()}
        opened = TimeListDirectory.from_columns(shuffled, 288, pages, size, "test").columns()
        for name in DIRECTORY_COLUMNS:
            assert opened[name].tolist() == columns[name].tolist()

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-key-order", "slot-major"])
    @pytest.mark.parametrize(
        "first, second, problem",
        [
            ("key", "pointer", "test row 3 names no entry: segment 3, slot 288"),
            ("position", "pointer", "test rows out of chain order"),
            ("pointer", "key", r"test pointer \(\d+, 0, \d+, \d+\) outside"),
            ("pointer", "position", r"test pointer \(\d+, 0, \d+, \d+\) outside"),
        ],
    )
    def test_errors_name_the_first_offending_row(self, columns, shuffled, first, second, problem):
        """Row 3 and row 9 are damaged; row 3's damage is the error, on
        the sorted and the sorting path alike."""
        columns, pages, size = columns
        order = np.argsort(columns["dir_slot"], kind="stable") if shuffled else slice(None)
        damaged = {name: column[order].astype(np.int64) for name, column in columns.items()}
        for row, kind in ((3, first), (9, second)):
            if kind == "key":
                damaged["dir_segment"][row], damaged["dir_slot"][row] = 3, 288
            elif kind == "position":
                damaged["dir_position"][row] += 7
            else:
                damaged["dir_num_pages"][row] = 0
        with pytest.raises(PersistFormatError, match=problem):
            TimeListDirectory.from_columns(damaged, 288, pages, size, "test")

    def test_pages_grown_after_open_read_back_byte_identical(self, network, route, tmp_path):
        """Appends after open allocate pages past the superblock's count
        (well past the page buffer's first room on this tiny store), a
        reopen's journal replay grows the count again, and a save and
        reopen keep every byte.  The time lists are those the same appends
        give on the in-RAM engine the store was saved from."""
        ram = ReachabilityEngine(network, make_database(route), disk=SimulatedDisk(page_size=256))
        store = save_store(ram, tmp_path / "store", 300)
        engine = open_store(store)
        first_pages = engine.disk.num_pages
        slot = ram.st_index(300).slot_of(T)

        def time_lists(target):
            return [target.st_index(300).time_list(segment, slot) for segment in route]

        assert time_lists(engine) == time_lists(ram)  # faults pages in before the growth
        for day in range(3):
            appended = [make_day(route, day, 100 + i + 10 * day) for i in range(8)]
            for target in (engine, ram):
                target.append_trajectories(appended, update_database=False)
        assert engine.disk.num_pages > 2 * first_pages
        expected, state = time_lists(ram), engine.disk.export_state()
        assert time_lists(engine) == expected
        engine.disk.close()
        replayed = open_store(store)  # no save: the journal holds the growth
        assert replayed.disk.export_state() == state and time_lists(replayed) == expected
        save_store(replayed, store, 300)
        replayed.disk.close()
        reopened = open_store(store)
        assert reopened.disk.export_state() == state and time_lists(reopened) == expected


class TestExportStateAtomicity:
    def test_export_state_is_atomic_under_writes(self, tmp_path):
        """Barrier-style race regression: export_state must hold the lock
        for its whole scan, so a concurrent writer can never produce a
        half-old half-new export."""
        disk = SimulatedDisk(page_size=64)
        disk.allocate(64)
        marker = {"stop": False}
        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            for round_no in range(200):
                payload = bytes([round_no % 256]) * 64
                for page in range(64):
                    disk.write_page(page, payload)

        thread = threading.Thread(target=writer)
        thread.start()
        barrier.wait()
        try:
            for _ in range(50):
                buffer, used = disk.export_state()
                pages = [
                    buffer[i * 64 : i * 64 + used[i]] for i in range(64)
                ]
                seen = {p for p in pages if p}
                # All non-empty pages written so far carry one writer
                # round each; an export observing a torn *page* would
                # show a value no round ever wrote.  Stronger: every
                # page is byte-uniform.
                for page in seen:
                    assert len(set(page)) <= 1
        finally:
            marker["stop"] = True
            thread.join()

    def test_rl001_flags_unlocked_export_state(self, tmp_path):
        """Gate proof: stripping the lock off export_state fails RL001."""
        import shutil

        from tools.repro_lint.core import run_paths

        from tests.test_repro_lint import REPO_ROOT

        dest = tmp_path / "src"
        shutil.copytree(REPO_ROOT / "src", dest)
        disk_py = dest / "repro" / "storage" / "disk.py"
        text = disk_py.read_text(encoding="utf-8")
        needle = "with self._lock:\n            self._ensure_resident_locked(0, len(self._used))"
        assert needle in text
        text = text.replace(
            needle,
            "if True:\n            self._ensure_resident_locked(0, len(self._used))",
            1,
        )
        disk_py.write_text(text, encoding="utf-8")
        _, findings = run_paths([str(dest)])
        assert any(
            f.rule == "RL001" and "export_state" in f.message for f in findings
        )


class TestPersistFormatErrors:
    @pytest.fixture()
    def store(self, network, route, tmp_path):
        engine = ReachabilityEngine(
            network, make_database(route), disk=SimulatedDisk(page_size=512)
        )
        return save_store(engine, tmp_path / "store", 300), engine.st_index(300)

    @staticmethod
    def rewrite_npz(store, npz="directory.npz", **changes):
        """Re-save an ``.npz`` of the store with arrays replaced (``None``
        drops one, a callable maps the old array to the new)."""
        with np.load(store / npz) as data:
            fields = {name: data[name] for name in data.files}
        for name, value in changes.items():
            if value is None:
                del fields[name]
            else:
                fields[name] = value(fields[name]) if callable(value) else value
        np.savez_compressed(store / npz, **fields)

    def test_round_trip_still_works(self, store, route):
        path, index = store
        loaded = open_store(path).st_index(300)
        slot = index.slot_of(T)
        for seg in set(route):
            assert loaded.time_list(seg, slot) == index.time_list(seg, slot)

    def test_truncated_file_rejected(self, store):
        path, _ = store
        blob = (path / "directory.npz").read_bytes()
        (path / "directory.npz").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PersistFormatError):
            open_store(path)

    def test_garbage_bytes_rejected(self, store):
        path, _ = store
        (path / "directory.npz").write_bytes(b"this is not an npz archive at all")
        with pytest.raises(PersistFormatError):
            open_store(path)

    def test_future_version_rejected(self, store):
        path, _ = store
        self.rewrite_npz(path, version=np.int64(99))
        with pytest.raises(
            PersistFormatError, match="unsupported store directory format"
        ):
            open_store(path)

    @pytest.mark.parametrize("sidecar", ["store.json", "directory.npz"])
    def test_format_1_store_rejected(self, store, sidecar):
        """Format 1 laid each time-list record out as per-date runs; no
        reader of that layout is kept, so such a store is refused whole."""
        path, _ = store
        if sidecar == "store.json":
            config = json.loads((path / sidecar).read_text())
            (path / sidecar).write_text(json.dumps({**config, "version": 1}))
        else:
            self.rewrite_npz(path, version=np.int64(1))
        with pytest.raises(
            PersistFormatError, match=rf"format 1 \(supported: {STORE_FORMAT_VERSION}\)"
        ):
            open_store(path)

    def test_format_2_bundle_rejected_by_version_not_completeness(self, store):
        """A format-2 bundle kept its speed model in ``speed_model.json``;
        it is refused for its version, not reported as missing a file."""
        path, _ = store
        (path / "speed_model.npz").rename(path / "speed_model.json")
        config = json.loads((path / "store.json").read_text())
        (path / "store.json").write_text(json.dumps({**config, "version": 2}))
        with pytest.raises(
            PersistFormatError,
            match=rf"unsupported store format 2 \(supported: {STORE_FORMAT_VERSION}\)",
        ):
            open_store(path)

    def test_format_3_bundle_rejected(self, store):
        """Format 3 laid its time-list records out in uint32 words; no reader
        of that layout is kept, so such a bundle is refused for its version."""
        path, _ = store
        config = json.loads((path / "store.json").read_text())
        (path / "store.json").write_text(json.dumps({**config, "version": 3}))
        with pytest.raises(
            PersistFormatError, match=r"unsupported store format 3 \(supported: 4\)"
        ):
            open_store(path)

    def test_missing_array_rejected(self, store):
        path, _ = store
        self.rewrite_npz(path, dir_first_page=None)
        with pytest.raises(PersistFormatError, match="dir_first_page"):
            open_store(path)

    def test_missing_file_still_file_not_found(self, tmp_path):
        """Only unreadable *content* is a format error: an absent ``.npz``
        stays the OS's ``FileNotFoundError``."""
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path / "absent.npz")

    @pytest.mark.parametrize(
        "name,content,problem",
        [
            ("network.json", "{not json", "network.json is not valid JSON"),
            ("network.json", '{"version": 1, "nodes": []}', "network.json is missing key 'segments'"),
            ("network.json", '{"version": 99}', "unsupported network format 99"),
            ("speed_model.npz", b"not an npz archive", "speed_model.npz is not a readable .npz"),
            ("speed_model.npz", {"stats_sum": None}, "missing required arrays: stats_sum"),
            (
                "speed_model.npz",
                {"stats_max": lambda column: column[:-1]},
                r"stats_max holds float64\[\d+\], expected float64\[\d+\] like keys",
            ),
            (
                "speed_model.npz",
                {"keys": lambda column: column.astype(float)},
                "keys hold float64, not integers",
            ),
            (
                "speed_model.npz",
                {"keys": lambda column: column[::-1]},
                "key .* at row 1 is out of order: keys must strictly ascend",
            ),
            (
                "speed_model.npz",
                {"keys": lambda column: np.concatenate((column[:1], column[:-1]))},
                "key .* at row 1 repeats: keys must strictly ascend",
            ),
            ("store.json", f'{{"version": {STORE_FORMAT_VERSION}}}', "store.json delta_t_s is None"),
            (
                "store.json",
                f'{{"version": {STORE_FORMAT_VERSION}, "delta_t_s": 0}}',
                "store.json delta_t_s is 0",
            ),
            # The sizing knob: typed errors, not int()'s, and no silent resize.
            (
                "store.json",
                f'{{"version": {STORE_FORMAT_VERSION}, "delta_t_s": 300}}',
                "store.json engine_pool_pages is None",
            ),
            ("store.json", {"engine_pool_pages": None}, "store.json engine_pool_pages is None"),
            ("store.json", {"engine_pool_pages": "x"}, "store.json engine_pool_pages is 'x'"),
            ("store.json", {"engine_pool_pages": -5}, "store.json engine_pool_pages is -5"),
            ("store.json", {"engine_pool_pages": 0}, "store.json engine_pool_pages is 0"),
            ("store.json", {"engine_pool_pages": True}, "store.json engine_pool_pages is True"),
            ("store.json", {"engine_pool_pages": 1.5}, "store.json engine_pool_pages is 1.5"),
            # Directory rows that name no entry: a dict rewrites row 0 of
            # the named column (a float value makes the column float).
            ("directory.npz", {"dir_slot": -1}, "row 0 names no entry: .* slot -1 of 288"),
            ("directory.npz", {"dir_slot": 10**6}, "row 0 names no entry: .* slot 1000000"),
            ("directory.npz", {"dir_segment": -7}, "row 0 names no entry: segment -7"),
            ("directory.npz", {"dir_slot": float("nan")}, "dir_slot holds float64"),
            # The same rows arriving as a journal append delta.
            ("journal", [(1, 288, 0, 1, 0, 4)], "delta row 0 names no entry: segment 1, slot 288"),
            ("journal", [(1, 0, 0, 1, 0, 4), (1 << 62, 0, 0, 1, 0, 4)], "delta row 1 names no entry"),
            ("journal", [(1, 0, 10**6, 1, 0, 4)], r"delta pointer \(1000000, 1, 0, 4\) outside"),
        ],
        ids=[
            "network-garbage",
            "network-no-segments",
            "network-version-99",
            "speed-model-garbage",
            "speed-model-no-stats-sum",
            "speed-model-short-column",
            "speed-model-float-keys",
            "speed-model-unsorted-keys",
            "speed-model-duplicate-keys",
            "store-no-delta-t",
            "store-delta-t-0",
            "store-engine-pool-missing",
            "store-engine-pool-null",
            "store-engine-pool-string",
            "store-engine-pool-negative",
            "store-engine-pool-zero",
            "store-engine-pool-bool",
            "store-engine-pool-fraction",
            "directory-slot-negative",
            "directory-slot-past-the-day",
            "directory-segment-negative",
            "directory-float-nan-column",
            "journal-slot-past-the-day",
            "journal-segment-overflows-the-key",
            "journal-pointer-outside",
        ],
    )
    def test_malformed_sidecar_rejected(
        self, store, name, content, problem, recwarn, monkeypatch
    ):
        path, _ = store
        if name == "journal":
            disk = FileBackedDisk.open(path / "disk")
            disk.commit(meta=encode_append_delta(300, content))
            disk.close()
        elif name == "store.json":
            if isinstance(content, dict):  # overrides onto the valid sidecar
                content = json.dumps({**json.loads((path / name).read_text()), **content})
            (path / name).write_text(content)
            monkeypatch.setattr(
                FileBackedDisk, "open", lambda *a, **k: pytest.fail("disk opened")
            )
        elif name == "speed_model.npz":
            if isinstance(content, bytes):
                (path / name).write_bytes(content)
            else:
                self.rewrite_npz(path, name, **content)
        elif isinstance(content, dict):
            with np.load(path / "directory.npz") as data:
                columns = {
                    column: data[column].astype(type(value)) for column, value in content.items()
                }
            for column, value in content.items():
                columns[column][0] = value
            self.rewrite_npz(path, **columns)
        else:
            (path / name).write_text(content)
        with pytest.raises(PersistFormatError, match=problem):
            open_store(path)
        assert not recwarn.list
