"""Deterministic crash and corruption matrices for the durable tier.

Every test follows the same oracle protocol: build a store, capture its
durable state, inject exactly one deterministic failure (counter-keyed,
no sleeps, no randomness), then reopen and demand one of the two
permitted outcomes — bit-identical pre-crash state, or a typed error
naming the damage.  Silent wrong answers and raw numpy/struct noise are
both failures.

Run with ``pytest -m durability`` (also part of the default run).
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib

import pytest

from repro.io.persist import open_store, save_store
from repro.storage.backends import (
    CorruptSnapshotError,
    DiskFormatError,
    FileBackedDisk,
    TornWriteError,
)
from repro.storage.backends import filedisk
from repro.storage.backends.filedisk import SUPERBLOCK, generation_file
from repro.storage.disk import DiskError
from repro.storage.crashsim import (
    CRASH_BEFORE_FSYNC,
    CRASH_MID_RENAME,
    FSYNC,
    JOURNAL,
    RENAME,
    TORN_PAGE_WRITE,
    TRUNCATED_JOURNAL_RECORD,
    CrashPlan,
    CrashSpec,
    SimulatedCrash,
    corrupt_journal_record,
    corrupt_page,
    corrupt_sidecar,
    corrupt_superblock,
    counting_plan,
    crash_points,
)

pytestmark = pytest.mark.durability

PAGE = 128


def build_store(path, pages=4):
    """A store with `pages` committed pages and two journal records."""
    disk = FileBackedDisk(path, page_size=PAGE)
    first = disk.allocate(pages)
    for i in range(pages):
        disk.write_page(first + i, bytes([i + 1]) * (PAGE - i))
    disk.commit(meta=b"m1")
    disk.write_page(first, b"\xaa" * PAGE)
    disk.commit(meta=b"m2")
    disk.close()
    return path


def superblock(path):
    return json.loads((path / SUPERBLOCK).read_text())


def rewrite_superblock(path, **changes):
    """Change superblock fields (``None`` drops one) under a recomputed
    self-checksum."""
    payload = superblock(path)
    del payload["checksum"]
    payload = {key: value for key, value in {**payload, **changes}.items() if value is not None}
    payload["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
    (path / SUPERBLOCK).write_text(json.dumps(payload))


def crash_matrix(pristine, workdir, run, fsyncs, renames):
    """Run ``run(path, plan)`` on a copy of ``pristine`` once unplanned,
    counting its fsync and rename points — they must number ``fsyncs`` and
    ``renames`` — then once per point with a crash planned there.  Returns
    the unplanned copy and every crashed copy."""
    unplanned = shutil.copytree(pristine, workdir / "unplanned")
    points = crash_points(run(unplanned, counting_plan()))
    assert (points[FSYNC], points[RENAME]) == (fsyncs, renames)
    crashed = []
    for kind, hook in ((CRASH_BEFORE_FSYNC, FSYNC), (CRASH_MID_RENAME, RENAME)):
        for at in range(1, points[hook] + 1):
            path = shutil.copytree(pristine, workdir / f"{kind}-{at}")
            with pytest.raises(SimulatedCrash):
                run(path, CrashPlan.of(CrashSpec(kind, at=at)))
            crashed.append(path)
    return unplanned, crashed


def durable_state(path):
    """Everything the store promises to preserve, for oracle equality."""
    disk = FileBackedDisk.open(path)
    try:
        buffer, used = disk.export_state()  # faults + checksum-verifies all
        return {
            "buffer": buffer,
            "used": used,
            "generation": disk.generation,
            "metas": disk.journal_metas,
        }
    finally:
        disk.close()


class TestJournalCrashMatrix:
    """One injected failure during a journal append; reopen recovers the
    exact pre-crash state."""

    @pytest.mark.parametrize(
        "kind", [CRASH_BEFORE_FSYNC, TORN_PAGE_WRITE, TRUNCATED_JOURNAL_RECORD]
    )
    def test_crash_during_append_recovers_oracle(self, tmp_path, kind):
        path = build_store(tmp_path / "store")
        oracle = durable_state(path)

        plan = CrashPlan.of(CrashSpec(kind, at=1))
        disk = FileBackedDisk.open(path, crash_plan=plan)
        disk.write_page(1, b"\xbb" * PAGE)
        with pytest.raises(SimulatedCrash):
            disk.commit(meta=b"doomed")

        recovered = FileBackedDisk.open(path)
        # Torn/truncated records leave a damaged tail the replay trims;
        # a crash before fsync leaves no durable trace at all.
        assert recovered.recovered_tail == (kind != CRASH_BEFORE_FSYNC)
        recovered.close()
        assert durable_state(path) == oracle

    @pytest.mark.parametrize(
        "kind", [CRASH_BEFORE_FSYNC, TORN_PAGE_WRITE, TRUNCATED_JOURNAL_RECORD]
    )
    def test_crash_is_deterministic(self, tmp_path, kind):
        states = []
        for attempt in range(2):
            path = build_store(tmp_path / f"store{attempt}")
            plan = CrashPlan.of(CrashSpec(kind, at=1))
            disk = FileBackedDisk.open(path, crash_plan=plan)
            disk.write_page(0, b"\xcc" * PAGE)
            with pytest.raises(SimulatedCrash):
                disk.commit(meta=b"doomed")
            states.append(durable_state(path))
        assert states[0] == states[1]

    def test_append_after_recovery_works(self, tmp_path):
        path = build_store(tmp_path / "store")
        plan = CrashPlan.of(CrashSpec(TORN_PAGE_WRITE, at=1))
        disk = FileBackedDisk.open(path, crash_plan=plan)
        disk.write_page(2, b"\xdd" * PAGE)
        with pytest.raises(SimulatedCrash):
            disk.commit(meta=b"doomed")

        survivor = FileBackedDisk.open(path)
        assert survivor.recovered_tail
        survivor.write_page(2, b"\xee" * PAGE)
        survivor.commit(meta=b"m3")
        survivor.close()

        final = FileBackedDisk.open(path)
        assert final.journal_metas == (b"m1", b"m2", b"m3")
        assert final.read_page(2) == b"\xee" * PAGE
        assert not final.recovered_tail

    def test_second_commit_crash_counter_keyed(self, tmp_path):
        """`at=2` survives the first commit and kills the second."""
        path = tmp_path / "store"
        plan = CrashPlan.of(CrashSpec(TRUNCATED_JOURNAL_RECORD, at=2))
        disk = FileBackedDisk(path, page_size=PAGE, crash_plan=plan)
        disk.allocate(1)
        disk.write_page(0, b"\x01" * PAGE)
        disk.commit(meta=b"first")  # survives
        disk.write_page(0, b"\x02" * PAGE)
        with pytest.raises(SimulatedCrash):
            disk.commit(meta=b"second")
        recovered = FileBackedDisk.open(path)
        assert recovered.journal_metas == (b"first",)
        assert recovered.read_page(0) == b"\x01" * PAGE


class TestCheckpointCrashMatrix:
    """A crash at any fsync or rename point of a checkpoint — a journal
    commit, with or without the compaction that follows once the journal
    is due — or of a compaction leaves the last durable state whole.  The
    points are counted by an unplanned run of each path."""

    @pytest.mark.parametrize(
        "operation, due, fsyncs, renames",
        [
            ("checkpoint", False, 1, 0),  # the journal record
            ("checkpoint", True, 5, 4),  # ... then data, sidecar, journal, superblock
            ("compact", False, 4, 4),
        ],
        ids=["checkpoint", "checkpoint-compacts", "compact"],
    )
    def test_every_crash_point_keeps_a_durable_state(
        self, tmp_path, monkeypatch, operation, due, fsyncs, renames
    ):
        pristine = build_store(tmp_path / "pristine", pages=128)
        FileBackedDisk.open(pristine).compact()
        disk = FileBackedDisk.open(pristine)
        disk.write_page(5, b"\x55" * PAGE)
        disk.commit(meta=b"m3")
        assert not disk.checkpoint_compacts
        disk.close()
        pre = durable_state(pristine)
        committed = shutil.copytree(pristine, tmp_path / "committed")
        disk = FileBackedDisk.open(committed)
        disk.write_page(9, b"\x99" * PAGE)
        disk.commit()
        disk.close()
        mid = durable_state(committed)
        if due:
            monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", 0.0)

        def run(path, plan):
            disk = FileBackedDisk.open(path, crash_plan=plan)
            disk.write_page(9, b"\x99" * PAGE)
            getattr(disk, operation)()
            return disk

        unplanned, crashed = crash_matrix(pristine, tmp_path, run, fsyncs, renames)
        post = durable_state(unplanned)
        if operation == "checkpoint" and not due:
            assert post == mid  # the journal is the delta
        else:
            assert post == dict(mid, generation=pre["generation"] + 1, metas=())
        for path in crashed:
            # Every point precedes the journal fsync or the superblock flip;
            # only a compacting checkpoint has a journaled state in between.
            assert durable_state(path) in ((pre, mid) if due else (pre,))

    @pytest.mark.parametrize("operation", ["checkpoint", "compact"])
    def test_a_read_only_disk_refuses_to_checkpoint(self, tmp_path, operation):
        path = build_store(tmp_path / "store")
        files = {p.name: p.read_bytes() for p in path.iterdir()}
        disk = FileBackedDisk.open(path, readonly=True)
        disk.write_page(1, b"\x11" * PAGE)
        with pytest.raises(DiskError, match="read-only"):
            getattr(disk, operation)()
        assert {p.name: p.read_bytes() for p in path.iterdir()} == files

    def test_checkpoint_completes_without_plan(self, tmp_path):
        path = build_store(tmp_path / "store")
        before = durable_state(path)
        disk = FileBackedDisk.open(path)
        old_generation = disk.generation
        assert disk.checkpoint_compacts  # the data file is still empty
        disk.checkpoint()
        disk.close()
        after = durable_state(path)
        assert after["generation"] == old_generation + 1
        assert after["buffer"] == before["buffer"]
        assert after["used"] == before["used"]
        assert after["metas"] == ()  # journal folded into the snapshot

    @pytest.mark.parametrize("meta_bytes, compacts", [(104, False), (105, True)])
    def test_checkpoint_compacts_exactly_past_the_share(self, tmp_path, meta_bytes, compacts):
        """A 32-page data file of 128-byte pages is 4,096 bytes, so the
        journal may hold 128 before a checkpoint compacts: one record of
        a 24-byte frame and a 104-byte meta is within the share, one more
        meta byte is past it."""
        path = build_store(tmp_path / "store", pages=32)
        FileBackedDisk.open(path).compact()
        disk = FileBackedDisk.open(path)
        assert not disk.checkpoint_compacts  # an empty journal
        disk.commit(meta=b"x" * meta_bytes)
        assert generation_file(path, "log").stat().st_size == 24 + meta_bytes
        assert disk.checkpoint_compacts == compacts
        generation = disk.generation
        disk.checkpoint()
        assert disk.generation == generation + compacts
        assert disk.journal_record_count == (0 if compacts else 1)


class TestCorruptionMatrix:
    """Every flipped bit is either detected with a typed error naming
    the damage, or provably harmless — never a silent wrong answer."""

    def test_page_bit_flip_names_page(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).compact()  # pages into the snapshot
        corrupt_page(path, page_id=2)
        disk = FileBackedDisk.open(path)  # lazy: open itself succeeds
        assert disk.read_page(1)  # undamaged pages still serve
        with pytest.raises(CorruptSnapshotError) as exc:
            disk.read_page(2)
        assert exc.value.page_id == 2
        assert "page 2" in str(exc.value)

    def test_verify_sweeps_all_pages(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).compact()
        corrupt_page(path, page_id=3)
        disk = FileBackedDisk.open(path)
        with pytest.raises(CorruptSnapshotError):
            disk.verify()

    def test_sidecar_bit_flip_detected_at_open(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).compact()  # sidecar gains entries
        corrupt_sidecar(path, page_id=0)
        with pytest.raises(CorruptSnapshotError):
            FileBackedDisk.open(path)

    def test_superblock_bit_flip_detected_at_open(self, tmp_path):
        path = build_store(tmp_path / "store")
        corrupt_superblock(path)
        with pytest.raises(CorruptSnapshotError):
            FileBackedDisk.open(path)

    def test_interior_journal_damage_is_typed(self, tmp_path):
        """Damage to a non-final record cannot be a crash signature, so
        it must surface as TornWriteError, not silent truncation."""
        path = build_store(tmp_path / "store")  # two journal records
        corrupt_journal_record(path, record_index=0)
        with pytest.raises(TornWriteError) as exc:
            FileBackedDisk.open(path)
        assert exc.value.record_index == 0

    def test_final_journal_damage_is_recovered(self, tmp_path):
        path = build_store(tmp_path / "store")
        corrupt_journal_record(path, record_index=1)  # the final record
        disk = FileBackedDisk.open(path)
        assert disk.recovered_tail
        assert disk.journal_metas == (b"m1",)

    @pytest.mark.parametrize("record_index", [5, -1])
    def test_journal_record_index_out_of_range(self, tmp_path, record_index):
        """The helper refuses a record the journal does not hold and
        leaves the files untouched."""
        path = build_store(tmp_path / "store")  # two journal records
        oracle = durable_state(path)
        with pytest.raises(ValueError, match="2 record"):
            corrupt_journal_record(path, record_index=record_index)
        assert durable_state(path) == oracle

    def test_bad_magic_rejected(self, tmp_path):
        path = build_store(tmp_path / "store")
        superblock = path / "superblock.json"
        payload = json.loads(superblock.read_text())
        payload["magic"] = "not-a-repro-disk"
        superblock.write_text(json.dumps(payload))
        with pytest.raises(DiskFormatError, match="magic"):
            FileBackedDisk.open(path)

    def test_future_version_rejected(self, tmp_path):
        path = build_store(tmp_path / "store")
        superblock = path / "superblock.json"
        payload = json.loads(superblock.read_text())
        payload["format_version"] = 99
        superblock.write_text(json.dumps(payload))
        with pytest.raises(DiskFormatError, match="99"):
            FileBackedDisk.open(path)

    @pytest.mark.parametrize(
        "version, fields",
        [
            (True, {}),
            (0, {}),
            (-7, {}),
            (2, {}),
            (2, {"base_generation": 1, "base_pages": 4, "delta_pages": 0, "delta_crc": 0}),
            (99, {}),
        ],
        ids=["true", "0", "-7", "2", "2-with-delta-fields", "99"],
    )
    def test_only_format_1_opens(self, tmp_path, version, fields):
        """Any version but exactly 1 is refused, even under a self-checksum
        recomputed to match it — format 2's base-plus-delta superblock
        included, with or without its delta fields."""
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).compact()
        oracle = durable_state(path)
        rewrite_superblock(path, format_version=version, **fields)
        with pytest.raises(
            DiskFormatError,
            match=rf"version {version!r} is not the supported version 1$",
        ):
            FileBackedDisk.open(path)
        rewrite_superblock(path, format_version=1, **dict.fromkeys(fields))
        assert durable_state(path) == oracle

    def test_superblock_holds_the_format_1_fields(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).compact()
        assert sorted(superblock(path)) == [
            "checksum", "format_version", "generation", "magic", "num_pages",
            "page_size", "sidecar_crc",
        ]
        assert superblock(path)["format_version"] == 1
        assert sorted(p.name for p in path.iterdir()) == [
            "journal.1.log", "pages.1.bin", "pages.1.crc", "superblock.json",
        ]

    def test_garbage_superblock_rejected(self, tmp_path):
        path = build_store(tmp_path / "store")
        (path / "superblock.json").write_text("not json {")
        with pytest.raises(DiskFormatError):
            FileBackedDisk.open(path)

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(DiskFormatError, match="missing superblock"):
            FileBackedDisk.open(tmp_path / "nothing-here")


class TestRunFaultIn:
    """Pages fault in by runs, one read per run of non-resident pages; a
    bad page inside a run is named exactly and nothing past it is served."""

    PAGES = 8

    @pytest.fixture()
    def snapshot(self, tmp_path):
        """A checkpointed store (every page in the data file) and the
        bytes each page must serve."""
        path = build_store(tmp_path / "store", pages=self.PAGES)
        FileBackedDisk.open(path).compact()
        state = durable_state(path)
        pages = [
            state["buffer"][p * PAGE : p * PAGE + used] for p, used in enumerate(state["used"])
        ]
        return path, pages

    @pytest.mark.parametrize("bad", [0, 3, PAGES - 1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("access", ["extent", "verify", "compact"])
    def test_bad_page_in_a_run_is_named_and_good_pages_serve(self, snapshot, bad, access):
        path, pages = snapshot
        corrupt_page(path, page_id=bad)
        disk = FileBackedDisk.open(path)
        touch = {
            "extent": lambda: disk.extent_bytes([0], [0], [self.PAGES * PAGE]),
            "verify": disk.verify,
            "compact": disk.compact,
        }[access]
        with pytest.raises(CorruptSnapshotError) as exc:
            touch()
        assert exc.value.page_id == bad
        assert f"page {bad} failed checksum" in str(exc.value)
        assert disk.pages_faulted == bad  # the verified prefix of the run only
        for page_id, payload in enumerate(pages):
            if page_id != bad:
                assert disk.read_page(page_id) == payload
        assert disk.pages_faulted == self.PAGES - 1
        with pytest.raises(CorruptSnapshotError):
            disk.read_page(bad)

    def test_journal_checkpoint_never_reads_a_corrupt_page(self, tmp_path):
        """A checkpoint that does not compact journals the changed pages
        and touches no other page, so a corrupt one stays unverified,
        unpublished and typed: it raises on every later read and on the
        compaction that would re-publish it."""
        path = build_store(tmp_path / "store", pages=64)
        FileBackedDisk.open(path).compact()
        corrupt_page(path, page_id=3)
        disk = FileBackedDisk.open(path)
        disk.write_page(40, b"\x40" * PAGE)
        disk.checkpoint()
        assert disk.journal_record_count == 1
        assert disk.pages_faulted == 1  # page 40, read before its write
        for reader in (disk, FileBackedDisk.open(path)):
            with pytest.raises(CorruptSnapshotError) as exc:
                reader.read_page(3)
            assert exc.value.page_id == 3
            assert reader.read_page(40) == b"\x40" * PAGE
        with pytest.raises(CorruptSnapshotError) as exc:
            FileBackedDisk.open(path).compact()
        assert exc.value.page_id == 3

    def test_data_file_truncated_mid_run(self, snapshot):
        path, pages = snapshot
        disk = FileBackedDisk.open(path)  # the size check at open passes
        os.truncate(generation_file(path, "bin"), 5 * PAGE + 10)
        with pytest.raises(CorruptSnapshotError, match="ends inside page 5") as exc:
            disk.verify()
        assert exc.value.page_id == 5
        assert disk.pages_faulted == 5
        assert [disk.read_page(p) for p in range(5)] == pages[:5]

    @staticmethod
    def assert_sidecar_fresh(path):
        """The published sidecar equals a from-scratch CRC of every page."""
        data = generation_file(path, "bin").read_bytes()
        sidecar = generation_file(path, "crc").read_bytes()
        assert [crc for crc, _ in struct.iter_unpack("<II", sidecar)] == [
            zlib.crc32(data[lo : lo + PAGE]) for lo in range(0, len(data), PAGE)
        ]

    def test_checkpoint_recomputes_crcs_of_changed_pages(self, tmp_path):
        """A checkpoint reuses the CRC of every page it verified and
        recomputes the rest: pages written in this process, pages a
        journal replay restored and freshly allocated pages."""
        path = build_store(tmp_path / "store")  # two journal records
        disk = FileBackedDisk.open(path)
        disk.compact()  # pages the replay restored
        self.assert_sidecar_fresh(path)
        disk.write_page(3, b"\x31" * PAGE)  # a page whose CRC was just published
        disk.compact()
        self.assert_sidecar_fresh(path)
        disk.write_extent(1, b"\x42" * (PAGE + 5))
        first = disk.allocate(2)
        disk.write_page(first + 1, b"\x53" * 7)
        disk.commit(meta=b"m3")
        disk.close()
        reopened = FileBackedDisk.open(path)
        assert reopened.journal_metas == (b"m3",)
        reopened.compact()
        self.assert_sidecar_fresh(path)
        FileBackedDisk.open(path).verify()


class TestShortWrites:
    """``os.write`` may write fewer bytes than asked (Linux caps one call
    at ~2 GiB); every durable write loops until all bytes are out."""

    @staticmethod
    def run(path):
        disk = FileBackedDisk(path, page_size=PAGE)
        disk.allocate(64)  # 8 KiB of pages, a journal record past 8 KiB
        for page_id in range(64):
            disk.write_page(page_id, bytes([page_id]) * (PAGE - page_id % 3))
        disk.commit(meta=b"m1")
        disk.compact()
        disk.write_extent(10, b"\x77" * (40 * PAGE))
        disk.commit(meta=b"m2")
        disk.close()
        files = {p.name: p.read_bytes() for p in sorted(path.iterdir())}
        reopened = FileBackedDisk.open(path)
        state = reopened.export_state(), reopened.journal_metas
        reopened.close()
        return files, state

    def test_capped_writes_give_identical_files_and_state(self, tmp_path, monkeypatch):
        uncapped = self.run(tmp_path / "uncapped")
        real_write = os.write
        capped_calls = []

        def capped(fd, data):
            capped_calls.append(len(data) > 4096)
            return real_write(fd, data[:4096])

        monkeypatch.setattr(os, "write", capped)
        assert self.run(tmp_path / "capped") == uncapped
        assert any(capped_calls)


class TestStoreLevelRecovery:
    """The same guarantees through the save_store/open_store bundle."""

    @pytest.fixture()
    def store(self, test_dataset, tmp_path):
        from repro.core.engine import ReachabilityEngine

        engine = ReachabilityEngine(
            test_dataset.network, test_dataset.database
        )
        directory = tmp_path / "bundle"
        save_store(engine, directory, 300)
        return directory

    @staticmethod
    def trajectory(network, trajectory_id, date):
        """A three-segment trip at 11:00 on ``date``."""
        from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time

        route = [0]
        while len(route) < 3:
            route.append(network.successors(route[-1])[0])
        return MatchedTrajectory(
            trajectory_id=trajectory_id, taxi_id=0, date=date,
            visits=[SegmentVisit(route[i], day_time(11) + 30 * i, 6.0)
                    for i in range(len(route))],
        )

    @staticmethod
    def store_state(path):
        """Pages, journal metas and directory columns of a reopened bundle."""
        engine = open_store(path)
        try:
            buffer, used = engine.disk.export_state()
            columns = engine.st_index(300).directory.columns()
            return buffer, used, engine.disk.journal_metas, {
                name: column.tolist() for name, column in columns.items()
            }
        finally:
            engine.disk.close()

    def test_crash_during_store_append_recovers(self, store, test_dataset):
        trajectory = self.trajectory(test_dataset.network, 99, 12)
        engine = open_store(
            store, crash_plan=CrashPlan.of(CrashSpec(TORN_PAGE_WRITE, at=1))
        )
        index = engine.st_index(300)
        segment, time_s = trajectory.visits[0].segment_id, trajectory.visits[0].time_s
        before = index.time_list(segment, index.slot_of(time_s))
        with pytest.raises(SimulatedCrash):
            engine.append_trajectories([trajectory], update_database=False)

        recovered = open_store(store)
        assert recovered.st_index(300).time_list(segment, index.slot_of(time_s)) == before

    @pytest.mark.parametrize(
        "variant, fsyncs, renames",
        [("unchanged", 0, 0), ("key-moved", 4, 4), ("compacting", 5, 5)],
    )
    def test_every_crash_point_of_an_in_place_save(
        self, store, test_dataset, tmp_path, monkeypatch, variant, fsyncs, renames
    ):
        """An in-place save finds every append in the journal already.  It
        writes nothing more while the bundle key holds and the journal is
        within its share; the metadata files and ``directory.npz`` when the
        key moved; ``directory.npz`` and the compaction when the journal is
        due.  A crash at any of its fsync or rename points reopens to
        exactly the pre- or the post-save state."""
        network = test_dataset.network
        engine = open_store(store)
        engine.append_trajectories([self.trajectory(network, 91, 12)], update_database=False)
        save_store(engine, store, 300)
        engine.append_trajectories([self.trajectory(network, 92, 13)], update_database=False)
        engine.disk.close()
        pre = self.store_state(store)
        if variant == "compacting":
            monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", 0.0)

        def run(path, plan):
            engine = open_store(path, crash_plan=plan)
            if variant == "key-moved":
                engine.database.extend_days(engine.database.num_days + 1)
            try:
                save_store(engine, path, 300)
            finally:
                engine.disk.close()
            return engine.disk

        unplanned, crashed = crash_matrix(store, tmp_path, run, fsyncs, renames)
        post = self.store_state(unplanned)
        assert pre[2] != ()
        assert post[2] == (() if variant == "compacting" else pre[2])
        assert post[:2] == pre[:2] and post[3] == pre[3]
        for path in crashed:
            assert self.store_state(path) in (pre, post)

    def test_every_crash_point_of_a_first_in_place_save(self, test_dataset, tmp_path):
        """The first in-place save of a freshly built store (``repro
        save`` builds on a FileBackedDisk inside the bundle) writes its
        pages once: one compaction and no journal record, then the
        bundle's files with ``directory.npz`` last.  Unplanned, it opens to
        the store a save of the same build to another path writes; a crash
        at any of its fsync or rename points leaves a bundle that
        ``open_store`` rejects as incomplete."""
        from repro.core.engine import ReachabilityEngine
        from repro.io.persist import PersistFormatError
        from repro.storage.disk import SimulatedDisk

        def engine_on(disk):
            return ReachabilityEngine(test_dataset.network, test_dataset.database, disk=disk)

        pristine = tmp_path / "pristine"
        FileBackedDisk(pristine / "disk", page_size=1024).close()

        def run(path, plan):
            disk = FileBackedDisk.open(path / "disk", crash_plan=plan)
            try:
                save_store(engine_on(disk), path, 300)
            finally:
                disk.close()
            assert crash_points(disk)[JOURNAL] == 0
            return disk

        unplanned, crashed = crash_matrix(pristine, tmp_path, run, fsyncs=8, renames=8)
        copied = save_store(engine_on(SimulatedDisk(page_size=1024)), tmp_path / "copied", 300)
        assert self.store_state(unplanned) == self.store_state(copied)
        assert superblock(unplanned / "disk")["generation"] == 1
        assert generation_file(unplanned / "disk", "log").stat().st_size == 0
        for path in crashed:
            with pytest.raises(PersistFormatError, match="is incomplete: missing"):
                open_store(path)

    @pytest.mark.parametrize("update_database", [False, True])
    def test_a_refused_read_only_save_writes_nothing(self, store, test_dataset, update_database):
        """An in-place save of a read-only store is refused before any
        file is written: the bundle stays byte-identical and reopens to its
        state before the save."""
        pre = self.store_state(store)
        files = {p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()}
        engine = open_store(store, readonly=True)
        engine.append_trajectories(
            [self.trajectory(test_dataset.network, 10**6, 3)], update_database=update_database
        )
        with pytest.raises(DiskError, match="read-only"):
            save_store(engine, store, 300)
        assert {p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()} == files
        assert self.store_state(store) == pre

    def test_corrupted_store_page_is_typed_not_wrong(self, store):
        corrupt_page(store / "disk", page_id=0)
        engine = open_store(store)
        with pytest.raises(CorruptSnapshotError):
            engine.disk.verify()

    def test_corrupted_store_superblock_fails_open(self, store):
        corrupt_superblock(store / "disk")
        with pytest.raises(CorruptSnapshotError):
            open_store(store)
