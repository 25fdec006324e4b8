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
from repro.storage.backends.filedisk import DISK_FORMAT_VERSION, generation_file
from repro.storage.crashsim import (
    CRASH_BEFORE_FSYNC,
    CRASH_MID_RENAME,
    TORN_PAGE_WRITE,
    TRUNCATED_JOURNAL_RECORD,
    CrashPlan,
    CrashSpec,
    SimulatedCrash,
    corrupt_journal_record,
    corrupt_page,
    corrupt_sidecar,
    corrupt_superblock,
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
    """A crash anywhere inside checkpoint leaves the old generation
    authoritative and untouched."""

    @pytest.mark.parametrize("kind", [CRASH_BEFORE_FSYNC, CRASH_MID_RENAME])
    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_crash_during_checkpoint_keeps_old_generation(
        self, tmp_path, kind, at
    ):
        path = build_store(tmp_path / "store")
        oracle = durable_state(path)

        plan = CrashPlan.of(CrashSpec(kind, at=at))
        disk = FileBackedDisk.open(path, crash_plan=plan)
        with pytest.raises(SimulatedCrash):
            disk.checkpoint()

        state = durable_state(path)
        assert state == oracle
        assert state["generation"] == oracle["generation"]

    def test_checkpoint_completes_without_plan(self, tmp_path):
        path = build_store(tmp_path / "store")
        before = durable_state(path)
        disk = FileBackedDisk.open(path)
        old_generation = disk.generation
        disk.checkpoint()
        disk.close()
        after = durable_state(path)
        assert after["generation"] == old_generation + 1
        assert after["buffer"] == before["buffer"]
        assert after["used"] == before["used"]
        assert after["metas"] == ()  # journal folded into the snapshot


class TestCorruptionMatrix:
    """Every flipped bit is either detected with a typed error naming
    the damage, or provably harmless — never a silent wrong answer."""

    def test_page_bit_flip_names_page(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).checkpoint()  # pages into the snapshot
        corrupt_page(path, page_id=2, page_size=PAGE)
        disk = FileBackedDisk.open(path)  # lazy: open itself succeeds
        assert disk.read_page(1)  # undamaged pages still serve
        with pytest.raises(CorruptSnapshotError) as exc:
            disk.read_page(2)
        assert exc.value.page_id == 2
        assert "page 2" in str(exc.value)

    def test_verify_sweeps_all_pages(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).checkpoint()
        corrupt_page(path, page_id=3, page_size=PAGE)
        disk = FileBackedDisk.open(path)
        with pytest.raises(CorruptSnapshotError):
            disk.verify()

    def test_sidecar_bit_flip_detected_at_open(self, tmp_path):
        path = build_store(tmp_path / "store")
        FileBackedDisk.open(path).checkpoint()  # sidecar gains entries
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

    @pytest.mark.parametrize("version", [True, 0, -7, 2], ids=["true", "0", "-7", "2"])
    def test_only_the_supported_version_opens(self, tmp_path, version):
        """Any version but exactly the supported one is refused, even under
        a self-checksum recomputed to match it."""
        path = build_store(tmp_path / "store")
        superblock = path / "superblock.json"
        payload = json.loads(superblock.read_text())
        del payload["checksum"]
        payload["format_version"] = version
        payload["checksum"] = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
        superblock.write_text(json.dumps(payload))
        with pytest.raises(
            DiskFormatError,
            match=f"version {version!r} is not the supported version {DISK_FORMAT_VERSION}",
        ):
            FileBackedDisk.open(path)

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
        FileBackedDisk.open(path).checkpoint()
        state = durable_state(path)
        pages = [
            state["buffer"][p * PAGE : p * PAGE + used] for p, used in enumerate(state["used"])
        ]
        return path, pages

    @pytest.mark.parametrize("bad", [0, 3, PAGES - 1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("access", ["extent", "verify", "checkpoint"])
    def test_bad_page_in_a_run_is_named_and_good_pages_serve(self, snapshot, bad, access):
        path, pages = snapshot
        corrupt_page(path, page_id=bad, page_size=PAGE)
        disk = FileBackedDisk.open(path)
        touch = {
            "extent": lambda: disk.extent_bytes([0], [0], [self.PAGES * PAGE]),
            "verify": disk.verify,
            "checkpoint": disk.checkpoint,
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
        disk.checkpoint()  # pages the replay restored
        self.assert_sidecar_fresh(path)
        disk.write_page(3, b"\x31" * PAGE)  # a page whose CRC was just published
        disk.checkpoint()
        self.assert_sidecar_fresh(path)
        disk.write_extent(1, b"\x42" * (PAGE + 5))
        first = disk.allocate(2)
        disk.write_page(first + 1, b"\x53" * 7)
        disk.commit(meta=b"m3")
        disk.close()
        reopened = FileBackedDisk.open(path)
        assert reopened.journal_metas == (b"m3",)
        reopened.checkpoint()
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
        disk.checkpoint()
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

    def test_crash_during_store_append_recovers(self, store, test_dataset):
        from repro.trajectory.model import MatchedTrajectory, SegmentVisit, day_time

        route = [0]
        while len(route) < 3:
            route.append(test_dataset.network.successors(route[-1])[0])
        T = float(day_time(11))
        trajectory = MatchedTrajectory(
            trajectory_id=99, taxi_id=0, date=12,
            visits=[SegmentVisit(route[i], T + 30 * i, 6.0)
                    for i in range(len(route))],
        )

        engine = open_store(
            store, crash_plan=CrashPlan.of(CrashSpec(TORN_PAGE_WRITE, at=1))
        )
        index = engine.st_index(300)
        slot = index.slot_of(T)
        before = index.time_list(route[0], slot)
        with pytest.raises(SimulatedCrash):
            engine.append_trajectories([trajectory], update_database=False)

        recovered = open_store(store)
        assert recovered.st_index(300).time_list(route[0], slot) == before

    def test_corrupted_store_page_is_typed_not_wrong(self, store):
        disk = open_store(store).disk
        page_size = disk.page_size
        corrupt_page(store / "disk", page_id=0, page_size=page_size)
        engine = open_store(store)
        with pytest.raises(CorruptSnapshotError):
            engine.disk.verify()

    def test_corrupted_store_superblock_fails_open(self, store):
        corrupt_superblock(store / "disk")
        with pytest.raises(CorruptSnapshotError):
            open_store(store)
