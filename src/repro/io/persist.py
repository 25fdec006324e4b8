"""Serialization of networks, databases and whole datasets.

Formats:

* **network** — JSON: nodes (id, x, y) and segments (id, start, end,
  shape, level, twin);
* **database** — one compressed ``.npz`` of flat arrays: per-trajectory
  metadata (ids, taxis, dates, offsets) plus the concatenated segment /
  time / speed columns;
* **dataset** — a directory holding ``network.json``,
  ``original_network.json``, ``database.npz`` and ``config.json`` so a
  built :class:`~repro.datasets.shenzhen_like.ShenzhenLikeDataset` round
  trips exactly;
* **store** — the durable engine bundle of :func:`save_store` /
  :func:`open_store`, the one persisted ST-Index form: a checksummed
  file-backed disk, ``store.json`` (format version, Δt and the engine's
  buffer-pool size) and ``directory.npz``, the time-list directory in the
  extent pointer format ``(first_page, num_pages, offset, length)`` with
  each column in the narrowest integer dtype that holds it, and
  ``speed_model.npz``, so a built index reopens without re-indexing and
  serves byte-identical records with identical I/O accounting.  Store
  ``.npz`` files carry fixed member timestamps: equal state, equal bytes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.network.model import RoadLevel, RoadNetwork, RoadSegment
from repro.network.segmentation import ResegmentationResult
from repro.spatial.geometry import Point
from repro.trajectory.store import SPEED_COLUMNS, TrajectoryDatabase

FORMAT_VERSION = 1

#: Version of the durable store bundle (:func:`save_store`): its directory
#: layout and the time-list record layout on its pages (2: column-major records,
#: read by :func:`repro.core.st_index.decode_time_list_columns`; 3: the speed
#: model in ``speed_model.npz``; 4: uint16 record words, a block widened as needed).
STORE_FORMAT_VERSION = 4


class PersistFormatError(ValueError):
    """A persisted artifact cannot be interpreted by this code.

    Raised for truncated or garbage files, wrong magic, unsupported
    format versions and shape/geometry violations found during loading —
    always with a message naming the file and the problem, never a raw
    ``numpy``/``zipfile``/``KeyError`` surfacing from the codec guts.
    Subclasses :class:`ValueError`, so callers that guarded against the
    old untyped raises keep working.
    """


def _check_version(found, supported: int, what: str) -> None:
    """Raise :class:`PersistFormatError` unless ``found`` is ``supported``."""
    if found != supported:
        raise PersistFormatError(f"unsupported {what} {found!r} (supported: {supported})")


def _npz_arrays(path: Path, what: str, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The named arrays of an ``.npz`` file, read in full.

    An unreadable archive or member, or a missing array, raises
    :class:`PersistFormatError` naming the file; an absent file stays
    the OS's ``FileNotFoundError``.
    """
    try:
        with np.load(path) as data:
            missing = [name for name in names if name not in data]
            if not missing:
                return {name: data[name] for name in names}
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise PersistFormatError(
            f"{what} file {path} is not a readable .npz archive: {exc}"
        ) from None
    raise PersistFormatError(
        f"{what} file {path} is missing required arrays: {', '.join(missing)}"
    )


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """An archive of ``arrays`` that ``np.load`` reads, deflated at level 1.

    Every member carries a fixed timestamp, not the wall clock, so equal
    arrays give equal bytes.
    """
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asanyarray(array), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0))
            archive.writestr(info, member.getvalue(), zipfile.ZIP_DEFLATED, 1)
    return out.getvalue()


def _narrowest(column: np.ndarray) -> np.ndarray:
    """``column`` in the narrowest integer dtype that holds its values
    (when they are non-negative, as the directory's columns are)."""
    lo, hi = (int(column.min()), int(column.max())) if column.size else (0, 0)
    return column.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)))


# -- road networks ------------------------------------------------------------


def network_to_dict(network: RoadNetwork) -> dict:
    """JSON-ready representation of a road network."""
    return {
        "version": FORMAT_VERSION,
        "nodes": [
            {"id": node_id, "x": point.x, "y": point.y}
            for node_id, point in sorted(network.nodes())
        ],
        "segments": [
            {
                "id": seg.segment_id,
                "start": seg.start_node,
                "end": seg.end_node,
                "shape": [[p.x, p.y] for p in seg.shape],
                "level": int(seg.level),
                "twin": seg.twin_id,
            }
            for seg in sorted(network.segments(), key=lambda s: s.segment_id)
        ],
    }


def network_from_dict(payload: dict) -> RoadNetwork:
    """Inverse of :func:`network_to_dict`."""
    _check_version(payload.get("version"), FORMAT_VERSION, "network format")
    network = RoadNetwork()
    for node in payload["nodes"]:
        network.add_node(node["id"], Point(node["x"], node["y"]))
    for seg in payload["segments"]:
        network.add_segment(
            RoadSegment(
                segment_id=seg["id"],
                start_node=seg["start"],
                end_node=seg["end"],
                shape=tuple(Point(x, y) for x, y in seg["shape"]),
                level=RoadLevel(seg["level"]),
                twin_id=seg["twin"],
            )
        )
    return network


def save_network(network: RoadNetwork, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(network_to_dict(network)))
    return path


def _read_json_object(path: Path) -> dict:
    """A JSON file's top-level object, or :class:`PersistFormatError`."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise PersistFormatError(f"{path.name} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise PersistFormatError(f"{path.name} is not a JSON object")
    return payload


def load_network(path: str | Path) -> RoadNetwork:
    """Inverse of :func:`save_network`; a malformed file raises
    :class:`PersistFormatError` naming it."""
    path = Path(path)
    payload = _read_json_object(path)
    try:
        network = network_from_dict(payload)
    except KeyError as exc:
        raise PersistFormatError(f"{path.name} is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise PersistFormatError(f"{path.name} is malformed: {exc}") from None
    network.check_invariants()
    return network


# -- trajectory databases --------------------------------------------------------


def save_database(database: TrajectoryDatabase, path: str | Path) -> Path:
    """Persist a trajectory database as flat arrays."""
    path = Path(path)
    trajectory_ids: list[int] = []
    taxi_ids: list[int] = []
    dates: list[int] = []
    lengths: list[int] = []
    seg_parts, time_parts, speed_parts = [], [], []
    for compact in database._trajectories.values():
        trajectory_ids.append(compact.trajectory_id)
        taxi_ids.append(compact.taxi_id)
        dates.append(compact.date)
        lengths.append(len(compact.segments))
        seg_parts.append(compact.segments)
        time_parts.append(compact.times)
        speed_parts.append(compact.speeds)
    np.savez_compressed(
        path,
        version=np.int64(FORMAT_VERSION),
        num_taxis=np.int64(database.num_taxis),
        num_days=np.int64(database.num_days),
        trajectory_ids=np.asarray(trajectory_ids, dtype=np.int64),
        taxi_ids=np.asarray(taxi_ids, dtype=np.int64),
        dates=np.asarray(dates, dtype=np.int64),
        lengths=np.asarray(lengths, dtype=np.int64),
        segments=(
            np.concatenate(seg_parts) if seg_parts else np.empty(0, np.int32)
        ),
        times=(
            np.concatenate(time_parts) if time_parts else np.empty(0, np.float64)
        ),
        speeds=(
            np.concatenate(speed_parts)
            if speed_parts
            else np.empty(0, np.float32)
        ),
    )
    # np.savez appends .npz when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_database(path: str | Path) -> TrajectoryDatabase:
    """Inverse of :func:`save_database`."""
    path = Path(path)
    data = _npz_arrays(
        path,
        "database",
        (
            "version",
            "num_taxis",
            "num_days",
            "trajectory_ids",
            "taxi_ids",
            "dates",
            "lengths",
            "segments",
            "times",
            "speeds",
        ),
    )
    _check_version(int(data["version"]), FORMAT_VERSION, "database format")
    database = TrajectoryDatabase(
        num_taxis=int(data["num_taxis"]), num_days=int(data["num_days"])
    )
    offsets = np.concatenate([[0], np.cumsum(data["lengths"])])
    segments = data["segments"]
    times = data["times"]
    speeds = data["speeds"]
    for i, trajectory_id in enumerate(data["trajectory_ids"]):
        lo, hi = offsets[i], offsets[i + 1]
        database.add_arrays(
            trajectory_id=int(trajectory_id),
            taxi_id=int(data["taxi_ids"][i]),
            date=int(data["dates"][i]),
            segments=segments[lo:hi],
            times=times[lo:hi],
            speeds=speeds[lo:hi],
        )
    database.finalize()
    return database


# -- durable engine stores -----------------------------------------------------


#: ``speed_model.npz``: the scalar sizes of
#: :meth:`~repro.trajectory.store.TrajectoryDatabase.export_speed_model`
#: and its :data:`~repro.trajectory.store.SPEED_COLUMNS`.
_SPEED_SCALARS = ("num_taxis", "num_days", "num_trajectories")


def _speed_model_npz_bytes(model: dict) -> bytes:
    scalars = {name: np.int64(model[name]) for name in _SPEED_SCALARS}
    return _npz_bytes({**scalars, **{name: model[name] for name in SPEED_COLUMNS}})


def _load_speed_model(path: Path) -> dict:
    """Inverse of :func:`_speed_model_npz_bytes`, validated: integer
    scalars, strictly ascending integer keys and value columns of the
    exported kinds aligned with them."""
    arrays = _npz_arrays(path, "speed model", (*_SPEED_SCALARS, *SPEED_COLUMNS))
    keys = arrays["keys"]
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise PersistFormatError(f"speed model file {path} keys hold {keys.dtype}, not integers")
    # The lookups bisect the keys: each must follow the one before.
    descents = np.flatnonzero(np.diff(keys.astype(np.int64)) <= 0)
    if descents.size:
        row = int(descents[0]) + 1
        problem = "repeats" if keys[row] == keys[row - 1] else "is out of order"
        raise PersistFormatError(
            f"speed model file {path} key {int(keys[row])} at row {row} {problem}: "
            "keys must strictly ascend"
        )
    model: dict = {"keys": keys}
    for name in _SPEED_SCALARS:
        if arrays[name].ndim or arrays[name].dtype.kind not in "iu":
            raise PersistFormatError(f"speed model file {path} {name} is not an integer")
        model[name] = int(arrays[name])
    for name in SPEED_COLUMNS[1:]:
        column, kind = arrays[name], "i" if name == "stats_count" else "f"
        if column.shape != keys.shape or column.dtype.kind != kind:
            raise PersistFormatError(
                f"speed model file {path} {name} holds {column.dtype}{list(column.shape)}, "
                f"expected {np.dtype(kind + '8')}[{keys.size}] like keys"
            )
        model[name] = column
    return model


def _directory_npz_bytes(directory, journal_generation: int, applied_commits: int) -> bytes:
    """The store bundle's directory file, serialised for atomic publish.

    ``journal_generation``/``applied_commits`` record which prefix of the
    disk's journal this directory already reflects, so :func:`open_store`
    replays exactly the suffix of appends committed after the save.
    """
    columns = {name: _narrowest(column) for name, column in directory.columns().items()}
    return _npz_bytes(
        {
            "version": np.int64(STORE_FORMAT_VERSION),
            "journal_generation": np.int64(journal_generation),
            "applied_commits": np.int64(applied_commits),
            **columns,
        }
    )


def _bundle_key(engine, directory: Path, delta_t_s: int) -> tuple:
    """``engine.saved_bundle`` after an open or save of ``directory``.  While
    the key holds, the bundle's metadata files are what a save would
    write (a database ``add`` grows its length) and its ``directory.npz``
    plus the journal replayed from its position is the index's directory."""
    database = engine.database
    return (directory.resolve(), delta_t_s, engine.buffer_pool_pages, len(database), database.num_days)


def save_store(engine, directory: str | Path, delta_t_s: int) -> Path:
    """Persist an engine as a durable, crash-safe store-bundle directory.

    Layout: ``network.json``, ``speed_model.npz``, ``store.json`` (format
    version, Δt and the engine's buffer-pool size), ``directory.npz``
    (the ST-Index directory plus the journal position it reflects) and
    ``disk/`` (a :class:`FileBackedDisk` store).  Every file is published
    with an atomic replace.

    Two save paths:

    * engine already on a ``FileBackedDisk`` at ``<directory>/disk`` —
      the *in-place* save, refused on a ``readonly`` disk before any file
      is written.  The disk's journal already holds every append since
      the engine opened or last saved the bundle, so the save commits the
      dirty pages, rewrites the metadata files only if
      :func:`_bundle_key` moved and ``directory.npz`` only if the key
      moved or the disk will compact, then checkpoints the disk.  A crash
      at any point leaves a store that opens to exactly the pre- or
      post-save state.
      The first in-place save, while the bundle has no ``directory.npz``
      yet, has no state a crash must keep: it compacts the disk without
      journaling its pages first and then writes the bundle's files as
      the save to another path does.
    * any other disk — copy the page buffer once into a fresh
      ``FileBackedDisk``.  ``directory.npz`` is removed up front and
      rewritten last, so a crash mid-save leaves a store that
      :func:`open_store` rejects as incomplete rather than one that
      silently mixes old and new state.
    """
    from repro.storage.backends import FileBackedDisk
    from repro.storage.disk import DiskError

    directory = Path(directory)
    disk_dir = directory / "disk"
    disk = engine.disk
    in_place = isinstance(disk, FileBackedDisk) and Path(disk.path).resolve() == disk_dir.resolve()
    if in_place and disk.readonly:
        raise DiskError(f"cannot save the read-only store at {directory} in place")
    directory.mkdir(parents=True, exist_ok=True)
    # Group commit: makes the tail page durable.
    time_lists = engine.st_index(delta_t_s).committed_directory()
    key = _bundle_key(engine, directory, delta_t_s)
    published = in_place and (directory / "directory.npz").exists()
    unchanged = published and engine.saved_bundle == key
    if not in_place:
        (directory / "directory.npz").unlink(missing_ok=True)
        disk = FileBackedDisk.copy_of(disk_dir, disk)
        disk.close()
    elif not published:
        # Pages out once, as a snapshot; directory.npz, last, completes it.
        disk.compact()
    else:
        # Journal first: the share test below must see every page.
        disk.commit()
    if not unchanged:
        config = {
            "version": STORE_FORMAT_VERSION,
            "delta_t_s": int(delta_t_s),
            "engine_pool_pages": int(engine.buffer_pool_pages),
        }
        for name, data in (
            ("network.json", json.dumps(network_to_dict(engine.network)).encode()),
            ("speed_model.npz", _speed_model_npz_bytes(engine.database.export_speed_model())),
            ("store.json", json.dumps(config, indent=2, sort_keys=True).encode()),
        ):
            disk.replace_file(directory / name, data)
    # A compaction folds the journal, so the directory must cover it all.
    if not unchanged or disk.checkpoint_compacts:
        data = _directory_npz_bytes(time_lists, disk.generation, disk.journal_record_count)
        disk.replace_file(directory / "directory.npz", data)
    if in_place:
        disk.checkpoint()
        engine.saved_bundle = key
    return directory


def open_store(directory: str | Path, crash_plan=None, readonly: bool = False):
    """Open a :func:`save_store` bundle as a cold, durable engine.

    Loads the superblock, sidecar, journal and directory — but no data
    pages: the returned engine's :class:`FileBackedDisk` faults pages in
    (checksum-verified) on first access, so serving can begin before the
    trajectory data is read.  Journal records committed after the last
    save are replayed onto the directory, so appends survive without a
    snapshot rewrite; replay is idempotent across repeated opens.

    Raises :class:`PersistFormatError` for an incomplete or malformed
    bundle and the disk's typed
    :class:`~repro.storage.backends.CorruptSnapshotError` /
    :class:`~repro.storage.backends.TornWriteError` for verified damage.
    """
    from repro.core.engine import ReachabilityEngine
    from repro.core.slots import check_delta_t
    from repro.core.st_index import STIndex

    directory = Path(directory)
    # store.json first: another format's bundle may name its files otherwise.
    for name in ("store.json", "network.json", "speed_model.npz", "directory.npz"):
        if not (directory / name).exists():
            raise PersistFormatError(
                f"store at {directory} is incomplete: missing {name}"
            )
        if name == "store.json":
            config = _read_json_object(directory / name)
            _check_version(config.get("version"), STORE_FORMAT_VERSION, "store format")
    delta_t_s = check_delta_t(
        config.get("delta_t_s"), "store.json delta_t_s", PersistFormatError
    )
    network = load_network(directory / "network.json")
    database = TrajectoryDatabase.from_speed_model(
        _load_speed_model(directory / "speed_model.npz")
    )
    # The one sizing knob: it sizes every buffer pool of the engine, the
    # restored ST-Index's included, as ReachabilityEngine.st_index sizes
    # a built one.  Checked before the disk opens.
    pool_pages = config.get("engine_pool_pages")
    if not isinstance(pool_pages, int) or isinstance(pool_pages, bool) or pool_pages < 1:
        raise PersistFormatError(
            f"store.json engine_pool_pages is {pool_pages!r}, expected an integer >= 1"
        )
    disk, time_lists = _open_store_data(directory, delta_t_s, crash_plan, readonly)
    engine = ReachabilityEngine(network, database, disk=disk, buffer_pool_pages=pool_pages)
    engine.install_st_index(
        delta_t_s,
        STIndex.restore(network, delta_t_s, disk, time_lists, buffer_pool_pages=pool_pages),
    )
    engine.saved_bundle = _bundle_key(engine, directory, delta_t_s)
    return engine


def current_bundle(engine, delta_t_s: int) -> Path | None:
    """The store bundle that :func:`open_store` reopens as ``engine`` at
    ``delta_t_s``: the bundle its synced ``FileBackedDisk`` lives in, while
    the engine's last open or save of it is current; else ``None``."""
    from repro.storage.backends import FileBackedDisk

    disk = engine.disk
    if not (isinstance(disk, FileBackedDisk) and disk.is_synced):
        return None
    directory = Path(disk.path).parent
    return directory if engine.saved_bundle == _bundle_key(engine, directory, delta_t_s) else None


def _open_store_data(directory: Path, delta_t_s: int, crash_plan, readonly: bool):
    """The store's disk and its directory, journal suffix replayed."""
    from repro.core.directory import DIRECTORY_COLUMNS, TimeListDirectory
    from repro.core.slots import slots_per_day
    from repro.storage.backends import FileBackedDisk
    from repro.storage.serialization import (
        SerializationError,
        decode_append_delta,
    )

    disk = FileBackedDisk.open(
        directory / "disk", crash_plan=crash_plan, readonly=readonly
    )
    page_size = disk.page_size
    num_pages_total = disk.num_pages
    data = _npz_arrays(
        directory / "directory.npz",
        "store directory",
        ("version", "journal_generation", "applied_commits", *DIRECTORY_COLUMNS),
    )
    _check_version(int(data["version"]), STORE_FORMAT_VERSION, "store directory format")
    journal_generation = int(data["journal_generation"])
    applied_commits = int(data["applied_commits"])
    time_lists = TimeListDirectory.from_columns(
        data, slots_per_day(delta_t_s), num_pages_total, page_size, "store directory"
    )
    # Replay the journal suffix the saved directory does not yet reflect.
    metas = disk.journal_metas
    if disk.generation == journal_generation:
        applied = min(applied_commits, len(metas))
    elif disk.generation > journal_generation:
        # A compaction ran after the directory was saved; the saved
        # directory already covers everything the old journal held, and
        # the current journal holds only post-save commits.
        applied = 0
    else:
        raise PersistFormatError(
            f"store directory reflects disk generation {journal_generation}, "
            f"newer than the disk's generation {disk.generation}"
        )
    for meta in metas[applied:]:
        if not meta:
            continue
        try:
            meta_delta_t, entries = decode_append_delta(meta)
        except SerializationError as exc:
            raise PersistFormatError(
                f"journal append delta is malformed: {exc}"
            ) from None
        if meta_delta_t != delta_t_s:
            raise PersistFormatError(
                f"journal append delta was written at Δt={meta_delta_t}s, "
                f"store is Δt={delta_t_s}s"
            )
        time_lists.extend(
            entries, num_pages_total, page_size, "journal append delta"
        )
    return disk, time_lists


# -- whole datasets ---------------------------------------------------------------


def save_dataset(dataset, directory: str | Path) -> Path:
    """Persist a ShenzhenLikeDataset to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(dataset.network, directory / "network.json")
    save_network(dataset.original_network, directory / "original_network.json")
    save_database(dataset.database, directory / "database.npz")
    config = dataclasses.asdict(dataset.config)
    (directory / "config.json").write_text(json.dumps(config, indent=2))
    mapping = {
        "piece_map": {
            str(k): v for k, v in dataset.resegmentation.piece_map.items()
        },
        "origin_map": {
            str(k): v for k, v in dataset.resegmentation.origin_map.items()
        },
    }
    (directory / "resegmentation.json").write_text(json.dumps(mapping))
    return directory


def load_dataset(directory: str | Path):
    """Inverse of :func:`save_dataset`."""
    from repro.datasets.shenzhen_like import (
        ShenzhenLikeConfig,
        ShenzhenLikeDataset,
    )
    from repro.trajectory.speed_profile import SpeedProfile
    from repro.network.model import RoadLevel

    directory = Path(directory)
    config_raw = json.loads((directory / "config.json").read_text())
    config = ShenzhenLikeConfig(**config_raw)
    network = load_network(directory / "network.json")
    original = load_network(directory / "original_network.json")
    database = load_database(directory / "database.npz")
    mapping = json.loads((directory / "resegmentation.json").read_text())
    resegmentation = ResegmentationResult(
        network=network,
        piece_map={int(k): v for k, v in mapping["piece_map"].items()},
        origin_map={int(k): v for k, v in mapping["origin_map"].items()},
    )
    profile = SpeedProfile(
        free_flow_mps={
            RoadLevel.PRIMARY: config.primary_mps,
            RoadLevel.SECONDARY: config.secondary_mps,
        },
        noise_sigma=config.noise_sigma,
    )
    return ShenzhenLikeDataset(
        config=config,
        original_network=original,
        resegmentation=resegmentation,
        network=network,
        profile=profile,
        database=database,
    )
