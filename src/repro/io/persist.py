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
from repro.trajectory.store import TrajectoryDatabase

FORMAT_VERSION = 1

#: Version of the durable store bundle (:func:`save_store`): its directory
#: layout and the time-list record layout on its pages (2: records stored
#: column-major, read by :func:`repro.core.st_index.decode_time_list_columns`;
#: 3: the speed model in ``speed_model.npz``).
STORE_FORMAT_VERSION = 3


class PersistFormatError(ValueError):
    """A persisted artifact cannot be interpreted by this code.

    Raised for truncated or garbage files, wrong magic, unsupported
    format versions and shape/geometry violations found during loading —
    always with a message naming the file and the problem, never a raw
    ``numpy``/``zipfile``/``KeyError`` surfacing from the codec guts.
    Subclasses :class:`ValueError`, so callers that guarded against the
    old untyped raises keep working.
    """


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
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported network format {payload.get('version')}")
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
    if int(data["version"]) != FORMAT_VERSION:
        raise PersistFormatError(
            f"unsupported database format {int(data['version'])} "
            f"(supported: {FORMAT_VERSION})"
        )
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
#: :meth:`~repro.trajectory.store.TrajectoryDatabase.export_speed_model`,
#: and its four stat dicts as value columns aligned with one ``keys`` column.
_SPEED_SCALARS = ("num_taxis", "num_days", "num_trajectories")
_SPEED_STATS = {"stats_min": "f8", "stats_max": "f8", "stats_sum": "f8", "stats_count": "i8"}


def _speed_model_npz_bytes(model: dict) -> bytes:
    keys = list(model["stats_count"])
    columns = {
        field: np.fromiter(map(model[field].__getitem__, keys), dtype, len(keys))
        for field, dtype in _SPEED_STATS.items()
    }
    scalars = {name: np.int64(model[name]) for name in _SPEED_SCALARS}
    return _npz_bytes({**scalars, "keys": np.array(keys, np.int64), **columns})


def _load_speed_model(path: Path) -> dict:
    """Inverse of :func:`_speed_model_npz_bytes`, validated: Python ``int``
    keys and ``float`` / ``int`` values, as the export holds them."""
    arrays = _npz_arrays(path, "speed model", (*_SPEED_SCALARS, "keys", *_SPEED_STATS))
    keys = arrays["keys"]
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise PersistFormatError(f"speed model file {path} keys hold {keys.dtype}, not integers")
    model: dict = {}
    for name in _SPEED_SCALARS:
        if arrays[name].ndim or arrays[name].dtype.kind not in "iu":
            raise PersistFormatError(f"speed model file {path} {name} is not an integer")
        model[name] = int(arrays[name])
    key_list = keys.tolist()
    for field, dtype in _SPEED_STATS.items():
        column = arrays[field]
        if column.shape != keys.shape or column.dtype.kind != dtype[0]:
            raise PersistFormatError(
                f"speed model file {path} {field} holds {column.dtype}{list(column.shape)}, "
                f"expected {np.dtype(dtype)}[{keys.size}] like keys"
            )
        model[field] = dict(zip(key_list, column.tolist()))
    return model


def _directory_npz_bytes(
    directory, journal_generation: int, applied_commits: int
) -> bytes:
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


def save_store(engine, directory: str | Path, delta_t_s: int) -> Path:
    """Persist an engine as a durable, crash-safe store-bundle directory.

    Layout: ``network.json``, ``speed_model.npz``, ``store.json`` (format
    version, Δt and the engine's buffer-pool size), ``directory.npz``
    (the ST-Index directory plus the journal position it reflects) and
    ``disk/`` (a :class:`FileBackedDisk` store).  Every file is published with an atomic replace.

    Two save paths:

    * engine already on a ``FileBackedDisk`` at ``<directory>/disk`` —
      the *in-place* save: write ``directory.npz`` first (it names the
      journal prefix it covers), then checkpoint the disk.  A crash at
      any point leaves a store that opens to exactly the pre- or
      post-save state.
    * any other disk — export the page buffer into a fresh
      ``FileBackedDisk``.  ``directory.npz`` is removed up front and
      rewritten last, so a crash mid-save leaves a store that
      :func:`open_store` rejects as incomplete rather than one that
      silently mixes old and new state.
    """
    from repro.storage.backends import FileBackedDisk, atomic_replace

    index = engine.st_index(delta_t_s)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    disk_dir = directory / "disk"
    # Group commit: makes the tail page durable.
    time_lists = index.committed_directory()
    atomic_replace(
        directory / "network.json",
        json.dumps(network_to_dict(engine.network)).encode(),
    )
    atomic_replace(
        directory / "speed_model.npz",
        _speed_model_npz_bytes(engine.database.export_speed_model()),
    )
    atomic_replace(
        directory / "store.json",
        json.dumps(
            {
                "version": STORE_FORMAT_VERSION,
                "delta_t_s": int(delta_t_s),
                "engine_pool_pages": int(engine.buffer_pool_pages),
            },
            indent=2,
            sort_keys=True,
        ).encode(),
    )
    in_place = isinstance(engine.disk, FileBackedDisk) and (
        Path(engine.disk.path).resolve() == disk_dir.resolve()
    )
    if in_place:
        disk = engine.disk
        atomic_replace(
            directory / "directory.npz",
            _directory_npz_bytes(
                time_lists,
                journal_generation=disk.generation,
                applied_commits=disk.journal_record_count,
            ),
        )
        disk.checkpoint()
    else:
        (directory / "directory.npz").unlink(missing_ok=True)
        buffer, used = engine.disk.export_state()
        disk = FileBackedDisk.create_from_state(
            disk_dir, buffer, used, page_size=engine.disk.page_size
        )
        disk.close()
        atomic_replace(
            directory / "directory.npz",
            _directory_npz_bytes(
                time_lists, journal_generation=disk.generation, applied_commits=0
            ),
        )
    return directory


def restore_engine(network, database, delta_t_s: int, pool_pages, source: str, open_data):
    """A serving engine over an already-built ST-Index: the one restore.

    :func:`open_store` and every shard worker
    (:func:`repro.serving.worker.build_shard_engine`) end here.
    ``pool_pages`` is the engine's ``engine_pool_pages`` as it arrived
    from ``source``; it sizes every buffer pool of the engine, the
    restored ST-Index's included, as :meth:`ReachabilityEngine.st_index`
    sizes a built one.  It is checked first, so a
    :class:`PersistFormatError` naming it is raised before ``open_data()``
    opens the disk and loads the validated directory
    (``-> (disk, time_lists)``) and before any index object exists.
    """
    from repro.core.engine import ReachabilityEngine
    from repro.core.st_index import STIndex

    if not isinstance(pool_pages, int) or isinstance(pool_pages, bool) or pool_pages < 1:
        raise PersistFormatError(
            f"{source} engine_pool_pages is {pool_pages!r}, expected an integer >= 1"
        )
    disk, time_lists = open_data()
    engine = ReachabilityEngine(network, database, disk=disk, buffer_pool_pages=pool_pages)
    index = STIndex.restore(
        network, delta_t_s, disk, time_lists, buffer_pool_pages=pool_pages
    )
    engine.install_st_index(delta_t_s, index)
    return engine


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
    from repro.core.slots import check_delta_t

    directory = Path(directory)
    # store.json first: another format's bundle may name its files otherwise.
    for name in ("store.json", "network.json", "speed_model.npz", "directory.npz"):
        if not (directory / name).exists():
            raise PersistFormatError(
                f"store at {directory} is incomplete: missing {name}"
            )
        if name == "store.json":
            config = _read_json_object(directory / name)
            if config.get("version") != STORE_FORMAT_VERSION:
                raise PersistFormatError(
                    f"unsupported store format {config.get('version')!r} "
                    f"(supported: {STORE_FORMAT_VERSION})"
                )
    delta_t_s = check_delta_t(
        config.get("delta_t_s"), "store.json delta_t_s", PersistFormatError
    )
    network = load_network(directory / "network.json")
    database = TrajectoryDatabase.from_speed_model(
        _load_speed_model(directory / "speed_model.npz")
    )
    return restore_engine(
        network, database, delta_t_s, config.get("engine_pool_pages"), "store.json",
        lambda: _open_store_data(directory, delta_t_s, crash_plan, readonly),
    )


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
    if int(data["version"]) != STORE_FORMAT_VERSION:
        raise PersistFormatError(
            f"unsupported store directory format {int(data['version'])} "
            f"(supported: {STORE_FORMAT_VERSION})"
        )
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
        # A checkpoint ran after the directory was saved; the saved
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
