"""Index ownership: the network, the database, one disk, per-Δt indexes.

:class:`ReachabilityEngine` owns the road network, the trajectory database,
one simulated disk, and per-Δt ST-Index / Con-Index pairs, and nothing
else: it builds, installs, drops and appends to indexes and exposes their
buffer pools.  It answers no query itself.  Questions go through
:class:`repro.api.ReachabilityClient`, which routes and plans a request
(:mod:`~repro.core.planner`) and runs it on the registered executor
(:mod:`~repro.core.executors`) through the caches of a
:class:`~repro.core.service.QueryService` over this engine.
"""

from __future__ import annotations

import weakref

from repro.core.con_index import ConnectionIndex
from repro.core.st_index import STIndex
from repro.network.model import RoadNetwork
from repro.storage.disk import SimulatedDisk
from repro.trajectory.store import TrajectoryDatabase


class ReachabilityEngine:
    """Build and own the indexes ST reachability queries run against.

    Args:
        network: the (re-segmented) road network.
        database: the cleaned matched-trajectory database.
        disk: shared simulated disk; a private one is created when omitted.
        buffer_pool_pages: page-cache capacity per index.
    """

    def __init__(
        self,
        network: RoadNetwork,
        database: TrajectoryDatabase,
        disk: SimulatedDisk | None = None,
        buffer_pool_pages: int = 1024,
    ) -> None:
        self.network = network
        self.database = database
        # 1 KiB pages keep page counts proportional to time-list sizes, so
        # the I/O asymmetry between dense central segments and sparse
        # boundary segments is visible in the accounting.
        self.disk = disk if disk is not None else SimulatedDisk(page_size=1024)
        self.buffer_pool_pages = buffer_pool_pages
        self._st_indexes: dict[int, STIndex] = {}
        self._con_indexes: dict[int, ConnectionIndex] = {}
        self._data_change_hooks: list = []

    def use_disk(self, disk: SimulatedDisk) -> None:
        """Swap the storage backend before any index is built.

        Lets a caller route all index pages onto a durable
        :class:`~repro.storage.backends.FileBackedDisk` (or any other
        backend honouring the :class:`SimulatedDisk` contract).  Raises
        once indexes exist: they hold extent pointers into the old
        disk's pages, which a new backend cannot serve.
        """
        if self._st_indexes or self._con_indexes:
            raise RuntimeError(
                "cannot swap the disk backend after indexes are built; "
                "swap first or drop_indexes() and rebuild"
            )
        self.disk = disk

    def register_data_change_hook(self, callback) -> None:
        """Call ``callback`` whenever engine-level data/indexes change.

        Services register their region-cache invalidation here (via a
        weak reference, so registering does not pin a service alive), so
        derived caches stay correct even when trajectories are appended
        or indexes dropped directly on the engine rather than through one
        particular service.
        """
        self._data_change_hooks.append(weakref.WeakMethod(callback))

    def _notify_data_change(self) -> None:
        live = []
        for hook in self._data_change_hooks:
            callback = hook()
            if callback is not None:
                callback()
                live.append(hook)
        self._data_change_hooks = live

    # -- index management ------------------------------------------------------

    def st_index(self, delta_t_s: int) -> STIndex:
        """The ST-Index at granularity Δt, built on first use."""
        index = self._st_indexes.get(delta_t_s)
        if index is None:
            index = STIndex(
                self.network,
                delta_t_s,
                disk=self.disk,
                buffer_pool_pages=self.buffer_pool_pages,
            )
            index.build(self.database)
            self._st_indexes[delta_t_s] = index
        return index

    def install_st_index(self, delta_t_s: int, index: STIndex) -> None:
        """Install an externally constructed ST-Index at granularity Δt.

        The restore path for shard workers (:mod:`repro.serving`): a
        partition slice rebuilt via :meth:`~repro.core.st_index.STIndex.restore`
        is dropped in here so :meth:`st_index` serves it instead of
        building from trajectories.  The index must be backed by this
        engine's disk, or the accounting windows would miss its I/O.
        """
        if index.disk is not self.disk:
            raise ValueError("installed ST-Index must share the engine's disk")
        self._st_indexes[delta_t_s] = index

    def con_index(self, delta_t_s: int) -> ConnectionIndex:
        """The Con-Index at granularity Δt, entries built lazily."""
        index = self._con_indexes.get(delta_t_s)
        if index is None:
            index = ConnectionIndex(
                self.network,
                self.database,
                delta_t_s,
                disk=self.disk,
                buffer_pool_pages=self.buffer_pool_pages,
            )
            self._con_indexes[delta_t_s] = index
        return index

    def drop_indexes(self, delta_t_s: int | None = None) -> None:
        """Discard built indexes so they rebuild lazily on next use.

        Args:
            delta_t_s: drop only this granularity's pair, or every built
                index when omitted.
        """
        if delta_t_s is None:
            self._st_indexes.clear()
            self._con_indexes.clear()
        else:
            self._st_indexes.pop(delta_t_s, None)
            self._con_indexes.pop(delta_t_s, None)
        self._notify_data_change()

    def append_trajectories(
        self, trajectories, update_database: bool = True
    ) -> int:
        """Incrementally ingest new matched trajectories.

        Every built ST-Index gains the new time-list records (chained,
        merged at read time — no rebuild), and each built Con-Index drops
        its memoized entries and speed vectors, because the Near/Far
        tables derive from the database's observed speed bounds.

        Args:
            trajectories: iterable of
                :class:`~repro.trajectory.model.MatchedTrajectory`.
            update_database: also add the trajectories to the engine's
                database (pass ``False`` when the caller already did).

        Returns:
            (segment, slot) entries touched across the built ST-Indexes.
        """
        trajectory_list = list(trajectories)
        if update_database:
            for trajectory in trajectory_list:
                self.database.add(trajectory)
        touched = 0
        for index in self._st_indexes.values():
            touched += index.append_trajectories(trajectory_list)
        if trajectory_list:
            for con in self._con_indexes.values():
                con.invalidate_entries()
            self._notify_data_change()
        return touched

    def buffer_pools(self):
        """Every live buffer pool, for cache-effectiveness reporting."""
        for index in self._st_indexes.values():
            yield index.pool
        for index in self._con_indexes.values():
            yield index.pool

    def invalidate_caches(self) -> None:
        """Drop trajectory-data buffer pools so the next query pays cold I/O.

        Connection-index entries stay cached: the Con-Index is a compact
        derived structure (two ID lists per segment-slot) that a deployed
        system keeps memory-resident, whereas the trajectory time lists are
        the massive disk-resident data whose I/O the paper measures.
        """
        for pool in self.buffer_pools():
            pool.invalidate()
