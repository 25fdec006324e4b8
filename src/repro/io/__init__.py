"""Dataset persistence: save/load road networks and trajectory databases.

Building the synthetic fleet takes tens of seconds; persisting the built
dataset to disk makes repeat benchmark sessions and the CLI practical.
Road networks serialize to JSON, trajectory databases to compressed
flat-array ``.npz`` files, and a full dataset to a directory of both plus
its config.  A built engine persists as the durable store bundle of
:func:`repro.io.persist.save_store` / ``open_store`` (so deployments
reopen indexes without re-indexing).
"""

from repro.io.persist import (
    load_database,
    load_dataset,
    load_network,
    save_database,
    save_dataset,
    save_network,
)

__all__ = [
    "save_network",
    "load_network",
    "save_database",
    "load_database",
    "save_dataset",
    "load_dataset",
]
