"""Rule modules register themselves on import via ``@register_rule``."""

from tools.repro_lint.rules import (  # noqa: F401
    rl001_locks,
    rl002_io,
    rl003_spawn,
    rl004_registry,
    rl005_deprecation,
    rl007_accounting_flow,
    rl008_counter_drift,
    rl009_protocol,
    rl010_recv_deadline,
    rl011_durability,
)
