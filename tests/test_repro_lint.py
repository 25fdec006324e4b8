"""Tests for the repro-lint invariant checker suite (tools/repro_lint).

Each rule gets a minimal passing and failing fixture snippet, plus
framework-level coverage: inline suppressions, baseline round-trips,
the JSON report schema, and the CLI exit codes the CI gate relies on.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint.core import (
    apply_baseline,
    load_baseline,
    report_json,
    run_paths,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path: Path, source: str, name: str = "mod.py", select=None):
    """Write *source* into a scratch tree and lint it."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    _, findings = run_paths([str(tmp_path)], select=select)
    return findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# RL001 — lock discipline
# ---------------------------------------------------------------------------


class TestRL001LockDiscipline:
    GOOD = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded_by: _lock

            def bump(self):
                with self._lock:
                    self.value += 1

            # repro-lint: holds=_lock
            def _bump_locked(self):
                self.value += 1
    """

    BAD = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0  # guarded_by: _lock

            def bump(self):
                self.value += 1
    """

    def test_guarded_access_under_with_passes(self, tmp_path):
        assert lint_snippet(tmp_path, self.GOOD, select=["RL001"]) == []

    def test_unguarded_write_fails(self, tmp_path):
        findings = lint_snippet(tmp_path, self.BAD, select=["RL001"])
        assert rules_of(findings) == ["RL001"]
        assert "guarded by self._lock" in findings[0].message
        assert "written" in findings[0].message

    def test_unguarded_read_fails(self, tmp_path):
        source = self.BAD.replace("self.value += 1", "return self.value")
        findings = lint_snippet(tmp_path, source, select=["RL001"])
        assert rules_of(findings) == ["RL001"]
        assert "read" in findings[0].message

    def test_wrong_lock_fails(self, tmp_path):
        source = """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.value = 0  # guarded_by: _a

                def bump(self):
                    with self._b:
                        self.value += 1
        """
        findings = lint_snippet(tmp_path, source, select=["RL001"])
        assert len(findings) == 1

    def test_holds_annotation_above_def(self, tmp_path):
        assert lint_snippet(tmp_path, self.GOOD, select=["RL001"]) == []

    def test_multiline_declaration_comment(self, tmp_path):
        source = """
            import threading
            from collections import OrderedDict

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries: OrderedDict[  # guarded_by: _lock
                        str, int
                    ] = OrderedDict()

                def size(self):
                    return len(self._entries)
        """
        findings = lint_snippet(tmp_path, source, select=["RL001"])
        assert len(findings) == 1

    def test_suppression_comment_honored(self, tmp_path):
        source = self.BAD.replace(
            "self.value += 1",
            "self.value += 1  # repro-lint: disable=RL001",
        )
        assert lint_snippet(tmp_path, source, select=["RL001"]) == []


# ---------------------------------------------------------------------------
# RL002 — I/O-accounting contract
# ---------------------------------------------------------------------------


class TestRL002IoAccounting:
    def test_raw_read_outside_storage_fails(self, tmp_path):
        source = """
            def peek(disk, page_id):
                return disk.read_page(page_id)
        """
        findings = lint_snippet(tmp_path, source, name="core/peek.py", select=["RL002"])
        assert rules_of(findings) == ["RL002"]

    def test_raw_extent_write_outside_storage_fails(self, tmp_path):
        source = """
            def overwrite(disk, first_page, data):
                disk.write_extent(first_page, data)
        """
        findings = lint_snippet(tmp_path, source, name="core/bulk.py", select=["RL002"])
        assert rules_of(findings) == ["RL002"]

    def test_buffer_attribute_outside_storage_fails(self, tmp_path):
        source = """
            def raw(disk):
                return bytes(disk._buf)
        """
        findings = lint_snippet(tmp_path, source, name="core/raw.py", select=["RL002"])
        assert rules_of(findings) == ["RL002"]

    def test_storage_paths_exempt(self, tmp_path):
        source = """
            def charge(disk, page_ids):
                disk.charge_reads(page_ids)
                return disk._buf
        """
        findings = lint_snippet(
            tmp_path, source, name="storage/inside.py", select=["RL002"]
        )
        assert findings == []

    def test_pool_and_store_access_passes(self, tmp_path):
        source = """
            def read(store, pool, pointer):
                return store.read(pointer, pool=pool)
        """
        findings = lint_snippet(tmp_path, source, name="core/ok.py", select=["RL002"])
        assert findings == []

    def test_suppression_on_statement_first_line(self, tmp_path):
        source = """
            def decode(disk, pointer):
                # repro-lint: disable=RL002
                return decode_bytes(
                    disk.extent_bytes(
                        pointer.first_page, pointer.offset, pointer.length
                    )
                )
        """
        findings = lint_snippet(tmp_path, source, name="core/dec.py", select=["RL002"])
        assert findings == []


# ---------------------------------------------------------------------------
# RL003 — spawn safety
# ---------------------------------------------------------------------------


class TestRL003SpawnSafety:
    def test_plain_payload_passes(self, tmp_path):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ShardPayload:
                shard_id: int
                pages: bytes
                used: tuple
        """
        findings = lint_snippet(
            tmp_path, source, name="serving/payload.py", select=["RL003"]
        )
        assert findings == []

    def test_lock_field_fails(self, tmp_path):
        source = """
            import threading
            from dataclasses import dataclass

            @dataclass
            class ShardPayload:
                shard_id: int
                lock: threading.Lock
        """
        findings = lint_snippet(
            tmp_path, source, name="serving/payload.py", select=["RL003"]
        )
        assert rules_of(findings) == ["RL003"]
        assert "Lock" in findings[0].message

    def test_engine_backref_fails(self, tmp_path):
        source = """
            from dataclasses import dataclass

            @dataclass
            class ShardPayload:
                engine: "ReachabilityEngine"
        """
        findings = lint_snippet(
            tmp_path, source, name="serving/payload.py", select=["RL003"]
        )
        assert rules_of(findings) == ["RL003"]

    def test_unannotated_field_fails(self, tmp_path):
        source = """
            from dataclasses import dataclass

            @dataclass
            class ShardPayload:
                shard_id: int
                DEFAULT_SLACK = 6
        """
        findings = lint_snippet(
            tmp_path, source, name="serving/payload.py", select=["RL003"]
        )
        assert rules_of(findings) == ["RL003"]
        assert "unannotated" in findings[0].message

    def test_transitive_walk_flags_nested_dataclass(self, tmp_path):
        source = """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class Inner:
                callback: Callable

            @dataclass
            class ShardPayload:
                inner: Inner
        """
        findings = lint_snippet(
            tmp_path, source, name="serving/payload.py", select=["RL003"]
        )
        assert rules_of(findings) == ["RL003"]
        assert any("reached via" in f.message for f in findings)

    def test_payload_marker_comment(self, tmp_path):
        source = """
            import threading
            from dataclasses import dataclass

            # repro-lint: payload
            @dataclass
            class WorkOrder:
                lock: threading.Lock
        """
        findings = lint_snippet(
            tmp_path, source, name="serving/orders.py", select=["RL003"]
        )
        assert rules_of(findings) == ["RL003"]

    def test_outside_serving_ignored(self, tmp_path):
        source = """
            import threading
            from dataclasses import dataclass

            @dataclass
            class NotAPayload:
                lock: threading.Lock
        """
        findings = lint_snippet(
            tmp_path, source, name="core/stuff.py", select=["RL003"]
        )
        assert findings == []

    def test_real_shard_payload_is_spawn_safe(self):
        _, findings = run_paths(
            [str(REPO_ROOT / "src" / "repro" / "serving")], select=["RL003"]
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL004 — registry/router completeness
# ---------------------------------------------------------------------------


class TestRL004RegistryCompleteness:
    REGISTRY = """
        def register_executor(kind, name):
            def wrap(fn):
                return fn
            return wrap

        @register_executor("s", "sqmb_tbs")
        def run_s(q):
            return None

        @register_executor("m", "mqmb_tbs")
        def run_m(q):
            return None
    """

    def test_router_literal_resolves(self, tmp_path):
        (tmp_path / "core" / "executors").mkdir(parents=True)
        (tmp_path / "core" / "executors" / "reg.py").write_text(
            textwrap.dedent(self.REGISTRY)
        )
        (tmp_path / "api").mkdir()
        (tmp_path / "api" / "router.py").write_text(
            textwrap.dedent(
                """
                def route(decide):
                    return decide("sqmb_tbs", "paper-s", "default")
                """
            )
        )
        _, findings = run_paths([str(tmp_path)], select=["RL004"])
        assert findings == []

    def test_router_unknown_literal_fails(self, tmp_path):
        (tmp_path / "core" / "executors").mkdir(parents=True)
        (tmp_path / "core" / "executors" / "reg.py").write_text(
            textwrap.dedent(self.REGISTRY)
        )
        (tmp_path / "api").mkdir()
        (tmp_path / "api" / "router.py").write_text(
            textwrap.dedent(
                """
                def route(decide):
                    return decide("sqmb_tbs_fast", "paper-s", "oops")
                """
            )
        )
        _, findings = run_paths([str(tmp_path)], select=["RL004"])
        assert rules_of(findings) == ["RL004"]
        assert "sqmb_tbs_fast" in findings[0].message

    def test_executor_module_without_registration_fails(self, tmp_path):
        (tmp_path / "core" / "executors").mkdir(parents=True)
        (tmp_path / "core" / "executors" / "reg.py").write_text(
            textwrap.dedent(self.REGISTRY)
        )
        (tmp_path / "core" / "executors" / "dead.py").write_text(
            "def helper():\n    return 1\n"
        )
        _, findings = run_paths([str(tmp_path)], select=["RL004"])
        assert rules_of(findings) == ["RL004"]
        assert "registers nothing" in findings[0].message

    def test_paper_algorithms_kind_mismatch_fails(self, tmp_path):
        (tmp_path / "core" / "executors").mkdir(parents=True)
        (tmp_path / "core" / "executors" / "reg.py").write_text(
            textwrap.dedent(self.REGISTRY)
        )
        (tmp_path / "api").mkdir()
        (tmp_path / "api" / "router.py").write_text(
            'PAPER_ALGORITHMS = {"r": "mqmb_tbs"}\n'
        )
        _, findings = run_paths([str(tmp_path)], select=["RL004"])
        assert rules_of(findings) == ["RL004"]
        assert "not registered for that kind" in findings[0].message

    def test_real_tree_is_complete(self):
        _, findings = run_paths([str(REPO_ROOT / "src")], select=["RL004"])
        assert findings == []


# ---------------------------------------------------------------------------
# RL005 — export firewall
# ---------------------------------------------------------------------------


class TestRL005DeprecationFirewall:
    def test_all_export_of_undefined_name_fails(self, tmp_path):
        source = """
            __all__ = ["missing"]
        """
        findings = lint_snippet(tmp_path, source, select=["RL005"])
        assert rules_of(findings) == ["RL005"]
        assert "missing" in findings[0].message

    def test_public_def_missing_from_all_warns(self, tmp_path):
        source = """
            __all__ = ["listed"]

            def listed():
                return 1

            def unlisted():
                return 2
        """
        findings = lint_snippet(tmp_path, source, select=["RL005"])
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "unlisted" in findings[0].message

    def test_consistent_all_passes(self, tmp_path):
        source = """
            __all__ = ["listed"]

            def listed():
                return 1

            def _private():
                return 2
        """
        assert lint_snippet(tmp_path, source, select=["RL005"]) == []


# ---------------------------------------------------------------------------
# Framework: baseline, JSON schema, CLI exit codes
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_round_trip_swallows_known_findings(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        _, findings = run_paths([str(tmp_path)], select=["RL001"])
        assert findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        assert apply_baseline(findings, baseline) == []

    def test_baseline_is_line_independent(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        _, before = run_paths([str(tmp_path)], select=["RL001"])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, before)
        # Shift every line down: same finding, different line number.
        target.write_text(
            "# a leading comment\n\n"
            + textwrap.dedent(TestRL001LockDiscipline.BAD),
            encoding="utf-8",
        )
        _, after = run_paths([str(tmp_path)], select=["RL001"])
        assert after and after[0].line != before[0].line
        assert apply_baseline(after, load_baseline(baseline_path)) == []

    def test_new_finding_not_covered(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        _, findings = run_paths([str(tmp_path)], select=["RL001"])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        # Add a second, different violation.
        target.write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD).replace(
                "def bump(self):",
                "def peek(self):\n        return self.value\n\n    def bump(self):",
            ),
            encoding="utf-8",
        )
        _, after = run_paths([str(tmp_path)], select=["RL001"])
        fresh = apply_baseline(after, load_baseline(baseline_path))
        assert len(fresh) == 1
        assert "peek" in fresh[0].message

    def test_committed_baseline_entries_all_justified(self):
        """The committed baseline must stay empty or carry a justification
        for every grandfathered entry."""
        baseline_path = REPO_ROOT / "tools" / "repro_lint" / "baseline.json"
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        for item in data.get("findings", []):
            assert item.get("justification"), (
                f"baseline entry without justification: {item}"
            )


class TestJsonReport:
    def test_schema_snapshot(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        project, findings = run_paths([str(tmp_path)], select=["RL001"])
        report = report_json(project, findings)
        assert sorted(report) == ["files_scanned", "findings", "summary", "version"]
        assert report["version"] == 1
        assert report["files_scanned"] == 1
        (finding,) = report["findings"]
        assert sorted(finding) == [
            "col",
            "line",
            "message",
            "path",
            "rule",
            "severity",
        ]
        assert finding["rule"] == "RL001"
        assert finding["severity"] == "error"
        summary = report["summary"]
        assert summary["total"] == 1
        assert summary["errors"] == 1
        assert summary["warnings"] == 0
        assert summary["by_rule"] == {"RL001": 1}

    def test_clean_report(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        project, findings = run_paths([str(tmp_path)])
        report = report_json(project, findings)
        assert report["findings"] == []
        assert report["summary"]["total"] == 0


class TestCliExitCodes:
    def run_cli(self, *args: str):
        return subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        result = self.run_cli(str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_violation_exits_nonzero(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        result = self.run_cli(str(tmp_path), "--no-baseline")
        assert result.returncode == 1
        assert "RL001" in result.stdout

    def test_report_only_exits_zero(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        result = self.run_cli(str(tmp_path), "--no-baseline", "--report-only")
        assert result.returncode == 0
        assert "RL001" in result.stdout

    def test_unknown_rule_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        result = self.run_cli(str(tmp_path), "--select", "RL999")
        assert result.returncode == 2

    def test_syntax_error_exits_nonzero(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        result = self.run_cli(str(tmp_path), "--no-baseline")
        assert result.returncode == 1
        assert "RL000" in result.stdout

    def test_json_output_parses(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            textwrap.dedent(TestRL001LockDiscipline.BAD), encoding="utf-8"
        )
        out_file = tmp_path / "report.json"
        result = self.run_cli(
            str(tmp_path), "--no-baseline", "--format", "json", "--out", str(out_file)
        )
        assert result.returncode == 1
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert payload == json.loads(result.stdout)
        assert payload["summary"]["by_rule"] == {"RL001": 1}

    def test_src_tree_is_clean(self):
        """The acceptance gate: `python -m tools.repro_lint src/` exits 0."""
        result = self.run_cli("src/")
        assert result.returncode == 0, result.stdout + result.stderr


class TestReintroducedViolationsFailGate:
    """Acceptance criterion: deliberately re-introducing a violation of
    each rule against a copy of the real tree makes the lint exit
    non-zero."""

    @pytest.fixture()
    def src_copy(self, tmp_path):
        import shutil

        dest = tmp_path / "src"
        shutil.copytree(REPO_ROOT / "src", dest)
        return dest

    def lint(self, dest):
        _, findings = run_paths([str(dest)])
        return findings

    def test_rl001_unlocked_counter(self, src_copy):
        disk = src_copy / "repro" / "storage" / "disk.py"
        text = disk.read_text(encoding="utf-8")
        text = text.replace(
            "def allocate(self, count: int = 1) -> int:",
            "def allocate(self, count: int = 1) -> int:\n"
            "        self.stats.page_reads += 0\n",
            1,
        )
        disk.write_text(text, encoding="utf-8")
        assert any(f.rule == "RL001" for f in self.lint(src_copy))

    def test_rl002_raw_disk_read(self, src_copy):
        engine = src_copy / "repro" / "core" / "engine.py"
        text = engine.read_text(encoding="utf-8")
        engine.write_text(
            text + "\n\ndef _peek(disk, page_id):\n    return disk.read_page(page_id)\n",
            encoding="utf-8",
        )
        assert any(f.rule == "RL002" for f in self.lint(src_copy))

    def test_rl002_raw_extent_write(self, src_copy):
        # The bulk build must land its pages through PageStore.append_many;
        # writing the extent straight to the disk would skip the tail state.
        st_index = src_copy / "repro" / "core" / "st_index.py"
        text = st_index.read_text(encoding="utf-8")
        needle = "        columns = self._store.append_many(stream, lengths)\n"
        assert needle in text
        text = text.replace(
            needle, needle + "        self.disk.write_extent(0, stream)\n", 1
        )
        st_index.write_text(text, encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL002"]
        assert findings and any("write_extent" in f.message for f in findings)

    def test_rl003_lock_in_payload(self, src_copy):
        partition = src_copy / "repro" / "serving" / "partition.py"
        text = partition.read_text(encoding="utf-8")
        text = text.replace(
            "class ShardPayload:",
            'class ShardPayload:\n    tail_lock: "threading.Lock"',
            1,
        )
        partition.write_text(text, encoding="utf-8")
        assert any(f.rule == "RL003" for f in self.lint(src_copy))

    def test_rl004_unregistered_route(self, src_copy):
        router = src_copy / "repro" / "api" / "router.py"
        text = router.read_text(encoding="utf-8")
        text = text.replace('"sqmb_tbs"', '"sqmb_tbs_fast"', 1)
        router.write_text(text, encoding="utf-8")
        assert any(f.rule == "RL004" for f in self.lint(src_copy))

    def test_rl005_undefined_export(self, src_copy):
        init = src_copy / "repro" / "io" / "__init__.py"
        text = init.read_text(encoding="utf-8")
        text = text.replace('"save_network",', '"save_network",\n    "save_index",', 1)
        init.write_text(text, encoding="utf-8")
        assert any(f.rule == "RL005" for f in self.lint(src_copy))

    def test_rl007_uncharged_read_path(self, src_copy):
        # Give the one pipeline's front half (`start_estimators`, which
        # every registered executor runs through) a direct raw read that
        # bypasses the BufferPool/PageStore charging chokepoints.
        executor = src_copy / "repro" / "core" / "executors" / "sqmb_tbs.py"
        text = executor.read_text(encoding="utf-8")
        assert text.count("    st = ctx.st_index()\n") == 1
        text = text.replace(
            "    st = ctx.st_index()\n",
            "    st = ctx.st_index()\n"
            "    ctx.database.disk.read_page(0)\n",
            1,
        )
        executor.write_text(text, encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL007"]
        assert findings and any("uncharged disk-read path" in f.message for f in findings)

    def test_rl008_unrendered_cost_field(self, src_copy):
        query = src_copy / "repro" / "core" / "query.py"
        text = query.read_text(encoding="utf-8")
        needle = '    max_wave_size: int = field(default=0, metadata={"merge": max})\n'
        assert needle in text
        text = text.replace(needle, needle + "    phantom_counter: int = 0\n", 1)
        query.write_text(text, encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL008"]
        messages = " | ".join(f.message for f in findings)
        assert "phantom_counter" in messages
        assert "never rendered" in messages

    def test_rl009_unhandled_protocol_message(self, src_copy):
        protocol = src_copy / "repro" / "serving" / "protocol.py"
        protocol.write_text(
            protocol.read_text(encoding="utf-8") + '\nMSG_PING = "ping"\n',
            encoding="utf-8",
        )
        dispatcher = src_copy / "repro" / "serving" / "dispatcher.py"
        dispatcher.write_text(
            dispatcher.read_text(encoding="utf-8")
            + "\n\ndef _ping(conn):\n"
            + "    from repro.serving.protocol import MSG_PING\n"
            + "    conn.send((MSG_PING, None))\n",
            encoding="utf-8",
        )
        findings = [f for f in self.lint(src_copy) if f.rule == "RL009"]
        assert findings and any(
            "MSG_PING" in f.message and "never handled in the worker" in f.message
            for f in findings
        )

    def test_rl010_unguarded_recv_on_gather_path(self, src_copy):
        # Acceptance criterion: re-introducing a bare conn.recv() on the
        # supervised gather path (bypassing _poll_workers) fails the gate.
        dispatcher = src_copy / "repro" / "serving" / "dispatcher.py"
        text = dispatcher.read_text(encoding="utf-8")
        needle = "            events = self._poll_workers(sorted(outstanding), timeout_s)\n"
        assert needle in text
        text = text.replace(
            needle,
            "            frame = self._workers[0].conn.recv()\n" + needle,
            1,
        )
        dispatcher.write_text(text, encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL010"]
        assert findings and any(
            "unbounded blocking wait" in f.message
            and "_gather" in f.message
            for f in findings
        )

    def test_rl011_commit_bypasses_journal_append(self, src_copy):
        # Acceptance criterion: making commit write the journal with a
        # bare open(..., "ab") instead of the fsynced append fails the
        # gate — the torn-write window the tier exists to close.
        filedisk = src_copy / "repro" / "storage" / "backends" / "filedisk.py"
        text = filedisk.read_text(encoding="utf-8")
        needle = "            self._journal_append_locked(payload)\n"
        assert needle in text
        text = text.replace(
            needle,
            '            with open(self._file("log"), "ab") as raw:\n'
            "                raw.write(payload)\n",
            1,
        )
        filedisk.write_text(text, encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL011"]
        assert findings and any(
            "unsafe durable-write path" in f.message
            and "FileBackedDisk.commit" in f.message
            for f in findings
        )

    def test_rl011_save_path_raw_write(self, src_copy):
        # Routing the metadata files a save publishes around
        # atomic_replace (write_bytes straight to the target path) fails
        # the gate.
        persist = src_copy / "repro" / "io" / "persist.py"
        text = persist.read_text(encoding="utf-8")
        needle = "disk.replace_file(directory / name, data)"
        assert needle in text
        text = text.replace(needle, "_raw_write(directory / name, data)", 1)
        text += "\n\ndef _raw_write(path, data):\n    path.write_bytes(data)\n"
        persist.write_text(text, encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL011"]
        assert findings and any(
            "unsafe durable-write path" in f.message
            and "save_store" in f.message
            for f in findings
        )

    @pytest.mark.parametrize(
        "needle, raw, entry",
        [
            (  # a raw write inside checkpoint itself
                "        self.commit()\n",
                '        self._file("log").write_bytes(b"")\n        self.commit()\n',
                r"FileBackedDisk\.checkpoint reaches",
            ),
            (  # compaction is an entry point of its own
                "            old = self.generation\n",
                '            old = self.generation\n            self._file("bin").write_bytes(b"")\n',
                r"FileBackedDisk\.compact reaches",
            ),
        ],
        ids=["checkpoint", "compact"],
    )
    def test_rl011_checkpoint_raw_write(self, src_copy, needle, raw, entry):
        # Writing a checkpoint file with write_bytes instead of
        # atomic_replace fails the gate on a path that starts at the entry
        # point itself (``compact`` is also reached from ``save_store``).
        filedisk = src_copy / "repro" / "storage" / "backends" / "filedisk.py"
        text = filedisk.read_text(encoding="utf-8")
        assert text.count(needle) == 1
        filedisk.write_text(text.replace(needle, raw), encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL011"]
        assert any(
            re.search(rf"unsafe durable-write path: \S*{entry}", f.message)
            and ".write_bytes(...)" in f.message
            for f in findings
        ), [f.message for f in findings]

    def test_rl011_barrier_annotation_is_load_bearing(self, src_copy):
        # Stripping the durable-barrier audit mark off atomic_replace
        # exposes its internal os.write/os.open on every save path.
        atomic = src_copy / "repro" / "storage" / "backends" / "atomic.py"
        text = atomic.read_text(encoding="utf-8")
        needle = "# repro-lint: durable-barrier\n"
        assert needle in text
        atomic.write_text(text.replace(needle, "", 1), encoding="utf-8")
        findings = [f for f in self.lint(src_copy) if f.rule == "RL011"]
        assert findings and any("atomic_replace" in f.message for f in findings)


# ---------------------------------------------------------------------------
# Call graph — what it cannot follow is recorded, never dropped
# ---------------------------------------------------------------------------


def graph_of(tmp_path: Path, files):
    """The call graph of a scratch tree (``{relative name: source}``)."""
    from tools.repro_lint.callgraph import call_graph
    from tools.repro_lint.core import build_project

    root = tmp_path / "src"  # module names start below a `src` directory
    root.mkdir()
    for name, source in files.items():
        (root / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return call_graph(build_project([str(root)]))


def reachable_from(graph, qualname):
    seen, stack = {qualname}, [qualname]
    while stack:
        for callee in graph.callees(stack.pop()):
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


class TestCallGraphBlindSpots:
    def test_call_through_parameter_or_local_is_recorded(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            def verify(x):
                return x

            def run(search, table, x):
                pick = table[x]
                return search(x), pick(x), len(table), verify(x)
        """})
        rows = {(u.caller, u.target, u.reason) for u in graph.unresolved}
        assert rows == {
            ("mod.run", "search", "call through a parameter"),
            ("mod.run", "pick", "call through a local variable"),
        }
        # The builtin is out of scope, the module function is an edge.
        assert graph.callees("mod.run") == {"mod.verify"}

    def test_imported_function_passed_as_argument_is_recorded(self, tmp_path):
        graph = graph_of(tmp_path, {
            "work.py": """
                def work(x):
                    return x
            """,
            "pool.py": """
                from work import work

                def go(executor, items):
                    return executor.map(work, items)
            """,
        })
        rows = {(u.caller, u.target, u.reason) for u in graph.unresolved}
        assert rows == {
            ("pool.go", "work.work", "callback reference (not traversed)")
        }
        assert "work.work" not in reachable_from(graph, "pool.go")

    def test_cls_call_in_classmethod_is_the_constructor(self, tmp_path):
        graph = graph_of(tmp_path, {"mod.py": """
            class Tree:
                def __init__(self, fanout):
                    self.fanout = fanout

                @classmethod
                def bulk(cls, fanout):
                    return cls(fanout)
        """})
        assert graph.callees("mod.Tree.bulk") == {"mod.Tree.__init__"}
        assert graph.unresolved == []

    def test_every_registered_executor_reaches_its_family(self):
        """The real tree: each registration's search and estimator code is
        on the call graph, i.e. inside what RL007 can prove things
        about.  Threading the pipeline through callables (``search=``,
        ``estimator_cls=``) breaks this."""
        from tools.repro_lint.callgraph import call_graph
        from tools.repro_lint.core import build_project

        graph = call_graph(build_project([str(REPO_ROOT / "src")]))
        registered = {
            (reg.kind, reg.name): reg.func.qualname
            for reg in graph.table.executors
        }
        assert len(registered) == 8
        everyone = {
            "repro.core.executors.sqmb_tbs.start_estimators",
            "repro.core.prob_kernel.ColumnarEq31Estimator.__init__",
            "repro.core.prob_kernel.ColumnarEq31Estimator.probabilities",
            "repro.core.st_index.STIndex.find_start_segment",
            "repro.core.st_index.STIndex.gather_window_columns",
        }
        bounded = {
            "repro.core.executors.ExecutionContext.bounding_region",
            "repro.core.sqmb.bounding_region",
            "repro.core.tbs.trace_back_search",
        }
        exhaustive = {
            "repro.core.baseline.exhaustive_search",
            "repro.core.baseline.exhaustive_search_pruned",
            "repro.core.baseline._exhaustive_waves",
        }
        for (kind, name), entry in sorted(registered.items()):
            family = exhaustive if name.startswith("es") else bounded
            missing = (everyone | family) - reachable_from(graph, entry)
            assert not missing, f"{kind}/{name} cannot reach {sorted(missing)}"


# ---------------------------------------------------------------------------
# Multi-file scratch trees
# ---------------------------------------------------------------------------


def lint_tree(tmp_path: Path, files, select=None):
    """Write a multi-file scratch tree and lint it."""
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    _, findings = run_paths([str(tmp_path)], select=select)
    return findings


# ---------------------------------------------------------------------------
# RL007 — I/O-accounting dataflow
# ---------------------------------------------------------------------------


class TestRL007AccountingFlow:
    REGISTRY = textwrap.dedent(
        """
        def register_executor(kind, name):
            def deco(fn):
                return fn
            return deco
        """
    )

    def snippet(self, tmp_path, body):
        return lint_snippet(
            tmp_path, self.REGISTRY + textwrap.dedent(body), select=["RL007"]
        )

    def test_direct_raw_read_in_executor_fails(self, tmp_path):
        findings = self.snippet(tmp_path, """
            @register_executor("s", "algo_tbs")
            def execute(ctx):
                return ctx.disk.read_page(0)
        """)
        assert rules_of(findings) == ["RL007"]
        assert "uncharged disk-read path" in findings[0].message

    def test_interprocedural_raw_read_fails_with_chain(self, tmp_path):
        findings = self.snippet(tmp_path, """
            @register_executor("s", "algo_tbs")
            def execute(ctx):
                return _fetch(ctx)

            def _fetch(ctx):
                return ctx.disk.read_page(0)
        """)
        assert rules_of(findings) == ["RL007"]
        assert "execute -> " in findings[0].message
        assert "._fetch" in findings[0].message

    def test_charging_barrier_passes(self, tmp_path):
        findings = self.snippet(tmp_path, """
            @register_executor("s", "algo_tbs")
            def execute(ctx):
                return _load(ctx)

            def _load(ctx):
                pages = ctx.pool.get_pages([0, 1])
                return ctx.disk.extent_bytes(0, len(pages))
        """)
        assert findings == []

    def test_charged_annotation_is_a_barrier(self, tmp_path):
        findings = self.snippet(tmp_path, """
            @register_executor("s", "algo_tbs")
            def execute(ctx):
                return _decode(ctx)

            # repro-lint: charged
            def _decode(ctx):
                return ctx.disk.extent_bytes(0, 2)
        """)
        assert findings == []

    def test_no_registry_is_a_noop(self, tmp_path):
        source = """
            def peek(disk):
                return disk.read_page(0)
        """
        assert lint_snippet(tmp_path, source, select=["RL007"]) == []


# ---------------------------------------------------------------------------
# RL008 — QueryCost counter drift
# ---------------------------------------------------------------------------


class TestRL008CounterDrift:
    QUERY = textwrap.dedent(
        """
        from dataclasses import dataclass

        @dataclass
        class QueryCost:
            page_reads: int = 0
            expansions: int = 0
        """
    )
    SERVICE = textwrap.dedent(
        """
        class BatchReport:
            def __init__(self, results):
                self.results = results

            @property
            def page_reads(self):
                return sum(r.cost.page_reads for r in self.results)

            @property
            def expansions(self):
                return sum(r.cost.expansions for r in self.results)
        """
    )
    DOCS = textwrap.dedent(
        """
        # API

        `QueryCost` fields:

        - `page_reads` — pages charged against the simulated disk.
        - `expansions` — segments expanded by the search.

        ## Next section
        """
    )

    def write_docs(self, tmp_path, text):
        docs = tmp_path / "docs"
        docs.mkdir(exist_ok=True)
        (docs / "api.md").write_text(text, encoding="utf-8")

    def test_consistent_surfaces_pass(self, tmp_path):
        self.write_docs(tmp_path, self.DOCS)
        findings = lint_tree(
            tmp_path,
            {"core/query.py": self.QUERY, "core/service.py": self.SERVICE},
            select=["RL008"],
        )
        assert findings == []

    def test_unrendered_undocumented_field_fails(self, tmp_path):
        self.write_docs(tmp_path, self.DOCS)
        query = self.QUERY + "    dead_counter: int = 0\n"
        findings = lint_tree(
            tmp_path,
            {"core/query.py": query, "core/service.py": self.SERVICE},
            select=["RL008"],
        )
        messages = " | ".join(f.message for f in findings)
        assert "dead_counter is never rendered" in messages
        assert "dead_counter is undocumented" in messages

    def test_stale_doc_bullet_fails(self, tmp_path):
        self.write_docs(
            tmp_path,
            self.DOCS.replace(
                "- `expansions` — segments expanded by the search.",
                "- `expansions` — segments expanded by the search.\n"
                "- `ghost_counter` — removed long ago.",
            ),
        )
        findings = lint_tree(
            tmp_path,
            {"core/query.py": self.QUERY, "core/service.py": self.SERVICE},
            select=["RL008"],
        )
        assert any("`ghost_counter` which is not a QueryCost field" in f.message for f in findings)

    def test_no_query_cost_is_a_noop(self, tmp_path):
        findings = lint_tree(tmp_path, {"mod.py": "x = 1\n"}, select=["RL008"])
        assert findings == []


# ---------------------------------------------------------------------------
# RL009 — serving protocol exhaustiveness
# ---------------------------------------------------------------------------


class TestRL009Protocol:
    PROTOCOL = textwrap.dedent(
        """
        MSG_RUN = "run"
        MSG_OK = "ok"
        MSG_ERROR = "error"
        MSG_SHUTDOWN = "shutdown"
        """
    )
    WORKER = textwrap.dedent(
        """
        from serving.protocol import MSG_ERROR, MSG_OK, MSG_RUN, MSG_SHUTDOWN

        def loop(conn):
            while True:
                kind, payload = conn.recv()
                if kind == MSG_SHUTDOWN:
                    break
                if kind == MSG_RUN:
                    try:
                        conn.send((MSG_OK, payload))
                    except Exception as exc:
                        conn.send((MSG_ERROR, str(exc)))
                else:
                    conn.send((MSG_ERROR, "unknown kind"))
        """
    )
    DISPATCHER = textwrap.dedent(
        """
        from serving.protocol import MSG_ERROR, MSG_OK, MSG_RUN, MSG_SHUTDOWN

        def run(conn, req):
            conn.send((MSG_RUN, req))
            kind, payload = conn.recv()
            if kind == MSG_ERROR:
                raise RuntimeError(payload)
            if kind != MSG_OK:
                raise RuntimeError("bad frame")
            return payload

        def stop(conn):
            conn.send((MSG_SHUTDOWN, None))
        """
    )

    def tree(self, protocol=None, worker=None, dispatcher=None):
        return {
            "serving/protocol.py": protocol or self.PROTOCOL,
            "serving/worker.py": worker or self.WORKER,
            "serving/dispatcher.py": dispatcher or self.DISPATCHER,
        }

    def test_complete_protocol_passes(self, tmp_path):
        assert lint_tree(tmp_path, self.tree(), select=["RL009"]) == []

    def test_dead_message_kind_fails(self, tmp_path):
        protocol = self.PROTOCOL + 'MSG_PING = "ping"\n'
        findings = lint_tree(tmp_path, self.tree(protocol=protocol), select=["RL009"])
        assert any("MSG_PING is never sent" in f.message for f in findings)

    def test_unhandled_message_fails(self, tmp_path):
        protocol = self.PROTOCOL + 'MSG_PING = "ping"\n'
        dispatcher = self.DISPATCHER + textwrap.dedent(
            """
            def ping(conn):
                from serving.protocol import MSG_PING
                conn.send((MSG_PING, None))
            """
        )
        findings = lint_tree(
            tmp_path,
            self.tree(protocol=protocol, dispatcher=dispatcher),
            select=["RL009"],
        )
        assert any(
            "MSG_PING (sent by the dispatcher) is never handled in the worker" in f.message
            for f in findings
        )

    def test_missing_unknown_kind_fallback_fails(self, tmp_path):
        worker = """
            from serving.protocol import MSG_ERROR, MSG_OK, MSG_RUN, MSG_SHUTDOWN

            def loop(conn):
                while True:
                    kind, payload = conn.recv()
                    if kind == MSG_SHUTDOWN:
                        break
                    if kind == MSG_RUN:
                        try:
                            conn.send((MSG_OK, payload))
                        except Exception as exc:
                            conn.send((MSG_ERROR, str(exc)))
        """
        findings = lint_tree(tmp_path, self.tree(worker=worker), select=["RL009"])
        assert any("no unknown-message fallback" in f.message for f in findings)

    def test_missing_error_path_fails(self, tmp_path):
        worker = """
            from serving.protocol import MSG_ERROR, MSG_OK, MSG_RUN, MSG_SHUTDOWN

            def loop(conn):
                while True:
                    kind, payload = conn.recv()
                    if kind == MSG_SHUTDOWN:
                        break
                    if kind == MSG_RUN:
                        conn.send((MSG_OK, payload))
                    else:
                        conn.send((MSG_ERROR, "unknown kind"))
        """
        findings = lint_tree(tmp_path, self.tree(worker=worker), select=["RL009"])
        assert any("no error path" in f.message for f in findings)

    def test_both_sides_sending_fails(self, tmp_path):
        worker = self.WORKER + textwrap.dedent(
            """
            def renegade(conn):
                conn.send((MSG_RUN, None))
            """
        )
        findings = lint_tree(tmp_path, self.tree(worker=worker), select=["RL009"])
        assert any("sent by both sides" in f.message for f in findings)

    def test_no_protocol_module_is_a_noop(self, tmp_path):
        findings = lint_tree(tmp_path, {"mod.py": "x = 1\n"}, select=["RL009"])
        assert findings == []


# ---------------------------------------------------------------------------
# RL010 — blocking-recv discipline
# ---------------------------------------------------------------------------


class TestRL010RecvDeadline:
    GOOD = textwrap.dedent(
        """
        from multiprocessing import connection as mp_connection

        class ShardedEngine:
            def run_batch(self, requests):
                outstanding = {0: "attempt"}
                return self._gather(outstanding)

            def _gather(self, outstanding):
                replies = []
                while outstanding:
                    for conn, frame in self._poll_workers(outstanding, 0.5):
                        replies.append(frame)
                        outstanding.popitem()
                return replies

            # repro-lint: deadline-wait
            def _poll_workers(self, outstanding, timeout_s):
                ready = mp_connection.wait(list(outstanding), timeout_s)
                return [(conn, conn.recv()) for conn in ready]
        """
    )

    def test_guarded_gather_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.GOOD, name="serving/dispatcher.py", select=["RL010"]
        )
        assert findings == []

    def test_direct_recv_on_gather_path_fails(self, tmp_path):
        bad = self.GOOD.replace(
            "            for conn, frame in self._poll_workers(outstanding, 0.5):\n"
            "                replies.append(frame)\n",
            "            for conn in list(outstanding):\n"
            "                replies.append(conn.recv())\n",
        )
        assert bad != self.GOOD
        findings = lint_snippet(
            tmp_path, bad, name="serving/dispatcher.py", select=["RL010"]
        )
        assert any(
            f.rule == "RL010"
            and "unbounded blocking wait" in f.message
            and "run_batch" in f.message  # the witness chain names the entry
            and "_gather" in f.message
            for f in findings
        )

    def test_recv_in_entry_point_itself_fails(self, tmp_path):
        bad = self.GOOD.replace(
            "        outstanding = {0: \"attempt\"}\n",
            "        outstanding = {0: \"attempt\"}\n"
            "        peek = self.conn.recv()\n",
        )
        assert bad != self.GOOD
        findings = lint_snippet(
            tmp_path, bad, name="serving/dispatcher.py", select=["RL010"]
        )
        assert any(
            f.rule == "RL010" and ".recv()" in f.message for f in findings
        )

    def test_wait_without_timeout_fails(self, tmp_path):
        # unbounded wait directly in a *non-barrier* function on the path
        bad = self.GOOD.replace(
            "            for conn, frame in self._poll_workers(outstanding, 0.5):\n"
            "                replies.append(frame)\n",
            "            for conn in mp_connection.wait(list(outstanding)):\n"
            "                replies.append(conn)\n",
        )
        assert bad != self.GOOD
        findings = lint_snippet(
            tmp_path, bad, name="serving/dispatcher.py", select=["RL010"]
        )
        assert any(
            f.rule == "RL010" and "without a timeout" in f.message
            for f in findings
        )

    def test_annotated_helper_is_a_barrier(self, tmp_path):
        # A custom audited helper (not named _poll_workers) is trusted
        # once annotated `# repro-lint: deadline-wait`.
        source = self.GOOD.replace("_poll_workers", "_bounded_poll")
        findings = lint_snippet(
            tmp_path, source, name="serving/dispatcher.py", select=["RL010"]
        )
        assert findings == []
        unannotated = source.replace(
            "# repro-lint: deadline-wait\n", "# just a helper\n"
        )
        assert unannotated != source
        findings = lint_snippet(
            tmp_path, unannotated, name="serving/dispatcher2.py", select=["RL010"]
        )
        assert any(f.rule == "RL010" for f in findings)

    def test_worker_recv_out_of_scope(self, tmp_path):
        # The worker loop's idle recv is a spawn target, not a callee of
        # run_batch: it must not be flagged.
        tree = {
            "serving/dispatcher.py": self.GOOD,
            "serving/worker.py": (
                """
                def shard_worker_main(conn):
                    while True:
                        message = conn.recv()
                        if message is None:
                            break
                """
            ),
        }
        assert lint_tree(tmp_path, tree, select=["RL010"]) == []

    def test_no_sharded_engine_is_a_noop(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def plain(conn):\n    return conn.recv()\n",
            select=["RL010"],
        )
        assert findings == []
