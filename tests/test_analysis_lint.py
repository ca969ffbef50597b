"""The repo-specific lint: rules over synthetic trees, baseline, CLI.

Each of the four AST rules is exercised positively (a crafted source file
triggers it) and negatively (the compliant variant is clean); the baseline
round-trips and partitions findings; the CLI exit codes match the CI
contract (2 without ``--lint``, 1 with new violations, 0 when clean or
updating the baseline); and the real tree is clean against the checked-in
baseline — the actual CI gate, run in-process.
"""

import ast
import json

import pytest

from repro.analysis.lint import (
    BASELINE_FORMAT,
    DEFAULT_BASELINE,
    REPORT_FORMAT,
    RULES,
    Violation,
    build_report,
    check_async_blocking,
    check_locked_state,
    check_relation_version,
    check_watch_release,
    default_root,
    load_baseline,
    run_lint,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.__main__ import main


def violations_of(check, source, path="repro/example.py"):
    return check(ast.parse(source), path)


class TestRelationVersion:
    def test_mutation_without_bump_flagged(self):
        source = (
            "class Relation:\n"
            "    def insert(self, row):\n"
            "        self._rows.append(row)\n"
        )
        found = violations_of(check_relation_version, source)
        assert [v.rule for v in found] == ["relation-version"]
        assert found[0].symbol == "Relation.insert"

    def test_mutation_with_bump_clean(self):
        source = (
            "class Relation:\n"
            "    def insert(self, row):\n"
            "        self._rows.append(row)\n"
            "        self._version += 1\n"
        )
        assert violations_of(check_relation_version, source) == []

    def test_batch_append_without_bump_flagged(self):
        source = (
            "class Relation:\n"
            "    def extend_tuples(self, rows):\n"
            "        self._row_set.update(rows)\n"
            "        self._rows.extend(rows)\n"
            "        if self._watchers:\n"
            "            self._notify()\n"
        )
        found = violations_of(check_relation_version, source)
        assert [(v.rule, v.symbol) for v in found] == [
            ("relation-version", "Relation.extend_tuples")
        ]
        bumped = source + "        self._version += 1\n"
        assert violations_of(check_relation_version, bumped) == []

    def test_storage_rebinding_counts_as_mutation(self):
        source = (
            "class Relation:\n"
            "    def replace(self, rows):\n"
            "        self._rows = list(rows)\n"
        )
        found = violations_of(check_relation_version, source)
        assert [v.symbol for v in found] == ["Relation.replace"]

    def test_init_is_exempt(self):
        source = (
            "class Relation:\n"
            "    def __init__(self):\n"
            "        self._rows = []\n"
        )
        assert violations_of(check_relation_version, source) == []


class TestLockedState:
    def test_unlocked_access_flagged(self):
        source = (
            "class PlanCache:\n"
            "    def size(self):\n"
            "        return len(self._entries)\n"
        )
        found = violations_of(check_locked_state, source)
        assert [v.symbol for v in found] == ["PlanCache.size"]
        assert "_entries" in found[0].message

    def test_locked_access_clean(self):
        source = (
            "class PlanCache:\n"
            "    def size(self):\n"
            "        with self._lock:\n"
            "            return len(self._entries)\n"
        )
        assert violations_of(check_locked_state, source) == []

    def test_other_classes_ignored(self):
        source = (
            "class Unrelated:\n"
            "    def size(self):\n"
            "        return len(self._entries)\n"
        )
        assert violations_of(check_locked_state, source) == []

    def test_nested_callback_loses_the_lock(self):
        # A closure registered under the lock runs later, without it.
        source = (
            "class StatisticsCatalog:\n"
            "    def arm(self):\n"
            "        with self._lock:\n"
            "            def hook():\n"
            "                self._entries.clear()\n"
            "            return hook\n"
        )
        found = violations_of(check_locked_state, source)
        assert [v.symbol for v in found] == ["StatisticsCatalog.arm"]


class TestAsyncBlocking:
    SERVICE_PATH = "repro/service/worker.py"

    def test_blocking_call_in_coroutine_flagged(self):
        source = (
            "import time\n"
            "async def tick():\n"
            "    time.sleep(1)\n"
        )
        found = violations_of(check_async_blocking, source, self.SERVICE_PATH)
        assert [v.rule for v in found] == ["async-blocking"]
        assert "time.sleep" in found[0].message

    def test_open_and_path_io_flagged(self):
        source = (
            "async def load(path):\n"
            "    with open(path) as handle:\n"
            "        return handle\n"
            "async def read(path):\n"
            "    return path.read_text()\n"
        )
        found = violations_of(check_async_blocking, source, self.SERVICE_PATH)
        assert sorted(v.symbol for v in found) == ["load", "read"]

    def test_sync_function_not_checked(self):
        source = "import time\ndef tick():\n    time.sleep(1)\n"
        assert violations_of(check_async_blocking, source, self.SERVICE_PATH) == []

    def test_only_service_paths_checked(self):
        source = "import time\nasync def tick():\n    time.sleep(1)\n"
        assert violations_of(check_async_blocking, source, "repro/core/x.py") == []


class TestWatchRelease:
    def test_watch_without_unwatch_flagged(self):
        source = "def arm(relation, hook):\n    relation.watch(hook)\n"
        found = violations_of(check_watch_release, source)
        assert [v.rule for v in found] == ["watch-release"]
        assert found[0].symbol == "<module>"

    def test_watch_with_unwatch_clean(self):
        source = (
            "def arm(relation, hook):\n"
            "    relation.watch(hook)\n"
            "def disarm(relation, hook):\n"
            "    relation.unwatch(hook)\n"
        )
        assert violations_of(check_watch_release, source) == []

    def test_relation_module_exempt(self):
        source = "def arm(relation, hook):\n    relation.watch(hook)\n"
        assert (
            check_watch_release(ast.parse(source), "repro/relational/relation.py") == []
        )


# --------------------------------------------------------------------------- #
# run_lint over a synthetic tree, baseline workflow, report format
# --------------------------------------------------------------------------- #


def synthetic_package(tmp_path):
    """A package with one violation per rule; returns its root directory."""
    root = tmp_path / "pkg"
    (root / "service").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "service" / "__init__.py").write_text("")
    (root / "storage.py").write_text(
        "class Relation:\n"
        "    def insert(self, row):\n"
        "        self._rows.append(row)\n"
        "\n"
        "class PlanCache:\n"
        "    def size(self):\n"
        "        return len(self._entries)\n"
    )
    (root / "service" / "loop.py").write_text(
        "import time\n"
        "async def tick():\n"
        "    time.sleep(1)\n"
    )
    (root / "hooks.py").write_text(
        "def arm(relation, hook):\n"
        "    relation.watch(hook)\n"
    )
    return root


class TestRunLintAndBaseline:
    def test_all_rules_fire_over_synthetic_tree(self, tmp_path):
        found = run_lint(synthetic_package(tmp_path))
        assert sorted({v.rule for v in found}) == [
            "async-blocking",
            "locked-state",
            "relation-version",
            "watch-release",
        ]
        # Paths are relative to the package's parent, posix-style.
        assert all(v.path.startswith("pkg/") for v in found)

    def test_baseline_roundtrip_and_partition(self, tmp_path):
        found = run_lint(synthetic_package(tmp_path))
        baseline_path = tmp_path / "baseline.json"
        write_baseline(found[:2], baseline_path)
        payload = json.loads(baseline_path.read_text())
        assert payload["format"] == BASELINE_FORMAT
        baseline = load_baseline(baseline_path)
        new, known = split_by_baseline(found, baseline)
        assert len(known) == 2 and len(new) == len(found) - 2

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_baseline_key_ignores_line_numbers(self):
        a = Violation("r", "p.py", 3, "f", "m")
        b = Violation("r", "p.py", 99, "f", "other message")
        assert a.key() == b.key()

    def test_report_format(self, tmp_path):
        found = run_lint(synthetic_package(tmp_path))
        report = build_report(found, {found[0].key()})
        assert report["format"] == REPORT_FORMAT
        assert report["total"] == len(found)
        assert len(report["new"]) + len(report["baselined"]) == len(found)
        assert report["rules"] == sorted(rule.__name__ for rule in RULES)


class TestCommandLine:
    def test_no_lint_flag_exits_2(self, capsys):
        assert main([]) == 2

    def test_new_violations_exit_1(self, tmp_path, capsys):
        root = synthetic_package(tmp_path)
        code = main(["--lint", "--root", str(root), "--baseline", str(tmp_path / "b.json")])
        assert code == 1
        assert "NEW:" in capsys.readouterr().out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        root = synthetic_package(tmp_path)
        baseline = tmp_path / "b.json"
        assert main(["--lint", "--root", str(root), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["--lint", "--root", str(root), "--baseline", str(baseline)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_report_artifact_written(self, tmp_path, capsys):
        root = synthetic_package(tmp_path)
        report = tmp_path / "LINT_report.json"
        main(["--lint", "--root", str(root), "--baseline", str(tmp_path / "b.json"),
              "--report", str(report)])
        assert json.loads(report.read_text())["format"] == REPORT_FORMAT


class TestRepositoryIsClean:
    def test_repo_tree_has_no_new_violations(self):
        # The actual CI gate, in-process: the installed package linted
        # against the checked-in baseline must produce nothing new.
        new, _known = split_by_baseline(
            run_lint(default_root()), load_baseline(DEFAULT_BASELINE)
        )
        assert new == [], "\n".join(v.render() for v in new)

    def test_checked_in_baseline_is_current(self):
        # Every baselined entry still corresponds to a real finding —
        # stale entries mean the fix landed and the baseline should shrink.
        keys = {v.key() for v in run_lint(default_root())}
        assert load_baseline(DEFAULT_BASELINE) <= keys
