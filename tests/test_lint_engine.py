"""Tests for the repro.analysis.lint engine, rules, config, and CLI."""

from __future__ import annotations

import gc
import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.lint import (
    DEFAULT_CONFIG,
    PARSE_ERROR_RULE,
    RULE_REGISTRY,
    Finding,
    LintConfig,
    Suppressions,
    lint_paths,
    lint_source,
    load_config,
    render_json,
    render_text,
    result_from_json,
    result_to_json,
)
from repro.analysis.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_for(source: str, *, rule: str, relpath: str = "mod.py") -> list[Finding]:
    """Lint a dedented snippet with one rule selected."""
    config = LintConfig(select=(rule,))
    result = lint_source(textwrap.dedent(source), relpath=relpath, config=config)
    return result.findings


def assert_fires(source: str, rule: str, *, times: int = 1) -> list[Finding]:
    findings = findings_for(source, rule=rule)
    assert len(findings) == times, [f.render() for f in findings]
    assert all(f.rule == rule for f in findings)
    return findings


def assert_clean(source: str, rule: str) -> None:
    findings = findings_for(source, rule=rule)
    assert findings == [], [f.render() for f in findings]


class TestREP001GlobalRandom:
    def test_global_call_fires(self):
        finding = assert_fires(
            """
            import numpy as np
            x = np.random.rand(3)
            """,
            "REP001",
        )[0]
        assert "numpy.random.rand" in finding.message
        assert finding.line == 3

    def test_seed_and_shuffle_fire(self):
        assert_fires(
            """
            import numpy as np
            np.random.seed(0)
            np.random.shuffle([1, 2])
            """,
            "REP001",
            times=2,
        )

    def test_from_import_alias_fires(self):
        assert_fires(
            """
            from numpy.random import rand as make
            x = make(3)
            """,
            "REP001",
        )

    def test_generator_api_is_clean(self):
        assert_clean(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            seq = np.random.SeedSequence(42)
            x = rng.random(3)
            """,
            "REP001",
        )

    def test_annotation_is_clean(self):
        assert_clean(
            """
            import numpy as np
            def f(rng: np.random.Generator) -> None:
                rng.shuffle([1])
            """,
            "REP001",
        )

    def test_suppressed(self):
        assert_clean(
            """
            import numpy as np
            x = np.random.rand(3)  # repro: allow(REP001)
            """,
            "REP001",
        )


class TestREP002WallClock:
    def test_perf_counter_fires(self):
        finding = assert_fires(
            """
            import time
            start = time.perf_counter()
            """,
            "REP002",
        )[0]
        assert "time.perf_counter" in finding.message

    def test_datetime_now_fires(self):
        assert_fires(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            "REP002",
        )

    def test_clock_module_api_is_clean(self):
        assert_clean(
            """
            from repro.utils.clock import SystemClock, Timer
            with Timer() as timer:
                pass
            now = SystemClock().monotonic()
            """,
            "REP002",
        )

    def test_sleep_is_clean(self):
        assert_clean(
            """
            import time
            time.sleep(0.1)
            """,
            "REP002",
        )

    def test_allowlisted_path_is_clean(self):
        source = "import time\nnow = time.monotonic()\n"
        config = LintConfig(select=("REP002",), allow={"REP002": ("*/utils/clock.py",)})
        assert lint_source(source, relpath="src/repro/utils/clock.py", config=config).ok
        assert not lint_source(source, relpath="src/repro/other.py", config=config).ok


class TestREP003AtomicWrites:
    def test_open_write_fires(self):
        assert_fires("handle = open('x.txt', 'w')\n", "REP003")

    def test_path_open_append_fires(self):
        assert_fires(
            """
            from pathlib import Path
            with Path('x.txt').open('a') as handle:
                pass
            """,
            "REP003",
        )

    def test_np_save_family_fires(self):
        assert_fires(
            """
            import numpy as np
            np.save('x.npy', [1])
            np.savez('x.npz', a=[1])
            np.savez_compressed('y.npz', a=[1])
            """,
            "REP003",
            times=3,
        )

    def test_read_modes_clean(self):
        assert_clean(
            """
            from pathlib import Path
            a = open('x.txt')
            b = open('x.txt', 'rb')
            with Path('x.txt').open() as handle:
                pass
            """,
            "REP003",
        )

    def test_mode_keyword_fires(self):
        assert_fires("handle = open('x.txt', mode='wb')\n", "REP003")

    def test_suppressed(self):
        assert_clean(
            """
            import numpy as np
            np.savez('x.npz', a=[1])  # repro: allow(REP003) — fixture
            """,
            "REP003",
        )


class TestREP004UnguardedExp:
    def test_unbounded_fires(self):
        assert_fires(
            """
            import numpy as np
            def f(x):
                return np.exp(x)
            """,
            "REP004",
        )

    def test_negated_variable_fires(self):
        assert_fires(
            """
            import numpy as np
            def f(x):
                return np.exp(-x)
            """,
            "REP004",
        )

    def test_clip_guard_clean(self):
        assert_clean(
            """
            import numpy as np
            def f(x):
                return np.exp(np.clip(x, -30, 30))
            """,
            "REP004",
        )

    def test_minimum_guard_clean(self):
        assert_clean(
            """
            import numpy as np
            def f(x):
                return np.exp(np.minimum(x, 709.0))
            """,
            "REP004",
        )

    def test_neg_abs_guard_clean(self):
        assert_clean(
            """
            import numpy as np
            def f(x):
                return np.log1p(np.exp(-np.abs(x)))
            """,
            "REP004",
        )

    def test_split_sign_mask_clean(self):
        assert_clean(
            """
            import numpy as np
            def f(x):
                positive = x >= 0
                return np.exp(x[~positive])
            """,
            "REP004",
        )

    def test_constant_clean(self):
        assert_clean("import numpy as np\ny = np.exp(-1.0)\n", "REP004")


LOCKED_CLASS_HEADER = """
import threading

class Shared:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
"""


class TestREP005LockDiscipline:
    def test_mixed_discipline_fires(self):
        source = (
            LOCKED_CLASS_HEADER
            + """
    def bump(self):
        with self._lock:
            self.count += 1

    def sneak(self):
        self.count = 0
"""
        )
        finding = assert_fires(source, "REP005")[0]
        assert "self.count" in finding.message

    def test_consistent_discipline_clean(self):
        source = (
            LOCKED_CLASS_HEADER
            + """
    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        with self._lock:
            self.count = 0
"""
        )
        assert_clean(source, "REP005")

    def test_helper_called_under_lock_is_clean(self):
        """The breaker pattern: helpers only ever invoked with the lock
        held count as in-lock, including through a helper chain."""
        source = (
            LOCKED_CLASS_HEADER
            + """
    def bump(self):
        with self._lock:
            self._inc()

    def reset(self):
        with self._lock:
            self._apply()

    def _apply(self):
        self._inc()

    def _inc(self):
        self.count += 1
"""
        )
        assert_clean(source, "REP005")

    def test_helper_also_called_unlocked_fires(self):
        source = (
            LOCKED_CLASS_HEADER
            + """
    def bump(self):
        with self._lock:
            self._inc()

    def sneak(self):
        self._inc()

    def _inc(self):
        self.count += 1
"""
        )
        assert_fires(source, "REP005")

    def test_unlocked_class_ignored(self):
        assert_clean(
            """
            class Plain:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
            """,
            "REP005",
        )

    def test_init_mutation_does_not_fire(self):
        source = (
            LOCKED_CLASS_HEADER
            + """
    def bump(self):
        with self._lock:
            self.count += 1
"""
        )
        assert_clean(source, "REP005")

    def test_condition_counts_as_lock(self):
        """``threading.Condition`` guards state for REP005 as for REP008."""
        finding = assert_fires(
            """
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()
                    self.items = 0

                def put(self):
                    with self._cond:
                        self.items += 1

                def drain(self):
                    self.items = 0
            """,
            "REP005",
        )[0]
        assert "self.items" in finding.message and "self._cond" in finding.message


class TestREP006Hygiene:
    def test_mutable_default_fires(self):
        assert_fires("def f(items=[]):\n    return items\n", "REP006")

    def test_dict_and_kwonly_defaults_fire(self):
        assert_fires(
            """
            def f(a={}, *, b=set()):
                return a, b
            """,
            "REP006",
            times=2,
        )

    def test_none_default_clean(self):
        assert_clean("def f(items=None, k=5, name='x'):\n    return items\n", "REP006")

    def test_bare_except_fires(self):
        assert_fires(
            """
            try:
                work()
            except:
                handle()
            """,
            "REP006",
        )

    def test_swallowed_exception_fires(self):
        assert_fires(
            """
            try:
                work()
            except Exception:
                pass
            """,
            "REP006",
        )

    def test_handled_broad_except_clean(self):
        assert_clean(
            """
            try:
                work()
            except Exception as error:
                log(error)
                raise
            except ValueError:
                pass
            """,
            "REP006",
        )


class TestSuppressions:
    def test_same_line(self):
        suppressions = Suppressions("x = 1  # repro: allow(REP001)\n")
        assert suppressions.is_suppressed("REP001", 1)
        assert not suppressions.is_suppressed("REP002", 1)

    def test_standalone_comment_covers_next_line(self):
        suppressions = Suppressions("# repro: allow(REP003)\nx = 1\ny = 2\n")
        assert suppressions.is_suppressed("REP003", 1)
        assert suppressions.is_suppressed("REP003", 2)
        assert not suppressions.is_suppressed("REP003", 3)

    def test_multiple_ids_and_star(self):
        suppressions = Suppressions("x = 1  # repro: allow(REP001, REP004)\ny = 2  # repro: allow(*)\n")
        assert suppressions.is_suppressed("REP001", 1)
        assert suppressions.is_suppressed("REP004", 1)
        assert not suppressions.is_suppressed("REP002", 1)
        assert suppressions.is_suppressed("REP999", 2)

    def test_trailing_rationale_allowed(self):
        suppressions = Suppressions("x = 1  # repro: allow(REP003) — fixture\n")
        assert suppressions.is_suppressed("REP003", 1)

    def test_suppressed_count_reported(self):
        result = lint_source(
            "import numpy as np\nx = np.random.rand(3)  # repro: allow(REP001)\n",
            config=LintConfig(select=("REP001",)),
        )
        assert result.ok
        assert result.suppressed == 1


class TestConfig:
    def test_select_filters_rules(self):
        source = "import numpy as np\nimport time\nnp.random.rand(3)\ntime.time()\n"
        result = lint_source(source, config=LintConfig(select=("REP002",)))
        assert [f.rule for f in result.findings] == ["REP002"]

    def test_only_restricts_rule_to_paths(self):
        config = LintConfig(select=("REP005",), only={"REP005": ("*/serving/*.py",)})
        source = LOCKED_CLASS_HEADER + "\n    def sneak(self):\n        with self._lock:\n            self.count = 1\n\n    def other(self):\n        self.count = 2\n"
        assert not lint_source(source, relpath="src/repro/serving/a.py", config=config).ok
        assert lint_source(source, relpath="src/repro/models/a.py", config=config).ok

    def test_exclude_skips_file(self):
        config = LintConfig(exclude=("vendored/*",))
        assert config.is_excluded("vendored/thing.py")
        assert not config.is_excluded("src/thing.py")

    def test_merged_with_extends_allow(self):
        merged = DEFAULT_CONFIG.merged_with(allow={"REP002": ("extra/legacy.py",)})
        assert merged.applies_to("REP002", "src/anything.py")
        assert not merged.applies_to("REP002", "extra/legacy.py")
        assert not merged.applies_to("REP002", "src/repro/utils/clock.py")

    def test_load_config_reads_pyproject_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.repro_lint]\nselect = ["REP001"]\nexclude = ["gen/*"]\n'
            '[tool.repro_lint.allow]\nREP001 = ["legacy/*"]\n',
            encoding="utf-8",
        )
        config = load_config(pyproject)
        assert config.select == ("REP001",)
        assert config.is_excluded("gen/a.py")
        assert not config.applies_to("REP001", "legacy/a.py")

    def test_load_config_missing_file_or_table(self, tmp_path):
        assert load_config(tmp_path / "nope.toml") == DEFAULT_CONFIG
        bare = tmp_path / "pyproject.toml"
        bare.write_text("[project]\nname = 'x'\n", encoding="utf-8")
        assert load_config(bare) == DEFAULT_CONFIG


class TestEngineAndReporters:
    def test_parse_error_becomes_finding(self):
        result = lint_source("def broken(:\n")
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]
        assert not result.ok

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "pkg" / "bad.py").write_text(
            "import numpy as np\nnp.random.rand(1)\n", encoding="utf-8"
        )
        result = lint_paths([tmp_path / "pkg"], root=tmp_path)
        assert result.files_scanned == 2
        assert [f.render() for f in result.findings] == [
            "pkg/bad.py:2:0: REP001 call to global-state `numpy.random.rand`; "
            "inject a `numpy.random.Generator` (see utils/rng.py) instead"
        ]

    def test_text_report_format(self):
        result = lint_source("import time\ntime.time()\n", relpath="a.py")
        text = render_text(result)
        assert text.splitlines()[0].startswith("a.py:2:0: REP002 ")
        assert "1 finding(s) in 1 file(s) (0 suppressed)" in text

    def test_json_schema_round_trip(self):
        result = lint_source(
            "import numpy as np\nnp.random.rand(1)\nnp.random.rand(2)  # repro: allow(REP001)\n"
        )
        payload = result_to_json(result)
        assert payload["version"] == 1
        assert payload["counts"] == {"REP001": 1}
        assert set(payload["findings"][0]) == {"rule", "path", "line", "col", "message"}
        restored = result_from_json(render_json(result))
        assert restored.findings == result.findings
        assert restored.suppressed == result.suppressed
        assert restored.files_scanned == result.files_scanned

    def test_json_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            result_from_json(json.dumps({"version": 99, "findings": []}))

    def test_all_six_rules_registered(self):
        assert {f"REP00{i}" for i in range(1, 7)} <= set(RULE_REGISTRY)
        for rule_class in RULE_REGISTRY.values():
            assert rule_class.rationale


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main(["ok.py"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one_with_path_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.rand(1)\n", encoding="utf-8"
        )
        assert lint_main(["bad.py"]) == 1
        assert "bad.py:2:0: REP001" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--select", "REP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_out_writes_json_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(
            "import numpy as np\nnp.random.rand(1)\n", encoding="utf-8"
        )
        out = tmp_path / "report" / "lint.json"
        assert lint_main(["bad.py", "--format", "json", "--out", str(out)]) == 1
        restored = result_from_json(out.read_text(encoding="utf-8"))
        assert restored.findings[0].rule == "REP001"
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP006" in out


class TestSelfCheck:
    """The shipped tree must be clean under the shipped config."""

    def test_src_repro_is_lint_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = lint_paths([REPO_ROOT / "src" / "repro"], config=config, root=REPO_ROOT)
        assert result.files_scanned > 50
        assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)

    def test_benchmarks_are_lint_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = lint_paths([REPO_ROOT / "benchmarks"], config=config, root=REPO_ROOT)
        assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)

    def test_tree_is_clean_under_gc_pressure(self):
        """Collections landing mid-parse must not break the lint pass.

        CPython 3.11's AST constructor is not safe against a thread
        switch inside a collection (gh-106905): a finalizer that drops
        the GIL while another thread is building an AST raised
        ``SystemError: AST constructor recursion depth mismatch`` when
        files were parsed on a thread pool.  Tiny GC thresholds plus
        self-replenishing cyclic garbage whose ``__del__`` yields the
        GIL put such a finalizer into almost every parse.
        """
        stressing = True

        class Cycle:
            def __init__(self):
                self.self_ref = self

            def __del__(self):
                time.sleep(0)
                if stressing:
                    Cycle()  # garbage for the next collection

        config = load_config(REPO_ROOT / "pyproject.toml")
        thresholds = gc.get_threshold()
        try:
            for _ in range(5):
                gc.set_threshold(50, 5, 5)
                for _ in range(4):
                    Cycle()
                result = lint_paths(
                    [REPO_ROOT / "src", REPO_ROOT / "benchmarks"], config=config, root=REPO_ROOT
                )
                assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)
        finally:
            stressing = False
            gc.set_threshold(*thresholds)
            gc.collect()
