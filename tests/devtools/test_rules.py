"""Per-rule fixture tests: each rule fires on its target pattern and
stays quiet on the closest legitimate code."""

from __future__ import annotations

import textwrap

from repro.devtools import default_rules, lint_file


def lint_source(tmp_path, source, registry=None, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, default_rules(registry=registry))


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestRngGlobalState:
    def test_flags_np_random_seed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            np.random.seed(0)
            """,
        )
        assert "rng-global-state" in rule_ids(findings)

    def test_flags_legacy_draws(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy
            x = numpy.random.uniform(0, 1, 10)
            """,
        )
        assert "rng-global-state" in rule_ids(findings)

    def test_flags_legacy_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from numpy.random import rand
            """,
        )
        assert "rng-global-state" in rule_ids(findings)

    def test_allows_generator_api(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            from numpy.random import default_rng, Generator

            def draw(rng: Generator):
                local = np.random.default_rng(0)
                return local.uniform() + rng.uniform()
            """,
        )
        assert "rng-global-state" not in rule_ids(findings)


class TestGlobalState:
    def test_flags_bare_global(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            _counter = 0

            def bump():
                global _counter
                _counter += 1
            """,
        )
        assert rule_ids(findings).count("global-state") >= 1

    def test_flags_module_level_mutable(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            _cache = {}
            """,
        )
        assert "global-state" in rule_ids(findings)

    def test_registered_name_is_clean(self, tmp_path):
        registry = {("pkgmod", "_cache"): "lock:_lock"}
        findings = lint_source(
            tmp_path,
            """
            import threading
            _lock = threading.Lock()
            _cache = {}
            """,
            registry=registry,
            name="pkgmod.py",
        )
        assert "global-state" not in rule_ids(findings)

    def test_dunder_assignments_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["x"]

            def x():
                "doc"
            """,
        )
        assert "global-state" not in rule_ids(findings)

    def test_function_local_mutable_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def build():
                acc = {}
                return acc
            """,
        )
        assert "global-state" not in rule_ids(findings)


class TestMutableDefault:
    def test_flags_list_and_dict_defaults(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(items=[], opts={}):
                return items, opts
            """,
        )
        assert rule_ids(findings).count("mutable-default") == 2

    def test_flags_kwonly_and_call_defaults(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(*, acc=dict()):
                return acc
            """,
        )
        assert "mutable-default" in rule_ids(findings)

    def test_none_and_tuple_defaults_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(items=None, shape=(2, 3), label="x"):
                return items, shape, label
            """,
        )
        assert "mutable-default" not in rule_ids(findings)


class TestFloatEquality:
    def test_flags_float_eq_and_ne(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(x):
                return x == 0.5 or x != -1.0
            """,
        )
        assert rule_ids(findings).count("float-eq") == 2

    def test_int_comparison_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(n):
                return n == 0
            """,
        )
        assert "float-eq" not in rule_ids(findings)

    def test_waiver_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(x):
                return x == 0.0  # repro: allow(float-eq) exact sentinel
            """,
        )
        assert "float-eq" not in rule_ids(findings)


class TestBroadExcept:
    def test_flags_bare_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except:
                    return 0
            """,
        )
        assert "broad-except" in rule_ids(findings)

    def test_flags_swallowed_exception(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except Exception:
                    return 0
            """,
        )
        assert "broad-except" in rule_ids(findings)

    def test_reraising_broad_handler_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except Exception as exc:
                    raise RuntimeError("context") from exc
            """,
        )
        assert "broad-except" not in rule_ids(findings)

    def test_narrow_handler_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except ValueError:
                    return 0
            """,
        )
        assert "broad-except" not in rule_ids(findings)


class TestMissingAll:
    def test_flags_public_module_without_all(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def helper():
                "doc"
            """,
            name="api.py",
        )
        assert "missing-all" in rule_ids(findings)

    def test_private_module_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def helper():
                "doc"
            """,
            name="_impl.py",
        )
        assert "missing-all" not in rule_ids(findings)

    def test_module_with_all_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["helper"]

            def helper():
                "doc"
            """,
            name="api.py",
        )
        assert "missing-all" not in rule_ids(findings)


class TestUndocumentedPublic:
    def test_flags_exported_def_without_docstring(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["f", "C"]

            def f():
                return 1

            class C:
                pass
            """,
        )
        assert rule_ids(findings).count("undocumented-public") == 2

    def test_documented_exports_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["f"]

            def f():
                "Does the thing."
                return 1

            def _private():
                return 2
            """,
        )
        assert "undocumented-public" not in rule_ids(findings)


class TestShadowedBuiltin:
    def test_flags_builtin_parameter_names(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(list, type=None):
                return list, type
            """,
        )
        assert rule_ids(findings).count("shadowed-builtin") == 2

    def test_ordinary_names_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(values, kind=None):
                return values, kind
            """,
        )
        assert "shadowed-builtin" not in rule_ids(findings)


class TestEngineBasics:
    def test_syntax_error_becomes_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert rule_ids(findings) == ["syntax-error"]
        assert findings[0].severity == "error"

    def test_findings_sorted_and_carry_positions(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(a=[]):
                return a == 0.5
            """,
        )
        assert {"mutable-default", "float-eq"} <= set(rule_ids(findings))
        assert findings == sorted(
            findings, key=lambda f: (f.line, f.rule_id, f.message)
        )
        for f in findings:
            assert f.line >= 1
            assert f.severity in ("error", "warning")

    def test_multi_rule_pragma(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(x, a=[]):  # repro: allow(mutable-default, shadowed-builtin) fixture
                return a
            """,
        )
        assert "mutable-default" not in rule_ids(findings)


class TestRaiseOutsideTaxonomy:
    def lint_pipeline_module(self, tmp_path, source):
        """Lint a snippet placed at repro/core/sampling.py so the module
        name resolves inside the rule's pipeline scope."""
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        path = pkg / "sampling.py"
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_file(path, default_rules())

    def test_flags_valueerror_in_pipeline_module(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            def f(x):
                raise ValueError("bad")
            """,
        )
        assert "raise-outside-taxonomy" in rule_ids(findings)

    def test_flags_bare_runtimeerror_name(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            def f():
                raise RuntimeError
            """,
        )
        assert "raise-outside-taxonomy" in rule_ids(findings)

    def test_taxonomy_raises_fine(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            from repro.core.errors import SamplingError

            def f(x):
                if x < 0:
                    raise SamplingError("bad domain")
                raise
            """,
        )
        assert "raise-outside-taxonomy" not in rule_ids(findings)

    def test_non_pipeline_module_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(x):
                raise ValueError("fine outside the pipeline")
            """,
        )
        assert "raise-outside-taxonomy" not in rule_ids(findings)

    def test_waiver_pragma_suppresses(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            def f(x):
                raise ValueError("x")  # repro: allow(raise-outside-taxonomy) harness misuse
            """,
        )
        assert "raise-outside-taxonomy" not in rule_ids(findings)


class TestAdhocTiming:
    def lint_pipeline_module(self, tmp_path, source, rel="repro/core/tuning.py"):
        """Lint a snippet at a pipeline (or exempt) module path."""
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.parents:
            if parent == tmp_path:
                break
            (parent / "__init__.py").write_text("")
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_file(path, default_rules())

    def test_flags_perf_counter_attribute(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            import time

            def f():
                return time.perf_counter()
            """,
        )
        assert "adhoc-timing" in rule_ids(findings)

    def test_flags_monotonic_from_import(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            from time import monotonic
            """,
        )
        assert "adhoc-timing" in rule_ids(findings)

    def test_time_sleep_is_fine(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            import time

            def f():
                time.sleep(0.1)
            """,
        )
        assert "adhoc-timing" not in rule_ids(findings)

    def test_obs_module_exempt(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            import time

            def now():
                return time.perf_counter()
            """,
            rel="repro/obs/trace.py",
        )
        assert "adhoc-timing" not in rule_ids(findings)

    def test_non_pipeline_module_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def f():
                return time.monotonic()
            """,
        )
        assert "adhoc-timing" not in rule_ids(findings)

    def test_waiver_pragma_suppresses(self, tmp_path):
        findings = self.lint_pipeline_module(
            tmp_path,
            """
            import time

            def f():
                return time.perf_counter()  # repro: allow(adhoc-timing)
            """,
        )
        assert "adhoc-timing" not in rule_ids(findings)


class TestBufferedTake:
    def test_flags_method_take_into_out(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def gather(table, pos, buf):
                table.take(pos, axis=0, out=buf)
            """,
        )
        assert rule_ids(findings).count("buffered-take") == 1

    def test_flags_np_take_into_out(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np

            def gather(values, idx, buf):
                np.take(values, idx, out=buf)
                np.take(values, idx, None, buf)
            """,
        )
        assert rule_ids(findings).count("buffered-take") == 2

    def test_flags_positional_method_out(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def gather(values, idx, buf):
                values.take(idx, None, buf)
            """,
        )
        assert "buffered-take" in rule_ids(findings)

    def test_take_with_mode_or_without_out_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np

            def gather(table, values, pos, idx, buf):
                table.take(pos, axis=0, out=buf, mode="clip")
                np.take(values, idx, out=buf, mode="raise")
                values.take(idx, None, buf, "wrap")
                np.take(values, idx, None, buf, "clip")
                buf[:] = values.take(idx)
                return np.take(values, idx, axis=0)
            """,
        )
        assert "buffered-take" not in rule_ids(findings)

    def test_waiver_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def gather(values, idx, buf):
                values.take(idx, out=buf)  # repro: allow(buffered-take)
            """,
        )
        assert "buffered-take" not in rule_ids(findings)
