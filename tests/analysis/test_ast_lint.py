"""Tests for the repo-specific AST linter — and the self-lint gate:
the shipped source tree must produce zero findings."""

import pathlib
import textwrap

import pytest

from repro.analysis import lint_file, lint_source, lint_tree

SRC_REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def lint(code, filename="mod.py"):
    return lint_source(textwrap.dedent(code), filename)


def rules(diags):
    return {d.rule_id for d in diags}


class TestAL001FloatEquality:
    def test_flags_float_literal_equality(self):
        (d,) = lint("ok = x == 0.5\n")
        assert d.rule_id == "AL001"
        assert "0.5" in d.message

    def test_flags_not_equal(self):
        assert rules(lint("ok = 2.5 != y\n")) == {"AL001"}

    def test_sentinels_allowed(self):
        assert lint("a = x == 0.0\nb = y != 1.0\nc = z == -1.0\n") == []

    def test_ordering_comparisons_allowed(self):
        assert lint("ok = x < 0.5 or y >= 2.5\n") == []

    def test_integer_equality_allowed(self):
        assert lint("ok = n == 5\n") == []


class TestAL002BytesVsElements:
    def test_elements_into_bytes_param(self):
        (d,) = lint("f(total_bytes=num_elements)\n")
        assert d.rule_id == "AL002"
        assert "num_elements" in d.message

    def test_bytes_into_elements_param(self):
        (d,) = lint("f(element_count=working_set_bytes)\n")
        assert d.rule_id == "AL002"

    def test_matching_units_allowed(self):
        assert lint("f(total_bytes=working_set_bytes, count=num_elements)\n") == []

    def test_attribute_source_checked(self):
        assert rules(lint("f(total_bytes=shape.nnz)\n")) == {"AL002"}


class TestAL003FrozenValidation:
    def test_vacuous_post_init_flagged(self):
        code = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Spec:
            x: int

            def __post_init__(self):
                pass
        """
        (d,) = lint(code)
        assert d.rule_id == "AL003"
        assert "vacuous" in d.message

    def test_config_without_post_init_flagged(self):
        code = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class RunConfig:
            x: int
        """
        (d,) = lint(code)
        assert d.rule_id == "AL003"

    def test_validating_config_allowed(self):
        code = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class RunConfig:
            x: int

            def __post_init__(self):
                if self.x <= 0:
                    raise ValueError("x must be positive")
        """
        assert lint(code) == []

    def test_non_config_without_post_init_allowed(self):
        code = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Point:
            x: int
        """
        assert lint(code) == []

    def test_unfrozen_dataclass_ignored(self):
        code = """
        from dataclasses import dataclass

        @dataclass
        class MutableConfig:
            x: int
        """
        assert lint(code) == []


class TestAL004FunctionBodyImports:
    def test_flags_import_in_function(self):
        code = """
        def f():
            import math
            return math.pi
        """
        (d,) = lint(code)
        assert d.rule_id == "AL004"
        assert "math" in d.message

    def test_flags_from_import_in_method(self):
        code = """
        class C:
            def f(self):
                from os import path
                return path
        """
        assert rules(lint(code)) == {"AL004"}

    def test_module_scope_allowed(self):
        assert lint("import math\nfrom os import path\n") == []

    def test_cli_sanctioned_exception(self):
        code = """
        def handler():
            import numpy
            return numpy
        """
        assert lint(code, filename="repro/cli.py") == []
        assert rules(lint(code, filename="repro/other.py")) == {"AL004"}

    def test_runtime_layering_exceptions(self):
        # The bench probes the serving-layer index lazily; a module-scope
        # import would invert the runtime<-serving layering.
        code = """
        def probe():
            from ..serving.index import build_index
            return build_index
        """
        assert lint(code, filename="repro/runtime/bench.py") == []
        assert rules(lint(code, filename="repro/runtime/arena.py")) == {
            "AL004"
        }


class TestAL005LoopAllocations:
    HOT = "repro/core/solver.py"

    def test_flags_np_zeros_in_loop(self):
        code = """
        import numpy as np

        def f(chunks):
            for c in chunks:
                scratch = np.zeros((c, 8))
        """
        (d,) = lint(code, filename=self.HOT)
        assert d.rule_id == "AL005"
        assert "np.zeros" in d.message

    def test_flags_while_and_like_variants(self):
        code = """
        import numpy as np

        def f(a):
            while True:
                b = np.empty_like(a)
        """
        assert rules(lint(code, filename="repro/runtime/executor.py")) == {"AL005"}

    def test_hoisted_allocation_allowed(self):
        code = """
        import numpy as np

        def f(chunks):
            scratch = np.zeros((64, 8))
            for c in chunks:
                scratch[:c] = 0
        """
        assert lint(code, filename=self.HOT) == []

    def test_non_numpy_zeros_allowed(self):
        code = """
        def f(pool, chunks):
            for c in chunks:
                buf = pool.zeros((c, 8))
        """
        assert lint(code, filename=self.HOT) == []

    def test_cold_path_not_in_scope(self):
        code = """
        import numpy as np

        def f(chunks):
            for c in chunks:
                scratch = np.zeros((c, 8))
        """
        assert lint(code, filename="repro/metrics/ranking.py") == []
        assert lint(code, filename="repro/harness/report.py") == []


class TestTreeWalk:
    def test_lint_file_labels(self):
        path = SRC_REPRO / "gpusim" / "kernel.py"
        assert lint_file(path, label="repro/gpusim/kernel.py") == []

    def test_source_tree_lints_clean(self):
        """The acceptance gate behind ``repro analyze --self``."""
        assert lint_tree(SRC_REPRO) == []

    def test_missing_root_rejected(self):
        # A nonexistent root must not read as a clean lint.
        with pytest.raises(FileNotFoundError):
            lint_tree(SRC_REPRO / "no_such_dir")
