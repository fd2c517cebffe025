"""Tests for the interprocedural dataflow analyzer (DF/RC rules).

Each rule gets at least one seeded-bug test proving it fires and one
clean counterpart proving the conservative lattice stays silent; the
fixture modules on disk mirror the executor's real shapes; and the
final gate asserts the shipped hot path analyzes finding-free.
"""

import pathlib
import textwrap

import pytest

from repro.analysis import RULE_REGISTRY
from repro.analysis.dataflow import (
    DEFAULT_DATAFLOW_PATHS,
    DType,
    analyze_dataflow,
    analyze_sources,
    build_program,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "dataflow"


def run(code, filename="mod.py"):
    diags, _ = analyze_sources({filename: textwrap.dedent(code)})
    return diags


def rules(diags):
    return {d.rule_id for d in diags}


class TestRegistry:
    def test_all_dataflow_rules_registered(self):
        for rid in ("DF001", "DF002", "DF003", "DF004", "DF005",
                    "RC001", "RC002", "RC003", "RC004"):
            assert rid in RULE_REGISTRY, rid
            assert RULE_REGISTRY[rid].title


class TestDTypeLattice:
    def test_join_promotes_to_wider_float(self):
        prog = build_program({"m.py": textwrap.dedent("""
            import numpy as np
            def f():
                a = np.zeros(4, dtype=np.float16)
                b = np.zeros(4, dtype=np.float64)
                c = a.astype(np.float64) + b
                return c
        """)})
        (fn,) = [f for f in prog.functions if f.name == "f"]
        assert fn.env["c"].dtype is DType.FP64

    def test_unknown_absorbs(self):
        prog = build_program({"m.py": textwrap.dedent("""
            import numpy as np
            def f(x):
                y = x + np.zeros(4, dtype=np.float32)
                return y
        """)})
        (fn,) = [f for f in prog.functions if f.name == "f"]
        # one unknown operand: the known array's dtype is kept (weak-
        # scalar semantics), but rules never fire on the unknown side
        assert fn.env["y"].dtype is DType.FP32

    def test_arena_request_provenance(self):
        prog = build_program({"m.py": textwrap.dedent("""
            import numpy as np
            def f(ws):
                h = ws.request("k.h", (4, 4), np.float16)
                alias = h
                return alias
        """)})
        (fn,) = [f for f in prog.functions if f.name == "f"]
        assert fn.env["h"].dtype is DType.FP16
        assert fn.env["h"].arena_key == "k.h"
        assert fn.env["alias"].root == "h"


class TestInterprocedural:
    def test_return_summary_resolves_callee_dtype(self):
        diags = run("""
            import numpy as np
            def make_storage(n):
                return np.zeros(n, dtype=np.float16)
            def caller(n):
                h = make_storage(n)
                return np.dot(h, h)
        """)
        assert "DF002" in rules(diags)

    def test_param_seeding_needs_consensus(self):
        # two call sites disagree -> the param stays unknown -> no finding
        diags = run("""
            import numpy as np
            def reduce_it(arr):
                return arr.sum()
            def a(n):
                return reduce_it(np.zeros(n, dtype=np.float16))
            def b(n):
                return reduce_it(np.zeros(n, dtype=np.float32))
        """)
        assert "DF002" not in {
            d.rule_id for d in diags if "reduce_it" in d.message
        }

    def test_param_seeding_with_consensus_fires(self):
        diags = run("""
            import numpy as np
            def reduce_it(arr):
                return arr.sum()
            def a(n):
                return reduce_it(np.zeros(n, dtype=np.float16))
            def b(n):
                return reduce_it(np.zeros(n, dtype=np.float16))
        """)
        assert any(
            d.rule_id == "DF002" and "reduce_it" in d.message for d in diags
        )


class TestDF001SilentUpcast:
    def test_fires_on_implicit_fp16_fp32_mix(self):
        diags = run("""
            import numpy as np
            def f(ws, n):
                h = ws.request("k.h", (n,), np.float16)
                s = np.zeros(n, dtype=np.float32)
                return h + s
        """)
        assert "DF001" in rules(diags)

    def test_explicit_astype_is_sanctioned(self):
        assert run("""
            import numpy as np
            def f(ws, n):
                h = ws.request("k.h", (n,), np.float16)
                s = np.zeros(n, dtype=np.float32)
                return h.astype(np.float32) + s
        """) == []

    def test_uniform_fp16_math_is_clean(self):
        assert run("""
            import numpy as np
            def f(ws, n):
                h = ws.request("k.h", (n,), np.float16)
                g = ws.request("k.g", (n,), np.float16)
                return h + g
        """) == []


class TestDF002FP16Accumulation:
    @pytest.mark.parametrize("expr", [
        "np.einsum('i,i->', h, h)",
        "np.dot(h, h)",
        "h.sum()",
        "h @ h",
    ])
    def test_fires_on_fp16_reduction(self, expr):
        diags = run(f"""
            import numpy as np
            def f(ws, n):
                h = ws.request("k.h", (n,), np.float16)
                return {expr}
        """)
        assert "DF002" in rules(diags)

    def test_fp32_reduction_is_clean(self):
        assert run("""
            import numpy as np
            def f(ws, n):
                w = ws.request("k.w", (n,), np.float32)
                return np.dot(w, w)
        """) == []

    def test_elementwise_fp16_is_solution4_and_clean(self):
        assert run("""
            import numpy as np
            def f(ws, n):
                h = ws.request("k.h", (n,), np.float16)
                g = ws.request("k.g", (n,), np.float16)
                return np.minimum(h, g)
        """) == []


class TestDF003PersistenceRoundTrip:
    def test_fires_on_fp16_save(self):
        diags = run("""
            import numpy as np
            def f(path, n):
                x16 = np.zeros(n, dtype=np.float16)
                np.save(path, x16)
        """)
        assert "DF003" in rules(diags)

    def test_fires_on_fp16_downcast_of_loaded_array(self):
        diags = run("""
            import numpy as np
            def f(path):
                arrays = np.load(path)
                return arrays["x"].astype(np.float16)
        """)
        assert "DF003" in rules(diags)

    def test_fp32_round_trip_is_clean(self):
        assert run("""
            import numpy as np
            def f(path):
                arrays = np.load(path)
                return arrays["x"].astype(np.float32)
        """) == []


class TestDF004UnguardedQuantize:
    def test_fires_without_precision_guard(self):
        diags = run("""
            import numpy as np
            def quantize(values, precision):
                return values.astype(np.float16).astype(np.float32)
        """)
        assert "DF004" in rules(diags)

    def test_early_return_guard_is_clean(self):
        # the shape of repro.core.precision.quantize
        assert run("""
            import numpy as np
            def quantize(values, precision):
                if precision is Precision.FP32:
                    return values
                clipped = np.clip(values, -65504.0, 65504.0)
                return clipped.astype(np.float16).astype(np.float32)
        """) == []

    def test_enclosing_if_guard_is_clean(self):
        assert run("""
            import numpy as np
            def quantize(values, precision):
                if precision.itemsize == 2:
                    return values.astype(np.float16).astype(np.float32)
                return values
        """) == []

    def test_no_precision_param_no_rule(self):
        assert run("""
            import numpy as np
            def pack(values):
                return values.astype(np.float16)
        """) == []


class TestDF005SilentDowncast:
    def test_fires_on_copyto_downcast_without_casting(self):
        diags = run("""
            import numpy as np
            def f(ws, n):
                wide = np.zeros(n, dtype=np.float64)
                store = ws.request("k.s", (n,), np.float16)
                np.copyto(store, wide)
        """)
        assert "DF005" in rules(diags)

    def test_explicit_casting_kwarg_is_sanctioned(self):
        # the shape of cg_backends.ReferenceBackend.stage's copyto
        assert run("""
            import numpy as np
            def f(ws, n):
                wide = np.zeros(n, dtype=np.float32)
                store = ws.request("k.s", (n,), np.float16)
                np.copyto(store, wide, casting="same_kind")
        """) == []

    def test_upcast_copyto_is_clean(self):
        assert run("""
            import numpy as np
            def f(ws, n):
                halves = ws.request("k.h", (n,), np.float16)
                store = ws.request("k.s", (n,), np.float32)
                np.copyto(store, halves)
        """) == []

    def test_fires_on_downcasting_out_kwarg(self):
        diags = run("""
            import numpy as np
            def f(ws, n):
                wide = np.zeros(n, dtype=np.float64)
                narrow = ws.request("k.n", (n,), np.float32)
                np.multiply(wide, wide, out=narrow)
        """)
        assert "DF005" in rules(diags)

    def test_fires_on_downcasting_subscript_store(self):
        diags = run("""
            import numpy as np
            def f(ws, n):
                wide = np.zeros(n, dtype=np.float64)
                store = ws.request("k.s", (n,), np.float32)
                store[:] = wide
        """)
        assert "DF005" in rules(diags)


class TestRC001OutAliasing:
    def test_fires_on_aliased_matmul_out(self):
        diags = run("""
            import numpy as np
            def f(ws, n, k):
                A = ws.request("k.A", (n, k, k))
                np.matmul(A, A, out=A)
        """)
        assert "RC001" in rules(diags)

    def test_fires_on_shared_arena_key(self):
        diags = run("""
            import numpy as np
            def f(ws, n, k):
                A = ws.request("k.A", (n, k))
                B = A
                np.take(A, [0], axis=0, out=B)
        """)
        assert "RC001" in rules(diags)

    def test_distinct_buffers_clean(self):
        assert run("""
            import numpy as np
            def f(ws, n, k):
                A = ws.request("k.A", (n, k, k))
                G = ws.request("k.G", (n, k, k))
                np.matmul(A, A, out=G)
        """) == []

    def test_elementwise_in_place_is_sanctioned(self):
        assert run("""
            import numpy as np
            def f(ws, n):
                x = ws.request("k.x", (n,))
                np.clip(x, 0.0, 1.0, out=x)
                np.add(x, x, out=x)
        """) == []


class TestRC002ShardConfinement:
    def test_fires_on_out_of_slice_store(self):
        diags = run("""
            import numpy as np
            def shard(ratings, out, lo, hi):
                out[0:hi] = ratings
        """)
        assert "RC002" in rules(diags)

    def test_fires_on_whole_out_handed_to_writer(self):
        diags = run("""
            import numpy as np
            def shard(ratings, out, lo, hi):
                np.matmul(ratings, ratings, out=out)
        """)
        assert "RC002" in rules(diags)

    def test_confined_alias_is_sanctioned(self):
        # the shape of executor._compute_shard
        assert run("""
            import numpy as np
            def shard(ratings, out, lo, hi):
                rows_out = out[lo:hi]
                np.copyto(rows_out, ratings)
        """) == []

    def test_non_sharded_function_not_in_scope(self):
        assert run("""
            import numpy as np
            def writer(out):
                out[0:3] = 0.0
        """) == []


class TestRC003DoubleBorrow:
    def test_fires_on_two_live_names_for_one_key(self):
        diags = run("""
            def f(ws, n):
                a = ws.request("k.two", (n,))
                b = ws.request("k.two", (n,))
                return a + b
        """)
        assert "RC003" in rules(diags)

    def test_refresh_into_same_name_is_sanctioned(self):
        assert run("""
            def f(ws, n):
                a = ws.request("k.two", (n,))
                a = ws.request("k.two", (2 * n,))
                return a
        """) == []

    def test_dead_first_borrow_is_sanctioned(self):
        assert run("""
            def f(ws, n):
                a = ws.request("k.two", (n,))
                first = a.sum()
                b = ws.request("k.two", (n,))
                return first + b.sum()
        """) == []


class TestRC004WorkerCaptures:
    def test_fires_on_lambda_closure_over_local(self):
        diags = run("""
            def f(pool, items):
                state = {}
                return pool.map(lambda t: state.get(t), items)
        """)
        assert "RC004" in rules(diags)

    def test_fires_on_nested_def_passed_to_process(self):
        diags = run("""
            def f(ctx, conn):
                big = [1, 2, 3]
                def worker(task):
                    return big[task]
                proc = ctx.Process(target=worker, args=(0,))
        """)
        assert "RC004" in rules(diags)

    def test_module_level_worker_is_sanctioned(self):
        # the shape of executor._shard_worker / supervisor._FORK_CTX
        assert run("""
            def worker(task):
                return task
            def f(pool, items):
                return pool.map(worker, items)
        """) == []

    def test_closure_over_own_params_only_is_sanctioned(self):
        assert run("""
            def f(pool, items):
                return pool.map(lambda t: t + 1, items)
        """) == []


class TestFixtures:
    @pytest.mark.parametrize("name, rule", [
        ("bad_alias.py", "RC001"),
        ("bad_fp16_accumulate.py", "DF002"),
        ("bad_shard_write.py", "RC002"),
    ])
    def test_seeded_fixture_fires(self, name, rule):
        diags = analyze_dataflow(FIXTURES, paths=(name,))
        assert rule in rules(diags), name

    def test_clean_fixture_is_finding_free(self):
        assert analyze_dataflow(FIXTURES, paths=("clean.py",)) == []

    def test_missing_scan_path_raises(self):
        with pytest.raises(FileNotFoundError):
            analyze_dataflow(FIXTURES, paths=("no_such_module.py",))


class TestRepoGate:
    def test_default_paths_all_exist(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        for rel in DEFAULT_DATAFLOW_PATHS:
            assert (src / rel).exists(), rel

    def test_shipped_hot_path_is_finding_free(self):
        # the acceptance gate: real findings get fixed, not baselined
        assert analyze_dataflow() == []
