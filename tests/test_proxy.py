import pickle
from dataclasses import replace

import numpy as np
import pytest

from bbdgemm import proxy as proxy_mod, runtime as runtime_mod
from bbdgemm.codegen import ManifestError
from bbdgemm.core import AccessKind, KernelShape, KernelSpec, Layout
from bbdgemm.proxy import (
    ChainStep,
    ProxyConfig,
    ProxyState,
    build_state,
    compare_dumps,
    compute_local_integration_batched,
    compute_local_integration_ref,
    default_chain,
    dump_state,
    load_dump,
    parse_chain,
    run_proxy,
    run_proxy_state,
)
from bbdgemm.reference import dgemm_ref
from bbdgemm.vectorize import jit_available, use_jit

from conftest import build_registry


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


def small_chain():
    """Two-step chain shaped like the default one but cheap to compile."""
    return (
        ChainStep(spec(Layout.ColMajor, 4, 2, 3, "cis"), "op1", "qin", "scratch", 1.0, 0.0),
        ChainStep(spec(Layout.ColMajor, 3, 2, 2, "sci"), "scratch", "op2", "qout", 1.0, 1.0),
    )


def row_major_chain():
    """The small chain in RowMajor: 3x2 tensor components, a 4x2 scratch at ld 2."""
    return tuple(
        replace(step, spec=replace(step.spec, layout=Layout.RowMajor)) for step in small_chain()
    )


def small_config(**overrides):
    defaults = dict(
        cells=23, timesteps=2, components=3, chain=small_chain(), mode="scalar", seed=7,
    )
    defaults.update(overrides)
    return ProxyConfig(**defaults)


def small_registry():
    return build_registry(*(step.spec for step in small_chain()))


def qout_snapshot(state):
    return np.stack(
        [np.stack([np.array(c) for c in cell.matrices]) for cell in state.qout]
    )


def unbound_copy(state):
    """A state holding copies of *state*'s matrices and constants, with nothing bound."""

    def cells(batches):
        return [replace(cell, matrices=[m.copy() for m in cell.matrices]) for cell in batches]

    return ProxyState(
        config=state.config, qin=cells(state.qin), qout=cells(state.qout),
        constants={name: data.copy() for name, data in state.constants.items()},
        constant_lds=dict(state.constant_lds),
    )


class TestConfigValidation:
    def test_default_config_is_valid(self):
        config = ProxyConfig()
        assert config.cells == 10000 and config.timesteps == 6
        assert config.components == 4 and (config.rows, config.cols) == (10, 9)
        assert config.scratch_per_element == 180

    def test_scratch_facts_are_derived_once_per_config(self, monkeypatch):
        # The chain's shapes are derived when the config is built and kept;
        # reading them derives nothing.  Equality, hashing, repr and replace
        # see the fields only, and a pickled copy is equal and gives the
        # same values.
        calls = []
        dims = proxy_mod.operand_dims
        monkeypatch.setattr(proxy_mod, "operand_dims", lambda *args: calls.append(args) or dims(*args))
        config = small_config()
        twin = small_config()
        calls.clear()
        facts = [
            (config.scratch_per_element, config.scratch_ld, config.rows, config.cols, config.layout)
            for _ in range(3)
        ]
        assert facts == [(8, 4, 3, 2, Layout.ColMajor)] * 3
        assert calls == []
        assert config == twin and hash(config) == hash(twin) and repr(config) == repr(twin)
        first, second = small_chain()
        wider = replace(config, chain=(replace(first, spec=spec(Layout.ColMajor, 5, 2, 3, "cis")), second))
        assert (wider.scratch_per_element, wider.scratch_ld) == (10, 5)
        copied = pickle.loads(pickle.dumps(config))
        assert copied == config and (copied.scratch_per_element, copied.scratch_ld) == (8, 4)

    def test_unknown_binding(self):
        bad = (ChainStep(spec(Layout.ColMajor, 3, 2, 3, "cii"), "op1", "qin", "bogus", 1.0, 0.0),)
        with pytest.raises(ValueError, match="unknown binding"):
            small_config(chain=bad)

    def test_binding_kind_mismatch(self):
        bad = (ChainStep(spec(Layout.ColMajor, 3, 2, 3, "iii"), "op1", "qin", "qout", 1.0, 0.0),)
        with pytest.raises(ValueError, match="requires a Constant operand"):
            small_config(chain=bad)

    def test_tensor_dims_must_match(self):
        # The first qin/qout operand fixes the tensor components' shape; a
        # later step binding another shape is refused, in either layout.
        for layout in Layout:
            bad = (
                ChainStep(spec(layout, 3, 2, 3, "cii"), "op1", "qin", "qout", 1.0, 0.0),
                ChainStep(spec(layout, 3, 5, 3, "cii"), "op1", "qin", "qout", 1.0, 1.0),
            )
            with pytest.raises(ValueError, match="chain step 1 .* tensor components are 3x2"):
                small_config(chain=bad)

    def test_layout_is_the_first_steps(self):
        first, second = small_chain()
        bad = (first, replace(second, spec=replace(second.spec, layout=Layout.RowMajor)))
        with pytest.raises(ValueError, match="chain step 1 .* layout differs from step 0's ColMajor"):
            small_config(chain=bad)

    def test_chain_must_bind_a_tensor(self):
        # A chain writing only scratch computes nothing that reaches a dump.
        bad = (ChainStep(spec(Layout.ColMajor, 3, 2, 3, "ccs"), "op1", "op2", "scratch", 1.0, 0.0),)
        with pytest.raises(ValueError, match="binds no qin or qout"):
            small_config(chain=bad)

    def test_row_major_chain_fixes_the_tensor_shape(self):
        config = small_config(chain=row_major_chain())
        assert (config.layout, config.rows, config.cols, config.tensor_ld) == (Layout.RowMajor, 3, 2, 2)
        assert (config.scratch_ld, config.scratch_per_element) == (2, 8)
        assert config.shapes.constants == {"op1": (4, 3, 3), "op2": (2, 2, 2)}

    def test_scratch_read_before_write(self):
        bad = (ChainStep(spec(Layout.ColMajor, 3, 2, 2, "sci"), "scratch", "op2", "qout", 1.0, 0.0),)
        with pytest.raises(ValueError, match="read before being written"):
            small_config(chain=bad)

    def test_scratch_read_window_bounded(self):
        bad = (
            ChainStep(spec(Layout.ColMajor, 4, 2, 3, "cis"), "op1", "qin", "scratch", 1.0, 0.0),
            ChainStep(spec(Layout.ColMajor, 5, 2, 2, "sci"), "scratch", "op2", "qout", 1.0, 1.0),
        )
        with pytest.raises(ValueError, match="exceeds written"):
            small_config(chain=bad)

    def test_output_cannot_alias_input(self):
        bad = (ChainStep(spec(Layout.ColMajor, 3, 2, 3, "cii"), "op1", "qout", "qout", 1.0, 0.0),)
        with pytest.raises(ValueError, match="aliases"):
            small_config(chain=bad)

    def test_output_must_be_writable_binding(self):
        bad = (ChainStep(spec(Layout.ColMajor, 3, 2, 3, "cii"), "op1", "qout", "qin", 1.0, 0.0),)
        with pytest.raises(ValueError, match="must bind scratch or qout"):
            small_config(chain=bad)

    def test_constant_dims_must_be_consistent(self):
        bad = (
            ChainStep(spec(Layout.ColMajor, 3, 2, 3, "cii"), "op1", "qin", "qout", 1.0, 0.0),
            ChainStep(spec(Layout.ColMajor, 3, 2, 2, "cii"), "op1", "qin", "qout", 1.0, 1.0),
        )
        with pytest.raises(ValueError, match="used as 3x2 but earlier as 3x3"):
            small_config(chain=bad)

    def test_default_chain_shapes(self):
        chain = default_chain()
        assert chain[0].spec.name == "bbdgemm_ColMajor_20_9_10_cis"
        assert chain[1].spec.name == "bbdgemm_ColMajor_10_9_9_sci"
        assert chain[0].beta == 0.0 and chain[1].beta == 1.0


class TestReferenceVariant:
    def test_degenerate_single_cell_equals_one_gemm(self):
        chain = (ChainStep(spec(Layout.ColMajor, 2, 2, 2, "cii"), "op1", "qin", "qout", 1.0, 0.0),)
        config = ProxyConfig(cells=1, timesteps=1, components=1, chain=chain, mode="scalar", seed=42)
        state = build_state(config)
        expected = np.zeros(4)
        dgemm_ref(
            Layout.ColMajor, 2, 2, 2, 1.0,
            state.constants["op1"], 2,
            state.qin[0].component(0), 2,
            0.0, expected, 2,
        )
        compute_local_integration_ref(config, state)
        assert np.array_equal(state.qout[0].component(0), expected)

    def test_deterministic_across_runs(self):
        first = run_proxy(small_config())
        second = run_proxy(small_config())
        assert np.array_equal(qout_snapshot(first), qout_snapshot(second))

    def test_two_timesteps_compose(self):
        double = run_proxy(small_config(timesteps=2))
        config1 = small_config(timesteps=1)
        carried = build_state(config1)
        run_proxy_state(config1, carried)
        run_proxy_state(config1, carried)
        assert np.array_equal(qout_snapshot(double), qout_snapshot(carried))

    def test_a_state_binds_each_gemm_once(self, monkeypatch):
        # build_state binds nothing; the first of three one-timestep runs
        # binds each (cell, component, step) GEMM once, the others none, and
        # the bytes are one three-timestep run's and the vector mode's.
        bound = []
        bind = proxy_mod.bind_dgemm
        monkeypatch.setattr(
            proxy_mod, "bind_dgemm", lambda *args, **kw: bound.append(args) or bind(*args, **kw)
        )
        config = small_config(timesteps=3)
        stepped = build_state(config)
        seen = [len(bound)]
        for _ in range(3):
            run_proxy_state(config, stepped, timesteps=1)
            seen.append(len(bound))
        gemms = config.cells * config.components * len(config.chain)
        assert seen == [0, gemms, gemms, gemms]
        # One view of each constant and of the scratch serves every cell;
        # each cell's own matrices have views of their own.
        first, second = (
            [run for run, _, _ in stepped._bound[1][step::2]] for step in range(2)
        )
        for runs, shared, own in ((first, "AC", "B"), (second, "AB", "C")):
            for which in shared:
                assert len({id(getattr(run, which)) for run in runs}) == 1
            assert len({id(getattr(run, own)) for run in runs}) == len(runs) == gemms // 2
        whole = run_proxy(config)
        with use_jit(False):
            vector = run_proxy(small_config(mode="vector", timesteps=3), registry=small_registry())
        assert qout_snapshot(stepped).tobytes() == qout_snapshot(whole).tobytes()
        assert qout_snapshot(stepped).tobytes() == qout_snapshot(vector).tobytes()

    @pytest.mark.parametrize("mode", ["scalar", "vector"])
    @pytest.mark.parametrize("replaced", ["cell_matrix", "constant"])
    def test_unbind_after_replacing_data_gives_the_new_bytes(self, mode, replaced):
        # After a timestep, a cell's matrix or a constant is replaced by a
        # new array and the state unbound: the next timestep gives the bytes
        # of a never-bound state holding the new data, not those of the old.
        config = small_config(mode=mode, timesteps=1)
        registry = small_registry()
        state = build_state(config)
        rng = np.random.default_rng(8)
        with use_jit(False):
            run_proxy_state(config, state, registry=registry)
            old = unbound_copy(state)
            if replaced == "cell_matrix":
                state.qin[5].matrices[1] = rng.uniform(-1.0, 1.0, state.qin[5].matrices[1].size)
            else:
                state.constants["op1"] = rng.uniform(-1.0, 1.0, state.constants["op1"].size)
            new = unbound_copy(state)
            state.unbind()
            for advanced in (state, new, old):
                run_proxy_state(config, advanced, registry=registry)
        assert registry.fallback_count == 0
        assert qout_snapshot(state).tobytes() == qout_snapshot(new).tobytes()
        assert qout_snapshot(state).tobytes() != qout_snapshot(old).tobytes()


class TestBatchedVariant:
    def test_matches_reference_bitwise_interpreted(self):
        registry = small_registry()
        ref_state = run_proxy(small_config(mode="scalar"))
        with use_jit(False):
            vec_state = run_proxy(small_config(mode="vector"), registry=registry)
        assert registry.fallback_count == 0
        assert np.array_equal(qout_snapshot(ref_state), qout_snapshot(vec_state))

    def test_matches_reference_under_jit(self):
        registry = small_registry()
        ref_state = run_proxy(small_config(mode="scalar"))
        with use_jit(True):
            vec_state = run_proxy(small_config(mode="vector"), registry=registry)
        diff = np.max(np.abs(qout_snapshot(ref_state) - qout_snapshot(vec_state)))
        assert diff < 1e-6
        assert diff == 0.0  # same summation order on both paths

    def test_single_cell_matches_reference(self):
        registry = small_registry()
        ref_state = run_proxy(small_config(cells=1, mode="scalar"))
        with use_jit(False):
            vec_state = run_proxy(small_config(cells=1, mode="vector"), registry=registry)
        diff = np.max(np.abs(qout_snapshot(ref_state) - qout_snapshot(vec_state)))
        assert diff <= 1e-12

    def test_one_call_per_chain_step_per_component(self, monkeypatch):
        calls = []
        run_batched = proxy_mod.run_batched
        monkeypatch.setattr(
            proxy_mod, "run_batched", lambda *args, **kw: calls.append(args[0]) or run_batched(*args, **kw)
        )
        config = small_config(mode="vector", timesteps=2)
        with use_jit(False):
            run_proxy(config, registry=small_registry())
        expected = config.timesteps * config.components * len(config.chain)
        assert calls == [step.spec for step in config.chain] * (expected // len(config.chain))

    def test_scratch_reused_across_timesteps(self):
        # The state grows its own scratch on the first timestep and keeps it.
        config = small_config(mode="vector", timesteps=3)
        state = build_state(config)
        registry = small_registry()
        with use_jit(False):
            compute_local_integration_batched(config, state, registry=registry)
            backing = state.scratch.array
            assert state.scratch.capacity >= config.cells * config.scratch_per_element
            for _ in range(config.timesteps - 1):
                compute_local_integration_batched(config, state, registry=registry)
                assert state.scratch.array is backing

    def test_state_builds_its_tables_and_scratch_once(self, monkeypatch):
        # Three one-timestep runs of one state build 2 x components pointer
        # tables, allocate scratch once and prepare one call per chain step
        # and component, and give the bytes of one three-timestep run and of
        # the scalar mode.
        built, allocated, prepared = [], [], []
        build, allocate = proxy_mod.build_pointer_table, runtime_mod._aligned_empty
        prepare = runtime_mod._prepare
        monkeypatch.setattr(
            proxy_mod, "build_pointer_table", lambda *args: built.append(args) or build(*args)
        )
        monkeypatch.setattr(
            runtime_mod, "_aligned_empty", lambda *args: allocated.append(args) or allocate(*args)
        )
        monkeypatch.setattr(
            runtime_mod, "_prepare", lambda *args: prepared.append(args) or prepare(*args)
        )
        registry = small_registry()
        config = small_config(mode="vector", timesteps=3)
        stepped = build_state(config)
        for _ in range(3):
            run_proxy_state(config, stepped, registry=registry, timesteps=1)
        assert len(built) == 2 * config.components
        assert len(allocated) == 1
        assert len(prepared) == len(config.chain) * config.components == 2 * config.components
        whole = run_proxy(config, registry=registry)
        scalar = run_proxy(small_config(mode="scalar", timesteps=3))
        assert registry.fallback_count == 0
        assert qout_snapshot(stepped).tobytes() == qout_snapshot(whole).tobytes()
        assert qout_snapshot(stepped).tobytes() == qout_snapshot(scalar).tobytes()


    @pytest.mark.parametrize("between", ["flip_use_jit", "grow_scratch"])
    def test_a_state_prepares_again_when_its_calls_change(self, between, monkeypatch):
        # Flipping the compiled path, or growing the scratch so that its
        # array moves, between timesteps of one state makes every call of
        # the next timestep prepare afresh; the bytes stay the scalar mode's.
        if between == "flip_use_jit" and not jit_available():
            pytest.skip("no C compiler (cc) on PATH: the switch cannot flip")
        prepared = []
        prepare = runtime_mod._prepare
        monkeypatch.setattr(
            runtime_mod, "_prepare", lambda *args: prepared.append(args) or prepare(*args)
        )
        registry = small_registry()
        config = small_config(mode="vector", timesteps=3)
        state = build_state(config)
        calls = len(config.chain) * config.components
        jit = True
        seen = []
        for timestep in range(3):
            if timestep == 1:
                if between == "flip_use_jit":
                    jit = False
                else:
                    moved = state.scratch.array
                    state.scratch.ensure(config.cells, 4 * config.scratch_per_element)
                    assert state.scratch.array is not moved
            prepared.clear()
            with use_jit(jit):
                run_proxy_state(config, state, registry=registry, timesteps=1)
            seen.append(len(prepared))
        assert seen == [calls, calls, 0]
        scalar = run_proxy(small_config(mode="scalar", timesteps=3))
        assert registry.fallback_count == 0
        assert qout_snapshot(state).tobytes() == qout_snapshot(scalar).tobytes()

    @pytest.mark.parametrize("jit", [False, True])
    def test_narrow_scratch_window_runs_on_kernels(self, jit):
        # Step 2 reads a 10x5 window of step 1's 20x9 scratch, so its A
        # span, 180, pads the window's 100-element matrix span; no call
        # falls back, and the bytes are the scalar mode's.
        chain = parse_chain(
            "ColMajor 20 9 10 cis op1 qin scratch 1.0 0.0\n"
            "ColMajor 10 9 5 sci scratch op2 qout 1.0 1.0\n"
        )
        registry = build_registry(*(step.spec for step in chain))
        config = ProxyConfig(cells=7, timesteps=2, chain=chain, mode="vector", seed=5)
        with use_jit(jit):
            vector = run_proxy(config, registry=registry)
        scalar = run_proxy(replace(config, mode="scalar"))
        assert registry.fallback_count == 0
        assert qout_snapshot(vector).tobytes() == qout_snapshot(scalar).tobytes()

    @pytest.mark.parametrize(
        "jit",
        [
            False,
            pytest.param(
                True, marks=pytest.mark.skipif(not jit_available(), reason="no C compiler (cc) on PATH")
            ),
        ],
        ids=["lanes", "compiled"],
    )
    def test_row_major_chain_runs_on_kernels(self, jit, tmp_path):
        # The chain alone fixes the layout: a RowMajor chain runs on its
        # built kernels, on the path asked for, and dumps the scalar mode's bytes.
        chain = row_major_chain()
        registry = build_registry(*(step.spec for step in chain))
        config = small_config(cells=5, chain=chain, mode="vector")
        scalar, vector = tmp_path / "scalar.bin", tmp_path / "vector.bin"
        with use_jit(jit):
            dump_state(run_proxy(config, registry=registry), vector)
        dump_state(run_proxy(replace(config, mode="scalar")), scalar)
        assert registry.fallback_count == 0
        path = "compiled" if jit else "lanes"
        for step in chain:
            kernel = registry.lookup(step.spec.name)
            assert set(kernel.path_counts) == {path}
        assert vector.read_bytes() == scalar.read_bytes()


class TestState:
    def test_component_matrices_allocated_independently(self):
        state = build_state(small_config(cells=4))
        addresses = {
            cell.component(i).ctypes.data
            for cell in state.qin + state.qout
            for i in range(len(cell.matrices))
        }
        assert len(addresses) == 2 * 4 * 3  # two tensors, four cells, three components

    def test_seed_controls_state(self):
        a = build_state(small_config(seed=1))
        b = build_state(small_config(seed=2))
        assert not np.array_equal(a.qin[0].component(0), b.qin[0].component(0))


class TestDumps:
    def test_self_compare_is_zero_and_passes(self, tmp_path):
        state = run_proxy(small_config())
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        dump_state(state, first)
        dump_state(state, second)
        result = compare_dumps(first, second, tol=0.0)
        assert result.max_abs_diff == 0.0
        assert result.passed

    def test_round_trip_bit_exact(self, tmp_path):
        state = run_proxy(small_config())
        path = tmp_path / "dump.bin"
        dump_state(state, path)
        cells, components, rows, cols, data = load_dump(path)
        config = state.config
        assert (cells, components, rows, cols) == (
            config.cells, config.components, config.rows, config.cols,
        )
        for e in range(cells):
            for s in range(components):
                flat = state.qout[e].component(s)
                dense = flat.reshape(cols, rows).T  # column-major at minimal ld
                assert np.array_equal(data[e, s], dense)
        second = tmp_path / "again.bin"
        dump_state(state, second)
        assert path.read_bytes() == second.read_bytes()

    def test_shape_mismatch_raises(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        dump_state(run_proxy(small_config(cells=3)), a)
        dump_state(run_proxy(small_config(cells=4)), b)
        with pytest.raises(ValueError, match="shape mismatch"):
            compare_dumps(a, b, tol=1e-6)

    def test_scalar_vs_vector_dumps_within_tolerance(self, tmp_path):
        registry = small_registry()
        a, b = tmp_path / "scalar.bin", tmp_path / "vector.bin"
        dump_state(run_proxy(small_config(mode="scalar")), a)
        with use_jit(False):
            dump_state(run_proxy(small_config(mode="vector"), registry=registry), b)
        result = compare_dumps(a, b, tol=1e-6)
        assert result.passed

    def test_scalar_and_vector_dumps_are_byte_identical(self, tmp_path):
        registry = small_registry()
        a, b = tmp_path / "scalar.bin", tmp_path / "vector.bin"
        dump_state(run_proxy(small_config(cells=5, mode="scalar")), a)
        with use_jit(False):
            dump_state(run_proxy(small_config(cells=5, mode="vector"), registry=registry), b)
        assert a.read_bytes() == b.read_bytes()

    def test_row_major_round_trip(self, tmp_path):
        # load_dump gives each cell's RowMajor matrix, whatever the encoding.
        state = run_proxy(small_config(cells=3, chain=row_major_chain()))
        path = tmp_path / "dump.bin"
        dump_state(state, path)
        cells, components, rows, cols, data = load_dump(path)
        assert (cells, components, rows, cols) == (3, 3, 3, 2)
        for e in range(cells):
            for s in range(components):
                dense = state.qout[e].component(s).reshape(rows, cols)  # row-major at minimal ld
                assert np.array_equal(data[e, s], dense)

    def test_truncated_dump_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"BBDQ\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_dump(path)

    def test_bad_magic_rejected(self, tmp_path):
        state = run_proxy(small_config(cells=2))
        path = tmp_path / "dump.bin"
        dump_state(state, path)
        corrupted = b"XXXX" + path.read_bytes()[4:]
        path.write_bytes(corrupted)
        with pytest.raises(ValueError, match="magic"):
            load_dump(path)


class TestChainFile:
    CHAIN_TEXT = """
    # projection then accumulate
    ColMajor 4 2 3 cis op1 qin scratch 1.0 0.0
    ColMajor 3 2 2 sci scratch op2 qout 1.0 1.0
    """

    def test_parse_round_trip(self):
        steps = parse_chain(self.CHAIN_TEXT)
        assert steps == small_chain()

    def test_field_count_error(self):
        with pytest.raises(ValueError, match="expected 10 fields"):
            parse_chain("ColMajor 4 2 3 cis op1 qin scratch 1.0\n")

    def test_empty_chain_error(self):
        with pytest.raises(ValueError, match="no steps"):
            parse_chain("# nothing\n")

    def test_bad_scalar_error(self):
        with pytest.raises(ValueError, match="alpha/beta"):
            parse_chain("ColMajor 4 2 3 cis op1 qin scratch one 0.0\n")

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("ColMajor 1_0 2 3 cis op1 qin scratch 1.0 0.0", 1, 10, "decimal integer"),
            ("ColMajor \uff14 2 3 cis op1 qin scratch 1.0 0.0", 1, 10, "decimal integer"),
            ("ColMajor 0 2 3 cis op1 qin scratch 1.0 0.0", 1, 10, "N must be >= 1"),
            ("ColMajor -4 2 3 cis op1 qin scratch 1.0 0.0", 1, 10, "decimal integer"),
            ("ColMajor 4 02 3 cis op1 qin scratch 1.0 0.0", 1, 12, "zero-padded"),
            ("# head\n\nColMajor 4 2 3 cxs op1 qin scratch 1.0 0.0", 3, 16, "three of c/s/i"),
            ("ColMajor 4 2 3 cis op1 qin scratch 1_0 0.0", 1, 36, "alpha/beta must be numbers"),
            ("ColMajor 4 2 3 cis op1 qin scratch \uff11 0.0", 1, 36, "alpha/beta must be numbers"),
            ("ColMajor 4 2 3 cis op1 qin scratch 1.0 nan", 1, 40, "alpha/beta must be numbers"),
            ("ColMajor 4 2 3 cis op1 qin scratch -inf 0.0", 1, 36, "alpha/beta must be numbers"),
            ("ColMajor 4 2 3 cis op1 qin scratch 1.0 1e999", 1, 40, "alpha/beta must be numbers"),
        ],
        ids=[
            "underscore",
            "full-width",
            "zero",
            "negative",
            "zero-padded",
            "line-3",
            "alpha-underscore",
            "alpha-full-width",
            "beta-nan",
            "alpha-inf",
            "beta-overflow",
        ],
    )
    def test_spec_errors_use_the_manifest_grammar(self, text, line, column, message):
        with pytest.raises(ManifestError, match=message) as caught:
            parse_chain(text)
        assert (caught.value.line, caught.value.column) == (line, column)
