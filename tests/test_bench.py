import json
import logging
import time

import numpy as np
import pytest

from structcs import bench
from structcs.bench import (
    CurveCell,
    ExperimentConfig,
    SuccessCurve,
    desk_preset,
    full_preset,
    generate_sparse_signal,
    run_trial,
    spec_template,
    success_curve,
    wilson_interval,
    write_plot_script,
    write_run,
)
from structcs.bench import _derive_seed, _one_blas_thread
from structcs.matrices import MatrixKind


# success_curve(desk_preset(master_seed=2, trials=2), threads=1).to_csv_text():
# a change that moves any verdict of this sweep must explain itself
DESK_SEED2_TRIALS2_CSV = """\
kind,n,successes,trials,fraction,ci_lo,ci_hi
iid,40,0,2,0.000000,0.000000,0.657620
iid,60,2,2,1.000000,0.342380,1.000000
iid,80,2,2,1.000000,0.342380,1.000000
iid,100,2,2,1.000000,0.342380,1.000000
iid,120,2,2,1.000000,0.342380,1.000000
iid,140,2,2,1.000000,0.342380,1.000000
iid,160,2,2,1.000000,0.342380,1.000000
iid,180,2,2,1.000000,0.342380,1.000000
iid,200,2,2,1.000000,0.342380,1.000000
iid,220,2,2,1.000000,0.342380,1.000000
iid,240,2,2,1.000000,0.342380,1.000000
iid,256,2,2,1.000000,0.342380,1.000000
toeplitz,40,0,2,0.000000,0.000000,0.657620
toeplitz,60,1,2,0.500000,0.094531,0.905469
toeplitz,80,2,2,1.000000,0.342380,1.000000
toeplitz,100,2,2,1.000000,0.342380,1.000000
toeplitz,120,2,2,1.000000,0.342380,1.000000
toeplitz,140,2,2,1.000000,0.342380,1.000000
toeplitz,160,2,2,1.000000,0.342380,1.000000
toeplitz,180,2,2,1.000000,0.342380,1.000000
toeplitz,200,2,2,1.000000,0.342380,1.000000
toeplitz,220,2,2,1.000000,0.342380,1.000000
toeplitz,240,2,2,1.000000,0.342380,1.000000
toeplitz,256,2,2,1.000000,0.342380,1.000000
toeplitz-block,40,0,2,0.000000,0.000000,0.657620
toeplitz-block,60,2,2,1.000000,0.342380,1.000000
toeplitz-block,80,2,2,1.000000,0.342380,1.000000
toeplitz-block,100,2,2,1.000000,0.342380,1.000000
toeplitz-block,120,2,2,1.000000,0.342380,1.000000
toeplitz-block,140,2,2,1.000000,0.342380,1.000000
toeplitz-block,160,2,2,1.000000,0.342380,1.000000
toeplitz-block,180,2,2,1.000000,0.342380,1.000000
toeplitz-block,200,2,2,1.000000,0.342380,1.000000
toeplitz-block,220,2,2,1.000000,0.342380,1.000000
toeplitz-block,240,2,2,1.000000,0.342380,1.000000
toeplitz-block,256,2,2,1.000000,0.342380,1.000000
"""


# success_curve(full_preset(master_seed=2, trials=2), threads=1).to_csv_text(),
# read when every trial decoded through the dense array: the FFT decode of
# the larger structured cells must not move a verdict
FULL_SEED2_TRIALS2_CSV = """\
kind,n,successes,trials,fraction,ci_lo,ci_hi
iid,100,1,2,0.500000,0.094531,0.905469
iid,160,2,2,1.000000,0.342380,1.000000
iid,220,2,2,1.000000,0.342380,1.000000
iid,280,2,2,1.000000,0.342380,1.000000
iid,340,2,2,1.000000,0.342380,1.000000
iid,400,2,2,1.000000,0.342380,1.000000
iid,460,2,2,1.000000,0.342380,1.000000
iid,520,2,2,1.000000,0.342380,1.000000
iid,580,2,2,1.000000,0.342380,1.000000
iid,640,2,2,1.000000,0.342380,1.000000
iid,700,2,2,1.000000,0.342380,1.000000
iid,760,2,2,1.000000,0.342380,1.000000
iid,820,2,2,1.000000,0.342380,1.000000
iid,880,2,2,1.000000,0.342380,1.000000
iid,940,2,2,1.000000,0.342380,1.000000
iid,1000,2,2,1.000000,0.342380,1.000000
toeplitz,100,0,2,0.000000,0.000000,0.657620
toeplitz,160,2,2,1.000000,0.342380,1.000000
toeplitz,220,2,2,1.000000,0.342380,1.000000
toeplitz,280,2,2,1.000000,0.342380,1.000000
toeplitz,340,2,2,1.000000,0.342380,1.000000
toeplitz,400,2,2,1.000000,0.342380,1.000000
toeplitz,460,2,2,1.000000,0.342380,1.000000
toeplitz,520,2,2,1.000000,0.342380,1.000000
toeplitz,580,2,2,1.000000,0.342380,1.000000
toeplitz,640,2,2,1.000000,0.342380,1.000000
toeplitz,700,2,2,1.000000,0.342380,1.000000
toeplitz,760,2,2,1.000000,0.342380,1.000000
toeplitz,820,2,2,1.000000,0.342380,1.000000
toeplitz,880,2,2,1.000000,0.342380,1.000000
toeplitz,940,2,2,1.000000,0.342380,1.000000
toeplitz,1000,2,2,1.000000,0.342380,1.000000
toeplitz-block,100,0,2,0.000000,0.000000,0.657620
toeplitz-block,160,2,2,1.000000,0.342380,1.000000
toeplitz-block,220,2,2,1.000000,0.342380,1.000000
toeplitz-block,280,2,2,1.000000,0.342380,1.000000
toeplitz-block,340,2,2,1.000000,0.342380,1.000000
toeplitz-block,400,2,2,1.000000,0.342380,1.000000
toeplitz-block,460,2,2,1.000000,0.342380,1.000000
toeplitz-block,520,2,2,1.000000,0.342380,1.000000
toeplitz-block,580,2,2,1.000000,0.342380,1.000000
toeplitz-block,640,2,2,1.000000,0.342380,1.000000
toeplitz-block,700,2,2,1.000000,0.342380,1.000000
toeplitz-block,760,2,2,1.000000,0.342380,1.000000
toeplitz-block,820,2,2,1.000000,0.342380,1.000000
toeplitz-block,880,2,2,1.000000,0.342380,1.000000
toeplitz-block,940,2,2,1.000000,0.342380,1.000000
toeplitz-block,1000,2,2,1.000000,0.342380,1.000000
"""


def tiny_config(**overrides):
    base = dict(
        N=48, m=3, kinds=("iid", "toeplitz"), n_grid=(8, 24, 48),
        trials=6, distribution="bernoulli", solver="bp", master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _first_cell_fails_late(config, kind, n):
    """Stand-in for bench._run_cell: the first cell of the grid sleeps and
    then raises, every other cell returns at once."""
    if (kind, n) == (config.kinds[0], config.n_grid[0]):
        time.sleep(1.0)
        raise RuntimeError("first cell failed")
    return n % 2


class TestSignals:
    def test_zero_sparsity_gives_zero_signal(self):
        sig = generate_sparse_signal(10, 0, seed=1)
        np.testing.assert_array_equal(sig.to_dense(), np.zeros(10))

    def test_full_sparsity_gives_dense_vector(self):
        sig = generate_sparse_signal(10, 10, seed=2)
        assert (sig.to_dense() != 0).all()

    def test_seed_determinism(self):
        a = generate_sparse_signal(50, 5, seed=3)
        b = generate_sparse_signal(50, 5, seed=3)
        assert a.support == b.support
        np.testing.assert_array_equal(a.values, b.values)


class TestWilson:
    def test_all_failures_closed_form(self):
        z = 1.959963984540054
        lo, hi = wilson_interval(0, 40)
        assert lo == 0.0
        assert hi == pytest.approx(z * z / (40 + z * z), abs=1e-12)

    def test_all_successes_closed_form(self):
        z = 1.959963984540054
        lo, hi = wilson_interval(40, 40)
        assert hi == 1.0
        assert lo == pytest.approx(40 / (40 + z * z), abs=1e-12)

    def test_contains_point_estimate(self):
        for s in range(0, 21):
            lo, hi = wilson_interval(s, 20)
            assert lo <= s / 20 <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)


class TestTemplates:
    def test_iid_template(self):
        spec = spec_template("iid", 512, 10, "bernoulli", 64, seed=1)
        assert spec.kind is MatrixKind.IID
        assert spec.shape == (64, 512)

    def test_scalar_band_template(self):
        spec = spec_template("toeplitz", 512, 10, "bernoulli", 100, seed=1)
        assert spec.kind is MatrixKind.TOEPLITZ_BLOCK
        assert (spec.d, spec.e, spec.l, spec.k) == (1, 1, 100, 512)

    def test_block_template_divisor_rule(self):
        # l = largest divisor of n with l <= 3m(3m-1) and n/l >= 8
        spec = spec_template("toeplitz-block", 512, 10, "bernoulli", 60, seed=1)
        assert spec.l == 6 and spec.d == 10
        assert spec.e == 8 and spec.k == 64  # largest divisor of 512 <= d
        assert spec.shape == (60, 512)
        spec = spec_template("toeplitz-block", 512, 10, "bernoulli", 256, seed=1)
        assert spec.l == 32 and spec.d == 8 and spec.e == 8

    def test_block_template_small_n_degenerates_to_single_band(self):
        spec = spec_template("toeplitz-block", 64, 2, "gaussian", 8, seed=0)
        assert spec.l == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spec_template("hadamard", 64, 2, "gaussian", 8, seed=0)


class TestRunTrial:
    def test_square_iid_recovers(self):
        cfg = tiny_config(N=32, n_grid=(32,), m=3)
        assert run_trial(cfg, "iid", 32, 0) is True

    def test_fewer_measurements_than_sparsity_fails(self):
        cfg = tiny_config(N=12, m=5, n_grid=(3,), trials=5)
        for t in range(5):
            assert run_trial(cfg, "iid", 3, t) is False

    def test_replay_is_identical(self):
        cfg = tiny_config()
        runs = [run_trial(cfg, "toeplitz", 24, 4) for _ in range(3)]
        assert len(set(runs)) == 1

    def test_signals_paired_across_kinds(self):
        cfg = tiny_config()
        a = _derive_seed(cfg.master_seed, "signal", 24, 3)
        b = _derive_seed(cfg.master_seed, "signal", 24, 3)
        assert a == b
        ma = _derive_seed(cfg.master_seed, "matrix", "iid", 24, 3)
        mb = _derive_seed(cfg.master_seed, "matrix", "toeplitz", 24, 3)
        assert ma != mb

    def test_decoder_error_is_logged_and_scored_false(self, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular normal matrix")

        monkeypatch.setattr(bench, "basis_pursuit", broken)
        with caplog.at_level(logging.WARNING, logger="structcs.bench"):
            assert run_trial(tiny_config(), "toeplitz", 24, 3) is False
        [record] = caplog.records
        assert record.name == "structcs.bench"
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        for part in ("toeplitz", "n=24", "trial 3", "LinAlgError: singular normal matrix"):
            assert part in message


class TestDecodeOperator:
    @pytest.mark.parametrize("preset,kind,n,backend", [
        (desk_preset, "toeplitz", 256, None),  # N=512: 131,072 entries
        (full_preset, "toeplitz", 100, None),  # N=2048: 204,800 entries
        (full_preset, "toeplitz", 160, "fft"),  # 327,680 entries
        (full_preset, "toeplitz-block", 160, "fft"),
        (full_preset, "iid", 160, "dense"),
    ])
    def test_size_and_kind_pick_the_operator(self, preset, kind, n, backend, monkeypatch):
        # None: the trial decodes through bench.dense_operator, below the
        # crossover; otherwise through structured_operator, whose backend
        # is given
        seen = []

        def spy(name, make):
            def wrapper(M):
                op = make(M)
                seen.append((name, op.backend))
                return op
            return wrapper

        for name in ("dense_operator", "structured_operator"):
            monkeypatch.setattr(bench, name, spy(name, getattr(bench, name)))
        cfg = preset(master_seed=2)
        assert (n * cfg.N >= bench.FFT_MIN_ENTRIES) == (backend is not None)
        run_trial(cfg, kind, n, 0)
        assert seen == ([("dense_operator", "dense")] if backend is None
                        else [("structured_operator", backend)])


class TestOneBlasThread:
    @pytest.fixture
    def libs(self):
        libs = bench._openblas_libraries()
        if not libs:
            pytest.skip("no OpenBLAS mapped into this process")
        return libs

    def test_limits_and_restores_every_openblas(self, libs):
        before = [lib.get_threads() for lib in libs]
        with _one_blas_thread():
            assert [lib.get_threads() for lib in libs] == [1] * len(libs)
        assert [lib.get_threads() for lib in libs] == before
        with pytest.raises(RuntimeError):
            with _one_blas_thread():
                raise RuntimeError
        assert [lib.get_threads() for lib in libs] == before

    def test_trial_decodes_on_one_thread(self, libs, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append([lib.get_threads() for lib in libs])
            return basis_pursuit(*args, **kwargs)

        basis_pursuit = bench.basis_pursuit
        monkeypatch.setattr(bench, "basis_pursuit", spy)
        assert run_trial(tiny_config(N=32, n_grid=(32,), m=3), "iid", 32, 0) is True
        assert seen == [[1] * len(libs)]


class TestSuccessCurve:
    def test_single_trial_fraction_is_binary(self):
        cfg = tiny_config(trials=1, kinds=("iid",), n_grid=(24,))
        curve = success_curve(cfg)
        assert curve.cells[0].fraction in (0.0, 1.0)

    def test_rises_with_measurements(self):
        cfg = tiny_config(trials=8)
        curve = success_curve(cfg)
        for kind in cfg.kinds:
            fr = curve.fractions(kind)
            assert fr[0] <= 0.5
            assert fr[-1] >= 0.75

    def test_csv_shape_and_determinism(self):
        cfg = tiny_config(trials=3)
        text1 = success_curve(cfg).to_csv_text()
        text2 = success_curve(cfg).to_csv_text()
        assert text1 == text2
        lines = text1.strip().split("\n")
        assert lines[0] == "kind,n,successes,trials,fraction,ci_lo,ci_hi"
        assert len(lines) == 1 + len(cfg.kinds) * len(cfg.n_grid)

    def test_cache_resume(self, tmp_path):
        cfg = tiny_config(trials=3)
        cache = tmp_path / "cache.json"
        first = success_curve(cfg, cache_path=cache)
        assert cache.exists()
        stored = json.loads(cache.read_text())
        assert len(stored) == len(cfg.kinds) * len(cfg.n_grid)
        # resumed run recomputes nothing and reproduces the curve
        again = success_curve(cfg, cache_path=cache)
        assert again.to_csv_text() == first.to_csv_text()
        # a different config never collides in the same cache file
        other = tiny_config(trials=3, master_seed=8)
        success_curve(other, cache_path=cache)
        assert len(json.loads(cache.read_text())) == 2 * len(stored)

    def test_cache_of_another_decoder_is_not_read(self, tmp_path):
        # a cell stored under the key format that named no decoder
        cfg = tiny_config(trials=3, kinds=("iid",), n_grid=(48,))
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({f"{cfg.digest()}:iid:48": 0}))
        assert success_curve(cfg, cache_path=cache).cell("iid", 48).successes == 3
        assert json.loads(cache.read_text())[bench._cell_key(cfg, "iid", 48)] == 3

    def test_cache_of_the_per_block_sampler_is_not_read(self, tmp_path):
        # a cell stored under the key that named the decoder alone, written
        # when each block drew its values from its own generator
        cfg = tiny_config(trials=3, kinds=("toeplitz",), n_grid=(48,))
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({f"{cfg.digest()}:lasso-homotopy-1:toeplitz:48": 0}))
        assert success_curve(cfg, cache_path=cache).cell("toeplitz", 48).successes == 3
        assert json.loads(cache.read_text())[bench._cell_key(cfg, "toeplitz", 48)] == 3

    def test_cache_of_the_per_step_adjoint_decoder_is_not_read(self, tmp_path):
        # a cell stored when the homotopy made a two-column adjoint every
        # step, whose estimates differ in the last bits
        cfg = tiny_config(trials=3, kinds=("toeplitz",), n_grid=(48,))
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps(
            {f"{cfg.digest()}:lasso-homotopy-1+one-stream-pool-1:toeplitz:48": 0}))
        assert success_curve(cfg, cache_path=cache).cell("toeplitz", 48).successes == 3
        assert json.loads(cache.read_text())[bench._cell_key(cfg, "toeplitz", 48)] == 3

    def test_cache_of_the_dense_decode_is_not_read(self, tmp_path):
        # a full-preset toeplitz cell stored when every trial decoded
        # through the dense array, whose products round otherwise
        cfg = full_preset(master_seed=2, trials=2, kinds=("toeplitz",), n_grid=(160,))
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps(
            {f"{cfg.digest()}:lasso-homotopy-2+one-stream-pool-1:toeplitz:160": 0}))
        assert success_curve(cfg, cache_path=cache).cell("toeplitz", 160).successes == 2
        assert json.loads(cache.read_text())[bench._cell_key(cfg, "toeplitz", 160)] == 2

    @pytest.mark.parametrize("text", ["[]", "{"])
    def test_cache_that_is_not_a_json_object_is_rejected(self, tmp_path, text):
        cache = tmp_path / "cache.json"
        cache.write_text(text)
        with pytest.raises(ValueError, match="cache.json"):
            success_curve(tiny_config(trials=1), cache_path=cache)

    @pytest.mark.parametrize("count", ["1", True, 7, -1])
    def test_cache_count_outside_0_to_trials_is_rejected(self, tmp_path, count):
        cfg = tiny_config(trials=1, kinds=("iid",), n_grid=(48,))
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({bench._cell_key(cfg, "iid", 48): count}))
        with pytest.raises(ValueError, match="cache.json"):
            success_curve(cfg, cache_path=cache)

    def test_thread_count_does_not_change_results(self):
        cfg = tiny_config(trials=4, n_grid=(8, 48))
        serial = success_curve(cfg, threads=1)
        parallel = success_curve(cfg, threads=2)
        assert serial.to_csv_text() == parallel.to_csv_text()

    def test_thread_count_does_not_change_desk_csv(self):
        cfg = desk_preset(master_seed=2, trials=2)
        serial = success_curve(cfg, threads=1)
        parallel = success_curve(cfg, threads=2)
        assert serial.to_csv_text() == parallel.to_csv_text()

    def test_desk_csv_matches_golden(self):
        cfg = desk_preset(master_seed=2, trials=2)
        assert success_curve(cfg, threads=1).to_csv_text() == DESK_SEED2_TRIALS2_CSV

    def test_full_csv_matches_golden(self):
        cfg = full_preset(master_seed=2, trials=2)
        assert success_curve(cfg, threads=1).to_csv_text() == FULL_SEED2_TRIALS2_CSV

    def test_pool_caches_cells_as_they_finish(self, tmp_path, monkeypatch):
        cfg = tiny_config(trials=1)
        cells = [(kind, n) for kind in cfg.kinds for n in cfg.n_grid]
        cache = tmp_path / "cache.json"
        # patched before the pool forks, so the workers run the stand-in
        monkeypatch.setattr(bench, "_run_cell", _first_cell_fails_late)
        with pytest.raises(RuntimeError, match="first cell failed"):
            success_curve(cfg, threads=2, cache_path=cache)
        stored = json.loads(cache.read_text())
        assert stored == {bench._cell_key(cfg, kind, n): n % 2 for kind, n in cells[1:]}


class TestConfigsAndOutputs:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            tiny_config(n_grid=(24, 8))
        with pytest.raises(ValueError):
            tiny_config(n_grid=(8, 64))  # n > N

    def test_presets(self):
        desk = desk_preset()
        assert desk.N == 512 and desk.m == 10 and desk.trials == 200
        assert desk.n_grid[0] == 40 and desk.n_grid[-1] == 256
        full = full_preset()
        assert full.N == 2048 and full.m == 20 and full.trials == 1000

    def test_plot_script_mentions_every_kind(self, tmp_path):
        path = tmp_path / "plot.gp"
        write_plot_script(path, kinds=("iid", "toeplitz"))
        text = path.read_text()
        assert '"iid"' in text and '"toeplitz"' in text and "curve.csv" in text

    def test_write_run_echo_is_a_valid_config(self, tmp_path):
        cfg = tiny_config()
        cells = tuple(CurveCell(kind, n, n % cfg.trials, cfg.trials)
                      for kind in cfg.kinds for n in cfg.n_grid)
        csv_path = write_run(tmp_path, SuccessCurve(cfg, cells))
        assert csv_path == tmp_path / "curve.csv"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config-echo.json", "curve.csv", "plot.gp"]
        assert '"curve.csv"' in (tmp_path / "plot.gp").read_text()
        echo = json.loads((tmp_path / "config-echo.json").read_text())
        assert ExperimentConfig(**echo) == cfg
