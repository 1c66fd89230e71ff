import hashlib
import json
import logging
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from structcs.cli import main
from structcs.matrixio import read_matrix, read_vector_csv, write_matrix_csv, write_vector_csv


def load_schema(name):
    ref = resources.files("structcs") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBounds:
    def test_happy_path_validates(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "--m", "3", "--N", "1024", "--n", "50000",
                     "--l", "4", "--delta", "0.5", "--c0", "0.05", "--c2", "0.01"])
        assert code == 0
        jsonschema.validate(payload, load_schema("bounds"))
        assert payload["regime"] == "small-l"
        assert payload["n_required"] == 42932

    def test_nested_factors(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "--m", "2", "--N", "512", "--n", "100000",
                     "--l1", "2", "--l2", "3", "--delta", "0.5"])
        assert code == 0
        assert payload["regime"] == "small-l"

    def test_l1_without_l2_is_usage_error(self, capsys):
        assert main(["bounds", "--m", "2", "--N", "512", "--n", "10",
                     "--l1", "2", "--delta", "0.5"]) == 2

    def test_negative_nested_factors_are_usage_error(self, capsys):
        # their product, 1, is a valid l on its own
        assert main(["bounds", "--m", "2", "--N", "512", "--n", "10",
                     "--l1", "-1", "--l2", "-1", "--delta", "0.5"]) == 2
        assert "--l1 and --l2 must be >= 1" in capsys.readouterr().err

    def test_n_defaults_to_requirement(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "--m", "3", "--N", "1024", "--l", "4",
                     "--delta", "0.5"])
        assert code == 0
        jsonschema.validate(payload, load_schema("bounds"))
        assert payload["vacuous"] is False
        assert payload["n_required"] >= 1


class TestDeps:
    def test_iid_passes_with_zero_dependencies(self, capsys):
        code, payload = run_json(
            capsys, ["deps", "--kind", "iid", "--d", "6", "--e", "8",
                     "--support", "0,2,5"])
        assert code == 0
        jsonschema.validate(payload, load_schema("deps"))
        assert payload["max"] == 0 and payload["pass"] is True

    def test_toeplitz_support_report(self, capsys):
        code, payload = run_json(
            capsys, ["deps", "--kind", "toeplitz-block", "--k", "8", "--l", "4",
                     "--d", "2", "--e", "2", "--support", "0,5,9"])
        assert code == 0
        jsonschema.validate(payload, load_schema("deps"))
        assert payload["max"] <= payload["bound"]

    def test_bad_support_is_usage_error(self):
        assert main(["deps", "--kind", "iid", "--d", "2", "--e", "2",
                     "--support", "0,9"]) == 2

    def test_empty_random_support_is_usage_error(self, capsys):
        assert main(["deps", "--kind", "iid", "--d", "6", "--e", "8",
                     "--t-size", "0"]) == 2
        assert "support must be nonempty" in capsys.readouterr().err


class TestRip:
    def test_exhaustive_from_flags(self, capsys):
        code, payload = run_json(
            capsys, ["rip", "--kind", "iid", "--d", "12", "--e", "8",
                     "--order", "2", "--seed", "5"])
        assert code == 0
        jsonschema.validate(payload, load_schema("rip"))
        assert payload["method"] == "exhaustive"
        assert len(payload["worst_support"]) == 2

    def test_monte_carlo_seed_determinism(self, capsys):
        argv = ["rip", "--kind", "iid", "--d", "16", "--e", "32", "--order", "3",
                "--method", "mc", "--samples", "200", "--seed", "9"]
        code1, p1 = run_json(capsys, argv)
        code2, p2 = run_json(capsys, argv)
        assert code1 == code2 == 0
        assert p1 == p2

    def test_guard_exceeded_is_exit_2(self, capsys):
        code = main(["rip", "--kind", "iid", "--d", "10", "--e", "200",
                     "--order", "8"])
        assert code == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_matrix_is_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "m.csv"
        path.write_text(f"1,{value}\n0,1\n")
        assert main(["rip", "--matrix", str(path), "--order", "1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "non-finite" in err and "Traceback" not in err


class TestBuildAndRecover:
    def test_build_csv_then_recover(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        code, payload = run_json(
            capsys, ["build", "--kind", "toeplitz-block", "--k", "32", "--l", "8",
                     "--d", "4", "--e", "4", "--dist", "bernoulli", "--seed", "3",
                     "--out", str(mat)])
        assert code == 0
        jsonschema.validate(payload, load_schema("build"))
        A = read_matrix(mat)
        assert A.shape == (32, 128)

        rng = np.random.default_rng(1)
        x = np.zeros(128)
        x[rng.choice(128, 3, replace=False)] = rng.standard_normal(3)
        yfile = tmp_path / "y.csv"
        write_vector_csv(yfile, A @ x)
        est = tmp_path / "xhat.csv"
        code, payload = run_json(
            capsys, ["recover", "--matrix", str(mat), "--y", str(yfile),
                     "--solver", "bp", "--out", str(est)])
        assert code == 0
        jsonschema.validate(payload, load_schema("recover"))
        assert payload["status"] == "converged"
        np.testing.assert_allclose(read_vector_csv(est), x, atol=1e-5)

    def test_build_binary_round_trip(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        code, payload = run_json(
            capsys, ["build", "--kind", "circulant-block", "--k", "6", "--l", "3",
                     "--d", "2", "--e", "2", "--seed", "8", "--out", str(out)])
        assert code == 0
        assert read_matrix(out).shape == (6, 12)

    def test_build_devore(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, payload = run_json(
            capsys, ["build", "--kind", "devore", "--p", "3", "--r", "1",
                     "--t", "3", "--s", "2", "--l-cols", "3", "--out", str(out)])
        assert code == 0
        A = read_matrix(out)
        assert A.shape == (18, 9)
        np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0)

    def test_build_devore_accepts_plain_l_flag(self, tmp_path, capsys):
        out = tmp_path / "d2.csv"
        code, _ = run_json(
            capsys, ["build", "--kind", "devore", "--p", "3", "--r", "1",
                     "--t", "3", "--s", "2", "--l", "3", "--out", str(out)])
        assert code == 0
        assert read_matrix(out).shape == (18, 9)

    def test_build_devore_l_one_is_one_column(self, tmp_path, capsys):
        out = tmp_path / "d1.csv"
        code, payload = run_json(
            capsys, ["build", "--kind", "devore", "--p", "3", "--r", "1",
                     "--l", "1", "--out", str(out)])
        assert code == 0
        assert (payload["rows"], payload["cols"]) == (9, 1)
        assert read_matrix(out).shape == (9, 1)

    def test_build_devore_refuses_save_spec(self, tmp_path, capsys):
        out, spec = tmp_path / "d.csv", tmp_path / "d.json"
        assert main(["build", "--kind", "devore", "--p", "3", "--r", "1",
                     "--out", str(out), "--save-spec", str(spec)]) == 2
        assert "--save-spec" in capsys.readouterr().err
        assert not out.exists() and not spec.exists()

    @pytest.mark.parametrize("flags", [
        ["--kind", "circulant-circulant", "--k", "4", "--l", "2", "--p", "3", "--q", "3"],
        ["--kind", "circulant-circulant-block", "--k", "3", "--l", "2",
         "--k2", "2", "--l2", "2", "--d2", "2", "--e2", "1"],
    ], ids=["circulant-circulant", "circulant-circulant-block"])
    def test_build_rows_equal_to_nested_grid_is_plain_build(self, tmp_path, capsys, flags):
        plain, cut = tmp_path / "plain.csv", tmp_path / "cut.csv"
        code, payload = run_json(capsys, ["build", *flags, "--out", str(plain)])
        assert code == 0
        rows = str(payload["rows"])
        code, payload = run_json(capsys, ["build", *flags, "--rows", rows, "--out", str(cut)])
        assert code == 0
        assert payload["truncated"] is False
        assert cut.read_bytes() == plain.read_bytes()

    def test_build_truncation_pads_then_cuts(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, payload = run_json(
            capsys, ["build", "--kind", "toeplitz-block", "--k", "4", "--l", "3",
                     "--d", "4", "--e", "2", "--rows", "10", "--out", str(out)])
        assert code == 0
        assert payload["truncated"] is True
        assert read_matrix(out).shape == (10, 8)

    def test_build_rows_pads_block_rows_when_needed(self, tmp_path, capsys):
        # d = 4 does not divide 10 and l = 1 is too small: the grid is
        # padded to ceil(10/4) = 3 block rows, then cut to 10 rows
        out = tmp_path / "p.csv"
        code, payload = run_json(
            capsys, ["build", "--kind", "toeplitz-block", "--k", "4", "--l", "1",
                     "--d", "4", "--e", "2", "--rows", "10", "--out", str(out)])
        assert code == 0
        assert payload["truncated"] is True
        assert read_matrix(out).shape == (10, 8)

    def test_omp_requires_sparsity(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        write_matrix_csv(mat, np.eye(4))
        yfile = tmp_path / "y.csv"
        write_vector_csv(yfile, np.ones(4))
        assert main(["recover", "--matrix", str(mat), "--y", str(yfile),
                     "--solver", "omp", "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--max-iter", "0"],
        ["--max-iter", "-5"],
        ["--tol", "-1"],
        ["--solver", "omp", "--sparsity", "-1"],
    ], ids=["max-iter-0", "max-iter-negative", "tol-negative", "omp-sparsity-negative"])
    def test_bad_decoder_arguments_exit_2(self, tmp_path, capsys, flags):
        mat, yfile, out = tmp_path / "m.csv", tmp_path / "y.csv", tmp_path / "o.csv"
        write_matrix_csv(mat, np.eye(4))
        write_vector_csv(yfile, np.ones(4))
        assert main(["recover", "--matrix", str(mat), "--y", str(yfile), *flags,
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_build_negative_iid_flags_exit_2(self, tmp_path, capsys):
        # iid: the products l*d = 6 and k*e = 2 are a valid size, the flags
        # are not; toeplitz-block: l*d = -1 is the entry scale, checked first
        # unless the flags are
        out = tmp_path / "x.csv"
        for flags in (["--kind", "iid", "--d", "-2", "--l", "-3", "--e", "2"],
                      ["--kind", "toeplitz-block", "--k", "2", "--l", "-1", "--d", "1",
                       "--e", "1"]):
            assert main(["build", *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "error: --l must be >= 1" in err and "scale_rows" not in err
            assert not out.exists()

    def test_recover_logs_its_iteration_cap(self, tmp_path, caplog, monkeypatch):
        # main's logging.basicConfig(force=True) drops caplog's root handler,
        # so the handler listens on the structcs logger itself
        monkeypatch.setattr(logging.getLogger("structcs"), "handlers", [caplog.handler])
        mat, yfile = tmp_path / "m.csv", tmp_path / "y.csv"
        write_matrix_csv(mat, np.eye(4))
        write_vector_csv(yfile, np.ones(4))
        assert main(["recover", "--matrix", str(mat), "--y", str(yfile),
                     "--max-iter", "7", "--out", str(tmp_path / "o.csv")]) == 0
        [line] = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("effective config for recover")]
        assert json.loads(line.split(": ", 1)[1])["max_iter"] == 7

    def test_rip_reads_exported_matrix(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        main(["build", "--kind", "iid", "--d", "10", "--e", "6", "--seed", "2",
              "--out", str(mat)])
        capsys.readouterr()
        code, payload = run_json(
            capsys, ["rip", "--matrix", str(mat), "--order", "2"])
        assert code == 0
        jsonschema.validate(payload, load_schema("rip"))


class TestMatrixSource:
    @pytest.mark.parametrize("argv", [
        ["build", "--spec", "s.json", "--kind", "iid", "--out", "out.csv"],
        ["rip", "--matrix", "m.csv", "--kind", "iid", "--order", "2"],
        ["rip", "--spec", "s.json", "--matrix", "m.csv", "--order", "2"],
        ["deps", "--d", "2"],
    ], ids=["spec-and-kind", "matrix-and-kind", "spec-and-matrix", "no-source"])
    def test_one_source_or_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # both files are valid sources, so only naming two, or none, fails
        monkeypatch.chdir(tmp_path)
        assert main(["build", "--kind", "iid", "--d", "4", "--e", "4",
                     "--out", "m.csv", "--save-spec", "s.json"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestBench:
    def test_desk_run_directory_is_pinned(self, tmp_path):
        # the run directory of a 12-trial desk sweep at master seed 2, byte for byte
        assert main(["bench", "--preset", "desk", "--master-seed", "2", "--trials", "12",
                     "--threads", "2", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("curve.csv", "config-echo.json", "plot.gp")}
        assert digests == {
            "curve.csv": "3332effab3e3c630f0a17d620e82cb65903f9358e9ab5105e5fc073cfb019020",
            "config-echo.json":
                "6bdbdf617fcf6a7ab084c5b8fb838415cd92f1ac83b58fe6a7e5f8646ad497e9",
            "plot.gp": "7ea365120a27d1a8f21ee08c0896bb7290156f0b6312aff7b132113deb068c18",
        }

    def test_malformed_cache_exits_2(self, tmp_path, capsys):
        (tmp_path / "cache.json").write_text("[]")
        assert main(["bench", "--preset", "desk", "--trials", "1",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cache.json" in err and "Traceback" not in err
        assert not (tmp_path / "curve.csv").exists()

    def test_bench_from_config_file(self, tmp_path, capsys):
        cfg = {
            "N": 32, "m": 2, "kinds": ["iid", "toeplitz"], "n_grid": [8, 32],
            "trials": 3, "distribution": "bernoulli", "solver": "bp",
            "success_rel_tol": 1e-5, "solver_tol": 1e-7,
            "solver_max_iter": 800, "master_seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, payload = run_json(
            capsys, ["bench", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        jsonschema.validate(payload, load_schema("bench"))
        assert (out_dir / "curve.csv").exists()
        assert (out_dir / "config-echo.json").exists()
        assert (out_dir / "plot.gp").exists()
        first = (out_dir / "curve.csv").read_bytes()
        # rerun hits the cache and reproduces the CSV byte for byte
        code, _ = run_json(
            capsys, ["bench", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "curve.csv").read_bytes() == first

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = {"N": 32, "m": 2, "kinds": ["iid"], "n_grid": [32],
               "trials": 9, "master_seed": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "run"
        code, _ = run_json(
            capsys, ["bench", "--config", str(cfg_path), "--out", str(out_dir),
                     "--trials", "2"])
        assert code == 0
        text = (out_dir / "curve.csv").read_text()
        assert text.strip().split("\n")[1].split(",")[3] == "2"

    def test_log_names_the_blas_limited_per_trial(self, tmp_path, capsys, monkeypatch):
        from structcs import bench

        argv = ["bench", "--preset", "desk", "--trials", "1", "--json"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        err = capsys.readouterr().err
        assert '"blas_one_thread_per_trial": [' in err
        assert "no OpenBLAS found" not in err
        monkeypatch.setattr(bench, "_openblas_libraries", lambda: ())
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        err = capsys.readouterr().err
        assert '"blas_one_thread_per_trial": []' in err
        assert err.count("no OpenBLAS found") == 1
        assert ((tmp_path / "a" / "config-echo.json").read_bytes()
                == (tmp_path / "b" / "config-echo.json").read_bytes())


_CONFIG = {"N": 32, "m": 2, "kinds": ["iid"], "n_grid": [32], "trials": 1}
_SPEC = {"kind": "toeplitz-block", "k": 4, "l": 2, "d": 2, "e": 2, "nested": None,
         "distribution": {"kind": "gaussian", "scale_rows": 4}, "seed": 0}

_MALFORMED_INPUTS = {
    "config-unknown-key": ("bench", {**_CONFIG, "bogus": 1}),
    "config-missing-key": ("bench", {"N": 32, "m": 2, "kinds": ["iid"], "n_grid": [32]}),
    "config-N-zero": ("bench", {**_CONFIG, "N": 0, "m": 0, "n_grid": [0]}),
    "config-m-negative": ("bench", {**_CONFIG, "m": -1}),
    "config-m-over-N": ("bench", {**_CONFIG, "m": 33}),
    "config-kinds-empty": ("bench", {**_CONFIG, "kinds": []}),
    "config-n-grid-empty": ("bench", {**_CONFIG, "n_grid": []}),
    "config-n-zero": ("bench", {**_CONFIG, "n_grid": [0, 32]}),
    "config-max-iter-zero": ("bench", {**_CONFIG, "solver_max_iter": 0}),
    "config-solver-tol-zero": ("bench", {**_CONFIG, "solver_tol": 0}),
    "config-success-tol-negative": ("bench", {**_CONFIG, "success_rel_tol": -1}),
    "config-list": ("bench", [1, 2, 3]),
    "config-trials-fraction": ("bench", {**_CONFIG, "trials": 1.5}),
    "config-max-iter-fraction": ("bench", {**_CONFIG, "solver_max_iter": 2.5}),
    "config-n-fraction": ("bench", {**_CONFIG, "n_grid": [20.7]}),
    "config-kinds-string": ("bench", {**_CONFIG, "kinds": "iid"}),
    "spec-k-fraction": ("build", {**_SPEC, "k": 2.5}),
    "spec-seed-fraction": ("build", {**_SPEC, "seed": 1.5}),
    "spec-no-distribution": ("build", {"kind": "iid", "k": 4, "l": 2, "d": 2, "e": 2,
                                       "nested": None, "seed": 0}),
    "spec-distribution-not-object": ("build", {"kind": "iid", "k": 4, "l": 2, "d": 2,
                                               "e": 2, "distribution": "gaussian",
                                               "nested": None, "seed": 0}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_input_file_exits_2(tmp_path, capsys, case):
    command, content = _MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    out = tmp_path / ("run" if command == "bench" else "m.csv")
    flag = "--config" if command == "bench" else "--spec"
    assert main([command, flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if case == "spec-no-distribution":
        assert "'distribution'" in err
    assert not out.exists()


class TestDispatch:
    def test_unknown_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "structcs.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in (proc.stderr + proc.stdout).lower()

    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "structcs.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("build", "rip", "deps", "bounds", "recover", "bench"):
            assert sub in proc.stdout

    def test_effective_config_logged_to_stderr(self, capsys):
        main(["bounds", "--m", "2", "--N", "64", "--n", "1000", "--delta", "0.5",
              "--json"])
        err = capsys.readouterr().err
        assert "effective config" in err

    def test_threads_env_fallback(self, monkeypatch, tmp_path):
        from structcs.cli import UsageError, _threads_default

        monkeypatch.setenv("STRUCTCS_THREADS", "6")
        assert _threads_default() == 6
        for bad in ("junk", "0", "-3"):
            monkeypatch.setenv("STRUCTCS_THREADS", bad)
            with pytest.raises(UsageError):
                _threads_default()
            assert main(["bench", "--out", str(tmp_path / "run"), "--trials", "1"]) == 2
        assert not (tmp_path / "run").exists()
        monkeypatch.delenv("STRUCTCS_THREADS")
        assert _threads_default() == 1

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_bad_threads_flag_exits_2(self, tmp_path, threads, capsys):
        out = tmp_path / "run"
        code = main(["bench", "--out", str(out), "--trials", "1", "--threads", threads])
        assert code == 2
        assert "--threads must be a positive integer" in capsys.readouterr().err
        assert not out.exists()
