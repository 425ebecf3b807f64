import csv
import json

import numpy as np
import pytest

from movkl import (
    CurveDataset,
    DataError,
    GaussianKernel,
    IdentityOperator,
    OvKernelTerm,
    FitConfig,
    SolveConfig,
    SynthSpec,
    generate_synthetic,
    krr_fit,
    lcr,
    load_dataset,
    load_model,
    predict_many,
    rsse,
    save_dataset,
)
from movkl import data
from movkl.cli import _normalize_inputs, main
from movkl.kernels import CurveStats
from movkl.learn import QUERY_BLOCK
from conftest import traced_peak


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(tmp_path, **extra):
    doc = {
        "version": 1,
        "seed": 123,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"synth": {"n_samples": 8, "grid_size": 12, "latency": 2,
                              "channel_count": 1, "noise_std": 0.05}},
        "kernels": {"terms": [
            {"scalar": {"kind": "gaussian", "bandwidth": 1.0},
             "operator": {"kind": "identity"}},
        ]},
        "fit": {"lambda": 0.1, "r": 2},
    }
    doc.update(extra)
    return doc


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["bogus"] = 1
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["fit"]["typo"] = 1
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_wrong_version_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["version"] = 7
        rc = main(["gen", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_missing_lambda_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        del cfg["fit"]["lambda"]
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("section,key", [
        ("fit", "mkl_tol"), ("solver", "outer_tol"),
    ])
    def test_non_numeric_fit_value_rejected(self, tmp_path, section, key):
        cfg = base_config(tmp_path)
        target = cfg["fit"] if section == "fit" else cfg["fit"].setdefault("solver", {})
        target[key] = "x"
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("key,bad", [
        ("lambda", float("nan")), ("lambda", float("inf")),
        ("lambda", -float("inf")), ("mkl_tol", float("nan")),
        ("mkl_tol", float("inf")), ("r", float("nan")),
    ])
    def test_non_finite_fit_value_rejected(self, tmp_path, key, bad):
        cfg = base_config(tmp_path)
        cfg["fit"][key] = bad
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_solver_tol_rejected(self, tmp_path, bad):
        cfg = base_config(tmp_path)
        cfg["fit"]["solver"] = {"outer_tol": bad}
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("section,key", [
        ("fit", "mkl_max_iter"), ("solver", "outer_max_iter"),
    ])
    def test_float_iteration_cap_rejected(self, tmp_path, section, key):
        cfg = base_config(tmp_path)
        target = cfg["fit"] if section == "fit" else cfg["fit"].setdefault("solver", {})
        target[key] = 2.5
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("menu", [
        {"polynomial_degrees": [4]},
        {"gaussian_bandwidth_factors": [-1.0]},
        {"gaussian_bandwidth_factors": ["wide"]},
        {"polynomial_offset": float("nan")},
        {"integral_rank": 0},
        {"operators": ["spline"]},
    ])
    def test_bad_menu_kernel_rejected(self, tmp_path, menu):
        cfg = base_config(tmp_path, kernels={"menu": menu})
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("scalar", [
        {"kind": "gaussian", "bandwidth": None},
        {"kind": "gaussian", "bandwidth": float("nan")},
        {"kind": "gaussian", "bandwidth": float("inf")},
        {"kind": "scaled", "factor": float("nan"),
         "base": {"kind": "polynomial", "degree": 2}},
    ])
    def test_bad_term_kernel_rejected(self, tmp_path, scalar):
        cfg = base_config(tmp_path)
        cfg["kernels"]["terms"][0]["scalar"] = scalar
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("rank", [2.5, True, "3"])
    def test_non_integral_term_rank_rejected(self, tmp_path, rank):
        cfg = base_config(tmp_path)
        cfg["kernels"]["terms"][0]["operator"] = {"kind": "integral", "rank": rank}
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2
        assert not (tmp_path / "out" / "model.json").exists()

    def test_non_integral_menu_rank_rejected(self, tmp_path):
        cfg = base_config(tmp_path, kernels={"menu": {"integral_rank": 2.5}})
        rc = main(["train", "--config", write_config(tmp_path / "c.json", cfg)])
        assert rc == 2


class TestGen:
    @pytest.mark.parametrize("key,bad", [
        ("n_samples", 2.5), ("grid_size", 12.5), ("latency", 2.5),
        ("channel_count", True), ("noise_std", float("nan")),
        ("noise_std", float("inf")), ("n_samples", "8"),
    ])
    def test_bad_synth_value_is_config_error(self, tmp_path, key, bad):
        cfg = base_config(tmp_path)
        cfg["dataset"]["synth"][key] = bad
        rc = main(["gen", "--config", write_config(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "data.txt")])
        assert rc == 2
        assert not (tmp_path / "data.txt").exists()

    @pytest.mark.parametrize("seed", [2.5, -1])
    def test_bad_seed_is_config_error(self, tmp_path, seed):
        cfg = base_config(tmp_path, seed=seed)
        rc = main(["gen", "--config", write_config(tmp_path / "c.json", cfg),
                   "--out", str(tmp_path / "data.txt")])
        assert rc == 2

    def test_writes_dataset(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "data.txt"
        rc = main(["gen", "--config", write_config(tmp_path / "c.json", cfg),
                   "--out", str(out)])
        assert rc == 0
        ds = load_dataset(out)
        assert ds.n == 8

    def test_seed_determinism(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg_path = write_config(tmp_path / "c.json", cfg)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["gen", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg_path = write_config(tmp_path / "c.json", cfg)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["gen", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg_path, "--seed", "999",
                     "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


    def test_streams_blocks_not_the_dataset(self, tmp_path, monkeypatch):
        # 2,000 desk-task curves hold 15.3 MiB of arrays, one generator
        # block 0.98 MiB.  gen holds the blocks in flight (one per worker
        # and one more) and the workers' temporaries, about 5.3 blocks with
        # two workers; the count is fixed so the bound is the same on any
        # machine
        monkeypatch.setattr(data, "_worker_count", lambda blocks: 2)
        spec = SynthSpec(n_samples=2000, grid_size=200, latency=15,
                         channel_count=3, noise_std=0.1, seed=20120706)
        cfg = base_config(tmp_path, seed=spec.seed)
        cfg["dataset"]["synth"] = dict(n_samples=2000, grid_size=200, latency=15,
                                       channel_count=3, noise_std=0.1)
        out = tmp_path / "data.txt"
        code, peak = traced_peak(main, ["gen", "--config",
                                        write_config(tmp_path / "c.json", cfg),
                                        "--out", str(out)])
        assert code == 0
        assert peak < 8 * data._GEN_BLOCK * (600 + 200 + 200) * 8
        save_dataset(tmp_path / "saved.txt", generate_synthetic(spec))
        assert out.read_bytes() == (tmp_path / "saved.txt").read_bytes()


class TestTrain:
    def test_single_term_matches_library_krr(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg_path = write_config(tmp_path / "c.json", cfg)
        data = tmp_path / "data.txt"
        assert main(["gen", "--config", cfg_path, "--out", str(data)]) == 0
        assert main(["train", "--config", cfg_path, "--data", str(data)]) == 0

        out = tmp_path / "out"
        model = load_model(out / "model.json")
        report = json.loads((out / "fit_report.json").read_text())
        assert report["weights"] == [1.0]
        assert report["n_terms"] == 1
        assert report["solver_routes"] == ["pcg"]
        assert model.solver_routes == ["pcg"]
        assert report["solver_residuals"] == model.solver_residuals
        assert len(model.solver_residuals) == 1

        ds = load_dataset(data)
        ref = krr_fit(
            OvKernelTerm(GaussianKernel(1.0), IdentityOperator(ds.output_grid)),
            ds.inputs, ds.targets,
            FitConfig(lam=0.1, r=2.0, solve=SolveConfig()),
        )
        assert np.allclose(model.alpha.values, ref.alpha.values, atol=1e-10)

    def test_determinism_byte_identical_outputs(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["kernels"] = {"menu": {"gaussian_bandwidth_factors": [0.5, 2.0],
                                   "polynomial_degrees": [1],
                                   "operators": ["identity", "integral"],
                                   "integral_rank": 4}}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        blobs = []
        for run in ("run1", "run2"):
            out_dir = tmp_path / run
            assert main(["train", "--config", cfg_path,
                         "--output-dir", str(out_dir)]) == 0
            blobs.append(((out_dir / "model.json").read_bytes(),
                          (out_dir / "fit_report.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_json_outputs_match_json_dump_writer(self, tmp_path):
        cfg = base_config(tmp_path)
        assert main(["train", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        ref = tmp_path / "reference.json"
        for name in ("fit_report.json", "model.json"):
            got = (tmp_path / "out" / name).read_bytes()
            with open(ref, "w", encoding="utf-8") as fh:
                json.dump(json.loads(got), fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            assert got == ref.read_bytes(), name

    def test_normalize_inputs_gives_unit_norm_curves(self, tmp_path):
        cfg = base_config(tmp_path, normalize_inputs=True)
        assert main(["train", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        X = load_model(tmp_path / "out" / "model.json").train_inputs
        norms = np.sqrt((X.values ** 2) @ X.grid.weights)
        assert np.allclose(norms, 1.0, rtol=1e-12)

    def test_normalize_inputs_computes_only_the_norms(self):
        # the quotient is one copy of the inputs; the parent's CurveStats
        # also built X * w, a second
        ds = generate_synthetic(SynthSpec(n_samples=2000, grid_size=200,
                                          latency=15, channel_count=3,
                                          noise_std=0.1, seed=20120706))
        normalized, peak = traced_peak(_normalize_inputs, ds)
        norms = np.sqrt(CurveStats(ds.inputs).sq_norms)
        want = ds.inputs.values / norms[:, None]
        assert normalized.inputs.values.tobytes() == want.tobytes()
        assert peak < 1.5 * ds.inputs.values.nbytes

    def test_objective_trace_reported_non_increasing(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["kernels"] = {"menu": {"gaussian_bandwidth_factors": [1.0],
                                   "polynomial_degrees": [1, 2],
                                   "operators": ["identity", "multiplication"]}}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["train", "--config", cfg_path]) == 0
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        trace = report["objective_trace"]
        assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))

    def test_mixed_menu_reports_pcg_routes(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["kernels"] = {"menu": {"gaussian_bandwidth_factors": [1.0],
                                   "polynomial_degrees": [1],
                                   "integral_rank": 4}}
        assert main(["train", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 0
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        routes = report["solver_routes"]
        assert routes == ["pcg"] * report["outer_iterations"]

    def test_full_rank_integral_menu_fits_at_defaults(self, tmp_path):
        # the default 24-term menu with a full-rank integral operator and
        # the default solver settings
        cfg = base_config(tmp_path, seed=3)
        cfg["dataset"] = {"synth": {"n_samples": 40, "grid_size": 40,
                                    "channel_count": 2}}
        cfg["kernels"] = {"menu": {"integral_rank": 40}}
        cfg["fit"]["lambda"] = 0.01
        assert main(["train", "--config",
                     write_config(tmp_path / "c.json", cfg)]) == 0
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert report["solver_routes"] == ["pcg"] * report["outer_iterations"]
        tol = SolveConfig().outer_tol
        assert all(0.0 <= v <= tol for v in report["solver_residuals"])

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # three operators, so one CG step cannot solve the system exactly
        cfg = base_config(tmp_path)
        cfg["kernels"] = {"menu": {"gaussian_bandwidth_factors": [0.5, 1.0],
                                   "polynomial_degrees": [1],
                                   "operators": ["identity", "multiplication",
                                                 "integral"]}}
        cfg["fit"]["solver"] = {"outer_tol": 1e-14, "outer_max_iter": 1}
        cfg["fit"]["lambda"] = 1e-6
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["train", "--config", cfg_path]) == 4
        assert "after 1 iterations" in capsys.readouterr().err


def trained_run(tmp_path, lam=0.1):
    """Generate a dataset and train on it; the config path, the dataset
    path and the output directory holding model.json."""
    cfg = base_config(tmp_path)
    cfg["fit"]["lambda"] = lam
    cfg_path = write_config(tmp_path / "c.json", cfg)
    data = tmp_path / "data.txt"
    assert main(["gen", "--config", cfg_path, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg_path, "--data", str(data)]) == 0
    return cfg_path, data, tmp_path / "out"


def query_file(tmp_path, n: int):
    """A labelled dataset file of n curves of the base config's task."""
    cfg = base_config(tmp_path)
    cfg["dataset"]["synth"]["n_samples"] = n
    path = tmp_path / f"query{n}.txt"
    assert main(["gen", "--config", write_config(tmp_path / "q.json", cfg),
                 "--out", str(path)]) == 0
    return path


class TestPredictEval:
    def setup_run(self, tmp_path, lam=0.1):
        return trained_run(tmp_path, lam)

    def test_predict_writes_rows(self, tmp_path):
        cfg_path, data, out = self.setup_run(tmp_path)
        pred_path = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(out / "model.json"),
                   "--data", str(data), "--out", str(pred_path),
                   "--output-dir", str(out)])
        assert rc == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0].startswith("# output_grid_points=")
        assert len(lines) == 1 + 8

    def test_predict_csv_matches_per_value_writer(self, tmp_path):
        # the training file, and 300 curves: one full block of QUERY_BLOCK
        # and one partial block
        cfg_path, data, out = self.setup_run(tmp_path)
        model = load_model(out / "model.json")

        def fmt(values):
            return ",".join(format(v, ".17g") for v in values)

        for query in (data, query_file(tmp_path, 300)):
            pred_path = tmp_path / "preds.csv"
            assert main(["predict", "--model", str(out / "model.json"),
                         "--data", str(query), "--out", str(pred_path)]) == 0
            preds = predict_many(model, load_dataset(query).inputs)
            expected = "# output_grid_points=" + fmt(model.output_grid.points) + "\n"
            expected += "".join(fmt(row) + "\n" for row in preds.values)
            assert pred_path.read_bytes() == expected.encode("utf-8")

    def test_eval_self_prediction_near_interpolation(self, tmp_path):
        cfg_path, data, out = self.setup_run(tmp_path, lam=1e-6)
        rc = main(["eval", "--model", str(out / "model.json"),
                   "--data", str(data), "--output-dir", str(out),
                   "--config", cfg_path])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rsse"] <= 1e-4
        assert 0.0 <= metrics["lcr"] <= 100.0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "rsse", "lcr"]
        assert len(rows) == 2

    def test_eval_missing_data_is_usage_error(self, tmp_path):
        cfg_path, data, out = self.setup_run(tmp_path)
        rc = main(["eval", "--model", str(out / "model.json")])
        assert rc == 2

    def test_eval_corrupt_dataset_is_data_error(self, tmp_path):
        cfg_path, data, out = self.setup_run(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        rc = main(["eval", "--model", str(out / "model.json"),
                   "--data", str(bad)])
        assert rc == 3


class TestStreamedQueries:
    """predict and eval read the query file in blocks of QUERY_BLOCK curves:
    their outputs are those of the whole file, a fault past the first block
    leaves no output, and their memory does not grow with the file."""

    @pytest.fixture
    def run(self, tmp_path):
        cfg_path, data, out = trained_run(tmp_path)
        return out / "model.json", query_file(tmp_path, 300), out

    @pytest.mark.parametrize("name", ["predict", "eval"])
    @pytest.mark.parametrize("fault", ["number", "label", "trailing"])
    def test_fault_past_first_block_writes_nothing(self, capsys, run, name, fault):
        model, query, out = run
        preds = out / "predictions.csv"
        assert main(["predict", "--model", str(model), "--data", str(query),
                     "--out", str(preds)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "predictions.csv.part" not in before
        # record 290 lies in the second block; its input line is 8 + 3 * 290
        lines = query.read_text().splitlines()
        if fault == "trailing":
            lines.append("extra")
        else:
            i = 7 + 3 * 290 + (2 if fault == "label" else 0)
            key, _, rest = lines[i].partition("=")
            first = "0.5" if fault == "label" else "1.5.0"
            lines[i] = key + "=" + ",".join([first] + rest.split(",")[1:])
        query.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(query)
        if fault != "trailing":
            assert f"{query}:{i + 1}: " in str(err.value)
        capsys.readouterr()
        argv = [name, "--model", str(model), "--data", str(query),
                "--output-dir", str(out)]
        if name == "predict":
            argv += ["--out", str(preds)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"data error: {err.value}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("variant", ["labels", "no_labels", "normalize"])
    def test_eval_scores_equal_whole_file_scores(self, tmp_path, run, variant):
        model, query, out = run
        config = {"version": 1}
        ds = load_dataset(query)
        if variant == "no_labels":
            save_dataset(query, CurveDataset(ds.inputs, ds.targets))
            ds = load_dataset(query)
        elif variant == "normalize":
            config["normalize_inputs"] = True
            ds = _normalize_inputs(ds)
        assert main(["eval", "--model", str(model), "--data", str(query),
                     "--output-dir", str(out),
                     "--config", write_config(tmp_path / "e.json", config)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        preds = predict_many(load_model(model), ds.inputs)
        assert metrics["n"] == 300
        assert metrics["rsse"] == rsse(ds.targets, preds)
        if variant == "no_labels":
            assert metrics["lcr"] is None
        else:
            assert metrics["lcr"] == lcr(ds.labels, preds)

    def test_memory_is_one_block_not_the_file(self, tmp_path):
        # 2,000 desk-task curves hold 15.3 MiB of arrays, one block 1.95 MiB.
        # The model is fitted on 20 curves, so blocks dominate: at the peak
        # the block in use and the block being read, about 2.5 blocks
        desk = {"grid_size": 200, "latency": 15, "channel_count": 3,
                "noise_std": 0.1}
        cfg = base_config(tmp_path)
        cfg["dataset"]["synth"] = dict(n_samples=20, **desk)
        assert main(["train", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        query = tmp_path / "desk.txt"
        save_dataset(query, generate_synthetic(SynthSpec(
            n_samples=2000, seed=20120706, **desk)))
        block = QUERY_BLOCK * (600 + 200 + 200) * 8
        out = tmp_path / "out"
        model = str(out / "model.json")
        for argv in (["predict", "--model", model, "--data", str(query),
                      "--out", str(out / "predictions.csv")],
                     ["eval", "--model", model, "--data", str(query),
                      "--output-dir", str(out)]):
            code, peak = traced_peak(main, argv)
            assert code == 0
            assert peak < 3 * block, argv[0]


class TestUnreadableInputs:
    """A file that cannot be read as a dataset or a model archive exits 3
    with one line on stderr, never a traceback."""

    def assert_data_error(self, capsys, argv, *fragments):
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        for fragment in fragments:
            assert fragment in err

    @pytest.fixture
    def run(self, tmp_path):
        return trained_run(tmp_path)

    def command(self, name, cfg_path, out, model, data):
        argv = [name, "--data", str(data), "--output-dir", str(out)]
        if name == "train":
            return argv + ["--config", cfg_path]
        return argv + ["--model", str(model)]

    @pytest.mark.parametrize("name", ["train", "predict", "eval"])
    def test_missing_data_file(self, tmp_path, capsys, run, name):
        cfg_path, data, out = run
        absent = tmp_path / "absent.txt"
        self.assert_data_error(
            capsys, self.command(name, cfg_path, out, out / "model.json", absent),
            f"{absent}: cannot read: No such file or directory")

    @pytest.mark.parametrize("name", ["train", "predict", "eval"])
    def test_non_utf8_data_file(self, tmp_path, capsys, run, name):
        cfg_path, data, out = run
        latin = tmp_path / "latin.txt"
        raw = data.read_bytes().split(b"\n")
        raw[3] = raw[3].replace(b",", b",\xe9", 1)
        latin.write_bytes(b"\n".join(raw))
        self.assert_data_error(
            capsys, self.command(name, cfg_path, out, out / "model.json", latin),
            f"{latin}:4: not UTF-8 text: byte 0xe9")

    @pytest.mark.parametrize("name", ["predict", "eval"])
    def test_missing_model_file(self, tmp_path, capsys, run, name):
        cfg_path, data, out = run
        absent = tmp_path / "absent.json"
        self.assert_data_error(
            capsys, self.command(name, cfg_path, out, absent, data),
            f"{absent}: cannot read: No such file or directory")

    @pytest.mark.parametrize("name", ["predict", "eval"])
    @pytest.mark.parametrize("text,message", [
        ('{"version": 1}', "not a model archive"),
        ("[1, 2]", "not a model archive"),
        ('{"format": "movkl-model", "version": 99}',
         "unsupported model archive version 99"),
        ('{"format": "movkl-model", "version": 1}', "missing key 'input_grid'"),
        ("{not json", "not a JSON model archive"),
        ("", "not a JSON model archive"),
    ])
    def test_json_that_is_not_a_model(self, tmp_path, capsys, run, name, text,
                                      message):
        cfg_path, data, out = run
        model = tmp_path / "not-a-model.json"
        model.write_text(text)
        self.assert_data_error(capsys, self.command(name, cfg_path, out, model, data),
                               f"{model}: {message}")


class TestCv:
    def test_cv_outputs(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["dataset"]["synth"]["n_samples"] = 6
        cfg["cv"] = {"lambda_grid": [0.05, 1e5]}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        rc = main(["cv", "--config", cfg_path])
        assert rc == 0
        out = tmp_path / "out"
        selected = json.loads((out / "cv_selected.json").read_text())
        assert selected["lambda"] == 0.05
        with open(out / "cv_table.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "rank", "cv_rsse", "valid"]
        assert len(rows) == 3

    @pytest.mark.parametrize("grids", [
        {"lambda_grid": [float("nan")]},
        {"lambda_grid": [0.1, float("inf")]},
        {"lambda_grid": [0.1], "rank_grid": [2.5]},
        {"lambda_grid": [0.1], "rank_grid": [True]},
        {"lambda_grid": [0.1], "rank_grid": ["3"]},
    ])
    def test_bad_candidates_rejected(self, tmp_path, grids):
        cfg = base_config(tmp_path)
        cfg["cv"] = grids
        assert main(["cv", "--config", write_config(tmp_path / "c.json", cfg)]) == 2

    def test_integral_float_rank_is_an_integer(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["dataset"]["synth"]["n_samples"] = 5
        cfg["kernels"]["terms"][0]["operator"] = {"kind": "integral", "rank": 2}
        cfg["cv"] = {"lambda_grid": [0.1], "rank_grid": [3.0]}
        assert main(["cv", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        out = tmp_path / "out"
        assert json.loads((out / "cv_selected.json").read_text())["rank"] == 3
        with open(out / "cv_table.csv") as fh:
            assert list(csv.reader(fh))[1][1] == "3"

    def test_cv_requires_grid(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["cv", "--config", cfg_path]) == 2


class TestBench:
    def test_bench_table(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["bench"] = {"instances": 4}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        rc = main(["bench", "--config", cfg_path])
        assert rc == 0
        with open(tmp_path / "out" / "bench.csv") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:5] == ["instance", "n", "m", "M", "solver"]
        solvers = {row[4] for row in body}
        assert solvers == {"dense", "pcg"}
        err_col = header.index("rel_err_vs_dense")
        conv_col = header.index("converged")
        for row in body:
            assert row[conv_col] == "1"
            assert float(row[err_col]) <= 1e-6

    def test_bench_names_operators_and_covers_truncation(self, tmp_path):
        # CG sees truncated integral operators, kept at rank q
        cfg = base_config(tmp_path)
        cfg["bench"] = {"instances": 40}
        assert main(["bench", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        with open(tmp_path / "out" / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["operators"] for row in rows if row["solver"] == "dense"} >= {
            "identity", "multiplication", "integral"}
        assert any("integral:" in row["operators"]
                   for row in rows if row["solver"] == "pcg")
        assert all(float(row["rel_err_vs_dense"]) <= 1e-7 for row in rows)

    def test_bench_flags_unconverged_rows(self, tmp_path, capsys):
        # fit.solver caps CG at one step, too few for the first seed-4
        # instance: it mixes three operators, so the preconditioner is not
        # exact
        cfg = base_config(tmp_path)
        cfg["seed"] = 4
        cfg["bench"] = {"instances": 1}
        cfg["fit"]["solver"] = {"outer_max_iter": 1}
        cfg_path = write_config(tmp_path / "c.json", cfg)
        assert main(["bench", "--config", cfg_path]) == 0
        assert "not converged: 0/pcg" in capsys.readouterr().out
        with open(tmp_path / "out" / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        flags = {row["solver"]: row["converged"] for row in rows}
        assert flags == {"dense": "1", "pcg": "0"}
