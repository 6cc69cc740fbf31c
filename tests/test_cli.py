import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from sdhkit import cli, codes, dataset, evaluate, fsdh, index, kernelmap, sdh
from sdhkit.model import DatasetFingerprint, HashModel, encode, load_model, save_model


SYNTH_KEYS = ("source = synth\nclasses = 4\nper_class = 30\ndim = 8\n"
              "spread = 0.2\ndata_seed = 3\nanchors = 24\nsigma = 0.4\n")
BIASMAP_DATA = ["--set", "classes=3", "--set", "per_class=5", "--set", "dim=6",
                "--set", "spread=0.1", "--set", "data_seed=1", "--set", "bits=8"]


# Each run's settings, every one a key the run reads at any `method`,
# `bitscale_methods` and `source`, small enough for a run of well under a
# second on 60 samples.
SMALL_RUNS = {
    "train": ["anchors=20", "bits=16"],
    "eval": [],
    "bench": ["anchors=20", "bits_list=16", "repeats=1"],
    "synth": ["per_class=2"],
    "fig1": ["fig1_seeds=1", "iters=1"],
    "bitscale": ["anchors=20", "bits_list=16", "test_per_class=2"],
    "losses": ["anchors=20", "bits_list=16", "iters=1"],
    "biasmap": ["anchors=12", "bits=16"],
}


def set_flags(settings):
    """One `--set` flag per key=value setting."""
    return [arg for setting in settings for arg in ("--set", setting)]


class RecordedConfig(dict):
    """A resolved config that adds every key read from it to `read`."""

    def __init__(self, cfg, read):
        super().__init__(cfg)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


def run(args):
    return cli.main(args)


class TestTrain:
    def test_fsdh_train_writes_model_and_log(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"method = fsdh\nbits = 16\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "learning_time_s=" in out
        assert (tmp_path / "run" / "model.fsdh").exists()
        assert (tmp_path / "run" / "config.txt").exists()
        log = (tmp_path / "run" / "train_log.txt").read_text()
        assert "learning_time_s=" in log
        # 4 classes: the 16-bit class codes have 4 distinct rows.
        assert "distinct_bits=4" in log.splitlines()
        model = load_model(tmp_path / "run" / "model.fsdh")
        assert model.bits == 16
        assert model.trained_on.class_count == 4

    def test_sdh_allows_non_power_of_two_bits(self, tmp_path):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + "method = sdh\nbits = 24\niters = 2\n"
                        f"outdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 0
        assert (tmp_path / "run" / "trajectory.csv").exists()
        model = load_model(tmp_path / "run" / "model.fsdh")
        assert model.bits == 24
        assert model.class_codes is None
        assert "distinct_bits" not in (tmp_path / "run" / "train_log.txt").read_text()

    @pytest.mark.parametrize("bits", [32, 512, 8192])
    def test_fsdh_log_counts_distinct_bits(self, tmp_path, bits):
        # 10 classes: Hadamard class codes repeat every 16 rows at any L.
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"method = fsdh\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg, "--set", "classes=10",
                    "--set", f"bits={bits}"]) == 0
        log = (tmp_path / "run" / "train_log.txt").read_text().splitlines()
        assert f"bits={bits}" in log
        assert "distinct_bits=16" in log

    def test_fsdh_rejects_non_power_of_two_bits(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"method = fsdh\nbits = 24\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error [train]" in err
        assert "A1" in err

    def test_missing_dataset_path_is_a_dataset_stage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "train.cfg",
                        "source = mnist\nimages = /nonexistent/images\n"
                        f"labels = /nonexistent/labels\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 2
        assert "error [dataset]" in capsys.readouterr().err

    def test_set_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + "method = sdh\nbits = 16\niters = 1\n"
                        f"outdir = {tmp_path / 'a'}\n")
        assert run(["train", "--config", cfg, "--set", "bits=32",
                    "--outdir", str(tmp_path / "b")]) == 0
        model = load_model(tmp_path / "b" / "model.fsdh")
        assert model.bits == 32
        # The copy holds the values as given, not as typed (1e-05).
        copied = (tmp_path / "b" / "config.txt").read_text().splitlines()
        assert {"bits = 32", "nu = 1e-5"} <= set(copied)


class TestEval:
    def train_model(self, tmp_path):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"method = fsdh\nbits = 16\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 0
        return tmp_path / "run" / "model.fsdh"

    def eval_cfg(self, tmp_path, model, outdir):
        return write_cfg(tmp_path / f"{outdir}.cfg",
                         f"model = {model}\n"
                         "db_source = synth\nquery_source = synth\n"
                         "classes = 4\nper_class = 30\ndim = 8\n"
                         "spread = 0.2\ndata_seed = 3\nradius = 2\n"
                         f"outdir = {tmp_path / outdir}\n")

    def test_self_retrieval_is_near_perfect(self, tmp_path, capsys):
        model = self.train_model(tmp_path)
        cfg = self.eval_cfg(tmp_path, model, "eval")
        assert run(["eval", "--config", cfg]) == 0
        summary = dict(line.split("=", 1) for line in
                       (tmp_path / "eval" / "summary.txt").read_text().splitlines())
        assert float(summary["precision_at_radius"]) > 0.95
        assert float(summary["map"]) > 0.95
        assert (tmp_path / "eval" / "pr_curve.csv").exists()

    def test_two_evaluations_are_identical(self, tmp_path):
        model = self.train_model(tmp_path)
        a_cfg = self.eval_cfg(tmp_path, model, "eval_a")
        b_cfg = self.eval_cfg(tmp_path, model, "eval_b")
        assert run(["eval", "--config", a_cfg]) == 0
        assert run(["eval", "--config", b_cfg]) == 0
        assert ((tmp_path / "eval_a" / "summary.txt").read_text()
                == (tmp_path / "eval_b" / "summary.txt").read_text())
        assert ((tmp_path / "eval_a" / "pr_curve.csv").read_text()
                == (tmp_path / "eval_b" / "pr_curve.csv").read_text())

    @pytest.mark.parametrize("mode", dataset.NORMALIZE_MODES)
    def test_eval_encodes_as_the_library_under_every_normalization(self, tmp_path, mode):
        # `train` used to refuse zero_mean_unit_norm: the model stored no
        # training mean, so `eval` would have centred on its own data.
        blobs = ["classes=4", "per_class=30", "dim=8", "spread=1.0", "data_seed=3"]
        assert run(["train", *set_flags(blobs), "--set", "anchors=24", "--set", "bits=16",
                    "--set", f"normalize={mode}", "--outdir", str(tmp_path / "run")]) == 0
        assert run(["eval", *set_flags(blobs), "--set", "query_limit=40",
                    "--set", f"model={tmp_path / 'run' / 'model.fsdh'}",
                    "--outdir", str(tmp_path / "eval")]) == 0
        summary = dict(line.split("=", 1) for line in
                       (tmp_path / "eval" / "summary.txt").read_text().splitlines())
        # config.txt no longer holds the normalization; the summary does.
        assert summary["model_normalize"] == mode

        data = dataset.synth_blobs(4, 30, 8, 1.0, seed=3)
        kmap = kernelmap.fit_anchors(data, 24, 0.4, 0, normalize=mode)
        per_class, class_codes = fsdh.train_fsdh(kernelmap.transform(kmap, data.features),
                                                 data.labels, 4, 16)
        model = HashModel(kernel=kmap, projection=per_class, class_codes=class_codes,
                          lam=1.0, trained_on=DatasetFingerprint(120, 8, 4, 0))
        queries = data.subset(slice(40))
        report = evaluate.evaluate_retrieval(
            index.CodeIndex(codes=encode(model, data.features), labels=data.labels),
            encode(model, queries.features), queries.labels, radius=2)
        assert summary["map"] == repr(report.map)

    def test_dimension_mismatch_is_an_encode_stage_error(self, tmp_path, capsys):
        model = self.train_model(tmp_path)
        cfg = write_cfg(tmp_path / "bad.cfg",
                        f"model = {model}\n"
                        "db_source = synth\nquery_source = synth\n"
                        "classes = 4\nper_class = 30\ndim = 9\n"
                        "spread = 0.2\ndata_seed = 3\n"
                        f"outdir = {tmp_path / 'bad'}\n")
        assert run(["eval", "--config", cfg]) == 2
        assert "error [encode]" in capsys.readouterr().err


class TestFigures:
    def test_fig1_bundle(self, tmp_path):
        cfg = write_cfg(tmp_path / "fig1.cfg",
                        "lambda = 1.0\ndata_seed = 0\nfig1_seeds = 2\niters = 3\n"
                        f"outdir = {tmp_path / 'fig1'}\n")
        assert run(["figures", "fig1", "--config", cfg]) == 0
        files = sorted(p.name for p in (tmp_path / "fig1").glob("fig1_*.csv"))
        assert len(files) == 5  # 2 seeds x 2 solvers + reference
        reference = (tmp_path / "fig1" / "fig1_reference.csv").read_text().splitlines()
        lam, bits, classes = 1.0, 16, 10
        assert float(reference[1]) == pytest.approx(classes * lam / (bits + lam), abs=1e-9)
        assert (tmp_path / "fig1" / "notes.txt").exists()
        # fig1's protocol default, recorded under the general key.
        assert "bits = 16" in (tmp_path / "fig1" / "config.txt").read_text().splitlines()

    def test_default_seed_count_matches_protocol(self):
        assert cli.SCHEMA["fig1_seeds"][0] == "10"

    def test_bitscale_trend(self, tmp_path):
        cfg = write_cfg(tmp_path / "bs.cfg",
                        "source = synth\nclasses = 4\nper_class = 60\ndim = 8\n"
                        "spread = 0.2\ndata_seed = 3\nanchors = 32\nsigma = 0.4\n"
                        "bits_list = 16,32\ntest_per_class = 10\n"
                        "bitscale_methods = fsdh\n"
                        f"outdir = {tmp_path / 'bs'}\n")
        assert run(["figures", "bitscale", "--config", cfg]) == 0
        rows = (tmp_path / "bs" / "bitscale.csv").read_text().strip().splitlines()
        assert rows[0] == "method,bits,train_seconds,precision_at_radius,distinct_bits"
        assert len(rows) == 3
        precisions = [float(r.split(",")[3]) for r in rows[1:]]
        assert max(precisions) - min(precisions) <= 0.03
        assert [r.split(",")[4] for r in rows[1:]] == ["4", "4"]

    def test_bitscale_distinct_bits_at_32_and_512(self, tmp_path):
        # 10 classes: 16 distinct fsdh bits at L = 32 and L = 512 alike; an
        # sdh row leaves the column empty.
        cfg = write_cfg(tmp_path / "bs.cfg",
                        "source = synth\nclasses = 10\nper_class = 12\ndim = 8\n"
                        "spread = 0.2\ndata_seed = 3\nanchors = 32\nsigma = 0.4\n"
                        "bits_list = 32,512\ntest_per_class = 2\n"
                        f"outdir = {tmp_path / 'bs'}\n")
        assert run(["figures", "bitscale", "--config", cfg, "--set",
                    "bitscale_methods=fsdh", "--set", "bits_list=32,512"]) == 0
        rows = [r.split(",") for r in
                (tmp_path / "bs" / "bitscale.csv").read_text().strip().splitlines()[1:]]
        assert [(r[0], r[1], r[4]) for r in rows] == [("fsdh", "32", "16"),
                                                      ("fsdh", "512", "16")]
        assert run(["figures", "bitscale", "--config", cfg, "--set",
                    "bitscale_methods=sdh", "--set", "bits_list=32", "--set", "iters=1"]) == 0
        rows = [r.split(",") for r in
                (tmp_path / "bs" / "bitscale.csv").read_text().strip().splitlines()[1:]]
        assert [(r[0], r[1], r[4]) for r in rows] == [("sdh", "32", "")]

    def test_losses_bundle(self, tmp_path):
        cfg = write_cfg(tmp_path / "losses.cfg",
                        SYNTH_KEYS + "bits_list = 16,32\niters = 2\n"
                        f"outdir = {tmp_path / 'losses'}\n")
        assert run(["figures", "losses", "--config", cfg]) == 0
        rows = (tmp_path / "losses" / "losses.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            _, sdh_w, _, fsdh_w, _ = row.split(",")
            assert float(fsdh_w) <= float(sdh_w)

    def test_losses_solve_once_and_match_one_solve_per_bits(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "losses.cfg", SYNTH_KEYS + "iters = 2\n")
        # Reference: one run per code length, so each row has its own solve.
        rows = []
        for bits in (16, 32, 64):
            out = tmp_path / f"losses{bits}"
            assert run(["figures", "losses", "--config", cfg, "--set", f"bits_list={bits}",
                        "--outdir", str(out)]) == 0
            header, row = (out / "losses.csv").read_text().splitlines(keepends=True)
            rows.append(row)
        solves = []
        train_fsdh = fsdh.train_fsdh
        monkeypatch.setattr(fsdh, "train_fsdh",
                            lambda *args: solves.append(args[3]) or train_fsdh(*args))
        out = tmp_path / "losses"
        assert run(["figures", "losses", "--config", cfg, "--set", "bits_list=16,32,64",
                    "--outdir", str(out)]) == 0
        assert solves == [16]
        assert (out / "losses.csv").read_text() == header + "".join(rows)

    def test_losses_check_each_code_length_before_its_sdh_run(self, tmp_path, capsys,
                                                             monkeypatch):
        cfg = write_cfg(tmp_path / "losses.cfg", SYNTH_KEYS + "iters = 1\n")
        runs = []
        train_sdh = sdh.train_sdh
        monkeypatch.setattr(sdh, "train_sdh", lambda *args, **kwargs:
                            runs.append(args[3]) or train_sdh(*args, **kwargs))
        assert run(["figures", "losses", "--config", cfg, "--set", "bits_list=16,24",
                    "--outdir", str(tmp_path / "losses")]) == 2
        assert "A1" in capsys.readouterr().err
        assert runs == [16]

    def test_biasmap_blocks_equal_bits(self, tmp_path):
        cfg = write_cfg(tmp_path / "bias.cfg",
                        "source = synth\nclasses = 3\nper_class = 5\ndim = 6\n"
                        "spread = 0.1\ndata_seed = 1\nanchors = 12\nsigma = 0.4\n"
                        "bits = 8\n"
                        f"outdir = {tmp_path / 'bias'}\n")
        assert run(["figures", "biasmap", "--config", cfg]) == 0
        btb = np.loadtxt(tmp_path / "bias" / "btb_matrix.csv", delimiter=",")
        expected = np.kron(np.eye(3), np.full((5, 5), 8.0))
        assert np.array_equal(btb, expected)
        assert (tmp_path / "bias" / "k_matrix.csv").exists()


class TestFigureKeys:
    # At (16, 16, 0.0) the class codes are a square Hadamard matrix, which
    # lambda = 0 inverts exactly.
    @pytest.mark.parametrize("bits, classes, lam",
                             [(8, 4, 1.0), (16, 10, 0.5), (32, 10, 3.0), (16, 16, 0.0)])
    def test_fig1_reads_bits_classes_and_iters(self, tmp_path, bits, classes, lam):
        out = tmp_path / "fig1"
        assert run(["figures", "fig1", "--set", f"bits={bits}", "--set", f"classes={classes}",
                    "--set", f"lambda={lam}", "--set", "iters=2", "--set", "fig1_seeds=1",
                    "--outdir", str(out)]) == 0
        # One sample per class, so no class is left without a sample.
        assert (f"bits={bits}, classes={classes}, samples={classes},"
                in (out / "notes.txt").read_text())
        assert len((out / "fig1_branch_and_bound_seed0.csv").read_text().splitlines()) == 3
        # One sample per class: W = C / (L + lambda), so the objective at
        # B = C Y is C * lambda / (L + lambda).
        reference = (out / "fig1_reference.csv").read_text().splitlines()
        assert abs(float(reference[1]) - classes * lam / (bits + lam)) <= 1e-12

    def test_fig1_runs_at_thirty_two_bits(self, tmp_path):
        # The exact code step has no bit cap.
        out = tmp_path / "fig1"
        assert run(["figures", "fig1", "--set", "bits=32", "--set", "fig1_seeds=1",
                    "--set", "iters=2", "--outdir", str(out)]) == 0
        assert "bits=32, classes=10," in (out / "notes.txt").read_text()
        for solver in ("dcc", "branch_and_bound"):
            assert len((out / f"fig1_{solver}_seed0.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("bits, assumption", [("12", "A1"), ("8", "A2")])
    def test_fig1_checks_its_code_length_before_any_run(self, tmp_path, capsys, bits,
                                                         assumption):
        # bits=12 ran four trainings and wrote four trajectories before the
        # closed form's class codes failed A1.
        out = tmp_path / "fig1"
        assert run(["figures", "fig1", "--set", f"bits={bits}", "--set", "fig1_seeds=2",
                    "--outdir", str(out)]) == 2
        assert f"violates assumption {assumption}" in capsys.readouterr().err
        assert not list(out.glob("fig1_*.csv"))

    def test_fig1_exact_trajectories_end_at_exhaustive_totals(self, tmp_path):
        # Exhaustive search over all 2^16 codes ended each seed's 20
        # iterations at these totals.
        assert run(["figures", "fig1", "--set", "fig1_seeds=2", "--outdir", str(tmp_path)]) == 0
        for seed, total in ((0, 1.0215836518564503), (1, 0.9272512138953171)):
            rows = (tmp_path / f"fig1_branch_and_bound_seed{seed}.csv").read_text().splitlines()
            assert len(rows) == 21
            header = rows[0].split(",")
            assert header[-2:] == ["total", "bits_flipped"]
            assert float(rows[-1].split(",")[header.index("total")]) == pytest.approx(
                total, rel=1e-12)

    def test_losses_reads_bits_list(self, tmp_path):
        cfg = write_cfg(tmp_path / "losses.cfg", SYNTH_KEYS + "iters = 1\n")
        out = tmp_path / "losses"
        assert run(["figures", "losses", "--config", cfg, "--set", "bits_list=16,32",
                    "--outdir", str(out)]) == 0
        rows = (out / "losses.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["16", "32"]

    def test_biasmap_reads_anchors(self, tmp_path):
        # 120 samples, so the default 100 anchors fit.
        data = set_flags(["classes=3", "per_class=40", "dim=6", "spread=0.1", "data_seed=1",
                          "bits=8"])
        assert run(["figures", "biasmap", *data, "--outdir", str(tmp_path / "default")]) == 0
        assert run(["figures", "biasmap", *data, "--set", "anchors=12",
                    "--outdir", str(tmp_path / "a12")]) == 0
        assert "anchors = 100" in (tmp_path / "default" / "config.txt").read_text().splitlines()
        assert ((tmp_path / "default" / "traces.txt").read_text()
                != (tmp_path / "a12" / "traces.txt").read_text())

    def test_figure_only_sample_count_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["figures", "fig1", "--set", "fig1_samples=3", "--outdir", str(out)]) == 2
        assert "error [config]: unknown config key(s): 'fig1_samples'" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_defaults_name_schema_keys_and_parse(self):
        for figure, defaults in cli.FIGURE_DEFAULTS.items():
            assert figure in cli.FIGURES
            for key, value in defaults.items():
                assert key in cli.SCHEMA, (figure, key)
                assert key in cli.READS[figure], (figure, key)
                cli.SCHEMA[key][1](value)


class TestReportFiles:
    def test_summary_and_curve(self, tmp_path):
        cli._write_values(tmp_path / "summary.txt", {"map": 0.5, "n": 3})
        assert (tmp_path / "summary.txt").read_text() == "map=0.5\nn=3\n"
        model = TestEval().train_model(tmp_path)
        assert run(["eval", "--config", TestEval().eval_cfg(tmp_path, model, "eval")]) == 0
        lines = (tmp_path / "eval" / "pr_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "threshold,recall,precision"
        assert lines[1].startswith("0,")
        assert len(lines) == 16 + 2

    def test_trajectory_csv_round_trips(self, tmp_path):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((5, 8))
        labels = np.array([0, 1, 0, 1, 1, 0, 0, 1])
        state, traj = sdh.train_sdh(x, labels, 2, 4, max_iters=3, seed=0)
        path = tmp_path / "trajectory.csv"
        cli._write_trajectory(path, traj, state.bits_flipped)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "iteration,classification_term,regularizer,bias_term,total,bits_flipped"
        assert len(rows) == 4
        cells = [row.split(",") for row in rows[1:]]
        assert float(cells[0][4]) == traj[0].total
        assert [int(row[5]) for row in cells] == state.bits_flipped
        # The second iteration flips no bit, so every row after it repeats
        # its terms and records no flip.
        assert state.bits_flipped[0] > 0 and state.bits_flipped[1] == 0
        assert cells[2][1:] == cells[1][1:]

    def test_matrix_csv(self, tmp_path):
        # The biasmap grids round-trip through their CSV files. The command
        # transforms a label-sorted copy, so the last bits may round differently.
        assert run(["figures", "biasmap", *BIASMAP_DATA, "--set", "anchors=12",
                    "--outdir", str(tmp_path / "bias")]) == 0
        data = dataset.normalize(dataset.synth_blobs(3, 5, 6, 0.1, seed=1), "unit_norm")
        kmap = kernelmap.fit_anchors(data, 12, 0.4, 0)
        class_codes = codes.hadamard_codes(8, 3)
        diag = evaluate.bias_term_diagnostics(kernelmap.transform(kmap, data.features),
                                              codes.expand_codes(class_codes, data.labels),
                                              data.labels)
        grid = np.loadtxt(tmp_path / "bias" / "k_matrix.csv", delimiter=",")
        assert grid.shape == (15, 15)
        np.testing.assert_allclose(grid, diag.k_matrix, rtol=0, atol=1e-9)


class TestBenchAndSynth:
    def test_bench_writes_stage_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "bench.cfg",
                        SYNTH_KEYS + "bits_list = 16,32\nrepeats = 1\n"
                        f"outdir = {tmp_path / 'bench'}\n")
        assert run(["bench", "--config", cfg]) == 0
        rows = (tmp_path / "bench" / "bench.csv").read_text().strip().splitlines()
        stages = {r.split(",")[2] for r in rows[1:]}
        assert stages == {"kernel_transform", "linear_solve", "total", "encode"}

    def test_bench_repeat_counts_do_not_change_numerics(self, tmp_path):
        # Identical configs apart from repeats produce the same stage set.
        for repeats, name in ((1, "b1"), (3, "b3")):
            cfg = write_cfg(tmp_path / f"{name}.cfg",
                            SYNTH_KEYS + f"bits_list = 16\nrepeats = {repeats}\n"
                            f"outdir = {tmp_path / name}\n")
            assert run(["bench", "--config", cfg]) == 0
        rows1 = (tmp_path / "b1" / "bench.csv").read_text().strip().splitlines()
        rows3 = (tmp_path / "b3" / "bench.csv").read_text().strip().splitlines()
        assert [r.rsplit(",", 1)[0] for r in rows1] == [r.rsplit(",", 1)[0] for r in rows3]

    def test_sdh_bench_times_the_trainer(self, tmp_path):
        cfg = write_cfg(tmp_path / "bench.cfg",
                        SYNTH_KEYS + "method = sdh\nbits_list = 16\nrepeats = 1\niters = 2\n"
                        f"outdir = {tmp_path / 'bench'}\n")
        assert run(["bench", "--config", cfg]) == 0
        rows = (tmp_path / "bench" / "bench.csv").read_text().strip().splitlines()
        assert [r.rsplit(",", 1)[0] for r in rows[1:]] == [
            "sdh,16,kernel_transform", "sdh,16,train", "sdh,16,total", "sdh,16,encode"]

    def test_synth_round_trips_through_csv_loader(self, tmp_path):
        cfg = write_cfg(tmp_path / "synth.cfg",
                        "classes = 3\nper_class = 4\ndim = 5\nspread = 0.2\n"
                        f"data_seed = 9\noutdir = {tmp_path / 'synth'}\n")
        assert run(["synth", "--config", cfg]) == 0
        loaded = dataset.load_csv(tmp_path / "synth" / "features.csv",
                                  tmp_path / "synth" / "labels.csv")
        reference = dataset.synth_blobs(3, 4, 5, 0.2, seed=9)
        assert loaded.sample_count == 12
        assert np.abs(loaded.features - reference.features).max() < 1e-12
        assert np.array_equal(loaded.labels, reference.labels)


def test_mnist_route_end_to_end(tmp_path, idx_pair):
    rng = np.random.default_rng(21)
    # 10 classes, 8 samples each, one random pixel prototype per class so
    # the class directions survive unit normalization.
    labels = np.repeat(np.arange(10, dtype=np.uint8), 8)
    protos = rng.integers(0, 200, (10, 3, 3))
    noise = rng.integers(0, 20, (80, 3, 3))
    images = np.clip(protos[labels] + noise, 0, 255).astype(np.uint8)
    images_path, labels_path = idx_pair(images, labels)
    train_cfg = write_cfg(tmp_path / "train.cfg",
                          f"source = mnist\nimages = {images_path}\nlabels = {labels_path}\n"
                          "anchors = 40\nsigma = 0.4\nmethod = fsdh\nbits = 16\n"
                          f"outdir = {tmp_path / 'run'}\n")
    assert run(["train", "--config", train_cfg]) == 0
    eval_cfg = write_cfg(tmp_path / "eval.cfg",
                         f"model = {tmp_path / 'run' / 'model.fsdh'}\n"
                         f"db_source = mnist\ndb_images = {images_path}\ndb_labels = {labels_path}\n"
                         f"query_source = mnist\nquery_images = {images_path}\n"
                         f"query_labels = {labels_path}\nquery_limit = 20\n"
                         f"outdir = {tmp_path / 'eval'}\n")
    assert run(["eval", "--config", eval_cfg]) == 0
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "eval" / "summary.txt").read_text().splitlines())
    assert float(summary["map"]) > 0.9
    assert summary["query_count"] == "20"


def test_csv_route_end_to_end(tmp_path):
    synth_cfg = write_cfg(tmp_path / "synth.cfg",
                          "classes = 4\nper_class = 25\ndim = 6\nspread = 0.2\n"
                          f"data_seed = 8\noutdir = {tmp_path / 'data'}\n")
    assert run(["synth", "--config", synth_cfg]) == 0
    features = tmp_path / "data" / "features.csv"
    labels = tmp_path / "data" / "labels.csv"
    train_cfg = write_cfg(tmp_path / "train.cfg",
                          f"source = csv\nfeatures = {features}\nlabels = {labels}\n"
                          "anchors = 30\nsigma = 0.4\nmethod = fsdh\nbits = 16\n"
                          f"outdir = {tmp_path / 'run'}\n")
    assert run(["train", "--config", train_cfg]) == 0
    eval_cfg = write_cfg(tmp_path / "eval.cfg",
                         f"model = {tmp_path / 'run' / 'model.fsdh'}\n"
                         f"db_source = csv\ndb_features = {features}\ndb_labels = {labels}\n"
                         f"query_source = csv\nquery_features = {features}\n"
                         f"query_labels = {labels}\n"
                         f"outdir = {tmp_path / 'eval'}\n")
    assert run(["eval", "--config", eval_cfg]) == 0
    summary = dict(line.split("=", 1) for line in
                   (tmp_path / "eval" / "summary.txt").read_text().splitlines())
    assert float(summary["precision_at_radius"]) > 0.9


def test_config_file_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    assert run(["train", "--config", str(bad)]) == 2
    assert "error [config]" in capsys.readouterr().err


def test_inputs_are_not_mutated(tmp_path):
    features = tmp_path / "features.csv"
    features.write_text("1,2\n3,4\n5,6\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n0\n")
    before = (features.read_bytes(), labels.read_bytes())
    cfg = write_cfg(tmp_path / "train.cfg",
                    f"source = csv\nfeatures = {features}\nlabels = {labels}\n"
                    "normalize = unit_norm\nanchors = 3\nsigma = 0.4\n"
                    f"method = fsdh\nbits = 2\noutdir = {tmp_path / 'run'}\n")
    assert run(["train", "--config", cfg]) == 0
    assert (features.read_bytes(), labels.read_bytes()) == before


@pytest.mark.parametrize("method", ["fsdh", "sdh"])
def test_cli_and_library_build_the_same_model(tmp_path, method):
    iters = "iters = 2\n" if method == "sdh" else ""
    cfg = write_cfg(tmp_path / "train.cfg",
                    SYNTH_KEYS + f"method = {method}\nbits = 16\n{iters}seed = 5\n"
                    f"outdir = {tmp_path / 'run'}\n")
    assert run(["train", "--config", cfg]) == 0

    data = dataset.synth_blobs(4, 30, 8, 0.2, seed=3)
    kmap = kernelmap.fit_anchors(data, 24, 0.4, 5, normalize="unit_norm")
    features = kernelmap.transform(kmap, data.features)
    if method == "fsdh":
        projection, class_codes = fsdh.train_fsdh(features, data.labels, 4, 16)
    else:
        state, _ = sdh.train_sdh(features, data.labels, 4, 16, lam=1.0, nu=1e-5,
                                 max_iters=2, seed=5, solver="dcc", sweeps=3)
        projection, class_codes = state.projection, None
    model = HashModel(kernel=kmap, projection=projection, class_codes=class_codes, lam=1.0,
                      trained_on=DatasetFingerprint(120, 8, 4, 5))
    save_model(model, tmp_path / "library.fsdh")
    assert ((tmp_path / "run" / "model.fsdh").read_bytes()
            == (tmp_path / "library.fsdh").read_bytes())


class TestLimit:
    def csv_train_cfg(self, tmp_path, extra=""):
        # 200 samples with the classes interleaved, so any prefix of 4 or
        # more samples holds every class.
        data = dataset.synth_blobs(4, 50, 6, 0.2, seed=8)
        order = np.argsort(np.arange(200) % 50, kind="stable")
        np.savetxt(tmp_path / "features.csv", data.features[:, order].T, delimiter=",")
        np.savetxt(tmp_path / "labels.csv", data.labels[order][:, None], fmt="%d")
        return write_cfg(tmp_path / "train.cfg",
                         f"source = csv\nfeatures = {tmp_path / 'features.csv'}\n"
                         f"labels = {tmp_path / 'labels.csv'}\n"
                         "anchors = 30\nsigma = 0.4\nmethod = sdh\nbits = 16\niters = 1\n"
                         f"{extra}outdir = {tmp_path / 'run'}\n")

    def test_csv_source_honours_limit(self, tmp_path):
        cfg = self.csv_train_cfg(tmp_path, "limit = 50\n")
        assert run(["train", "--config", cfg]) == 0
        assert load_model(tmp_path / "run" / "model.fsdh").trained_on.sample_count == 50
        assert "samples=50" in (tmp_path / "run" / "train_log.txt").read_text()

    def test_csv_source_rejects_zero_limit(self, tmp_path, capsys):
        # A limit below one is a config error, raised before any output.
        cfg = self.csv_train_cfg(tmp_path, "limit = 0\n")
        assert run(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error [config]: key 'limit' must be a positive integer, got 0" in err
        assert not (tmp_path / "run").exists()

    def test_eval_limits_each_role_by_its_own_key(self, tmp_path):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"method = fsdh\nbits = 16\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 0
        cfg = write_cfg(tmp_path / "eval.cfg", "classes = 4\nper_class = 30\n"
                        "dim = 8\nspread = 0.2\ndata_seed = 3\n")
        out = tmp_path / "eval"
        assert run(["eval", "--config", cfg, "--set", f"model={tmp_path / 'run' / 'model.fsdh'}",
                    "--set", "db_limit=100", "--set", "query_limit=50",
                    "--outdir", str(out)]) == 0
        summary = dict(line.split("=", 1) for line in
                       (out / "summary.txt").read_text().splitlines())
        assert summary["database_size"] == "100"
        assert summary["query_count"] == "50"
        recorded = (out / "config.txt").read_text().splitlines()
        assert {"db_limit = 100", "query_limit = 50", "db_source = synth",
                "query_source = synth"} <= set(recorded)

    def test_eval_refuses_unprefixed_dataset_keys_that_the_roles_override(self, tmp_path,
                                                                           capsys):
        # This run exited 0 and recorded `source = mnist` and `limit = 7` in
        # config.txt, while it evaluated 20 synth database items and 10
        # synth queries.
        out = tmp_path / "eval"
        assert run(["eval", "--set", "db_source=synth", "--set", "query_source=synth",
                    "--set", "source=mnist", "--set", "limit=7", "--set", "db_limit=20",
                    "--set", "query_limit=10", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]: ")
        for key in ("limit", "source"):
            assert f"key {key!r} is read by 'train'" in err, key
        assert not out.exists()

    @pytest.mark.parametrize("command, keys", [
        (["train"], ""),
        (["bench"], "bits_list = 16\nrepeats = 1\n"),
        (["figures", "bitscale"], "bits_list = 16\ntest_per_class = 5\niters = 1\n"),
        (["figures", "losses"], "bits_list = 16\niters = 1\n"),
    ], ids=["train", "bench", "figures bitscale", "figures losses"])
    def test_training_split_missing_a_class_is_a_dataset_error(self, tmp_path, capsys,
                                                              command, keys):
        # The blobs are class-ordered, so the first 30 samples are all class 0.
        # `bench`, `bitscale` and `losses` used to train on class 0 alone.
        cfg = write_cfg(tmp_path / "c.cfg",
                        SYNTH_KEYS + f"limit = 30\n{keys}"
                        f"outdir = {tmp_path / 'run'}\n")
        assert run(command + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error [dataset]: class 1 has no samples" in err

    def test_mnist_limit_is_applied_once(self, idx_pair, monkeypatch):
        # The loader truncates the pixels; `truncate` used to take the
        # subset again, checking every value of it a second time.
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 10, 12, dtype=np.uint8)
        images_path, labels_path = idx_pair(
            rng.integers(0, 256, (12, 2, 2), dtype=np.uint8), labels)
        built = []
        check = dataset.RawDataset.__post_init__
        monkeypatch.setattr(dataset.RawDataset, "__post_init__",
                            lambda data: (built.append(data), check(data))[1])
        data = cli._load_dataset({"source": "mnist", "images": str(images_path),
                                  "labels": str(labels_path), "limit": 5})
        assert len(built) == 1 and built[0] is data
        assert np.array_equal(data.labels, labels[:5])

    def test_non_integer_limit_is_a_config_error(self, tmp_path, capsys):
        assert run(["train", "--set", "limit=abc", "--outdir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and "'limit'" in err


class TestConfigValidation:
    def test_sdh_defaults_match_the_library(self, monkeypatch):
        # Each config default, typed by its own parser and passed as every
        # sdh run passes it, must be `train_sdh`'s default, so the two cannot
        # drift.
        keys = ("lambda", "nu", "iters", "sweeps", "seed", "solver")
        cfg = {key: cli.SCHEMA[key][1](cli.SCHEMA[key][0]) for key in keys}
        parameters = inspect.signature(sdh.train_sdh).parameters
        options = {}

        def record(*args, **kwargs):
            options.update(kwargs)
            raise StopIteration

        monkeypatch.setattr(sdh, "train_sdh", record)
        with pytest.raises(StopIteration):
            cli._train_model("sdh", None, None, dataset.synth_blobs(2, 3, 4, 0.2, seed=1), 4, cfg)
        assert len(options) == len(keys)
        for name, value in options.items():
            assert parameters[name].default == value, name

    @pytest.mark.parametrize("command, key, value", [
        (["train"], "method", "fsdhh"),
        (["train"], "solver", "dccc"),
        (["eval"], "zero_retrieval", "skp"),
        (["figures", "bitscale"], "bitscale_methods", "fsdh,sdhh"),
    ])
    def test_bad_option_fails_before_any_data_loads(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "run"
        assert run(command + ["--set", f"{key}={value}", "--set", "source=mnist",
                              "--set", "model=/nonexistent/model", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err
        assert repr(value.split(",")[-1]) in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        (["bench"], "repeats", "0"),
        (["bench"], "repeats", "-2"),
        (["bench"], "bits_list", ""),
        (["figures", "bitscale"], "test_per_class", "-1"),
        (["figures", "bitscale"], "test_per_class", "0"),
        (["figures", "bitscale"], "bits_list", ""),
        (["figures", "losses"], "bits_list", ""),
        (["figures", "bitscale"], "bitscale_methods", ","),
        (["figures", "fig1"], "fig1_seeds", "0"),
        (["figures", "fig1"], "fig1_seeds", "-3"),
        (["train"], "iters", "0"),
        (["train"], "sweeps", "0"),
        (["train"], "bits", "0"),
        (["train"], "anchors", "0"),
        (["train"], "classes", "0"),
        (["train"], "per_class", "0"),
        (["train"], "dim", "0"),
        (["train"], "sigma", "0"),
        (["train"], "sigma", "-1"),
        (["train"], "lambda", "-1"),
        (["train"], "nu", "-1"),
        (["figures", "fig1"], "bits", "-8"),
        (["figures", "bitscale"], "radius", "-1"),
        (["train"], "spread", "-1"),
        (["train"], "limit", "0"),
        (["train"], "limit", "-1"),
        (["figures", "losses"], "bits_list", "16,-8"),
        (["bench"], "bits_list", "0"),
    ])
    def test_non_positive_count_or_empty_list_fails_before_any_data_loads(
            self, tmp_path, capsys, command, key, value):
        # `bench` with repeats=0 wrote nan timings, `test_per_class=-1` trained
        # on one sample per class, an empty list wrote a header-only CSV, and
        # `fig1_seeds=0` wrote no trajectory. A count of zero, a sigma of zero,
        # a negative lambda, nu, radius or spread, a limit below one, or a
        # code length below one in `bits_list` wrote config.txt and failed
        # only in the library.
        out = tmp_path / "run"
        assert run(command + ["--set", f"{key}={value}", "--set", "source=mnist",
                              "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(key for key, (_, parse) in cli.SCHEMA.items()
                                           if parse is not str))
    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_malformed_value_fails_before_any_output(self, tmp_path, capsys, command, key):
        # `train --set radius=x` used to exit 0, and `bits=abc` failed only
        # after writing config.txt. Every key is checked, read or not.
        out = tmp_path / "run"
        assert run([command, "--set", f"{key}=?", "--outdir", str(out)]) == 2
        assert f"error [config]: key {key!r} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(
        key for key, (_, parse) in cli.SCHEMA.items()
        if parse in (cli._number, cli._positive_number, cli._non_negative_number)))
    def test_non_finite_number_fails_before_any_output(self, tmp_path, capsys, key, value):
        # `sigma=nan` used to fail as `error [train]` after the transform ran,
        # and `lambda=inf` trained an fsdh model, each leaving config.txt behind.
        out = tmp_path / "run"
        assert run(["train", "--set", f"{key}={value}", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error [config]: key {key!r} must be a finite number, got {value!r}" in err
        assert not out.exists()

    # `reader` is a run that does read the key.
    @pytest.mark.parametrize("command, key, value, reader", [
        (["train"], "db_limit", "50", "eval"),
        (["train"], "model", "/nonexistent/model", "eval"),
        (["figures", "fig1"], "query_source", "synth", "eval"),
        (["bench"], "db_source", "synth", "eval"),
        (["synth"], "query_limit", "5", "eval"),
        (["figures", "fig1"], "nu", "1", "train"),
        (["figures", "fig1"], "solver", "branch_and_bound", "train"),
        (["figures", "fig1"], "per_class", "5", "train"),
        (["figures", "fig1"], "dim", "3", "train"),
        (["figures", "bitscale"], "zero_retrieval", "skip", "eval"),
        (["eval"], "bits", "64", "train"),
        (["eval"], "source", "synth", "train"),
        (["eval"], "limit", "5", "train"),
        (["eval"], "features", "/nope.csv", "train"),
        (["synth"], "anchors", "5", "train"),
    ])
    def test_keys_the_run_does_not_read_fail(self, tmp_path, capsys, command, key, value,
                                             reader):
        # `train --set db_limit=50` used to train on every sample. `figures
        # fig1 --set nu=1` used to write the CSVs of nu = 0, and `eval --set
        # bits=64` to keep the model's bits, each exiting 0 with the key in
        # config.txt.
        out = tmp_path / "run"
        assert run(command + ["--set", f"{key}={value}", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error [config]: key {key!r} is read by" in err
        assert repr(reader) in err and f"not by {command[-1]!r}" in err
        assert not out.exists()

    # `settings` first give the deciding settings, if any, then the keys
    # they leave unread.
    @pytest.mark.parametrize("command, settings, unread, rule", [
        (["train"], ["method=fsdh"], ["nu=1", "solver=branch_and_bound", "sweeps=7"],
         "under method = sdh, not method = fsdh"),
        (["bench"], [], ["iters=2"], "under method = sdh, not method = fsdh"),
        (["train"], [], ["images=/nonexistent.idx"], "under source = mnist, not source = synth"),
        (["train"], [], ["features=/nope.csv"], "under source = csv, not source = synth"),
        (["figures", "biasmap"], [], ["labels=/nope.csv"],
         "under source = mnist or csv, not source = synth"),
        (["figures", "bitscale"], ["bitscale_methods=fsdh"], ["nu=3", "iters=9"],
         "under bitscale_methods holding sdh, not bitscale_methods = fsdh"),
        (["figures", "losses"], ["source=csv"], ["per_class=20"],
         "under source = synth, not source = csv"),
        (["eval"], ["db_source=mnist", "query_source=csv"], ["classes=4"],
         "under db_source or query_source = synth, not db_source = mnist, query_source = csv"),
        (["eval"], ["db_source=csv"], ["db_images=/nonexistent.idx"],
         "under db_source = mnist, not db_source = csv"),
        (["eval"], ["query_source=mnist"], ["query_features=/nope.csv"],
         "under query_source = csv, not query_source = mnist"),
    ], ids=["train-fsdh-sdh-keys", "bench-fsdh-iters", "train-synth-images",
            "train-synth-features", "biasmap-synth-labels", "bitscale-fsdh-sdh-keys",
            "losses-csv-blob", "eval-no-synth-blob", "eval-db-csv-db_images",
            "eval-query-mnist-features"])
    def test_keys_the_settings_leave_unread_fail(self, tmp_path, capsys, command, settings,
                                                 unread, rule):
        # Each exited 0 and recorded its keys in config.txt: fsdh never reads
        # SDH's keys, and a synth run never opened the files it was given.
        out = tmp_path / "run"
        assert run(command + set_flags(settings + unread) + ["--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]: ")
        for key in (setting.split("=")[0] for setting in unread):
            assert f"key {key!r} is read {rule}" in err, key
        assert not out.exists()

    @pytest.mark.parametrize("command, settings", [
        (["train"], ["method=sdh", "nu=1", "iters=1"]),
        (["bench"], ["method=sdh", "solver=branch_and_bound", "bits_list=4", "repeats=1"]),
        (["figures", "losses"], ["nu=1", "iters=1", "bits_list=16"]),
        (["figures", "bitscale"], ["bitscale_methods=sdh", "nu=1", "iters=1", "bits_list=16",
                                   "test_per_class=1"]),
    ], ids=["train-sdh", "bench-sdh", "losses", "bitscale-sdh"])
    def test_keys_read_at_the_runs_settings_are_accepted(self, tmp_path, command, settings):
        out = tmp_path / "run"
        assert run(command + set_flags(["per_class=4", "anchors=20", *settings])
                   + ["--outdir", str(out)]) == 0
        recorded = set((out / "config.txt").read_text().splitlines())
        assert {setting.replace("=", " = ") for setting in settings} <= recorded

    @pytest.mark.parametrize("command, settings", [
        (["train"], []),
        (["bench"], ["bits_list=16", "repeats=1"]),
        (["figures", "bitscale"], ["bits_list=16", "bitscale_methods=fsdh", "test_per_class=1"]),
        (["figures", "losses"], ["bits_list=16", "iters=1"]),
        (["figures", "biasmap"], ["bits=16"]),
    ], ids=["train", "bench", "bitscale", "losses", "biasmap"])
    def test_more_anchors_than_samples_is_a_kernel_error(self, tmp_path, capsys, command,
                                                         settings):
        # `bench --set per_class=20 --set anchors=5000` ran 200 anchors, and
        # its config.txt said 5000; only `train` refused.
        out = tmp_path / "run"
        assert run(command + set_flags(["per_class=2", "anchors=50", *settings])
                   + ["--outdir", str(out)]) == 2
        assert "error [kernel]: anchor_count 50 exceeds sample count" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.txt"]
        assert "anchors = 50" in (out / "config.txt").read_text().splitlines()

    def test_default_bitscale_records_the_anchors_it_uses(self, tmp_path, capsys, monkeypatch):
        # The default bundle ran 700 anchors, and its config.txt said 1000.
        # The run stops at its first training.
        used = []

        def stop(method, kmap, *args):
            used.append(kmap.anchor_count)
            raise StopIteration

        monkeypatch.setattr(cli, "_train_model", stop)
        out = tmp_path / "bitscale"
        assert run(["figures", "bitscale", "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error [figures]")
        assert used == [700]
        assert "anchors = 700" in (out / "config.txt").read_text().splitlines()

    def test_key_set_twice_in_a_config_file_fails(self, tmp_path, capsys):
        # The second value used to win: this file trained at 64 bits.
        cfg = write_cfg(tmp_path / "train.cfg", SYNTH_KEYS + "bits = 16\nbits = 64\n")
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--outdir", str(out)]) == 2
        assert (f"error [config]: {cfg}: key 'bits' is set on line 9 and again on line 10"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(cli.READS))
    def test_every_key_in_config_txt_is_read(self, tmp_path, monkeypatch, capsys, idx_pair,
                                             name):
        # Each run at every choice of the settings that decide which keys it
        # reads: `method`, `bitscale_methods`, and each role's `source`, on a
        # tiny IDX pair and CSV pair of 60 samples of 16 dimensions. Every
        # variant completes and reads exactly the keys of its config.txt,
        # and together they read every key the run declares. `_load_dataset`
        # used to copy the config into a plain dict, which hid its reads,
        # and then read each unprefixed dataset key for `eval` as a fallback
        # that config.txt did not hold.
        reads = cli.READS[name]
        labels = np.repeat(np.arange(10), 6)
        rng = np.random.default_rng(23)
        images, idx_labels = idx_pair(rng.integers(1, 256, (60, 4, 4)), labels)
        np.savetxt(tmp_path / "features.csv", rng.standard_normal((60, 16)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", labels[:, None], fmt="%d")
        files = {"mnist": {"images": images, "labels": idx_labels},
                 "csv": {"features": tmp_path / "features.csv",
                         "labels": tmp_path / "labels.csv"}}

        def source(role, value):
            if value == "synth":
                return {role + "source": value, "per_class": "6"}
            return {role + "source": value,
                    **{role + key: str(path) for key, path in files[value].items()}}

        # One list of choices per deciding setting; sdh runs one iteration.
        choices = []
        if "method" in reads:
            choices.append([{"method": "fsdh"}, {"method": "sdh", "iters": "1"}])
        if "bitscale_methods" in reads:
            choices.append([{"bitscale_methods": methods,
                             **({"iters": "1"} if "sdh" in methods.split(",") else {})}
                            for methods in ("fsdh", "sdh", "fsdh,sdh")])
        for role in ("", "db_", "query_"):
            if role + "source" in reads:
                choices.append([source(role, value) for value in ("synth", "mnist", "csv")])
        argv = ["figures", name] if name in cli.FIGURES else [name]
        argv += set_flags(SMALL_RUNS[name])
        if name == "eval":
            model = tmp_path / "model"
            assert run(["train", *set_flags(SMALL_RUNS["train"]), "--set", "per_class=6",
                        "--outdir", str(model)]) == 0
            argv += ["--set", f"model={model / 'model.fsdh'}"]
        resolve = cli.resolve_config
        read_by_any = set()
        for i, combination in enumerate(itertools.product(*choices)):
            settings = {key: value for choice in combination for key, value in choice.items()}
            out = tmp_path / f"run{i}"
            read = set()
            with monkeypatch.context() as patch:
                patch.setattr(cli, "resolve_config",
                              lambda raw, name: RecordedConfig(resolve(raw, name), read))
                code = run([*argv, *set_flags(f"{key}={value}" for key, value in settings.items()),
                            "--outdir", str(out)])
            assert (code, capsys.readouterr().err) == (0, ""), settings
            read_by_any |= read
            written = {line.split(" = ")[0]
                       for line in (out / "config.txt").read_text().splitlines()}
            assert written == read, (settings, written ^ read)
        assert reads <= read_by_any, reads - read_by_any

    @pytest.mark.parametrize("key", ["normalize", "db_normalize", "query_normalize"])
    def test_eval_takes_the_normalization_from_the_model(self, tmp_path, capsys, key):
        # `eval --set normalize=none` used to encode with a normalization
        # other than the model's and exit 0, at MAP 0.55 instead of 1.0.
        out = tmp_path / "run"
        assert run(["eval", "--set", f"{key}=none", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and repr(key) in err
        assert not out.exists()

    def test_figures_still_centre(self, tmp_path):
        out = tmp_path / "bias"
        assert run(["figures", "biasmap", *BIASMAP_DATA, "--set", "anchors=12",
                    "--set", "normalize=zero_mean_unit_norm", "--outdir", str(out)]) == 0
        assert "normalize = zero_mean_unit_norm" in (out / "config.txt").read_text()
        assert (out / "traces.txt").exists()

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--set", "bitz=64", "--set", "methd=sdh",
                    "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and "'bitz'" in err and "'methd'" in err
        assert not out.exists()

    def test_readme_documents_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
        assert "`db_`" in section and "`query_`" in section
        for key in cli.SCHEMA:
            base = key.removeprefix("db_").removeprefix("query_")
            assert f"`{base}`" in section, key

    def test_unknown_key_in_a_config_file_is_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"query_sorce = synth\noutdir = {tmp_path / 'run'}\n")
        assert run(["eval", "--config", cfg]) == 2
        assert "'query_sorce'" in capsys.readouterr().err
