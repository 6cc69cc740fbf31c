import numpy as np
import pytest

from sdhkit import cli, dataset, fsdh, kernelmap, sdh
from sdhkit.model import DatasetFingerprint, HashModel, load_model, save_model


SYNTH_KEYS = ("source = synth\nclasses = 4\nper_class = 30\ndim = 8\n"
              "spread = 0.2\ndata_seed = 3\nanchors = 24\nsigma = 0.4\n")


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
                        SYNTH_KEYS + f"method = fsdh\nbits = 16\noutdir = {tmp_path / 'a'}\n")
        assert run(["train", "--config", cfg, "--set", "bits=32",
                    "--outdir", str(tmp_path / "b")]) == 0
        model = load_model(tmp_path / "b" / "model.fsdh")
        assert model.bits == 32
        copied = (tmp_path / "b" / "config.txt").read_text()
        assert "bits = 32" in copied


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
                        "lambda = 1.0\ndata_seed = 0\nfig1_seeds = 2\nfig1_iters = 3\n"
                        f"outdir = {tmp_path / 'fig1'}\n")
        assert run(["figures", "fig1", "--config", cfg]) == 0
        files = sorted(p.name for p in (tmp_path / "fig1").glob("fig1_*.csv"))
        assert len(files) == 5  # 2 seeds x 2 solvers + reference
        reference = (tmp_path / "fig1" / "fig1_reference.csv").read_text().splitlines()
        lam, bits, classes = 1.0, 16, 10
        assert float(reference[1]) == pytest.approx(classes * lam / (bits + lam), abs=1e-9)
        assert (tmp_path / "fig1" / "notes.txt").exists()

    def test_default_seed_count_matches_protocol(self):
        assert cli.DEFAULTS["fig1_seeds"] == "10"

    def test_bitscale_trend(self, tmp_path):
        cfg = write_cfg(tmp_path / "bs.cfg",
                        "source = synth\nclasses = 4\nper_class = 60\ndim = 8\n"
                        "spread = 0.2\ndata_seed = 3\nanchors = 32\nsigma = 0.4\n"
                        "bits_list = 16,32\ntest_per_class = 10\n"
                        "bitscale_methods = fsdh\n"
                        f"outdir = {tmp_path / 'bs'}\n")
        assert run(["figures", "bitscale", "--config", cfg]) == 0
        rows = (tmp_path / "bs" / "bitscale.csv").read_text().strip().splitlines()
        assert rows[0] == "method,bits,train_seconds,precision_at_radius"
        assert len(rows) == 3
        precisions = [float(r.split(",")[3]) for r in rows[1:]]
        assert max(precisions) - min(precisions) <= 0.03

    def test_losses_bundle(self, tmp_path):
        cfg = write_cfg(tmp_path / "losses.cfg",
                        SYNTH_KEYS + "losses_bits_list = 16,32\niters = 2\n"
                        f"outdir = {tmp_path / 'losses'}\n")
        assert run(["figures", "losses", "--config", cfg]) == 0
        rows = (tmp_path / "losses" / "losses.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            _, sdh_w, _, fsdh_w, _ = row.split(",")
            assert float(fsdh_w) <= float(sdh_w)

    def test_biasmap_blocks_equal_bits(self, tmp_path):
        cfg = write_cfg(tmp_path / "bias.cfg",
                        "source = synth\nclasses = 3\nper_class = 5\ndim = 6\n"
                        "spread = 0.1\ndata_seed = 1\nbiasmap_anchors = 12\nsigma = 0.4\n"
                        "bits = 8\n"
                        f"outdir = {tmp_path / 'bias'}\n")
        assert run(["figures", "biasmap", "--config", cfg]) == 0
        btb = np.loadtxt(tmp_path / "bias" / "btb_matrix.csv", delimiter=",")
        expected = np.kron(np.eye(3), np.full((5, 5), 8.0))
        assert np.array_equal(btb, expected)
        assert (tmp_path / "bias" / "k_matrix.csv").exists()


class TestBenchAndSynth:
    def test_bench_writes_stage_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "bench.cfg",
                        SYNTH_KEYS + "bits_list = 16,32\nrepeats = 1\n"
                        f"outdir = {tmp_path / 'bench'}\n")
        assert run(["bench", "--config", cfg]) == 0
        rows = (tmp_path / "bench" / "bench.csv").read_text().strip().splitlines()
        stages = {r.split(",")[2] for r in rows[1:]}
        assert stages == {"kernel_transform", "code_construction", "linear_solve", "total"}

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
            "sdh,16,kernel_transform", "sdh,16,train", "sdh,16,total"]

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
    cfg = write_cfg(tmp_path / "train.cfg",
                    SYNTH_KEYS + f"method = {method}\nbits = 16\niters = 2\nseed = 5\n"
                    f"outdir = {tmp_path / 'run'}\n")
    assert run(["train", "--config", cfg]) == 0

    data = dataset.normalize(dataset.synth_blobs(4, 30, 8, 0.2, seed=3), "unit_norm")
    kmap = kernelmap.fit_anchors(data, 24, 0.4, 5)
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
        cfg = self.csv_train_cfg(tmp_path, "limit = 0\n")
        assert run(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error [dataset]" in err and "limit=0" in err

    def test_eval_falls_back_to_unprefixed_limit(self, tmp_path):
        # Every dataset key resolves one way: its db_/query_ form, or else
        # the unprefixed key. `limit` used to be read in its prefixed form only.
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"method = fsdh\nbits = 16\noutdir = {tmp_path / 'run'}\n")
        assert run(["train", "--config", cfg]) == 0
        assert run(["eval", "--config", cfg, "--set", f"model={tmp_path / 'run' / 'model.fsdh'}",
                    "--set", "limit=50", "--set", "db_limit=100",
                    "--outdir", str(tmp_path / "eval")]) == 0
        summary = dict(line.split("=", 1) for line in
                       (tmp_path / "eval" / "summary.txt").read_text().splitlines())
        assert summary["database_size"] == "100"
        assert summary["query_count"] == "50"

    def test_non_integer_limit_is_a_config_error(self, tmp_path, capsys):
        assert run(["train", "--set", "limit=abc", "--outdir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and "'limit'" in err


class TestConfigValidation:
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
        (["figures", "losses"], "losses_bits_list", ""),
    ])
    def test_non_positive_count_or_empty_list_fails_before_any_data_loads(
            self, tmp_path, capsys, command, key, value):
        # `bench` with repeats=0 wrote nan timings, `test_per_class=-1` trained
        # on one sample per class, and an empty list wrote a header-only CSV.
        out = tmp_path / "run"
        assert run(command + ["--set", f"{key}={value}", "--set", "source=mnist",
                              "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and repr(key) in err
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("command, key, value", [
        (["train"], "db_limit", "50"),
        (["train"], "model", "/nonexistent/model"),
        (["figures", "fig1"], "query_source", "synth"),
        (["bench"], "db_normalize", "none"),
        (["synth"], "query_limit", "5"),
    ])
    def test_eval_only_keys_fail_outside_eval(self, tmp_path, capsys, command, key, value):
        # `train --set db_limit=50` used to train on every sample.
        out = tmp_path / "run"
        assert run(command + ["--set", f"{key}={value}", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and repr(key) in err and "'eval'" in err
        assert not out.exists()

    def test_unknown_keys_are_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--set", "bitz=64", "--set", "methd=sdh",
                    "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [config]" in err and "'bitz'" in err and "'methd'" in err
        assert not out.exists()

    def test_unknown_key_in_a_config_file_is_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "train.cfg",
                        SYNTH_KEYS + f"query_sorce = synth\noutdir = {tmp_path / 'run'}\n")
        assert run(["eval", "--config", cfg]) == 2
        assert "'query_sorce'" in capsys.readouterr().err
