"""Batch command-line front end.

Subcommands: train, eval, figures, bench, synth. Every command reads a flat
key = value config file (flags override file values), copies the resolved
config into its output directory so runs are replayable, and exits nonzero
with a stage-tagged message on failure. See the README for the config
schema.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import biqp, codes, dataset, evaluate, fsdh, index, kernelmap, sdh
from .model import DatasetFingerprint, HashModel, encode, load_model, save_model

FIGURES = ("fig1", "bitscale", "losses", "biasmap")
METHODS = ("fsdh", "sdh")

DEFAULTS = {
    "source": "synth",
    "limit": "",
    "normalize": "unit_norm",
    "classes": "10",
    "per_class": "100",
    "dim": "16",
    "spread": "0.3",
    "data_seed": "7",
    "anchors": "1000",
    "sigma": "0.4",
    "seed": "0",
    "method": "fsdh",
    "bits": "32",
    "lambda": "1.0",
    "nu": "1e-5",
    "iters": "5",
    "solver": "dcc",
    "sweeps": "3",
    "radius": "2",
    "zero_retrieval": "zero",
    "repeats": "3",
    "bits_list": "32,64,128,256,512",
    "bitscale_methods": "fsdh,sdh",
    "test_per_class": "30",
    "fig1_seeds": "10",
    "fig1_iters": "20",
    "fig1_bits": "16",
    "fig1_samples": "10",
    "losses_bits_list": "16,32,64",
    "biasmap_anchors": "100",
}

# The keys that describe one dataset; `eval` reads one such block per role,
# with the `db_` and `query_` prefixes, each key falling back to its
# unprefixed form.
DATASET_KEYS = ("source", "limit", "normalize", "images", "labels", "features")
EVAL_ONLY_KEYS = frozenset(("model",)).union(
    role + key for role in ("db_", "query_") for key in DATASET_KEYS)
KNOWN_KEYS = frozenset(DEFAULTS).union(("outdir", "images", "labels", "features"),
                                       EVAL_ONLY_KEYS)
CHOICES = {
    "method": METHODS,
    "solver": biqp.SOLVERS,
    "zero_retrieval": evaluate.ZERO_RETRIEVAL_MODES,
}


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> dict[str, str]:
    cfg = dict(DEFAULTS)
    if args.config:
        with stage("config"):
            cfg.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise StageError("config", f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    if getattr(args, "outdir", None):
        cfg["outdir"] = args.outdir
    _check_config(cfg, args.command)
    return cfg


def _check_config(cfg: dict[str, str], command: str) -> None:
    """Reject misspelled keys, option values and keys the command does not
    read, before any data loads."""
    unknown = sorted(set(cfg) - KNOWN_KEYS)
    if unknown:
        raise StageError("config", f"unknown config key(s): {', '.join(map(repr, unknown))}")
    for key, choices in CHOICES.items():
        _check_choice(key, cfg[key], choices)
    for method in _bitscale_methods(cfg):
        _check_choice("bitscale_methods", method, METHODS)
    unread = sorted(set(cfg) & EVAL_ONLY_KEYS) if command != "eval" else []
    if unread:
        raise StageError("config", f"key(s) {', '.join(map(repr, unread))} "
                                   f"are read by 'eval' only, not by {command!r}")


def _check_choice(key: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise StageError("config",
                         f"key {key!r} must be one of {', '.join(choices)}, got {value!r}")


def _bitscale_methods(cfg: dict[str, str]) -> list[str]:
    return [m.strip() for m in cfg["bitscale_methods"].split(",") if m.strip()]


def _cfg_int(cfg, key):
    try:
        return int(cfg[key])
    except (KeyError, ValueError):
        raise StageError("config", f"key {key!r} must be an integer, got {cfg.get(key)!r}")


def _cfg_positive_int(cfg, key):
    value = _cfg_int(cfg, key)
    if value < 1:
        raise StageError("config", f"key {key!r} must be a positive integer, got {value}")
    return value


def _cfg_float(cfg, key):
    try:
        return float(cfg[key])
    except (KeyError, ValueError):
        raise StageError("config", f"key {key!r} must be a number, got {cfg.get(key)!r}")


def _cfg_int_list(cfg, key):
    try:
        values = [int(v) for v in cfg[key].split(",") if v.strip()]
    except (KeyError, ValueError):
        raise StageError("config", f"key {key!r} must be comma-separated integers")
    if not values:
        raise StageError("config", f"key {key!r} must list at least one integer")
    return values


def _sdh_options(cfg) -> dict:
    """Keyword arguments of `sdh.train_sdh` from the config."""
    return {"lam": _cfg_float(cfg, "lambda"), "nu": _cfg_float(cfg, "nu"),
            "max_iters": _cfg_int(cfg, "iters"), "seed": _cfg_int(cfg, "seed"),
            "solver": cfg["solver"], "sweeps": _cfg_int(cfg, "sweeps")}


def _require(cfg, key, stage_name="config"):
    value = cfg.get(key, "")
    if not value:
        raise StageError(stage_name, f"missing required config key {key!r}")
    return value


def _outdir(cfg) -> Path:
    out = Path(_require(cfg, "outdir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config_copy(cfg: dict[str, str], out: Path) -> None:
    with open(out / "config.txt", "w") as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]}\n")


def _load_dataset(cfg: dict[str, str], prefix: str = "") -> dataset.RawDataset:
    def key(k):
        return prefix + k

    # Each dataset key in its `prefix`ed form, or else in its unprefixed form.
    cfg = {**cfg, **{key(k): cfg.get(key(k), cfg.get(k, "")) for k in DATASET_KEYS}}
    source = cfg[key("source")]
    limit = _cfg_int(cfg, key("limit")) if cfg[key("limit")] else None
    with stage("dataset"):
        if source == "mnist":
            # The loader truncates the raw pixels before the float conversion.
            data = dataset.load_mnist(_require(cfg, key("images"), "dataset"),
                                      _require(cfg, key("labels"), "dataset"),
                                      limit=limit)
        elif source == "csv":
            data = dataset.load_csv(_require(cfg, key("features"), "dataset"),
                                    _require(cfg, key("labels"), "dataset"))
        elif source == "synth":
            data = dataset.synth_blobs(
                classes=_cfg_int(cfg, "classes"),
                per_class=_cfg_int(cfg, "per_class"),
                dim=_cfg_int(cfg, "dim"),
                spread=_cfg_float(cfg, "spread"),
                seed=_cfg_int(cfg, "data_seed"),
            )
        else:
            raise ValueError(f"unknown dataset source {source!r}")
        data = dataset.truncate(data, limit)
    mode = cfg[key("normalize")]
    if mode != "none":
        with stage("normalize"):
            data = dataset.normalize(data, mode)
    return data


def _train_model(method: str, kmap: kernelmap.KernelMap, features: np.ndarray,
                 data: dataset.RawDataset, bits: int,
                 options: dict) -> tuple[HashModel, float, list | None]:
    """Train `method` on the kernel features of `data` and assemble its model.

    Returns the model, the trainer's wall time in seconds, and the sdh
    objective trajectory (None for fsdh).
    """
    fingerprint = DatasetFingerprint(sample_count=data.sample_count, dim=data.dim,
                                     class_count=data.class_count, seed=options["seed"])
    start = time.perf_counter()
    if method == "fsdh":
        projection, class_codes = fsdh.train_fsdh(features, data.labels, data.class_count, bits)
        trajectory = None
    else:
        state, trajectory = sdh.train_sdh(features, data.labels, data.class_count, bits,
                                          **options)
        projection, class_codes = state.projection, None
    elapsed = time.perf_counter() - start
    model = HashModel(kernel=kmap, projection=projection, class_codes=class_codes,
                      lam=options["lam"], trained_on=fingerprint)
    return model, elapsed, trajectory


def cmd_train(cfg: dict[str, str]) -> int:
    out = _outdir(cfg)
    _write_config_copy(cfg, out)
    data = _load_dataset(cfg)
    method = cfg["method"]
    bits = _cfg_int(cfg, "bits")
    options = _sdh_options(cfg)

    with stage("dataset"):
        dataset.validate_training_labels(data)
    with stage("kernel"):
        kmap = kernelmap.fit_anchors(data, _cfg_int(cfg, "anchors"),
                                     _cfg_float(cfg, "sigma"), options["seed"])
    with stage("transform"):
        features = kernelmap.transform(kmap, data.features)

    log_lines = [f"method={method}", f"bits={bits}",
                 f"samples={data.sample_count}", f"classes={data.class_count}",
                 f"anchors={kmap.anchor_count}"]

    with stage("train"):
        model, elapsed, trajectory = _train_model(method, kmap, features, data, bits, options)
        if trajectory is not None:
            sdh.write_trajectory_csv(out / "trajectory.csv", trajectory)
            final = trajectory[-1]
            log_lines += [f"final_total={final.total!r}",
                          f"final_classification_term={final.classification_term!r}",
                          f"final_p_loss={final.p_loss!r}"]

    with stage("save"):
        save_model(model, out / "model.fsdh")
        log_lines.append(f"learning_time_s={elapsed:.3f}")
        (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    print(f"learning_time_s={elapsed:.3f}")
    print(f"model written to {out / 'model.fsdh'}")
    return 0


def cmd_eval(cfg: dict[str, str]) -> int:
    out = _outdir(cfg)
    _write_config_copy(cfg, out)
    with stage("model"):
        model = load_model(_require(cfg, "model", "model"))
    database = _load_dataset(cfg, prefix="db_")
    queries = _load_dataset(cfg, prefix="query_")
    with stage("encode"):
        db_codes = encode(model, database.features)
        query_codes = encode(model, queries.features)
    with stage("index"):
        code_index = index.CodeIndex(codes=db_codes, labels=database.labels)
    with stage("evaluate"):
        report = evaluate.evaluate_retrieval(
            code_index, query_codes, queries.labels,
            radius=_cfg_int(cfg, "radius"),
            zero_retrieval=cfg["zero_retrieval"])
    with stage("report"):
        fp = model.trained_on
        evaluate.write_summary(out / "summary.txt", {
            "precision_at_radius": repr(report.precision_at_radius),
            "recall_at_radius": repr(report.recall_at_radius),
            "map": repr(report.map),
            "radius": report.radius,
            "database_size": database.sample_count,
            "query_count": queries.sample_count,
            "model_samples": fp.sample_count,
            "model_dim": fp.dim,
            "model_classes": fp.class_count,
            "model_seed": fp.seed,
        })
        evaluate.write_pr_curve_csv(out / "pr_curve.csv", report.pr_curve)
    print(f"precision_at_radius={report.precision_at_radius:.4f} "
          f"recall_at_radius={report.recall_at_radius:.4f} map={report.map:.4f}")
    return 0


def _figure_fig1(cfg: dict[str, str], out: Path) -> None:
    bits = _cfg_int(cfg, "fig1_bits")
    classes = _cfg_int(cfg, "classes")
    samples = _cfg_int(cfg, "fig1_samples")
    lam = _cfg_float(cfg, "lambda")
    iters = _cfg_int(cfg, "fig1_iters")
    seeds = _cfg_int(cfg, "fig1_seeds")
    labels = np.arange(samples, dtype=np.int64) % classes
    rng = np.random.default_rng(_cfg_int(cfg, "data_seed"))
    features = rng.standard_normal((samples, samples))

    for solver in ("dcc", "exhaustive"):
        for s in range(seeds):
            _, trajectory = sdh.train_sdh(features, labels, classes, bits,
                                          lam=lam, nu=0.0, max_iters=iters,
                                          seed=s, solver=solver)
            sdh.write_trajectory_csv(out / f"fig1_{solver}_seed{s}.csv", trajectory)

    class_codes = codes.pick_class_codes(codes.sylvester(bits), classes)
    w = fsdh.optimal_weights(class_codes, lam)
    b = codes.expand_codes(class_codes, labels).astype(np.float64)
    y = sdh.one_hot(labels, classes)
    reference = float(((y - w.T @ b) ** 2).sum() + lam * (w ** 2).sum())
    with open(out / "fig1_reference.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["closed_form_objective"])
        writer.writerow([repr(reference)])
    (out / "notes.txt").write_text(
        "Objective: ||Y - W^T B||^2 + lambda*||W||^2 (bias term dropped, nu=0).\n"
        f"Random features, one sample per class, bits={bits}, classes={classes}, "
        f"samples={samples}, lambda={lam}.\n"
        "One trajectory CSV per (solver, seed); the reference value is the "
        "closed-form optimum from the Hadamard class codes.\n")


def _split_train_test(data: dataset.RawDataset, test_per_class: int):
    train_cols, test_cols = [], []
    for cls in range(data.class_count):
        cols = np.flatnonzero(data.labels == cls)
        test_cols.append(cols[:test_per_class])
        train_cols.append(cols[test_per_class:])
    train_cols = np.concatenate(train_cols)
    test_cols = np.concatenate(test_cols)
    train = dataset.RawDataset(features=data.features[:, train_cols],
                               labels=data.labels[train_cols],
                               class_count=data.class_count)
    test = dataset.RawDataset(features=data.features[:, test_cols],
                              labels=data.labels[test_cols],
                              class_count=data.class_count)
    return train, test


def _figure_bitscale(cfg: dict[str, str], out: Path) -> None:
    bits_list = _cfg_int_list(cfg, "bits_list")
    test_per_class = _cfg_positive_int(cfg, "test_per_class")
    methods = _bitscale_methods(cfg)
    options = _sdh_options(cfg)
    data = _load_dataset(cfg)
    train, test = _split_train_test(data, test_per_class)
    kmap = kernelmap.fit_anchors(train, min(_cfg_int(cfg, "anchors"), train.sample_count),
                                 _cfg_float(cfg, "sigma"), options["seed"])
    features = kernelmap.transform(kmap, train.features)
    radius = _cfg_int(cfg, "radius")

    rows = []
    for bits in bits_list:
        for method in methods:
            model, elapsed, _ = _train_model(method, kmap, features, train, bits, options)
            code_index = index.CodeIndex(codes=encode(model, train.features),
                                         labels=train.labels)
            query_codes = encode(model, test.features)
            precision = evaluate.evaluate_retrieval(
                code_index, query_codes, test.labels, radius).precision_at_radius
            rows.append([method, bits, f"{elapsed:.3f}", repr(precision)])
            print(f"bitscale method={method} bits={bits} "
                  f"train_seconds={elapsed:.3f} precision={precision:.4f}")
    with open(out / "bitscale.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "bits", "train_seconds", "precision_at_radius"])
        writer.writerows(rows)


def _figure_losses(cfg: dict[str, str], out: Path) -> None:
    bits_list = _cfg_int_list(cfg, "losses_bits_list")
    options = _sdh_options(cfg)
    data = _load_dataset(cfg)
    kmap = kernelmap.fit_anchors(data, min(_cfg_int(cfg, "anchors"), data.sample_count),
                                 _cfg_float(cfg, "sigma"), options["seed"])
    features = kernelmap.transform(kmap, data.features)
    rows = []
    for bits in bits_list:
        state, _ = sdh.train_sdh(features, data.labels, data.class_count, bits, **options)
        model, _, _ = _train_model("fsdh", kmap, features, data, bits, options)
        row = evaluate.loss_table(state, model, features, data.labels)
        rows.append([row.bits, repr(row.sdh_w_loss), repr(row.sdh_p_loss),
                     repr(row.fsdh_w_loss), repr(row.fsdh_p_loss)])
    with open(out / "losses.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bits", "sdh_w_loss", "sdh_p_loss",
                         "fsdh_w_loss", "fsdh_p_loss"])
        writer.writerows(rows)


def _figure_biasmap(cfg: dict[str, str], out: Path) -> None:
    data = _load_dataset(cfg)
    order = np.argsort(data.labels, kind="stable")
    data = dataset.RawDataset(features=data.features[:, order],
                              labels=data.labels[order],
                              class_count=data.class_count)
    # Fewer anchors than samples, or the projection grid collapses to the
    # identity and the heatmap is trivial.
    anchors = min(_cfg_int(cfg, "biasmap_anchors"), data.sample_count)
    kmap = kernelmap.fit_anchors(data, anchors,
                                 _cfg_float(cfg, "sigma"), _cfg_int(cfg, "seed"))
    features = kernelmap.transform(kmap, data.features)
    bits = _cfg_int(cfg, "bits")
    class_codes = codes.pick_class_codes(codes.sylvester(bits), data.class_count)
    expanded = codes.expand_codes(class_codes, data.labels)
    diag = evaluate.bias_term_diagnostics(features, expanded, data.labels)
    evaluate.write_matrix_csv(out / "k_matrix.csv", diag.k_matrix)
    evaluate.write_matrix_csv(out / "btb_matrix.csv", diag.btb_matrix)
    evaluate.write_summary(out / "traces.txt", {
        "trace_value": repr(diag.trace_value),
        "trace_grouped": repr(diag.trace_grouped),
        "bias_value": repr(diag.bias_value),
    })


def cmd_figures(cfg: dict[str, str], figure: str) -> int:
    out = _outdir(cfg)
    _write_config_copy(cfg, out)
    with stage("figures"):
        if figure == "fig1":
            _figure_fig1(cfg, out)
        elif figure == "bitscale":
            _figure_bitscale(cfg, out)
        elif figure == "losses":
            _figure_losses(cfg, out)
        elif figure == "biasmap":
            _figure_biasmap(cfg, out)
        else:
            raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    print(f"figure bundle written to {out}")
    return 0


def cmd_bench(cfg: dict[str, str]) -> int:
    repeats = _cfg_positive_int(cfg, "repeats")
    bits_list = _cfg_int_list(cfg, "bits_list")
    method = cfg["method"]
    options = _sdh_options(cfg)
    out = _outdir(cfg)
    _write_config_copy(cfg, out)
    data = _load_dataset(cfg)
    with stage("kernel"):
        kmap = kernelmap.fit_anchors(data, min(_cfg_int(cfg, "anchors"), data.sample_count),
                                     _cfg_float(cfg, "sigma"), options["seed"])

    def median_time(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    rows = []
    with stage("bench"):
        transform_s = median_time(lambda: kernelmap.transform(kmap, data.features))
        features = kernelmap.transform(kmap, data.features)
        for bits in bits_list:
            rows.append([method, bits, "kernel_transform", f"{transform_s:.3f}"])
            if method == "fsdh":
                code_s = median_time(lambda: codes.pick_class_codes(
                    codes.sylvester(bits), data.class_count))
                rows.append([method, bits, "code_construction", f"{code_s:.3f}"])
            # The trainer builds its own class codes, so they are not added
            # to the total; fsdh's trainer is one linear solve.
            train_s = float(np.median([
                _train_model(method, kmap, features, data, bits, options)[1]
                for _ in range(repeats)]))
            rows.append([method, bits, "linear_solve" if method == "fsdh" else "train",
                         f"{train_s:.3f}"])
            total = transform_s + train_s
            rows.append([method, bits, "total", f"{total:.3f}"])
            print(f"bench method={method} bits={bits} total_seconds={total:.3f}")
    with open(out / "bench.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "bits", "stage", "median_seconds"])
        writer.writerows(rows)
    return 0


def cmd_synth(cfg: dict[str, str]) -> int:
    out = _outdir(cfg)
    _write_config_copy(cfg, out)
    with stage("dataset"):
        data = dataset.synth_blobs(
            classes=_cfg_int(cfg, "classes"),
            per_class=_cfg_int(cfg, "per_class"),
            dim=_cfg_int(cfg, "dim"),
            spread=_cfg_float(cfg, "spread"),
            seed=_cfg_int(cfg, "data_seed"),
        )
    with stage("report"):
        np.savetxt(out / "features.csv", data.features.T, delimiter=",")
        np.savetxt(out / "labels.csv", data.labels[:, None], fmt="%d")
    print(f"wrote {data.sample_count} samples ({data.dim} dims, "
          f"{data.class_count} classes) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdhkit",
        description="Supervised discrete hashing: training, retrieval evaluation, "
                    "figure reproduction, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--outdir", help="output directory (overrides config)")

    add_common(sub.add_parser("train", help="train a hash model and save it"))
    add_common(sub.add_parser("eval", help="evaluate a saved model on a database/query pair"))
    figures = sub.add_parser("figures", help="reproduce figure/table data as CSV bundles")
    figures.add_argument("figure", choices=FIGURES)
    add_common(figures)
    add_common(sub.add_parser("bench", help="time the training stages"))
    add_common(sub.add_parser("synth", help="write a synthetic CSV dataset"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "figures":
            return cmd_figures(cfg, args.figure)
        if args.command == "bench":
            return cmd_bench(cfg)
        if args.command == "synth":
            return cmd_synth(cfg)
        raise StageError("config", f"unknown command {args.command!r}")
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
