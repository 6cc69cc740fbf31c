"""Batch command-line front end.

Subcommands: train, eval, figures, bench, synth. Every command reads a flat
key = value config file (flags override file values), types and checks every
key against `SCHEMA` and accepts only the keys that the run reads at its
settings (`read_keys`) before any output exists, writes each key the run read,
with its value as given or defaulted, into its output directory so runs are
replayable, and exits nonzero with a stage-tagged message on failure. Every
setting has one key: `eval` reads its database and its queries only through
the `db_` and `query_` forms of the dataset keys. See the README for the
config keys.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import biqp, codes, dataset, evaluate, fsdh, index, kernelmap, sdh
from .model import DatasetFingerprint, HashModel, encode, load_model, save_model

METHODS = ("fsdh", "sdh")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _positive_integer(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _non_negative_integer(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


def _positive_number(text: str) -> float:
    value = _number(text)
    if value <= 0:
        raise ValueError(f"must be a positive number, got {value}")
    return value


def _non_negative_number(text: str) -> float:
    value = _number(text)
    if value < 0:
        raise ValueError(f"must be a non-negative number, got {value}")
    return value


def _optional_positive_integer(text: str) -> int | None:
    return _positive_integer(text) if text else None


def _positive_integer_list(text: str) -> list[int]:
    values = [_positive_integer(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError("must list at least one positive integer")
    return values


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


def _list_of(*choices: str):
    choice = _one_of(*choices)

    def parse(text: str) -> list[str]:
        values = [choice(v.strip()) for v in text.split(",") if v.strip()]
        if not values:
            raise ValueError(f"must list at least one of {', '.join(choices)}")
        return values
    return parse


# Every config key: its default (None: absent unless given) and the parser
# that types and checks its value (`str` for paths).
SCHEMA = {
    "source": ("synth", _one_of("mnist", "csv", "synth")),
    "images": (None, str),
    "labels": (None, str),
    "features": (None, str),
    "limit": ("", _optional_positive_integer),
    "normalize": ("unit_norm", _one_of(*dataset.NORMALIZE_MODES)),
    "classes": ("10", _positive_integer),
    "per_class": ("100", _positive_integer),
    "dim": ("16", _positive_integer),
    "spread": ("0.3", _non_negative_number),
    "data_seed": ("7", _integer),
    "anchors": ("1000", _positive_integer),
    "sigma": ("0.4", _positive_number),
    "seed": ("0", _integer),
    "method": ("fsdh", _one_of(*METHODS)),
    "bits": ("32", _positive_integer),
    "lambda": ("1.0", _non_negative_number),
    "nu": ("1e-5", _non_negative_number),
    "iters": ("5", _positive_integer),
    "solver": ("dcc", _one_of(*biqp.SOLVERS)),
    "sweeps": ("3", _positive_integer),
    "radius": ("2", _non_negative_integer),
    "zero_retrieval": ("zero", _one_of(*evaluate.ZERO_RETRIEVAL_MODES)),
    "repeats": ("3", _positive_integer),
    "bits_list": ("32,64,128,256,512", _positive_integer_list),
    "bitscale_methods": ("fsdh,sdh", _list_of(*METHODS)),
    "test_per_class": ("30", _positive_integer),
    "fig1_seeds": ("10", _positive_integer),
    "outdir": (None, str),
    "model": (None, str),
}
# The keys that describe one dataset. `eval` reads them only in their `db_`
# and `query_` forms, one block per role, each with its unprefixed key's
# default and parser.
DATASET_KEYS = ("source", "limit", "images", "labels", "features")
_ROLES = ("db_", "query_")
_ROLE_KEYS = {role + key: SCHEMA[key] for role in _ROLES for key in DATASET_KEYS}
SCHEMA.update(_ROLE_KEYS)
# Read only when some dataset's source is `synth`.
_BLOBS = ("classes", "per_class", "dim", "spread", "data_seed")
# The sources under which each file key is read.
_FILE_SOURCES = {"images": ("mnist",), "features": ("csv",), "labels": ("mnist", "csv")}
# The kernel map's keys; a model carries its normalization, so `eval` reads
# none of them.
_KERNEL = (*DATASET_KEYS, *_BLOBS, "normalize", "anchors", "sigma", "seed")
# SDH's alternation; fsdh reads none of these.
_SDH = ("nu", "iters", "solver", "sweeps")
_TRAINER = (*_KERNEL, "lambda", *_SDH)
# The keys each command, and each figure, may read. `read_keys` drops those
# that the run's settings leave unread; `read_config` seeds only the defaults
# of the rest and `resolve_config` rejects any other key, so `config.txt`
# holds only keys the run read.
READS = {name: frozenset(("outdir", *keys)) for name, keys in {
    "train": (*_TRAINER, "method", "bits"),
    "eval": ("model", *_ROLE_KEYS, *_BLOBS, "radius", "zero_retrieval"),
    "bench": (*_TRAINER, "method", "bits_list", "repeats"),
    "synth": _BLOBS,
    "fig1": ("bits", "classes", "lambda", "iters", "data_seed", "fig1_seeds"),
    "bitscale": (*_TRAINER, "bits_list", "bitscale_methods", "test_per_class", "radius"),
    "losses": (*_TRAINER, "bits_list"),
    "biasmap": (*_KERNEL, "bits"),
}.items()}
# Each figure's protocol defaults for general keys, applied before the config
# file and the flags, so `config.txt` records the value a figure used.
# bitscale's 700 anchors are the training samples of the default blobs once
# 30 queries per class are held out. biasmap needs fewer anchors than
# samples, or the projection grid collapses to the identity and the heatmap
# is trivial.
FIGURE_DEFAULTS = {
    "fig1": {"bits": "16", "iters": "20"},
    "bitscale": {"anchors": "700"},
    "losses": {"bits_list": "16,32,64"},
    "biasmap": {"anchors": "100"},
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
    lines: dict[str, int] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ValueError(f"{path}: key {key!r} is set on line {lines[key]} "
                                 f"and again on line {lineno}")
            lines[key] = lineno
            values[key] = value.strip()
    return values


def read_keys(name: str, raw: dict[str, str]) -> tuple[frozenset[str], dict[str, str]]:
    """The keys run `name` reads at the settings in `raw`, and the keys of
    `READS[name]` that those settings leave unread, each with the rule that
    would read it.

    A setting absent from `raw` takes its default. SDH's keys are read only
    by a run that trains sdh, the blob keys only when some dataset's source
    is `synth`, and each file key only under its own dataset's sources that
    open it. A run's datasets are the prefixes among "", `db_` and `query_`
    whose `source` it reads.
    """
    def setting(key):
        return raw.get(key, SCHEMA[key][0])

    skipped = {}

    def gate(keys, settings: dict[str, str], wanted: tuple[str, ...], rule: str = ""):
        values = {v.strip() for value in settings.values() for v in value.split(",")}
        if values.isdisjoint(wanted):
            rule = rule or f"{' or '.join(settings)} = {' or '.join(wanted)}"
            actual = ", ".join(f"{key} = {value}" for key, value in settings.items())
            skipped.update(dict.fromkeys(keys, f"under {rule}, not {actual}"))

    if name in ("train", "bench"):
        gate(_SDH, {"method": setting("method")}, ("sdh",))
    if name == "bitscale":
        gate(_SDH, {"bitscale_methods": setting("bitscale_methods")}, ("sdh",),
             "bitscale_methods holding sdh")
    roles = [role for role in ("", *_ROLES) if role + "source" in READS[name]]
    sources = {role + "source": setting(role + "source") for role in roles}
    if roles:
        gate(_BLOBS, sources, ("synth",))
    for role in roles:
        for key, wanted in _FILE_SOURCES.items():
            gate((role + key,), {role + "source": sources[role + "source"]}, wanted)
    return READS[name] - skipped.keys(), skipped


def read_config(args: argparse.Namespace) -> dict[str, str]:
    """The raw config: the defaults of the keys the run reads at its
    settings, a figure's own defaults, then the config file, then the flags."""
    name = getattr(args, "figure", args.command)
    given = dict(FIGURE_DEFAULTS.get(name, {}))
    if args.config:
        with stage("config"):
            given.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise StageError("config", f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        given[key.strip()] = value.strip()
    if args.outdir:
        given["outdir"] = args.outdir
    read, _ = read_keys(name, given)
    raw = {key: default for key, (default, _) in SCHEMA.items()
           if default is not None and key in read}
    raw.update(given)
    return raw


def resolve_config(raw: dict[str, str], command: str) -> dict:
    """Type every key of `raw` through `SCHEMA`, before any data loads.

    `command` names the run: a command, or for `figures` the figure. Rejects
    unknown keys, then malformed values, then keys that the run does not
    read at its settings (see `read_keys`).
    """
    unknown = sorted(set(raw) - set(SCHEMA))
    if unknown:
        raise StageError("config", f"unknown config key(s): {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, value in raw.items():
        try:
            cfg[key] = SCHEMA[key][1](value)
        except ValueError as exc:
            raise StageError("config", f"key {key!r} {exc}") from None
    read, skipped = read_keys(command, raw)
    unread = sorted(set(cfg) - read)
    if unread:
        raise StageError("config", "; ".join(
            f"key {key!r} is read {skipped[key]}" if key in skipped else
            f"key {key!r} is read by {', '.join(repr(n) for n in READS if key in READS[n])}, "
            f"not by {command!r}" for key in unread))
    return cfg


def _require(value, key, stage_name="config"):
    if not value:
        raise StageError(stage_name, f"missing required config key {key!r}")
    return value


def _synth_blobs(cfg) -> dataset.RawDataset:
    return dataset.synth_blobs(classes=cfg["classes"], per_class=cfg["per_class"],
                               dim=cfg["dim"], spread=cfg["spread"], seed=cfg["data_seed"])


def _load_dataset(cfg, prefix: str = "") -> dataset.RawDataset:
    def require(k):
        return _require(cfg.get(prefix + k), prefix + k, "dataset")

    source, limit = cfg[prefix + "source"], cfg[prefix + "limit"]
    with stage("dataset"):
        if source == "mnist":
            # The loader truncates the raw pixels before the float conversion.
            return dataset.load_mnist(require("images"), require("labels"), limit=limit)
        if source == "csv":
            return dataset.truncate(dataset.load_csv(require("features"), require("labels")),
                                    limit)
        return dataset.truncate(_synth_blobs(cfg), limit)


def _kernel_features(cfg, data: dataset.RawDataset):
    """Fit the kernel map on `data` and transform `data`. Returns the map and
    the features."""
    with stage("kernel"):
        kmap = kernelmap.fit_anchors(data, cfg["anchors"], cfg["sigma"], cfg["seed"],
                                     normalize=cfg["normalize"])
    with stage("transform"):
        return kmap, kernelmap.transform(kmap, data.features)


def _train_model(method: str, kmap: kernelmap.KernelMap, features: np.ndarray,
                 data: dataset.RawDataset, bits: int,
                 cfg) -> tuple[HashModel, float, tuple | None]:
    """Train `method` on the kernel features of `data` and assemble its model.

    Every trainer runs here, after the check that `data` holds every class.
    Returns the model, the trainer's wall time in seconds, and the sdh state
    with its objective trajectory (None for fsdh).
    """
    with stage("dataset"):
        dataset.validate_training_labels(data)
    fingerprint = DatasetFingerprint(sample_count=data.sample_count, dim=data.dim,
                                     class_count=data.class_count, seed=cfg["seed"])
    start = time.perf_counter()
    if method == "fsdh":
        projection, class_codes = fsdh.train_fsdh(features, data.labels, data.class_count, bits)
        run = None
    else:
        state, trajectory = sdh.train_sdh(features, data.labels, data.class_count, bits,
                                          lam=cfg["lambda"], nu=cfg["nu"],
                                          max_iters=cfg["iters"], seed=cfg["seed"],
                                          solver=cfg["solver"], sweeps=cfg["sweeps"])
        projection, class_codes = state.projection, None
        run = state, trajectory
    elapsed = time.perf_counter() - start
    model = HashModel(kernel=kmap, projection=projection, class_codes=class_codes,
                      lam=cfg["lambda"], trained_on=fingerprint)
    return model, elapsed, run


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_values(path: Path, values: dict[str, object]) -> None:
    with open(path, "w") as f:
        for key, value in values.items():
            f.write(f"{key}={value}\n")


def _write_trajectory(path: Path, trajectory: list[sdh.ObjectiveBreakdown],
                      bits_flipped: list[int]) -> None:
    """One row per sdh iteration: its objective terms, their total, and the
    number of code bits its code step flipped."""
    _write_csv(path, ["iteration", "classification_term", "regularizer", "bias_term", "total",
                      "bits_flipped"],
               ([i, repr(step.classification_term), repr(step.regularizer),
                 repr(step.bias_term), repr(step.total), flips]
                for i, (step, flips) in enumerate(zip(trajectory, bits_flipped, strict=True),
                                                  start=1)))


def cmd_train(cfg, out: Path) -> int:
    data = _load_dataset(cfg)
    method, bits = cfg["method"], cfg["bits"]
    kmap, features = _kernel_features(cfg, data)

    log = {"method": method, "bits": bits, "samples": data.sample_count,
           "classes": data.class_count, "anchors": kmap.anchor_count}

    with stage("train"):
        model, elapsed, run = _train_model(method, kmap, features, data, bits, cfg)
        if run is not None:
            state, trajectory = run
            _write_trajectory(out / "trajectory.csv", trajectory, state.bits_flipped)
            final = trajectory[-1]
            log.update(final_total=repr(final.total),
                       final_classification_term=repr(final.classification_term),
                       final_p_loss=repr(final.p_loss))
        else:
            log["distinct_bits"] = model.class_codes.distinct_bits

    with stage("save"):
        save_model(model, out / "model.fsdh")
        log["learning_time_s"] = f"{elapsed:.3f}"
        _write_values(out / "train_log.txt", log)
    print(f"learning_time_s={elapsed:.3f}")
    print(f"model written to {out / 'model.fsdh'}")
    return 0


def cmd_eval(cfg, out: Path) -> int:
    with stage("model"):
        model = load_model(_require(cfg.get("model"), "model", "model"))
    database = _load_dataset(cfg, prefix="db_")
    queries = _load_dataset(cfg, prefix="query_")
    with stage("encode"):
        db_codes = encode(model, database.features)
        query_codes = encode(model, queries.features)
    with stage("index"):
        code_index = index.CodeIndex(codes=db_codes, labels=database.labels)
    with stage("evaluate"):
        report = evaluate.evaluate_retrieval(code_index, query_codes, queries.labels,
                                             radius=cfg["radius"],
                                             zero_retrieval=cfg["zero_retrieval"])
    with stage("report"):
        fp = model.trained_on
        _write_values(out / "summary.txt", {
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
            "model_normalize": model.kernel.normalize,
        })
        _write_csv(out / "pr_curve.csv", ["threshold", "recall", "precision"],
                   ([t, repr(recall), repr(precision)]
                    for t, (recall, precision) in enumerate(report.pr_curve)))
    print(f"precision_at_radius={report.precision_at_radius:.4f} "
          f"recall_at_radius={report.recall_at_radius:.4f} map={report.map:.4f}")
    return 0


def _figure_fig1(cfg, out: Path) -> None:
    bits, classes, lam = cfg["bits"], cfg["classes"], cfg["lambda"]
    labels = np.arange(classes, dtype=np.int64)
    rng = np.random.default_rng(cfg["data_seed"])
    features = rng.standard_normal((classes, classes))
    # Checks assumptions A1 and A2 before any run writes a trajectory.
    class_codes = codes.hadamard_codes(bits, classes)

    for solver in ("dcc", "branch_and_bound"):
        for s in range(cfg["fig1_seeds"]):
            state, trajectory = sdh.train_sdh(features, labels, classes, bits,
                                              lam=lam, nu=0.0, max_iters=cfg["iters"],
                                              seed=s, solver=solver)
            _write_trajectory(out / f"fig1_{solver}_seed{s}.csv", trajectory,
                              state.bits_flipped)

    # SDH's own steps at the closed-form codes B = C Y, a fixed point of the
    # alternation at nu = 0.
    b = codes.expand_codes(class_codes, labels)
    closed_form = sdh.SdhState(codes=b, weights=sdh.w_step(b, labels, classes, lam),
                               projection=sdh.ProjectionSolver(features).solve(b),
                               lam=lam, nu=0.0)
    reference = sdh.objective(closed_form, labels,
                              projected=closed_form.projection.T @ features).total
    _write_csv(out / "fig1_reference.csv", ["closed_form_objective"], [[repr(reference)]])
    (out / "notes.txt").write_text(
        "Objective: ||Y - W^T B||^2 + lambda*||W||^2 (bias term dropped, nu=0).\n"
        f"Random features, one sample per class, bits={bits}, classes={classes}, "
        f"samples={classes}, lambda={lam}.\n"
        "One trajectory CSV per (solver, seed); the reference value is SDH's "
        "objective at the closed-form codes B = C Y (the Hadamard class codes), "
        "a fixed point of the alternation.\n")


def _split_train_test(data: dataset.RawDataset, test_per_class: int):
    train_cols, test_cols = [], []
    for cls in range(data.class_count):
        cols = np.flatnonzero(data.labels == cls)
        test_cols.append(cols[:test_per_class])
        train_cols.append(cols[test_per_class:])
    return data.subset(np.concatenate(train_cols)), data.subset(np.concatenate(test_cols))


def _figure_bitscale(cfg, out: Path) -> None:
    train, test = _split_train_test(_load_dataset(cfg), cfg["test_per_class"])
    kmap, features = _kernel_features(cfg, train)

    rows = []
    for bits in cfg["bits_list"]:
        for method in cfg["bitscale_methods"]:
            model, elapsed, _ = _train_model(method, kmap, features, train, bits, cfg)
            code_index = index.CodeIndex(codes=encode(model, train.features),
                                         labels=train.labels)
            query_codes = encode(model, test.features)
            precision = evaluate.evaluate_retrieval(
                code_index, query_codes, test.labels, cfg["radius"]).precision_at_radius
            distinct = "" if model.class_codes is None else model.class_codes.distinct_bits
            rows.append([method, bits, f"{elapsed:.3f}", repr(precision), distinct])
            print(f"bitscale method={method} bits={bits} "
                  f"train_seconds={elapsed:.3f} precision={precision:.4f}")
    _write_csv(out / "bitscale.csv",
               ["method", "bits", "train_seconds", "precision_at_radius", "distinct_bits"], rows)


def _figure_losses(cfg, out: Path) -> None:
    data = _load_dataset(cfg)
    kmap, features = _kernel_features(cfg, data)
    # The fsdh model first: `_train_model` checks the classes before either
    # trainer runs. Its S does not depend on L, so one solve serves every L.
    solved, _, _ = _train_model("fsdh", kmap, features, data, cfg["bits_list"][0], cfg)
    rows = []
    for bits in cfg["bits_list"]:
        # Checks assumptions A1 and A2 for this L before its sdh run.
        model = replace(solved, class_codes=codes.hadamard_codes(bits, data.class_count))
        _, _, (state, _) = _train_model("sdh", kmap, features, data, bits, cfg)
        row = evaluate.loss_table(state, model, features, data.labels)
        rows.append([row.bits, repr(row.sdh_w_loss), repr(row.sdh_p_loss),
                     repr(row.fsdh_w_loss), repr(row.fsdh_p_loss)])
    _write_csv(out / "losses.csv",
               ["bits", "sdh_w_loss", "sdh_p_loss", "fsdh_w_loss", "fsdh_p_loss"], rows)


def _figure_biasmap(cfg, out: Path) -> None:
    data = _load_dataset(cfg)
    data = data.subset(np.argsort(data.labels, kind="stable"))
    _, features = _kernel_features(cfg, data)
    class_codes = codes.hadamard_codes(cfg["bits"], data.class_count)
    expanded = codes.expand_codes(class_codes, data.labels)
    diag = evaluate.bias_term_diagnostics(features, expanded, data.labels)
    np.savetxt(out / "k_matrix.csv", diag.k_matrix, delimiter=",")
    np.savetxt(out / "btb_matrix.csv", diag.btb_matrix, delimiter=",")
    _write_values(out / "traces.txt", {
        "trace_value": repr(diag.trace_value),
        "trace_grouped": repr(diag.trace_grouped),
        "bias_value": repr(diag.bias_value),
    })


def cmd_bench(cfg, out: Path) -> int:
    repeats, method = cfg["repeats"], cfg["method"]
    data = _load_dataset(cfg)
    kmap, features = _kernel_features(cfg, data)

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
        for bits in cfg["bits_list"]:
            rows.append([method, bits, "kernel_transform", f"{transform_s:.3f}"])
            runs = [_train_model(method, kmap, features, data, bits, cfg)
                    for _ in range(repeats)]
            train_s = float(np.median([elapsed for _, elapsed, _ in runs]))
            rows.append([method, bits, "linear_solve" if method == "fsdh" else "train",
                         f"{train_s:.3f}"])
            total = transform_s + train_s
            rows.append([method, bits, "total", f"{total:.3f}"])
            encode_s = median_time(lambda: encode(runs[0][0], data.features))
            rows.append([method, bits, "encode", f"{encode_s:.3f}"])
            print(f"bench method={method} bits={bits} total_seconds={total:.3f}")
    _write_csv(out / "bench.csv", ["method", "bits", "stage", "median_seconds"], rows)
    return 0


def cmd_synth(cfg, out: Path) -> int:
    with stage("dataset"):
        data = _synth_blobs(cfg)
    with stage("report"):
        np.savetxt(out / "features.csv", data.features.T, delimiter=",")
        np.savetxt(out / "labels.csv", data.labels[:, None], fmt="%d")
    print(f"wrote {data.sample_count} samples ({data.dim} dims, "
          f"{data.class_count} classes) to {out}")
    return 0


COMMANDS = {"train": cmd_train, "eval": cmd_eval, "bench": cmd_bench, "synth": cmd_synth}
FIGURES = {"fig1": _figure_fig1, "bitscale": _figure_bitscale,
           "losses": _figure_losses, "biasmap": _figure_biasmap}


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
        raw = read_config(args)
        cfg = resolve_config(raw, getattr(args, "figure", args.command))
        out = Path(_require(cfg.get("outdir"), "outdir"))
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "config.txt", "w") as f:
            for key in sorted(raw):
                f.write(f"{key} = {raw[key]}\n")
        if args.command != "figures":
            return COMMANDS[args.command](cfg, out)
        with stage("figures"):
            FIGURES[args.figure](cfg, out)
        print(f"figure bundle written to {out}")
        return 0
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
