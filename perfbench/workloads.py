"""The benchmark's workloads: inputs made from a seed, and a timed cycle.

Every run must report every end-to-end metric of BENCHMARK.json, so every
workload has the same shape: set-up (data generation and split, timed on
its own), training (`train_s`), then, for each trained model, hashing of its
database and queries, `sdhkit.evaluate_retrieval` at radius 2, and one
closed-loop lookup (`radius_search` plus `rank_all`) per query, one after
another. The retrieval sizes are the workload's own, except in sdh-exact,
whose study has no database: it searches a held-out one (see `SdhExact`).
Package functions are called through the package's public names
(`sdhkit.encode`, ...), where the tracer wraps them.

Synthetic blobs use 10 classes and sigma 0.4. At spread 0.3 the 32-dim
blobs saturate at MAP 1.0, where no quality metric could see a change in
the codes; at spread 1.5 MAP is near 0.93, close to the paper's MNIST target.
The blobs of a workload are fixed and the seed draws the split, the order
of the samples and the anchors (see `_blobs`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import sdhkit

import checks

CLASSES = 10
SIGMA = 0.4
RADIUS = 2
LAMBDA = 1.0
CHECKED_LOOKUPS = 10     # lookups per retrieval recomputed bit by bit
DATA_SEED = 7            # the default `data_seed` of `sdhkit figures`


@dataclass
class Hasher:
    """A trained model as hashing and search see it: the raw samples it
    hashes and searches, and its projection, which a retraining must
    reproduce bit for bit."""

    label: str
    bits: int
    projection: np.ndarray
    encode: Callable[[np.ndarray], sdhkit.PackedCodes]
    database: sdhkit.RawDataset
    queries: sdhkit.RawDataset


def model_hasher(label: str, model: sdhkit.HashModel, database: sdhkit.RawDataset,
                 queries: sdhkit.RawDataset) -> Hasher:
    return Hasher(label, model.bits, model.projection,
                  lambda samples: sdhkit.encode(model, samples), database, queries)


@dataclass
class Retrieval:
    """Outputs and timings of hashing and search with one model."""

    label: str
    bits: int
    db_words: np.ndarray
    query_words: np.ndarray
    encoded: int
    encode_s: float
    queries: int
    eval_s: float
    report: sdhkit.EvalReport
    lookup_s: list[float]
    sampled: list[tuple[int, list, np.ndarray]]  # (query row, radius hits, ranking)


@dataclass
class Trained:
    """Models from one training run. A workload may search with each model
    while it trains the next (`passes`); `search_s` is the time that took,
    which is not training time."""

    hashers: list[Hasher]
    operations: int
    round_trips: list[tuple[sdhkit.HashModel, sdhkit.HashModel]] = field(default_factory=list)
    objectives: dict[str, float] = field(default_factory=dict)
    passes: list[list[Retrieval]] = field(default_factory=list)
    search_s: float = 0.0


@dataclass
class Cycle:
    """One training, then hashing and search with each of its models, in one
    pass or in the passes the training made. Extra trainings and encodes
    (`train_repeats`, `encode_repeats`) run between chunks of the lookups:
    slow spells on a shared host come in bursts, and short phases spread
    over the cycle sample them evenly."""

    train_s: list[float]
    passes: list[list[Retrieval]]  # each pass: one Retrieval per model
    extra_encodes: list[tuple[int, float]]  # (samples, seconds)
    objectives: list[dict[str, float]]
    operations: int
    failures: list[str]


def quality(search: list[Retrieval]) -> dict[str, float]:
    """Retrieval quality of one pass; `map` is the MAP of its last model."""
    out = {}
    for r in search:
        out[f"map.{r.label}"] = r.report.map
        out[f"precision_at_radius.{r.label}"] = r.report.precision_at_radius
        out[f"recall_at_radius.{r.label}"] = r.report.recall_at_radius
    out["map"] = search[-1].report.map
    return out


def codes(search: list[Retrieval]) -> dict[str, np.ndarray]:
    out = {}
    for r in search:
        out[f"database.{r.label}"] = r.db_words
        out[f"queries.{r.label}"] = r.query_words
    return out


def _interleave(*groups: list) -> list:
    """Merge lists so that each one's items are spread evenly."""
    keyed = [((i + 0.5) / len(g), k, item) for k, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


def run_cycle(workload, inputs: dict, p: dict, seed: int, workdir: Path) -> Cycle:
    failures, train_s, objectives, extra_encodes, extra_codes = [], [], [], [], []

    def train() -> Trained:
        start = time.perf_counter()
        trained = workload.train(inputs, p, seed, workdir)
        train_s.append(time.perf_counter() - start - trained.search_s)
        objectives.append(trained.objectives)
        for model, loaded in trained.round_trips:
            failures.extend(checks.check_model_round_trip(model, loaded))
        return trained

    trained = train()
    last = trained.hashers[-1]

    def extra_train():
        again = train().hashers[-1]
        failures.extend(checks.check_same({"projection": last.projection},
                                          {"projection": again.projection}, "retrained model"))

    def extra_encode():
        start = time.perf_counter()
        codes = {"database": last.encode(last.database.features).words,
                 "queries": last.encode(last.queries.features).words}
        extra_encodes.append((last.database.sample_count + last.queries.sample_count,
                              time.perf_counter() - start))
        extra_codes.append(codes)

    fillers = _interleave([extra_train] * (p.get("train_repeats", 1) - 1),
                          [extra_encode] * (p.get("encode_repeats", 1) - 1))
    passes = trained.passes or [[_retrieve(h, fillers if h is last else [])
                                 for h in trained.hashers]]
    for codes in extra_codes:
        failures += checks.check_same({"database": passes[0][-1].db_words,
                                       "queries": passes[0][-1].query_words},
                                      codes, "re-encoded codes")
    operations = (len(train_s) * trained.operations + 2 * len(extra_codes)
                  + sum(3 + r.queries for search in passes for r in search))
    return Cycle(train_s, passes, extra_encodes, objectives, operations, failures)


def _subset(data: sdhkit.RawDataset, cols: np.ndarray) -> sdhkit.RawDataset:
    return sdhkit.RawDataset(features=data.features[:, cols], labels=data.labels[cols],
                              class_count=data.class_count)


def _per_class(data: sdhkit.RawDataset, start: int, stop: int | None) -> sdhkit.RawDataset:
    """Samples start..stop of every class, classes in order."""
    cols = [np.flatnonzero(data.labels == c)[start:stop] for c in range(data.class_count)]
    return _subset(data, np.concatenate(cols))


def _retrieve(hasher: Hasher, fillers: list) -> Retrieval:
    """Encode, evaluate, then look up each query once, one after another;
    the untimed `fillers` run between equal chunks of the lookups."""
    database, queries = hasher.database, hasher.queries
    start = time.perf_counter()
    db_codes = hasher.encode(database.features)
    query_codes = hasher.encode(queries.features)
    encode_s = time.perf_counter() - start
    code_index = sdhkit.CodeIndex(codes=db_codes, labels=database.labels)

    start = time.perf_counter()
    report = sdhkit.evaluate_retrieval(code_index, query_codes, queries.labels, radius=RADIUS)
    eval_s = time.perf_counter() - start

    lookup_s, sampled = [], []
    lookups = query_codes.count
    every = max(1, lookups // CHECKED_LOOKUPS)
    pending, chunks = list(fillers), len(fillers) + 1
    for qi in range(lookups):
        while pending and qi * chunks >= lookups * (chunks - len(pending)):
            pending.pop(0)()
        query = query_codes.words[qi]
        start = time.perf_counter()
        hits = sdhkit.radius_search(code_index, query, RADIUS)
        ranking = sdhkit.rank_all(code_index, query)
        lookup_s.append(time.perf_counter() - start)
        if qi % every == 0:
            sampled.append((qi, hits, ranking))
    for filler in pending:
        filler()
    return Retrieval(label=hasher.label, bits=hasher.bits, db_words=db_codes.words,
                     query_words=query_codes.words,
                     encoded=database.sample_count + queries.sample_count, encode_s=encode_s,
                     queries=queries.sample_count, eval_s=eval_s, report=report,
                     lookup_s=lookup_s, sampled=sampled)


def _shuffled(data: sdhkit.RawDataset, seed: int) -> sdhkit.RawDataset:
    """Samples in a seeded random order. Class-sorted data would make each
    query's sort cost depend on how its class block lines up, so the lookup
    and ranking times would shift with the data rather than the code."""
    return _subset(data, np.random.default_rng([seed, data.sample_count]).permutation(
        data.sample_count))


def _fingerprint(data: sdhkit.RawDataset, seed: int) -> sdhkit.DatasetFingerprint:
    return sdhkit.DatasetFingerprint(sample_count=data.sample_count, dim=data.dim,
                                   class_count=data.class_count, seed=seed)


def _blobs(p: dict) -> sdhkit.RawDataset:
    """The workload's blobs, fixed as a real dataset is; the seed draws the
    split, as the paper's protocol does. In sdh-exact the blobs set how many
    codes collide, and with that the lookup cost (see `SdhExact`)."""
    return sdhkit.normalize(sdhkit.synth_blobs(CLASSES, p["per_class"], p["dim"], p["spread"],
                                               DATA_SEED))


def _split(data: sdhkit.RawDataset, queries_per_class: int, seed: int) -> dict:
    """Seeded split of every class into queries (`test`) and the rest."""
    data = _shuffled(data, seed)
    return {"train": _shuffled(_per_class(data, queries_per_class, None), seed),
            "test": _shuffled(_per_class(data, 0, queries_per_class), seed)}


def _blob_split(seed: int, p: dict) -> dict:
    return _split(_blobs(p), p["queries_per_class"], seed)


class FsdhProtocol:
    """Bit-scaling protocol: fsdh at L = 32 and 512 on one split, each model
    through a file round trip, then encoded and evaluated."""

    sizes = {
        "full": dict(per_class=1030, queries_per_class=30, dim=32, spread=1.5, anchors=1000,
                     bits=(32, 512)),
        "smoke": dict(per_class=50, queries_per_class=5, dim=32, spread=1.5, anchors=100,
                      bits=(32, 512)),
    }

    setup = staticmethod(_blob_split)

    def train(self, inputs: dict, p: dict, seed: int, workdir: Path) -> Trained:
        train, test = inputs["train"], inputs["test"]
        kmap = sdhkit.fit_anchors(train, p["anchors"], SIGMA, seed)
        features = sdhkit.transform(kmap, train.features)
        hashers, round_trips = [], []
        for bits in p["bits"]:
            projection, class_codes = sdhkit.train_fsdh(features, train.labels, CLASSES, bits)
            model = sdhkit.HashModel(kernel=kmap, projection=projection, class_codes=class_codes,
                                   lam=LAMBDA, trained_on=_fingerprint(train, seed))
            path = workdir / f"fsdh-L{bits}.model"
            sdhkit.save_model(model, path)
            loaded = sdhkit.load_model(path)
            round_trips.append((model, loaded))
            hashers.append(model_hasher(f"L{bits}", loaded, train, test))
        return Trained(hashers, 2 * len(hashers), round_trips)


class EvalScale:
    """Large database, nearly train-free: fsdh at L = 64 on a small subset.
    Training (~50 ms) and encoding (~0.7 s) are short next to evaluation and
    lookups, so they are repeated within a cycle."""

    sizes = {
        "full": dict(per_class=5100, queries_per_class=100, train_per_class=200, dim=32,
                     spread=1.5, anchors=500, bits=64, train_repeats=10, encode_repeats=3),
        "smoke": dict(per_class=210, queries_per_class=10, train_per_class=20, dim=32,
                      spread=1.5, anchors=50, bits=64, train_repeats=2, encode_repeats=2),
    }

    @staticmethod
    def setup(seed: int, p: dict) -> dict:
        split = _blob_split(seed, p)
        return {"database": split["train"], "queries": split["test"],
                "train": _per_class(split["train"], 0, p["train_per_class"])}

    def train(self, inputs: dict, p: dict, seed: int, workdir: Path) -> Trained:
        train = inputs["train"]
        kmap = sdhkit.fit_anchors(train, p["anchors"], SIGMA, seed)
        features = sdhkit.transform(kmap, train.features)
        projection, class_codes = sdhkit.train_fsdh(features, train.labels, CLASSES, p["bits"])
        model = sdhkit.HashModel(kernel=kmap, projection=projection, class_codes=class_codes,
                               lam=LAMBDA, trained_on=_fingerprint(train, seed))
        return Trained([model_hasher(f"L{p['bits']}", model, inputs["database"],
                                     inputs["queries"])], 1)


class SdhBaseline:
    """The alternating baseline with the DCC code step, on the fsdh-protocol
    split and anchors."""

    sizes = {
        "full": dict(FsdhProtocol.sizes["full"], bits=64, nu=1e-5, iters=5, sweeps=3),
        "smoke": dict(FsdhProtocol.sizes["smoke"], bits=64, nu=1e-5, iters=2, sweeps=3),
    }

    setup = staticmethod(_blob_split)

    def train(self, inputs: dict, p: dict, seed: int, workdir: Path) -> Trained:
        train, test = inputs["train"], inputs["test"]
        kmap = sdhkit.fit_anchors(train, p["anchors"], SIGMA, seed)
        features = sdhkit.transform(kmap, train.features)
        state, trajectory = sdhkit.train_sdh(features, train.labels, CLASSES, p["bits"],
                                          lam=LAMBDA, nu=p["nu"], max_iters=p["iters"],
                                          seed=0, solver="dcc", sweeps=p["sweeps"])
        model = sdhkit.HashModel(kernel=kmap, projection=state.projection, class_codes=None,
                               lam=LAMBDA, trained_on=_fingerprint(train, seed))
        return Trained([model_hasher(f"L{p['bits']}", model, train, test)], 1,
                       objectives={"final_objective": trajectory[-1].total})


def _sign_hasher(label: str, projection: np.ndarray, database: sdhkit.RawDataset,
                 queries: sdhkit.RawDataset) -> Hasher:
    """Hashes raw samples with a projection trained on raw features: the
    sign rule of `sdhkit.encode` (a zero score is +1), without its kernel map."""
    def encode(samples: np.ndarray) -> sdhkit.PackedCodes:
        return sdhkit.pack(np.where(projection.T @ samples >= 0.0, 1, -1).astype(np.int8))
    return Hasher(label, projection.shape[1], projection, encode, database, queries)


class SdhExact:
    """The fig1 convergence study with the exact code steps.

    One sample per class (10 classes, 10 raw features) is the training set.
    The study runs `train_sdh` at L = 16, nu = 0, 20 iterations with the
    exhaustive and the branch-and-bound code step from fixed start seeds;
    with nu = 0 the code step reads only the classifier, so its work depends
    on the start seed, not on the features. Every run reports the retrieval
    metrics too, so each finished model hashes and searches a held-out
    database and queries, sized as in fsdh-protocol, right after its
    training and outside `train_s`.

    The study's samples are the first of each class of the fixed blobs, and
    the seed splits the rest. A projection fitted to 10 samples maps 10k
    samples to few distinct codes, so the number of radius hits per query,
    and with it the lookup cost, is set by the study's samples: drawn from
    the seed, they gave 500 to 3,700 hits per query over eight seeds.
    """

    sizes = {
        "full": dict(per_class=1031, queries_per_class=30, dim=10, spread=0.3, bits=16,
                     iters=20, study_seeds=(0, 1)),
        "smoke": dict(per_class=21, queries_per_class=5, dim=10, spread=0.3, bits=16, iters=3,
                      study_seeds=(0,)),
    }
    solvers = ("exhaustive", "branch_and_bound")

    @staticmethod
    def setup(seed: int, p: dict) -> dict:
        data = _blobs(p)
        held_out = _split(_per_class(data, 1, None), p["queries_per_class"], seed)
        return {"study": _per_class(data, 0, 1), "database": held_out["train"],
                "queries": held_out["test"]}

    def train(self, inputs: dict, p: dict, seed: int, workdir: Path) -> Trained:
        study = inputs["study"]
        objectives, hashers, passes, search_s = {}, [], [], 0.0
        for s in p["study_seeds"]:
            for solver in self.solvers:
                state, trajectory = sdhkit.train_sdh(study.features, study.labels, CLASSES,
                                                  p["bits"], lam=LAMBDA, nu=0.0,
                                                  max_iters=p["iters"], seed=s, solver=solver)
                objectives[f"final_objective.{solver}.seed{s}"] = trajectory[-1].total
                hashers.append(_sign_hasher(f"{solver}.seed{s}", state.projection,
                                            inputs["database"], inputs["queries"]))
                start = time.perf_counter()
                passes.append([_retrieve(hashers[-1], [])])
                search_s += time.perf_counter() - start
        return Trained(hashers, len(hashers), objectives=objectives, passes=passes,
                       search_s=search_s)


WORKLOADS = {
    "fsdh-protocol": FsdhProtocol(),
    "eval-scale": EvalScale(),
    "sdh-baseline": SdhBaseline(),
    "sdh-exact": SdhExact(),
}
