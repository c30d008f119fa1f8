"""Genetic-algorithm tuning of the nine classifier parameters.

An individual assigns the five embedding magnitudes and the four similarity
penalties; its fitness is the prediction score of a model trained with those
values on the training split and scored on the held-out split. Routes (not
points) are split so near-duplicate consecutive fixes cannot leak across the
boundary. Standard real-valued GA: tournament selection, uniform crossover,
Gaussian mutation with per-bound clamping, elitism. Genomes are scored one at
a time, in order; the only parallelism is per route inside ``fitness``, which
replays the holdout routes on ``workers`` threads. All randomness flows from
one seeded stream consumed sequentially, so runs reproduce exactly for any
worker count. ``evolve`` prepares its training split once, so each genome
only embeds and indexes.

The genomes of one ``evolve`` call share the pair-terms table of the one
``TrainingSet`` it prepares. A genome moves the embedding, which can change
each port's nearest candidate for a held-out fix, and it changes the
penalties; but ``pair_terms`` of one (held-out fix, candidate) pair, the
great-circle km and four differences, depends on the two points alone. So
each later genome that meets a pair weighs the kept terms with its own
penalties: the same floats multiplied in the same order, so every
similarity and every fitness keeps its bits. The table holds at most
(held-out fixes) x (distinct candidates per fix) pairs and is dropped with
the set when ``evolve`` returns. The benchmark's tune-small run (population
16, 3 generations) looks up 50,388 pairs, 5,284 of them distinct (1.1 MB),
and its ``evolve`` takes 0.27 s against 0.38 s with each ``fitness`` call
given a fresh empty table (medians of 9 alternating runs in one process,
one worker, 2-vCPU Xeon); the CLI-default ``tune`` of the canonical data
keeps 116,707 pairs, which raise its peak RSS from 60 to 87 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .classifier import ModelParams, TrainingSet, prepare, train
from .embedding import FeatureWeights
from .evaluation import score_dataset
from .routes import Route

PENALTY_MAX = 10.0

# one full day of arrival error zeroes out the Query 2 term
MAE_CEILING_MINUTES = 1440.0

TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
GENE_MUTATION_RATE = 0.2
MUTATION_SIGMA = 0.1  # fraction of each gene's range
ELITE_COUNT = 2


@dataclass(frozen=True)
class Genome:
    """The FeatureWeights magnitudes, then the ModelParams penalties, each
    gene named after the field it sets."""

    m_x: float
    m_y: float
    m_z: float
    m_sin: float
    m_cos: float
    p_course: float
    p_heading: float
    p_speed: float
    p_dist: float

    @classmethod
    def from_array(cls, genes: np.ndarray) -> "Genome":
        return cls(*(float(g) for g in genes))

    @classmethod
    def default(cls) -> "Genome":
        """The untuned starting point: embedding and classifier defaults."""
        p = ModelParams()
        values = {**vars(p.weights), **vars(p)}
        return cls(*(values[name] for name in GENE_NAMES))

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in GENE_NAMES])

    def to_params(self) -> ModelParams:
        genes = {name: getattr(self, name) for name in GENE_NAMES}
        weights = {name: genes.pop(name) for name in GENE_NAMES[:N_WEIGHT_GENES]}
        return ModelParams(FeatureWeights(**weights), **genes)


GENE_NAMES = tuple(f.name for f in fields(Genome))
N_WEIGHT_GENES = len(fields(FeatureWeights))
GENE_LOW = np.zeros(len(GENE_NAMES))
GENE_HIGH = np.array([1.0] * N_WEIGHT_GENES + [PENALTY_MAX] * (len(GENE_NAMES) - N_WEIGHT_GENES))


@dataclass(frozen=True)
class GaConfig:
    population: int = 32
    generations: int = 20
    seed: int = 0
    fitness_lambda: ClassVar[float] = 0.5
    split_fraction: ClassVar[float] = 0.8

    def __post_init__(self) -> None:
        if self.population <= ELITE_COUNT:
            raise ValueError(f"population must be > {ELITE_COUNT}, the elite count")
        if self.generations < 0 or self.seed < 0:
            raise ValueError("generations and seed must be >= 0")


def fitness(genome: Genome, train_routes: list[Route] | TrainingSet, val_routes: list[Route],
            fitness_lambda: float = GaConfig.fitness_lambda, workers: int = 1) -> float:
    """Earliness plus a bounded arrival-accuracy bonus on the holdout split.

    Trains on ``genome.to_params()`` and replays the holdout routes on
    ``workers`` threads; the value is the same for any worker count, and
    the same whether a prepared set's terms table already holds the pairs.
    """
    if not train_routes or not val_routes:
        raise ValueError("both splits must be non-empty")
    model = train(train_routes, genome.to_params())
    scores = score_dataset(model, val_routes, workers=workers)
    arrival_term = max(0.0, 1.0 - scores.mae_minutes / MAE_CEILING_MINUTES)
    return scores.avg_earliness + fitness_lambda * arrival_term


def split_routes(routes: list[Route], split_fraction: float,
                 seed: int) -> tuple[list[Route], list[Route]]:
    """Seeded route-level split; both sides always non-empty."""
    if len(routes) < 2:
        raise ValueError("need at least 2 routes to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(routes))
    n_train = min(max(int(round(len(routes) * split_fraction)), 1), len(routes) - 1)
    train_part = [routes[i] for i in sorted(order[:n_train])]
    val_part = [routes[i] for i in sorted(order[n_train:])]
    return train_part, val_part


@dataclass
class GenerationStat:
    generation: int
    best_fitness: float
    mean_fitness: float


def evolve(routes: list[Route], cfg: GaConfig,
           workers: int = 1) -> tuple[Genome, list[GenerationStat]]:
    """Run the GA and return the best genome ever seen plus the history.

    Generation 0 is the initial population: uniform-random genomes plus one
    individual at the untuned defaults. Elites carry over unchanged, ordered
    by (-fitness, index), so the best so far sits at index 0 of every
    population and argmax only leaves it for a strictly better child: the
    last population's argmax is the best genome ever seen.
    """
    train_part, val_part = split_routes(routes, cfg.split_fraction, cfg.seed)
    train_set = prepare(train_part)
    rng = np.random.default_rng(cfg.seed)
    gene_range = GENE_HIGH - GENE_LOW

    population = [rng.uniform(GENE_LOW, GENE_HIGH) for _ in range(cfg.population - 1)]
    population.append(Genome.default().as_array())

    cache: dict[tuple[float, ...], float] = {}

    def evaluate(pop: list[np.ndarray]) -> list[float]:
        keys = [tuple(g) for g in pop]
        for key, genes in zip(keys, pop):
            if key not in cache:
                cache[key] = fitness(Genome.from_array(genes), train_set, val_part,
                                     cfg.fitness_lambda, workers)
        return [cache[k] for k in keys]

    def tournament(fits: list[float]) -> int:
        contenders = rng.integers(0, cfg.population, size=TOURNAMENT_SIZE)
        best = int(contenders[0])
        for idx in contenders[1:]:
            if fits[int(idx)] > fits[best]:
                best = int(idx)
        return best

    fits = evaluate(population)
    history = [GenerationStat(0, max(fits), float(np.mean(fits)))]

    for gen in range(1, cfg.generations + 1):
        elite_order = sorted(range(cfg.population), key=lambda i: (-fits[i], i))
        next_pop = [population[i].copy() for i in elite_order[:ELITE_COUNT]]
        while len(next_pop) < cfg.population:
            pa = population[tournament(fits)]
            pb = population[tournament(fits)]
            if rng.random() < CROSSOVER_RATE:
                take_b = rng.random(len(GENE_NAMES)) < 0.5
                child = np.where(take_b, pb, pa)
            else:
                child = pa.copy()
            mutate = rng.random(len(GENE_NAMES)) < GENE_MUTATION_RATE
            steps = rng.normal(0.0, MUTATION_SIGMA, size=len(GENE_NAMES)) * gene_range
            child = np.where(mutate, child + steps, child)
            next_pop.append(np.clip(child, GENE_LOW, GENE_HIGH))

        population = next_pop
        fits = evaluate(population)
        history.append(GenerationStat(gen, max(fits), float(np.mean(fits))))

    return Genome.from_array(population[int(np.argmax(fits))]), history


def history_csv(history: list[GenerationStat]) -> str:
    lines = ["generation,best_fitness,mean_fitness"]
    lines.extend(f"{h.generation},{h.best_fitness!r},{h.mean_fitness!r}" for h in history)
    return "\n".join(lines) + "\n"
