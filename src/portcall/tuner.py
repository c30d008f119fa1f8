"""Genetic-algorithm tuning of the nine classifier parameters.

An individual assigns the five embedding magnitudes and the four similarity
penalties; its fitness is the prediction score of a model trained with those
values on the training split and scored on the held-out split. Routes (not
points) are split so near-duplicate consecutive fixes cannot leak across the
boundary. Standard real-valued GA: tournament selection, uniform crossover,
Gaussian mutation with per-bound clamping, elitism. All randomness flows from
one seeded stream consumed sequentially, so runs reproduce exactly no matter
how fitness evaluation is parallelized.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, train
from .embedding import FeatureWeights
from .evaluation import score_dataset
from .routes import Route

PENALTY_MAX = 10.0

GENE_NAMES = ("m_x", "m_y", "m_z", "m_sin", "m_cos",
              "p_course", "p_heading", "p_speed", "p_dist")
GENE_LOW = np.array([0.0] * 9)
GENE_HIGH = np.array([1.0] * 5 + [PENALTY_MAX] * 4)

# one full day of arrival error zeroes out the Query 2 term
MAE_CEILING_MINUTES = 1440.0


@dataclass(frozen=True)
class Genome:
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
        w = FeatureWeights()
        p = ModelParams()
        return cls(w.m_x, w.m_y, w.m_z, w.m_sin, w.m_cos,
                   p.p_course, p.p_heading, p.p_speed, p.p_dist)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in GENE_NAMES])

    def to_params(self) -> ModelParams:
        return ModelParams(
            weights=FeatureWeights(self.m_x, self.m_y, self.m_z, self.m_sin, self.m_cos),
            p_course=self.p_course,
            p_heading=self.p_heading,
            p_speed=self.p_speed,
            p_dist=self.p_dist,
        )


@dataclass(frozen=True)
class GaConfig:
    population: int = 32
    generations: int = 20
    tournament_size: int = 3
    crossover_rate: float = 0.9
    gene_mutation_rate: float = 0.2
    mutation_sigma: float = 0.1  # fraction of each gene's range
    elite_count: int = 2
    seed: int = 0
    fitness_lambda: float = 0.5
    split_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0 <= self.elite_count < self.population:
            raise ValueError("elite_count must be < population")
        for name in ("crossover_rate", "gene_mutation_rate", "split_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def fitness(genome: Genome, train_routes: list[Route], val_routes: list[Route],
            fitness_lambda: float = 0.5) -> float:
    """Earliness plus a bounded arrival-accuracy bonus on the holdout split.

    Trains with the default leaf size and scores on the calling thread; the
    GA parallelizes across genomes, not within one.
    """
    if not train_routes or not val_routes:
        raise ValueError("both splits must be non-empty")
    model = train(train_routes, genome.to_params())
    scores = score_dataset(model, val_routes, workers=1)
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
           workers: int | None = 1) -> tuple[Genome, list[GenerationStat]]:
    """Run the GA and return the best genome ever seen plus the history.

    Generation 0 is the initial population: uniform-random genomes plus one
    individual at the untuned defaults. Elites carry over unchanged, so the
    per-generation best never decreases.
    """
    train_part, val_part = split_routes(routes, cfg.split_fraction, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    gene_range = GENE_HIGH - GENE_LOW

    population = [rng.uniform(GENE_LOW, GENE_HIGH) for _ in range(cfg.population - 1)]
    population.append(Genome.default().as_array())

    cache: dict[tuple[float, ...], float] = {}

    def evaluate(pop: list[np.ndarray]) -> list[float]:
        keys = [tuple(g) for g in pop]
        missing = [k for k in dict.fromkeys(keys) if k not in cache]
        if missing:
            def run(key: tuple[float, ...]) -> float:
                return fitness(Genome.from_array(np.array(key)), train_part, val_part,
                               fitness_lambda=cfg.fitness_lambda)
            if workers is not None and workers <= 1:
                results = [run(k) for k in missing]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(run, missing))
            cache.update(zip(missing, results))
        return [cache[k] for k in keys]

    def tournament(fits: list[float]) -> int:
        contenders = rng.integers(0, cfg.population, size=cfg.tournament_size)
        best = int(contenders[0])
        for idx in contenders[1:]:
            if fits[int(idx)] > fits[best]:
                best = int(idx)
        return best

    fits = evaluate(population)
    best_idx = int(np.argmax(fits))
    best_genome = population[best_idx].copy()
    best_fit = fits[best_idx]
    history = [GenerationStat(0, max(fits), float(np.mean(fits)))]

    for gen in range(1, cfg.generations + 1):
        elite_order = sorted(range(cfg.population), key=lambda i: (-fits[i], i))
        next_pop = [population[i].copy() for i in elite_order[:cfg.elite_count]]
        while len(next_pop) < cfg.population:
            pa = population[tournament(fits)]
            pb = population[tournament(fits)]
            if rng.random() < cfg.crossover_rate:
                take_b = rng.random(len(GENE_NAMES)) < 0.5
                child = np.where(take_b, pb, pa)
            else:
                child = pa.copy()
            mutate = rng.random(len(GENE_NAMES)) < cfg.gene_mutation_rate
            steps = rng.normal(0.0, cfg.mutation_sigma, size=len(GENE_NAMES)) * gene_range
            child = np.where(mutate, child + steps, child)
            next_pop.append(np.clip(child, GENE_LOW, GENE_HIGH))

        population = next_pop
        fits = evaluate(population)
        gen_best = int(np.argmax(fits))
        if fits[gen_best] > best_fit:
            best_fit = fits[gen_best]
            best_genome = population[gen_best].copy()
        history.append(GenerationStat(gen, max(fits), float(np.mean(fits))))

    return Genome.from_array(best_genome), history


def history_csv(history: list[GenerationStat]) -> str:
    lines = ["generation,best_fitness,mean_fitness"]
    lines.extend(f"{h.generation},{h.best_fitness!r},{h.mean_fitness!r}" for h in history)
    return "\n".join(lines) + "\n"
