"""Tuning the nine model parameters with the genetic algorithm.

The five embedding magnitudes control how much position and bearing count
in the nearest-neighbor lookup; the four penalties control how strongly
course, heading, speed and progressed-distance differences discount a
candidate. The GA searches that 9-D box against a held-out route split.
"""

from portcall import SyntheticConfig, enrich_route, partition_routes, synth_records
from portcall.params import ParamsFile, format_params
from portcall.tuner import GaConfig, Genome, evolve, fitness, split_routes


def main() -> None:
    records = synth_records(SyntheticConfig(n_ports=4, routes_per_port=10,
                                            points_min=20, points_max=35, seed=1))
    routes = partition_routes(records)
    for r in routes:
        enrich_route(r)

    cfg = GaConfig(population=12, generations=8, seed=0)
    tr, va = split_routes(routes, cfg.split_fraction, cfg.seed)
    base = fitness(Genome.default(), tr, va)
    print(f"{len(routes)} routes, default-parameter fitness {base:.4f}")

    best, history = evolve(routes, cfg)
    for h in history:
        bar = "#" * int(40 * h.best_fitness / (history[-1].best_fitness or 1))
        print(f"gen {h.generation:>2}  best {h.best_fitness:.4f}  "
              f"mean {h.mean_fitness:.4f}  {bar}")

    print(f"\nimprovement over defaults: {history[-1].best_fitness - base:+.4f}")
    print("\nbest genome as a parameter file:")
    print(format_params(ParamsFile(params=best.to_params())))


if __name__ == "__main__":
    main()
