"""Size and power of the pair tests on simulated networks.

Runs a scaled-down Monte Carlo study: model 1 (equal degrees, tested with
the row-difference statistic T) and model 2 (heterogeneous degrees, tested
with the ratio statistic G) across a grid of signal strengths. "Size" tests
two nodes with identical membership profiles; "power" tests a mixed node
against a pure one.
"""

import netpairtest as npt

N, N0, REPS = 600, 120, 60
GRID = (0.3, 0.6, 0.9)


def study(model):
    label = "theta" if model == 1 else "r^2"
    stat = npt.models.MODEL_TESTS[model]
    print(f"\nmodel {model} (n={N}, {REPS} replications, statistic {stat})")
    print(f"{label:>6}  {'size':>7}  {'power':>7}")
    size_report = npt.run_size_power(npt.ExperimentConfig(
        model=model, n=N, n0=N0, rho=0.2, signal_grid=GRID,
        replications=REPS, master_seed=0, pair_mode="size"))
    power_report = npt.run_size_power(npt.ExperimentConfig(
        model=model, n=N, n0=N0, rho=0.2, signal_grid=GRID,
        replications=REPS, master_seed=0, pair_mode="power"))
    for s, p in zip(size_report.points, power_report.points):
        print(f"{s.signal:>6}  {s.rejection_rate:>7.3f}  "
              f"{p.rejection_rate:>7.3f}")
    print(f"(size run took {size_report.wall_seconds:.1f}s, "
          f"power run {power_report.wall_seconds:.1f}s)")


def null_distribution():
    out = npt.null_histogram(npt.ExperimentConfig(
        model=1, n=N, n0=N0, rho=0.2, signal_grid=(0.9,),
        replications=REPS, master_seed=0, pair_mode="size"))
    print(f"\nnull distribution check: {len(out['samples'])} T statistics "
          f"vs chi-square({out['df']}): KS distance "
          f"{out['ks_distance']:.3f}")


def main():
    print("nominal level: 0.05; size should sit near it, power should "
          "rise toward 1 with stronger signal")
    study(1)
    study(2)
    null_distribution()


if __name__ == "__main__":
    main()
