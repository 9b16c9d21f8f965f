"""Table I — Sedov Blast Wave problem configurations.

Verifies the geometric facts of Table I exactly (mesh sizes, 16^3
blocks, one initial block per rank) and regenerates the run statistics
(t_total, t_lb, n_initial, n_final) from the workload generator.  At
reduced scale the step counts are truncated but the geometry and the
block-growth shape (final ~ 2-6x initial through shell refinement) hold.
"""


from repro.amr import TABLE_I_CONFIGS
from repro.bench import format_table

from conftest import PAPER_SCALE, SEDOV_SCALES, shared_trajectory

PAPER_TABLE_I = {
    512: dict(t_total=30_590, t_lb=1_213, n_initial=512, n_final=2_080),
    1024: dict(t_total=43_088, t_lb=4_576, n_initial=1_024, n_final=3_824),
    2048: dict(t_total=43_042, t_lb=4_699, n_initial=2_048, n_final=4_848),
    4096: dict(t_total=53_459, t_lb=9_392, n_initial=4_096, n_final=8_968),
}


def test_table1_geometry_exact(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The table's geometric columns are reproduced exactly."""
    for ranks, cfg in TABLE_I_CONFIGS.items():
        assert cfg.block_cells == 16
        assert cfg.n_root_blocks == ranks           # one block per rank
        assert cfg.t_total == PAPER_TABLE_I[ranks]["t_total"]


def test_table1_run_statistics(benchmark):
    def generate():
        rows = []
        for ranks in SEDOV_SCALES:
            traj = shared_trajectory(ranks)
            rows.append(
                dict(
                    ranks=ranks,
                    t_total=sum(e.n_steps for e in traj),
                    t_lb=len(traj) - 1,
                    n_initial=len(traj[0].keys),
                    n_final=len(traj[-1].keys),
                )
            )
        return rows

    rows = benchmark.pedantic(generate, rounds=1, iterations=1)
    print("\nTable I — measured run statistics "
          f"({'paper' if PAPER_SCALE else 'reduced'} scale):")
    print(format_table(
        ["ranks", "t_total", "t_lb", "n_initial", "n_final", "paper n_final"],
        [[r["ranks"], r["t_total"], r["t_lb"], r["n_initial"], r["n_final"],
          PAPER_TABLE_I[r["ranks"]]["n_final"]] for r in rows],
    ))
    for r in rows:
        paper = PAPER_TABLE_I[r["ranks"]]
        # One block per rank initially — exact.
        assert r["n_initial"] == paper["n_initial"]
        # Refinement grows the mesh toward a few blocks per rank; the
        # paper lands at 2.2-4.1 blocks/rank, we accept 1.5-8.
        growth = r["n_final"] / r["n_initial"]
        assert 1.5 < growth < 8.0
        # Load balancing is invoked on a few-to-tens-of-steps cadence.
        assert r["t_lb"] >= r["t_total"] // 50
