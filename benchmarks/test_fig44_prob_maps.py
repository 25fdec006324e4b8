"""Fig 4.4: region maps at Prob = 20%, 60%, 80%, 100%.

Expected shape: the region shrinks as Prob grows, losing low-speed local
roads first while the primary-arterial skeleton persists.
"""

from client_protocol import s_query
from repro.core.query import SQuery
from repro.eval import config
from repro.network.model import RoadLevel
from repro.viz.ascii_map import render_region


def test_fig44_probability_maps(bench_client, bench_dataset, benchmark, emit):
    network = bench_dataset.network
    results = {}
    for prob in (0.2, 0.6, 0.8, 1.0):
        query = SQuery(
            config.CENTER_LOCATION,
            config.DEFAULT_SETTINGS.start_time_s,
            600,
            prob,
        )
        results[prob] = s_query(bench_client, query)
    benchmark(
        lambda: s_query(
            bench_client,
            SQuery(
                config.CENTER_LOCATION,
                config.DEFAULT_SETTINGS.start_time_s,
                600,
                1.0,
            )
        )
    )
    art = []
    for prob, result in results.items():
        art.append(
            f"Fig 4.4 — Prob={prob:.0%} ({len(result.segments)} segments, "
            f"{result.road_length_m(network) / 1000:.1f} km)"
        )
        art.append(render_region(result, network))
    emit("fig44_prob_maps", "\n".join(art))

    # Shrinking region: a stricter Prob answers fewer segments.
    sizes = [len(results[p].segments) for p in (0.2, 0.6, 0.8, 1.0)]
    assert sizes[0] >= sizes[-1]
    # The primary skeleton survives better than local roads: the share of
    # primary segments grows (or at least does not collapse) as Prob rises.
    def primary_share(result):
        if not result.segments:
            return 0.0
        primary = sum(
            1 for s in result.segments
            if network.segment(s).level == RoadLevel.PRIMARY
        )
        return primary / len(result.segments)

    if results[1.0].segments:
        assert primary_share(results[1.0]) >= primary_share(results[0.2]) * 0.8
