"""Golden cache keys of the default ``repro policies`` and ``repro cloud``
grids.

A ``--cache-dir`` filled by an earlier release must still hit on every
cell, so the key bytes of each grid cell are pinned here: any change to
the key's kind, fields or pickled content fails this test.  Each key is
checked against the cell the grid stored under it, which pins the order
of the cells as well.
"""

from repro import workloads
from repro.engine import EvaluationEngine

POLICY_GRID_KEYS = (
    "158db460a27b39ec965b442367ea2909cea503e46c0f5381640a33ba4aa39cad",
    "8d85484306fdc41bde6c82f5d16904d3640637847772cd06a0ea43757888ff32",
    "08e265582a122b109cc7f96049ea128a990510e2ac4161bad59a0e839c7c50bb",
    "f8461fc1aaab63ed2aa4514c7dfecbe4fe0d3fb8e6468564b83ecdeaad13ba98",
    "c6bfba768ee927e7b7399283ca8410eb7a71fa5784f15c74debbeebda59f5d1c",
    "619ef8f28a482e4afc3019c9137bb308b98a93252f38883f9af76b88c53cf7dc",
    "a7a27c38cdaf6000cf6248e2a2f645978f54cc70c22432fdbc3bf56f00a6817a",
    "512d26e533de0c5f46e190bb14505e3d66494cfb1fd39fa78dd76c84a62f8df8",
    "c20d3387249534ef5bc13ecbafb8f2e96bc7691a7fc953ad08fd8ac1d3badd2d",
    "267d2d58fa56de62c13d8ed5d76e192dc4fa48a37ef70087d93ded1a26d51290",
    "14f5956b6a74e6121f6ac2a1c97f7e814f6ea3719a5add3862a76f80f47fd769",
    "1aa904d276a21491c4571b5ae501cd1c412545c65a40cf892a0e92aa301b086a",
    "4363a7ba7306e111caffd3c446fb0cfb7d1d3933f2188dd9f11ec2cd5a67c452",
    "733c0e38fee9182f49dc2cda7625bf99e3de9f007c09290a2eae6498f62e5cdb",
    "90fa015acea616af3351c18e80461267870fe8c48c163428d99967757072ab72",
    "686ef0314f8087d63b49206a42187a19179cae0a0beeefa44a7cf87a2cb6727a",
)

CLOUD_GRID_KEYS = (
    "dfdb86223a868bc0560c7fc60d0142fa775e81e765959c16e9e5b9dcdb053d75",
    "dd6016f423c57004aee571dbae1b19277d1a8357fab9224784dbd451d86c4d51",
    "c728d006a64dbe16c980b979d10f1e3efd1faf84163a09ac334bbb06fdc90c68",
    "e7b89ca13432ae506f7ce92a3a782021f7fcaaf4cceca7484837cbbd1bd68ac3",
    "b1d603537595a84f6a6cba927aa22e33b19c43359ac08ef30833c7b3b9f0db54",
)


def _stored_cells(run, keys):
    engine = EvaluationEngine()
    report = run(engine=engine)
    assert len(engine.cache) == len(keys)
    return report.cells, tuple(engine.cache.get(key) for key in keys)


def test_default_policy_grid_keys():
    cells, stored = _stored_cells(
        workloads.run_policy_comparison, POLICY_GRID_KEYS
    )
    assert stored == cells


def test_default_cloud_grid_keys():
    cells, stored = _stored_cells(
        workloads.run_cloud_comparison, CLOUD_GRID_KEYS
    )
    assert stored == cells


def test_a_moved_farm_misses_every_policy_cell():
    # The policy-cell key covers the nominal farm, not only the pickled
    # policy and scenario.
    engine = EvaluationEngine()
    workloads.run_policy_comparison(engine=engine)
    moved = workloads.run_policy_comparison(arrival_rate=200.0, engine=engine)
    assert engine.cache.stats.hits == 0
    assert len(engine.cache) == 2 * len(moved.cells)
