"""The Bayesian-network core: construction, validation, exact inference.

Variable elimination is checked against the independent brute-force
enumeration oracle on seeded random networks, and the validation layer
is pinned to one-line errors naming the offending node, CPT row, or
cycle edge.  A network compiles its factors once and memoizes each
distinct query; the compiled-query tests pin that a repeat never
re-eliminates and that ``add_node`` leaves no stale answer behind.
"""

import numpy as np
import pytest

from repro.bayes import BayesianNetwork
from repro.errors import ModelStructureError, ValidationError
from repro.obs import MetricsRegistry, instrumented


def random_network(rng, nodes=7, edge_probability=0.5):
    """A random DAG over *nodes* binary nodes with random CPTs."""
    network = BayesianNetwork()
    names = [f"n{i}" for i in range(nodes)]
    for i, name in enumerate(names):
        parents = tuple(
            names[j] for j in range(i) if rng.random() < edge_probability
        )
        table = rng.random(1 << len(parents))
        network.add_node(name, parents=parents, cpt=tuple(table))
    return network, names


class TestConstruction:
    def test_root_accepts_plain_float(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.99)
        assert net.node("a").table == (0.99,)

    def test_cpt_row_order_parents0_most_significant(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=1.0)
        net.add_node("b", cpt=1.0)
        # Row index = (a << 1) | b: row 2 is a-up/b-down.
        net.add_node("c", parents=("a", "b"), cpt=(0.1, 0.2, 0.3, 0.4))
        node = net.node("c")
        assert node.table[2] == 0.3

    def test_mapping_cpt_matches_sequence_cpt(self):
        seq = BayesianNetwork()
        seq.add_node("a", cpt=0.9)
        seq.add_node("b", cpt=0.8)
        seq.add_node("c", parents=("a", "b"), cpt=(0.1, 0.2, 0.3, 0.4))
        mapped = BayesianNetwork()
        mapped.add_node("a", cpt=0.9)
        mapped.add_node("b", cpt=0.8)
        mapped.add_node(
            "c",
            parents=("a", "b"),
            cpt={
                (False, False): 0.1,
                (False, True): 0.2,
                (True, False): 0.3,
                (True, True): 0.4,
            },
        )
        assert mapped.node("c").table == seq.node("c").table
        assert mapped.marginal("c") == seq.marginal("c")

    def test_duplicate_node_rejected(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.5)
        with pytest.raises(ValidationError, match="duplicate node 'a'"):
            net.add_node("a", cpt=0.5)

    def test_self_parent_rejected(self):
        net = BayesianNetwork()
        with pytest.raises(ValidationError, match="cannot be its own parent"):
            net.add_node("a", parents=("a",), cpt=(0.1, 0.9))

    def test_duplicate_parent_rejected(self):
        net = BayesianNetwork()
        net.add_node("z", cpt=0.9)
        with pytest.raises(ValidationError, match="duplicate parent"):
            net.add_node("a", parents=("z", "z"), cpt=(0.0, 0.1, 0.2, 0.3))

    def test_wrong_cpt_length_names_node_and_expected_rows(self):
        net = BayesianNetwork()
        net.add_node("z", cpt=0.9)
        with pytest.raises(
            ValidationError, match=r"node 'a' CPT must have 2 rows"
        ):
            net.add_node("a", parents=("z",), cpt=(0.1, 0.2, 0.3))

    def test_out_of_range_probability_names_node_and_row(self):
        net = BayesianNetwork()
        with pytest.raises(ValidationError, match=r"node 'a' CPT row 0"):
            net.add_node("a", cpt=1.5)

    def test_mapping_cpt_missing_row_rejected(self):
        net = BayesianNetwork()
        net.add_node("z", cpt=0.9)
        with pytest.raises(ValidationError, match="missing 1 of 2 rows"):
            net.add_node("a", parents=("z",), cpt={(True,): 0.5})

    def test_mapping_cpt_bad_key_rejected(self):
        net = BayesianNetwork()
        net.add_node("z", cpt=0.9)
        with pytest.raises(ValidationError, match="tuple of 1 booleans"):
            net.add_node("a", parents=("z",), cpt={(1,): 0.5, (0,): 0.1})


class TestStructureValidation:
    def test_undefined_parent_named(self):
        net = BayesianNetwork()
        net.add_node("a", parents=("ghost",), cpt=(0.1, 0.9))
        with pytest.raises(
            ModelStructureError,
            match="node 'a' references undefined parent 'ghost'",
        ):
            net.topological_order()

    def test_cycle_names_an_offending_edge(self):
        net = BayesianNetwork()
        net.add_node("a", parents=("c",), cpt=(0.1, 0.9))
        net.add_node("b", parents=("a",), cpt=(0.1, 0.9))
        net.add_node("c", parents=("b",), cpt=(0.1, 0.9))
        with pytest.raises(ModelStructureError) as excinfo:
            net.topological_order()
        message = str(excinfo.value)
        assert "dependency cycle through edge" in message
        # The named edge must be one that actually exists in the cycle.
        assert any(
            f"{parent!r} -> {child!r}" in message
            for parent, child in (("c", "a"), ("a", "b"), ("b", "c"))
        )

    def test_two_node_cycle_edge(self):
        net = BayesianNetwork()
        net.add_node("a", parents=("b",), cpt=(0.1, 0.9))
        net.add_node("b", parents=("a",), cpt=(0.1, 0.9))
        with pytest.raises(ModelStructureError, match="dependency cycle"):
            net.topological_order()

    def test_order_is_parents_first(self):
        rng = np.random.default_rng(7)
        net, _ = random_network(rng)
        order = net.topological_order()
        seen = set()
        for name in order:
            assert all(p in seen for p in net.node(name).parents)
            seen.add(name)

    def test_unknown_node_lookup_lists_known(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.5)
        with pytest.raises(
            ValidationError, match=r"unknown node 'x'; known nodes: \['a'\]"
        ):
            net.node("x")


class TestFromSpec:
    SPEC = {
        "nodes": [
            {"name": "zone", "cpt": 0.99},
            {"name": "replica", "parents": ["zone"], "cpt": [0.0, 0.95]},
        ]
    }

    def test_round_trip(self):
        net = BayesianNetwork.from_spec(self.SPEC)
        assert net.nodes == ("zone", "replica")
        assert net.marginal("replica") == pytest.approx(0.99 * 0.95)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(
            ValidationError, match=r"unknown network spec key\(s\) \['seed'\]"
        ):
            BayesianNetwork.from_spec({"nodes": [], "seed": 1})

    def test_unknown_node_key_rejected_naming_node(self):
        with pytest.raises(
            ValidationError, match=r"node 'zone': unknown key\(s\) \['zprob'\]"
        ):
            BayesianNetwork.from_spec(
                {"nodes": [{"name": "zone", "cpt": 0.99, "zprob": 1}]}
            )

    def test_missing_name_and_missing_cpt(self):
        with pytest.raises(ValidationError, match="missing 'name'"):
            BayesianNetwork.from_spec({"nodes": [{"cpt": 0.5}]})
        with pytest.raises(ValidationError, match="node 'a' is missing 'cpt'"):
            BayesianNetwork.from_spec({"nodes": [{"name": "a"}]})

    def test_structure_validated_eagerly(self):
        spec = {
            "nodes": [
                {"name": "a", "parents": ["b"], "cpt": [0.1, 0.9]},
                {"name": "b", "parents": ["a"], "cpt": [0.1, 0.9]},
            ]
        }
        with pytest.raises(ModelStructureError, match="dependency cycle"):
            BayesianNetwork.from_spec(spec)

    def test_non_mapping_spec_rejected(self):
        with pytest.raises(ValidationError, match="must be a mapping"):
            BayesianNetwork.from_spec([1, 2])


class TestInference:
    def test_independent_chain_is_product(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.9)
        net.add_node("b", cpt=0.8)
        assert net.probability_all_up(("a", "b")) == pytest.approx(0.72)

    def test_marginal_sums_over_parent(self):
        net = BayesianNetwork()
        net.add_node("zone", cpt=0.99)
        net.add_node("replica", parents=("zone",), cpt=(0.0, 0.95))
        assert net.marginal("replica") == pytest.approx(0.99 * 0.95)

    def test_conditional_on_zone_down(self):
        net = BayesianNetwork()
        net.add_node("zone", cpt=0.99)
        net.add_node("replica", parents=("zone",), cpt=(0.0, 0.95))
        assert net.marginal("replica", evidence={"zone": False}) == 0.0
        assert net.marginal(
            "replica", evidence={"zone": True}
        ) == pytest.approx(0.95)

    def test_marginal_of_evidence_node_is_indicator(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.5)
        net.add_node("b", cpt=0.5)
        assert net.marginal("a", evidence={"a": True, "b": True}) == 1.0
        assert net.marginal("a", evidence={"a": False, "b": True}) == 0.0

    def test_zero_probability_evidence_rejected(self):
        net = BayesianNetwork()
        net.add_node("zone", cpt=0.99)
        net.add_node("replica", parents=("zone",), cpt=(0.0, 1.0))
        net.add_node("other", cpt=0.5)
        with pytest.raises(ValidationError, match="probability zero"):
            net.marginal(
                "other", evidence={"zone": True, "replica": False}
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_variable_elimination_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        net, names = random_network(rng)
        for _ in range(8):
            chosen = [n for n in names if rng.random() < 0.5] or [names[0]]
            assignment = {n: bool(rng.integers(2)) for n in chosen}
            assert net.probability_of(assignment) == pytest.approx(
                net.brute_force_probability(assignment), abs=1e-12
            )

    def test_disconnected_components_are_independent(self):
        # Two disjoint sub-networks: the joint factors into the product.
        net = BayesianNetwork()
        net.add_node("a1", cpt=0.9)
        net.add_node("a2", parents=("a1",), cpt=(0.2, 0.95))
        net.add_node("b1", cpt=0.7)
        net.add_node("b2", parents=("b1",), cpt=(0.1, 0.8))
        joint = net.probability_of({"a2": True, "b2": True})
        assert joint == pytest.approx(
            net.marginal("a2") * net.marginal("b2"), abs=1e-12
        )
        assert joint == pytest.approx(
            net.brute_force_probability({"a2": True, "b2": True}), abs=1e-12
        )

    def test_isolated_root_does_not_disturb_query(self):
        net = BayesianNetwork()
        net.add_node("lonely", cpt=0.123)
        net.add_node("a", cpt=0.9)
        assert net.marginal("a") == pytest.approx(0.9, abs=1e-12)

    def test_deterministic_cpt_rows(self):
        # 0/1 rows (an AND gate) stay exact under elimination.
        net = BayesianNetwork()
        net.add_node("x", cpt=0.6)
        net.add_node("y", cpt=0.5)
        net.add_node("and", parents=("x", "y"), cpt=(0.0, 0.0, 0.0, 1.0))
        assert net.marginal("and") == pytest.approx(0.3, abs=1e-12)
        assert net.marginal("and", evidence={"x": False}) == 0.0
        assert net.marginal("x", evidence={"and": True}) == 1.0

    def test_deterministic_always_down_node(self):
        net = BayesianNetwork()
        net.add_node("dead", cpt=0.0)
        net.add_node("live", cpt=1.0)
        assert net.marginal("dead") == 0.0
        assert net.marginal("live") == 1.0
        assert net.probability_of({"dead": False, "live": True}) == 1.0

    def test_int_states_accepted_booleans_required_otherwise(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.5)
        assert net.probability_of({"a": 1}) == pytest.approx(0.5)
        with pytest.raises(ValidationError, match="must be a boolean"):
            net.probability_of({"a": 0.5})

    def test_empty_assignment_rejected(self):
        net = BayesianNetwork()
        net.add_node("a", cpt=0.5)
        with pytest.raises(ValidationError, match="non-empty mapping"):
            net.probability_of({})
        with pytest.raises(ValidationError, match="at least one node"):
            net.probability_all_up(())

    def test_enumeration_guard(self):
        net = BayesianNetwork()
        for i in range(25):
            net.add_node(f"n{i}", cpt=0.5)
        with pytest.raises(ValidationError, match="capped at 24 nodes"):
            net.brute_force_probability({"n0": True})


def zone_network():
    net = BayesianNetwork()
    net.add_node("zone", cpt=0.99)
    net.add_node("a", parents=("zone",), cpt=(0.0, 0.95))
    net.add_node("b", parents=("zone",), cpt=(0.0, 0.9))
    return net


class TestCompiledQueries:
    def test_equal_queries_eliminate_once(self):
        net = zone_network()
        registry = MetricsRegistry()
        with instrumented(metrics=registry):
            first = net.probability_of({"a": True, "b": False})
            reordered = net.probability_of({"b": False, "a": True})
            as_ints = net.probability_of({"a": 1, "b": 0})
            assert registry.value("bayes_inference_queries") == 1
            assert registry.get("bayes_inference_seconds").count == 1
            net.probability_of({"a": True, "b": True})
            assert registry.value("bayes_inference_queries") == 2
        assert first == reordered == as_ints
        assert first == zone_network().probability_of({"a": True, "b": False})

    def test_add_node_invalidates_compiled_answers(self):
        net = zone_network()
        before = net.marginal("a", evidence={"b": True})
        net.probability_all_up(("a", "b"))
        # The new child joins every later elimination that sums it out.
        net.add_node("c", parents=("a", "b"), cpt=(0.0, 0.5, 0.5, 1.0))
        fresh = zone_network()
        fresh.add_node("c", parents=("a", "b"), cpt=(0.0, 0.5, 0.5, 1.0))
        assert net.marginal("a", evidence={"b": True}) == fresh.marginal(
            "a", evidence={"b": True}
        )
        assert net.marginal("a", evidence={"b": True}) == pytest.approx(
            before, abs=1e-12
        )
        for query in ({"a": True, "b": True}, {"c": True}, {"zone": False}):
            assert net.probability_of(query) == fresh.probability_of(query)
        assert net.marginal("zone", evidence={"c": True}) == fresh.marginal(
            "zone", evidence={"c": True}
        )

    def test_forward_reference_completed_after_failed_query(self):
        net = BayesianNetwork()
        net.add_node("replica", parents=("zone",), cpt=(0.0, 0.95))
        with pytest.raises(ModelStructureError, match="undefined parent"):
            net.marginal("replica")
        net.add_node("zone", cpt=0.99)
        fresh = BayesianNetwork()
        fresh.add_node("replica", parents=("zone",), cpt=(0.0, 0.95))
        fresh.add_node("zone", cpt=0.99)
        assert net.marginal("replica") == fresh.marginal("replica")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_incremental_build_matches_fresh_build(self, seed):
        # Query after every add_node; each answer must equal a network
        # built from scratch with the same nodes, bit for bit.
        rng = np.random.default_rng(seed)
        full, names = random_network(rng)
        queries = []
        for _ in range(6):
            chosen = [n for n in names if rng.random() < 0.5] or [names[0]]
            queries.append({n: bool(rng.integers(2)) for n in chosen})
        grown = BayesianNetwork()
        for size, node in enumerate(full, start=1):
            grown.add_node(node.name, parents=node.parents, cpt=node.table)
            fresh = BayesianNetwork()
            for earlier in list(full)[:size]:
                fresh.add_node(
                    earlier.name, parents=earlier.parents, cpt=earlier.table
                )
            for query in queries:
                known = {n: s for n, s in query.items() if n in fresh}
                if known:
                    assert grown.probability_of(known) == (
                        fresh.probability_of(known)
                    )

    def test_zero_probability_evidence_still_rejected_on_repeat(self):
        net = BayesianNetwork()
        net.add_node("zone", cpt=0.99)
        net.add_node("replica", parents=("zone",), cpt=(0.0, 1.0))
        net.add_node("other", cpt=0.5)
        evidence = {"zone": True, "replica": False}
        messages = []
        for attempt in (evidence, dict(reversed(evidence.items())), evidence):
            with pytest.raises(ValidationError) as caught:
                net.marginal("other", evidence=attempt)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == messages[2]
        assert "\n" not in messages[0]
        assert "probability zero" in messages[0]
        assert net.probability_of(evidence) == 0.0
