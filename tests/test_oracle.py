"""The brute-force oracle (``tests/oracle.py``) on hand-computed cases.

Every engine-level read check compares against this oracle, so its own
answers are pinned here by hand, one rule of its model at a time.
"""

import pytest

from tests.oracle import COUNT, COUNT_DISTINCT, MAX, MEAN, MIN, SUM, EgoOracle, top_k

#: w1, w2 -> r1;  w1, w2, w3 -> r2 (the runtime tests' shared overlay, as a graph).
SHARED = [("w1", "r1"), ("w2", "r1"), ("w1", "r2"), ("w2", "r2"), ("w3", "r2")]


def test_two_writers_and_an_unknown_node():
    oracle = EgoOracle(SHARED)
    oracle.write("w1", 3.0)
    oracle.write("w3", 4.0)
    assert oracle.fold(["w1", "w3"]) == 7.0
    assert oracle.read("r1") == 3.0
    assert oracle.read("r2") == 7.0
    assert oracle.fold(["ghost"]) == 0.0
    assert oracle.read("ghost") == 0.0


def test_each_aggregate_over_one_ego():
    values = [4.0, 1.0, 4.0, 2.0]
    answers = {
        SUM: 11.0, COUNT: 4, MEAN: 2.75, MAX: 4.0, MIN: 1.0, COUNT_DISTINCT: 3,
    }
    for aggregate, want in answers.items():
        oracle = EgoOracle([("a", "r"), ("b", "r")], aggregate=aggregate, window=("tuple", 2))
        for node, value in zip("abab", values):
            oracle.write(node, value)
        assert oracle.read("r") == want, aggregate
        assert type(oracle.read("r")) is type(want)
    for aggregate, empty in ((SUM, 0.0), (COUNT, 0), (MEAN, None), (MAX, None)):
        assert EgoOracle([("a", "r")], aggregate=aggregate).read("r") == empty


def test_top_k_breaks_a_tie_by_repr():
    oracle = EgoOracle([("a", "r"), ("b", "r")], aggregate=top_k(2), window=("tuple", 3))
    for node, value in [("a", 3.0), ("a", 1.0), ("a", 7.0), ("b", 1.0), ("b", 3.0)]:
        oracle.write(node, value)
    # 3.0 and 1.0 both count 2; "1.0" sorts before "3.0"; 7.0 counts 1
    assert oracle.read("r") == [(1.0, 2), (3.0, 2)]
    oracle.aggregate = top_k(1)
    assert oracle.read("r") == [(1.0, 2)]


def test_tuple_window_keeps_the_last_k_writes():
    oracle = EgoOracle([("a", "r")], window=("tuple", 2))
    for value in (1.0, 2.0, 4.0):
        oracle.write("a", value)
    assert oracle.window("a") == [2.0, 4.0]
    assert oracle.read("r") == 6.0


def test_time_window_evicts_at_exactly_clock_minus_duration():
    oracle = EgoOracle([("a", "r"), ("b", "r")], window=("time", 5.0))
    oracle.write("a", 1.0, 1.0)
    oracle.write("a", 2.0, 1.5)
    oracle.write("b", 4.0, 6.0)
    # clock 6, cutoff 1: the write at 1.0 has expired, the one at 1.5 lives
    assert oracle.read("r") == 6.0
    oracle.advance(6.5)
    assert oracle.read("r") == 4.0
    oracle.write("b", 8.0)  # no timestamp: stamped clock + 1 = 7.5
    assert oracle.clock == 7.5
    assert oracle.window("b") == [4.0, 8.0]
    with pytest.raises(ValueError):
        oracle.write("b", 1.0, 7.0)


def test_two_hop_ego():
    edges = [("a", "b"), ("b", "c"), ("x", "c")]
    one, two = EgoOracle(edges), EgoOracle(edges, hops=2)
    for oracle in (one, two):
        for node, value in (("a", 1.0), ("b", 10.0), ("x", 100.0)):
            oracle.write(node, value)
    assert one.members("c") == {"b", "x"} and one.read("c") == 110.0
    assert two.members("c") == {"a", "b", "x"} and two.read("c") == 111.0
    assert two.read("b") == 1.0


def test_direction_self_filter_and_predicate():
    edges = [("a", "b"), ("b", "c")]
    assert EgoOracle(edges, direction="out").members("b") == {"c"}
    assert EgoOracle(edges, direction="both").members("b") == {"a", "c"}
    assert EgoOracle(edges, include_self=True).members("b") == {"a", "b"}
    both = EgoOracle(edges, direction="both", member_filter=lambda node: node != "c")
    assert both.members("b") == {"a"}
    oracle = EgoOracle(edges, readers=lambda node: node == "c")
    oracle.write("a", 1.0)  # a feeds only b, which has no query: dropped
    oracle.write("b", 2.0)
    assert (oracle.read("b"), oracle.read("c")) == (0.0, 2.0)
    assert oracle.writers() == {"b"} and oracle.window("a") == []


def test_an_unobserved_write_moves_the_clock_and_is_dropped():
    oracle = EgoOracle([("a", "r")], nodes=["lone"])
    oracle.write("lone", 5.0, 3.0)
    assert oracle.clock == 3.0
    assert oracle.window("lone") == []


@pytest.mark.parametrize("maintained", [False, True])
def test_an_edge_removal(maintained):
    oracle = EgoOracle(SHARED, maintained=maintained)
    oracle.write("w3", 4.0)
    oracle.write("w1", 3.0)
    oracle.remove_edge("w3", "r2")
    assert oracle.read("r2") == 3.0  # w3 left N(r2)
    # w3 feeds no reader now: a recompiled engine drops its window at the
    # next sync, a maintained overlay keeps the writer and the window
    oracle.add_edge("w3", "r1")
    assert oracle.read("r1") == (3.0 if not maintained else 7.0)
    oracle.remove_node("w1")
    assert oracle.read("r2") == 0.0
    assert "w1" not in oracle.writers()


def test_a_removal_and_readdition_before_a_sync_keeps_the_window():
    oracle = EgoOracle([("a", "r")])
    oracle.write("a", 2.0)
    oracle.remove_edge("a", "r")
    oracle.add_edge("a", "r")
    assert oracle.read("r") == 2.0


def test_restart_rederives_the_writers():
    oracle = EgoOracle([("a", "r")], maintained=True)
    oracle.write("a", 2.0)
    oracle.remove_edge("a", "r")
    oracle.write("a", 3.0)  # still a writer of the maintained overlay
    oracle.restart()  # a fresh engine over the graph as it stands
    oracle.add_edge("a", "r")
    assert oracle.read("r") == 0.0
