"""Compiled propagation: the scatter table, pull plans, precise invalidation."""

from repro.core.aggregates import Max, Sum, TopK
from repro.core.execution import Runtime
from repro.core.overlay import Decision, Overlay
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow

from tests.conftest import as_object
from tests.core.test_pull_rows import uncompiled_pull


def shared_overlay():
    """w1,w2 -> PA -> {r1, r2};  w3 -> r2 (handles returned for poking)."""
    ov = Overlay()
    w = {name: ov.add_writer(name) for name in ("w1", "w2", "w3")}
    r1, r2 = ov.add_reader("r1"), ov.add_reader("r2")
    pa = ov.add_partial()
    ov.add_edge(w["w1"], pa)
    ov.add_edge(w["w2"], pa)
    ov.add_edge(pa, r1)
    ov.add_edge(pa, r2)
    ov.add_edge(w["w3"], r2)
    return ov, w, (r1, r2), pa


class TestPlanCaching:
    def test_push_plan_compiled_once_per_writer(self):
        """Every writer's push rows come from one scatter table, built once
        per overlay version: per-event writes to any writer reuse it, and
        the first write after a structural change builds the next one."""
        for aggregate in (as_object(Sum()), Sum()):
            ov, w, readers, pa = shared_overlay()
            ov.set_all_decisions(Decision.PUSH)
            rt = Runtime(ov, EgoQuery(aggregate=aggregate))
            for _ in range(5):
                rt.write("w1", 1.0)
            assert rt.scatter_builds == 1
            rt.write("w3", 1.0)
            assert (rt.scatter_builds, rt.plan_compiles) == (1, 0)
            w4 = ov.add_writer("w4")
            ov.add_edge(w4, pa)
            rt.rebuild()
            rt.write("w4", 2.0)
            rt.write("w1", 3.0)
            assert rt.scatter_builds == 2
            assert rt.read("r1") == 5.0  # w1 (3.0) + w4 (2.0); w2 never wrote

    def test_pull_plan_compiled_once_per_reader(self):
        # The object backend compiles one monolithic pull plan; the
        # columnar backend compiles one segment per pull node on the path.
        # Either way the first read pays for compilation and later reads
        # hit the cache.
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.read("r1")
        after_first = rt.plan_compiles
        assert after_first >= 1
        for _ in range(3):
            rt.read("r1")
        assert rt.plan_compiles == after_first

    def test_plan_replays_interpreter_exactly(self):
        """Compiled execution matches the uncompiled micro-step reference
        in values and work counters."""
        for aggregate, values in (
            (Sum(), [3.0, 4.0, 5.0]),
            (Max(), [3.0, 9.0, 5.0]),
            (TopK(2), ["a", "b", "a"]),
        ):
            ov1, *_ = shared_overlay()
            ov1.set_all_decisions(Decision.PUSH)
            compiled = Runtime(ov1, EgoQuery(aggregate=aggregate, window=TupleWindow(2)))
            ov2, *_ = shared_overlay()
            ov2.set_all_decisions(Decision.PUSH)
            reference = Runtime(ov2, EgoQuery(aggregate=aggregate, window=TupleWindow(2)))
            for node, value in zip(("w1", "w2", "w1"), values):
                compiled.write(node, value)
                # reference path: identical writer step, uncompiled DFS
                reference.clock += 1.0
                handle = reference.overlay.writer_of[node]
                evicted = reference.buffers[node].append(value, reference.clock)
                message = reference.writer_step(handle, [value], evicted)
                if message is not None:
                    reference.propagate_from(handle, message)
            # element-wise: the store may be a columnar wrapper
            n = compiled.overlay.num_nodes
            assert [compiled.values[h] for h in range(n)] == [
                reference.values[h] for h in range(n)
            ]
            assert compiled.counters.push_ops == reference.counters.push_ops

    def test_compiled_pull_matches_reference_pull(self):
        ov, w, (r1, r2), pa = shared_overlay()
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("w1", 2.0)
        rt.write("w2", 3.0)
        rt.write("w3", 7.0)
        compiled = rt.read("r2")
        # reference: the uncompiled recursive pull
        handle = rt.overlay.reader_of["r2"]
        assert compiled == rt.aggregate.finalize(uncompiled_pull(rt, handle)) == 12.0

    def test_negative_edges_through_plans(self):
        ov = Overlay()
        w = {name: ov.add_writer(name) for name in ("a", "b", "c")}
        inner = ov.add_partial()  # a + b
        outer = ov.add_partial()  # a + b + c
        r = ov.add_reader("r")  # outer - inner = c
        ov.add_edge(w["a"], inner)
        ov.add_edge(w["b"], inner)
        ov.add_edge(inner, outer)
        ov.add_edge(w["c"], outer)
        ov.add_edge(outer, r)
        ov.add_edge(inner, r, sign=-1)
        ov.set_all_decisions(Decision.PUSH)
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("a", 10.0)
        rt.write("b", 20.0)
        rt.write("c", 3.0)
        assert rt.read("r") == 3.0


class TestPreciseInvalidation:
    def test_decision_flip_spares_untouched_plans(self):
        ov, w, (r1, r2), pa = shared_overlay()
        ov.set_all_decisions(Decision.PUSH)
        rt = Runtime(ov, EgoQuery(aggregate=as_object(Sum())))
        rt.write("w1", 1.0)
        rt.write("w3", 2.0)
        rt.changed_handles()  # w1's closure touches pa, r1, r2; w3's only r2
        assert set(rt._closures.roots().tolist()) == {w["w1"], w["w3"]}
        rt.set_decision(r1, Decision.PULL)  # frontier flip
        # w1's closure traverses r1 -> dropped; w3's never sees r1 -> kept.
        assert set(rt._closures.roots().tolist()) == {w["w3"]}
        rt.write("w2", 5.0)
        assert rt.read("r1") == 6.0
        assert rt.read("r2") == 8.0
        # r1's pull plan (r1, pa) never sees r2; w3's closure does.
        assert set(rt._pull_plans) == {r1}
        rt.set_decision(r2, Decision.PULL)
        assert set(rt._pull_plans) == {r1}
        assert not len(rt._closures)
        assert rt.read("r1") == 6.0
        assert rt.read("r2") == 8.0

    def test_out_of_band_overlay_mutation_detected(self):
        ov, w, (r1, r2), pa = shared_overlay()
        ov.set_all_decisions(Decision.PUSH)
        rt = Runtime(ov, EgoQuery(aggregate=Sum()))
        rt.write("w1", 1.0)
        rt.changed_handles()
        assert set(rt._closures.roots().tolist()) == {w["w1"]}
        # Mutate the overlay directly (no runtime API): every compiled plan
        # and the scatter table are stale and must go.
        w4 = ov.add_writer("w4")
        ov.add_edge(w4, pa)
        rt.rebuild()
        assert not len(rt._closures) and rt._scatter is None
        rt.write("w4", 3.0)
        assert rt.read("r1") == 4.0
        assert set(rt.changed_handles().tolist()) == {r1, r2}

    def test_targeted_rebuild_keeps_unrelated_plans(self):
        # Two disjoint components: w1 -> pa -> r1 and w3 -> r2.
        ov = Overlay()
        w1, w3 = ov.add_writer("w1"), ov.add_writer("w3")
        pa = ov.add_partial()
        r1, r2 = ov.add_reader("r1"), ov.add_reader("r2")
        ov.add_edge(w1, pa)
        ov.add_edge(pa, r1)
        ov.add_edge(w3, r2)
        ov.set_all_decisions(Decision.PUSH)
        rt = Runtime(ov, EgoQuery(aggregate=Sum(), window=TupleWindow(2)))
        rt.write("w1", 1.0)
        rt.write("w3", 2.0)
        rt.changed_handles()
        compiles_before = rt.plan_compiles
        # Structural change local to w3/r2: direct edge removed.
        ov.remove_edge(w3, r2)
        rt.rebuild(dirty=ov.pop_dirty())
        # w3's closure (touching r2) dropped, w1's survives untouched.
        assert w1 in rt._closures.roots()
        assert w3 not in rt._closures.roots()
        rt.write("w1", 4.0)
        assert rt.changed_handles().tolist() == [r1]
        assert rt.plan_compiles == compiles_before  # no recompilation needed
        assert rt.read("r1") == 5.0
        assert rt.read("r2") == 0.0  # w3 no longer contributes

    def test_full_rebuild_invalidates_everything(self):
        ov, w, (r1, r2), pa = shared_overlay()
        ov.set_all_decisions(Decision.PUSH)
        ov.set_decision(r1, Decision.PULL)
        rt = Runtime(ov, EgoQuery(aggregate=as_object(Sum())))
        rt.write("w1", 1.0)
        assert rt.read("r1") == 1.0
        rt.changed_handles()
        assert set(rt._pull_plans) == {r1}
        assert set(rt._closures.roots().tolist()) == {w["w1"]}
        rt.rebuild()
        assert not rt._pull_plans and not len(rt._closures)
        assert rt.plan_invalidations >= 2
        assert rt.read("r1") == 1.0


class TestCSRSnapshot:
    def test_csr_roundtrip(self):
        ov, w, (r1, r2), pa = shared_overlay()
        csr = ov.to_csr()
        assert csr.num_nodes == ov.num_nodes
        assert csr.num_edges == ov.num_edges
        # Row slices reproduce the dict adjacency in insertion order.
        for dst in range(ov.num_nodes):
            srcs = csr.in_indices[csr.in_indptr[dst] : csr.in_indptr[dst + 1]]
            assert srcs == ov.in_rows(dst)[0]
        for src in range(ov.num_nodes):
            dsts = csr.out_indices[csr.out_indptr[src] : csr.out_indptr[src + 1]]
            assert dsts == ov.out_rows(src)[0]
        assert csr.fan_in == [ov.fan_in(h) for h in range(ov.num_nodes)]

    def test_csr_signs_and_decisions(self):
        ov = Overlay()
        a, b = ov.add_writer("a"), ov.add_writer("b")
        p = ov.add_partial()
        r = ov.add_reader("r")
        ov.add_edge(a, p)
        ov.add_edge(b, p)
        ov.add_edge(p, r)
        ov.add_edge(b, r, sign=-1)
        ov.set_decision(p, Decision.PUSH)
        csr = ov.to_csr()
        assert csr.in_signs[csr.in_indptr[r] : csr.in_indptr[r + 1]] == [1, -1]
        assert csr.push[a] and csr.push[b] and csr.push[p] and not csr.push[r]
