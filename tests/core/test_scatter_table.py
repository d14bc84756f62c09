"""The ragged scatter table against the per-writer DFS it replaces.

:func:`repro.core.execution.scatter_table` builds every push node's row
height by height as ragged copies of its children's rows.  The reference
walks each writer's push frontier with a stack, in the order the
reference propagation (``Runtime.propagate_from``) applies its steps.
Every group write runs the table's rows, so the second property drives
whole runtimes: per-event ``write()`` and ``write_batch`` against
``writer_step`` + ``propagate_from``.  Overlays are random DAGs with
negative edges and shuffled edge order: those of
``tests/dataflow/test_passes.py`` and layered ones whose push partials
fan out to several push partials below them, so a row splices several
children's rows, several levels deep.  The decisions are random but
consistent: a node pushes only if every input does.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import Sum, TopK
from repro.core.execution import Runtime, scatter_table
from repro.core.overlay import KIND_WRITER, NodeKind, Overlay
from repro.core.query import EgoQuery
from repro.core.windows import TupleWindow

from tests.conftest import as_object
from tests.dataflow.test_passes import overlays


def per_writer_table(csr):
    indptr, dsts, push_indptr, push_dsts, push_coeffs = [0], [], [0], [], []
    for handle in range(csr.num_nodes):
        if csr.kinds[handle] == KIND_WRITER:
            stack = [(handle, 1)]
            while stack:
                node, carried = stack.pop()
                for i in range(csr.out_indptr[node], csr.out_indptr[node + 1]):
                    dst = csr.out_indices[i]
                    sign = carried * csr.out_signs[i]
                    dsts.append(dst)
                    if csr.push[dst]:
                        push_dsts.append(dst)
                        push_coeffs.append(sign)
                        stack.append((dst, sign))
        indptr.append(len(dsts))
        push_indptr.append(len(push_dsts))
    return indptr, dsts, push_indptr, push_dsts, push_coeffs


@st.composite
def layered_overlays(draw):
    """Writers, two to four layers of partials and readers; every edge runs
    from a writer or partial to a later layer, at most one per pair, in
    random order, some negative."""
    overlay = Overlay()
    layers = [[overlay.add_writer(w) for w in range(draw(st.integers(1, 3)))]]
    for _ in range(draw(st.integers(2, 4))):
        layers.append([overlay.add_partial() for _ in range(draw(st.integers(1, 3)))])
    layers.append([overlay.add_reader(r) for r in range(draw(st.integers(1, 3)))])
    allowed = [
        (src, dst)
        for i, upper in enumerate(layers[:-1])
        for src in upper
        for lower in layers[i + 1 :]
        for dst in lower
    ]
    pairs = draw(st.lists(st.sampled_from(allowed), unique=True, min_size=1, max_size=30))
    for src, dst in pairs:
        overlay.add_edge(src, dst, draw(st.sampled_from((1, 1, -1))))
    return overlay


def decide(overlay, data):
    """Random consistent decisions: writers push, and a node pushes only
    if every input does."""
    push = set()
    for handle in overlay.topological_order():
        kind = overlay.kinds[handle]
        if kind is NodeKind.WRITER or (
            all(src in push for src in overlay.in_rows(handle)[0])
            and data.draw(st.sampled_from((True, True, False)))
        ):
            push.add(handle)
    overlay.set_decisions([handle in push for handle in range(overlay.num_nodes)])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overlay=st.one_of(overlays(), layered_overlays()), data=st.data())
def test_scatter_table_equals_per_writer_dfs(overlay, data):
    decide(overlay, data)
    csr = overlay.to_csr()
    table = scatter_table(csr)
    indptr, dsts, push_indptr, push_dsts, push_coeffs = per_writer_table(csr)
    assert table.indptr.tolist() == indptr
    assert table.dst.tolist() == dsts
    assert table.push_indptr.tolist() == push_indptr
    assert table.push_dst.tolist() == push_dsts
    assert table.push_coeff.tolist() == push_coeffs
    assert table.push_coeff.dtype == np.int8


RUNTIMES = [
    pytest.param(lambda: as_object(Sum()), id="sum-object"),
    pytest.param(Sum, id="sum-columnar"),
    pytest.param(lambda: TopK(2), id="topk"),
]


@pytest.mark.parametrize("aggregate", RUNTIMES)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overlay=st.one_of(overlays(), layered_overlays()), data=st.data())
def test_writes_run_the_table_like_the_reference_dfs(aggregate, overlay, data):
    """Per-event ``write()`` and ``write_batch`` reach the values,
    ``push_ops`` and ``observed_push`` of ``writer_step`` +
    ``propagate_from``, event by event.

    Rounds name each writer at most once, so a batch coalesces nothing and
    propagates in stream order; values grow, so no write's delta is zero
    (columnar tuple-window batches credit a zero-delta writer's traffic,
    the reference does not; see ``Runtime.observed_push``).
    """
    decide(overlay, data)
    writers = sorted(overlay.writer_of)
    rounds = data.draw(
        st.lists(st.lists(st.sampled_from(writers), unique=True, min_size=1), max_size=8)
    )

    def runtime():
        query = EgoQuery(aggregate=aggregate(), window=TupleWindow(2))
        return Runtime(pickle.loads(pickle.dumps(overlay)), query)

    reference, per_event, batched = runtime(), runtime(), runtime()
    value = 0
    for names in rounds:
        batch = []
        for node in names:
            value += 1
            batch.append((node, float(value)))
            per_event.write(node, float(value))
            reference.clock += 1.0
            handle = reference.overlay.writer_of[node]
            evicted = reference.buffers[node].append(float(value), reference.clock)
            message = reference.writer_step(handle, [float(value)], evicted)
            if message is not None:
                reference.propagate_from(handle, message)
        batched.write_batch(batch)
    n = overlay.num_nodes
    expected = [reference.values[h] for h in range(n)]
    for rt in (per_event, batched):
        assert [rt.values[h] for h in range(n)] == expected
        assert rt.counters.push_ops == reference.counters.push_ops
        assert list(rt.observed_push) == list(reference.observed_push)
    readers = list(overlay.reader_of)
    reads = reference.read_batch(readers)
    assert per_event.read_batch(readers) == reads == batched.read_batch(readers)
