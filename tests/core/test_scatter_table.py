"""The ragged scatter table against the per-writer DFS it replaces.

:func:`repro.core.execution.scatter_table` builds every push node's row
height by height as ragged copies of its children's rows.  The reference
walks each writer's push frontier with a stack, in the order the compiled
push plans apply their steps.  Overlays are random DAGs with negative
edges and shuffled edge order: those of ``tests/dataflow/test_passes.py``
and layered ones whose push partials fan out to several push partials
below them, so a row splices several children's rows, several levels
deep.  The decisions are random but consistent: a node pushes only if
every input does.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.execution import scatter_table
from repro.core.overlay import KIND_WRITER, NodeKind, Overlay

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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overlay=st.one_of(overlays(), layered_overlays()), data=st.data())
def test_scatter_table_equals_per_writer_dfs(overlay, data):
    push = set()
    for handle in overlay.topological_order():
        kind = overlay.kinds[handle]
        if kind is NodeKind.WRITER or (
            all(src in push for src in overlay.inputs[handle])
            and data.draw(st.sampled_from((True, True, False)))
        ):
            push.add(handle)
    overlay.set_decisions([handle in push for handle in range(overlay.num_nodes)])
    csr = overlay.to_csr()
    table = scatter_table(csr)
    indptr, dsts, push_indptr, push_dsts, push_coeffs = per_writer_table(csr)
    assert table.indptr.tolist() == indptr
    assert table.dst.tolist() == dsts
    assert table.push_indptr.tolist() == push_indptr
    assert table.push_dst.tolist() == push_dsts
    assert table.push_coeff.tolist() == push_coeffs
    assert table.push_coeff.dtype == np.int8
