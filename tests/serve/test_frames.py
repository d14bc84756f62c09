"""The ``K_WRITE`` codec round trip: decode is a view, not a rebuild.

A packed write batch leaves ``frames.decode`` as a record array over the
received payload's own bytes, so decoding builds no per-row object at any
batch size.  That is why binary decode beats ``pickle.loads`` of the same
rows, which has to rebuild every triple.
"""

import random

import numpy as np
import pytest

from repro.core.statestore import WriteFrame
from repro.serve import frames
from repro.serve.messages import OP_WRITE


def make_batch(size, seed=7):
    rng = random.Random(seed)
    return [
        (rng.randrange(1_000_000), float(rng.randrange(1000)), float(i))
        for i in range(size)
    ]


@pytest.mark.parametrize("size", [64, 4096])
def test_write_frame_decodes_to_a_view_of_its_payload(size):
    items = make_batch(size)
    frame = WriteFrame.from_items(items)
    assert frame is not None
    payload = frames.encode_write(3, 5, frame)
    assert len(payload) == frames.WRITE_HEADER.size + size * WriteFrame.dtype.itemsize

    op, seq, batch_no, decoded = frames.decode(payload)
    assert (op, seq, batch_no) == (OP_WRITE, 3, 5)
    assert isinstance(decoded, WriteFrame) and len(decoded) == size
    assert np.array_equal(decoded.records, frame.records)
    assert list(decoded) == items
    assert np.shares_memory(decoded.records, np.frombuffer(payload, dtype=np.uint8))
    assert not decoded.records.flags.owndata
