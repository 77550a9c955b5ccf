"""Checkpoint round trip."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cosep import checkpoint

# float32 bit patterns the payload must carry unchanged
SPECIAL_BITS = [0x7FC00000, 0xFFC00001, 0x7F800001, 0x7F800000, 0xFF800000, 0x80000000, 0x00000001]


@st.composite
def float32_arrays(draw):
    """Rank 0-4 arrays, zero-size dims included, with NaN, +-inf, -0.0
    and subnormal bit patterns mixed into the values."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=0, max_size=4)))
    size = int(np.prod(shape, dtype=np.int64))
    bits = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**32 - 1)),
                         min_size=size, max_size=size))
    return np.array(bits, dtype=np.uint32).view(np.float32).reshape(shape)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**53, 2**53) | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(tensors=st.dictionaries(st.text(min_size=1, max_size=12), float32_arrays(), max_size=4),
           meta=st.dictionaries(st.text(max_size=8), json_values, max_size=4))
    def test_load_returns_the_bits_and_a_resave_the_bytes(self, tmp_path_factory, tensors, meta):
        path = tmp_path_factory.mktemp("ckpt") / "t.ckpt"
        checkpoint.save_tensors(path, tensors, meta)
        loaded, loaded_meta = checkpoint.load_tensors(path)
        assert loaded_meta == meta and sorted(loaded) == sorted(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()
        again = path.with_name("again.ckpt")
        checkpoint.save_tensors(again, loaded, loaded_meta)
        assert again.read_bytes() == path.read_bytes()
