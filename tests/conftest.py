import numpy as np
import pytest


class PrefixedStream:
    """A numpy Generator whose stream of standard normals starts with extra
    values; every other draw is delegated unchanged."""

    def __init__(self, rng, prefix):
        self.rng = rng
        self._prefix = list(prefix)

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size=None, out=None):
        n = out.size if out is not None else int(np.prod(size))
        head, self._prefix = self._prefix[:n], self._prefix[n:]
        values = np.concatenate([head, self.rng.standard_normal(n - len(head))])
        if out is None:
            return values.reshape(size)
        out[...] = values
        return out


@pytest.fixture
def prefixed_stream():
    return PrefixedStream
