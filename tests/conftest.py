import errno
import itertools
import os

import pytest

from mipp import cloud_node


@pytest.fixture
def disk_full_after(monkeypatch):
    """Call with ``k``: from then on ``cloud_node.write_pgm`` writes ``k``
    images and then raises ``ENOSPC``, as a full disk would."""
    def fill(k):
        write_pgm, calls = cloud_node.write_pgm, itertools.count()

        def write_until_full(path, *args, **kwargs):
            if next(calls) >= k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return write_pgm(path, *args, **kwargs)

        monkeypatch.setattr(cloud_node, "write_pgm", write_until_full)
    return fill
