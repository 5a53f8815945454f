"""Independent reference implementations that the library code is checked against."""

from collections import deque

import numpy as np

NEIGHBORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def bfs_segment(amp, seed, threshold_db=-6.0):
    """Flood fill of the 6-connected above-threshold region holding `seed`.

    The threshold is relative to the global peak of `amp`; a seed below it
    yields an empty mask.
    """
    amp = np.asarray(amp)
    shape = amp.shape
    above = amp >= amp.max() * 10.0 ** (threshold_db / 20.0)
    seed = tuple(int(v) for v in seed)
    mask = np.zeros(shape, dtype=bool)
    if not above[seed]:
        return mask
    queue = deque([seed])
    mask[seed] = True
    while queue:
        i, j, k = queue.popleft()
        for di, dj, dk in NEIGHBORS:
            n = (i + di, j + dj, k + dk)
            if (all(0 <= v < s for v, s in zip(n, shape))
                    and above[n] and not mask[n]):
                mask[n] = True
                queue.append(n)
    return mask
