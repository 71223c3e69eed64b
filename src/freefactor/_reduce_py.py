"""Pure-Python word kernel: free reduction over signed letter indices.

Letters are nonzero ints; -x is the inverse of x.
"""

from typing import Iterable, List, Sequence

IMPLEMENTATION = "python"


def reduce_word(seq: Iterable[int]) -> List[int]:
    """Freely reduce a signed-letter sequence (stack cancellation)."""
    out: List[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def concat(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Concatenate two already-reduced sequences, cancelling at the seam."""
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return list(a[:i]) + list(b[j:])
