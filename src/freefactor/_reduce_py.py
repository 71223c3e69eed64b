"""Pure-Python word kernel: free reduction over signed letter indices.

Letters are nonzero ints; -x is the inverse of x.  ``reduce_word`` reduces
raw input letter by letter.  ``concat`` and ``substitute`` multiply words
that are already reduced, so they cancel only at the seams between pieces.
"""

from typing import Iterable, List, Optional, Sequence

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


def substitute(word: Iterable[int], pieces: Sequence[Sequence[int]]) -> List[int]:
    """The reduced product of ``pieces[x - 1]`` for each letter x > 0 of
    ``word`` and of its inverse for x < 0.

    Every piece must be freely reduced.  The output then stays reduced if
    each piece cancels only against the output's tail: pop what cancels, and
    extend by the rest.  Each inverse piece is built once, when first needed.
    """
    out: List[int] = []
    inverses: List[Optional[List[int]]] = [None] * len(pieces)
    for x in word:
        if x > 0:
            piece = pieces[x - 1]
        else:
            piece = inverses[-x - 1]
            if piece is None:
                piece = inverses[-x - 1] = [-y for y in reversed(pieces[-x - 1])]
        if out and piece and out[-1] == -piece[0]:
            out.pop()
            j, n = 1, len(piece)
            while j < n and out and out[-1] == -piece[j]:
                out.pop()
                j += 1
            out.extend(piece[j:])
        else:
            out.extend(piece)
    return out
