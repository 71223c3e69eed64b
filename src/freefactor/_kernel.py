"""The word kernel: free reduction over signed letter indices."""

from freefactor._reduce_py import IMPLEMENTATION, concat, reduce_word, substitute

__all__ = ["IMPLEMENTATION", "concat", "reduce_word", "substitute"]
