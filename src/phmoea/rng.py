"""numpy's seeded draws, read straight from PCG64's 64-bit words.

``WordStream(seed)`` gives exactly the draws of ``np.random.default_rng(seed)``
in the two forms the engine makes, without numpy's cost per call:

- a double in [0, 1) is ``(word() >> 11) * 2**-53``, which callers inline;
- ``below(n)`` is ``integers(n)``: Lemire's rejection draw on 32-bit halves
  (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
  29(1), 2019). A word gives its low half first, and its high half waits for
  the next integer draw, as PCG64's ``has_uint32`` does; doubles pass it by.

numpy's array forms are these draws in order: ``random(k)`` is k doubles,
``integers(n, size=k)`` and ``integers(0, bounds)`` one ``below`` per entry.
So seeded bytes rest on PCG64's words and numpy's draw algorithms, which the
tests pin against numpy call by call.
"""

from __future__ import annotations

import operator
from itertools import chain

import numpy as np

BLOCK = 4096            # words read from the bit generator at a time
_HALF = 0xFFFFFFFF


class WordStream:
    """One seed's PCG64 words (``word()``) and numpy's bounded integer draw."""

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._half, self._pending = 0, False    # PCG64's uinteger and has_uint32
        self._refill()
        self.word = chain.from_iterable(self._blocks()).__next__

    def _refill(self) -> None:
        self._start = self._bits.state
        self._block = iter(self._bits.random_raw(BLOCK).tolist())

    def _blocks(self):
        while True:
            yield self._block
            self._refill()

    def below(self, n: int) -> int:
        """numpy's ``integers(n)`` for ``1 <= n <= 2**32``; n == 1 draws nothing."""
        if n == 1:
            return 0
        if n > 1 << 32:
            raise ValueError(f"integers below {n} take numpy's 64-bit draw, "
                             f"which the stream does not make")
        while True:
            if self._pending:
                self._pending = False
                half = self._half
            else:
                w = self.word()
                self._half, self._pending = w >> 32, True
                half = w & _HALF
            m = half * n
            low = m & _HALF
            # numpy redraws while low < (2**32 - n) % n, a bound below n
            if low >= n or low >= (1 << 32) % n:
                return m >> 32

    @property
    def state(self) -> dict:
        """numpy's ``bit_generator.state`` after the draws made so far."""
        bits = np.random.PCG64()
        bits.state = self._start
        bits.advance(BLOCK - operator.length_hint(self._block))
        state = bits.state
        state["has_uint32"], state["uinteger"] = int(self._pending), self._half
        return state
