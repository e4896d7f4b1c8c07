"""Seeded random streams used by every stochastic component.

All randomness flows through :class:`RandomStream`, which hands out uniforms
on (0, 1] from a PCG64 generator; its users derive everything else from them
by inverse CDF. Keeping the draw primitive this explicit has two payoffs:
exponential sampling via -ln(U)/rate never sees ln(0), and batched consumers
(the Monte Carlo estimator) see bit-for-bit the same sequence as one-at-a-time
consumers, which the tests rely on.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# 1.0 as a 0-d array: a ufunc converts a Python float operand anew on
# every call, which costs more than subtracting a short draw
_ONE = np.ones(())
_ONE.flags.writeable = False


def derive_seed(base: int, index: int) -> int:
    """Derive a child seed as base XOR index (both reduced mod 2**64)."""
    return (int(base) ^ int(index)) & _MASK64


class RandomStream:
    """Deterministic source of uniform draws.

    Identical seeds produce identical draw sequences. ``position`` counts the
    uniforms consumed so far, so two streams can be checked for lockstep.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self.position = 0

    def derive(self, index: int) -> "RandomStream":
        """Independent child stream (seed XOR index); self is untouched."""
        return RandomStream(derive_seed(self.seed, index))

    def uniform(self, size=None):
        """Uniform draws on (0, 1]."""
        if size is None:
            self.position += 1
            return 1.0 - self._gen.random()
        u = self._gen.random(size)
        np.subtract(_ONE, u, out=u)
        self.position += u.size
        return u

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, position={self.position})"
