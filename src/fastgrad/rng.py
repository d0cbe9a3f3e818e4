"""Deterministic, portable pseudo-random streams for data generation.

Generated datasets are part of the package contract, so the generator is
pinned exactly rather than delegated to a platform library:

* state advances by the odd constant 0x9E3779B97F4A7C15 modulo 2**64;
* each output is the state finalized by ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64);
* a uniform takes the top 53 bits as a double in [0, 1);
* ``normals`` applies the Box-Muller transform to consecutive uniform pairs,
  with the radius uniform shifted into (0, 1] so log never sees zero;
* ``signs`` maps the top output bit to +1 (clear) or -1 (set).

Any implementation following these rules reproduces the streams bit-for-bit.
Large requests compute the integer stream, the uniforms, log, cos and sin in
whole blocks: the ``uint64`` arithmetic wraps exactly, and numpy's float64 cos
and sin call the platform libm, as ``math`` does. numpy's float64 log has its
own SIMD loop, which differs from libm in the last bit on about 0.3 % of
values; a call whose input and output strides have opposite signs skips it
and runs numpy's scalar loop, which calls libm's log. So log reads the
uniforms through a reversed view into a fresh array and reverses the result.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_VECTOR_MIN = 32  # below this many variates the per-draw loop is faster
_BLOCK = 4096  # draws per vectorised block (even); bounds the scratch memory


class SplitMix64:
    """64-bit mixing generator with the streams documented above."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def normals(self, count: int) -> np.ndarray:
        """count standard normal variates via Box-Muller.

        Small counts take the per-draw loop, larger ones whole blocks of
        draws; both give the same values and leave the same state.
        """
        if count < _VECTOR_MIN:
            return self._normals_per_draw(count)
        out = np.empty(count)
        for lo in range(0, count, _BLOCK):
            n = min(_BLOCK, count - lo)
            z = self._u64_block(n + (n & 1))  # an odd tail still draws its whole pair
            u1 = ((z[0::2] >> 11) + 1).astype(np.float64) * _INV_2_53  # (0, 1]
            u2 = (z[1::2] >> 11).astype(np.float64) * _INV_2_53  # [0, 1)
            log_u1 = np.log(u1[::-1])[::-1]  # the reversed stride selects the libm loop
            r = np.sqrt(-2.0 * log_u1)
            angle = 2.0 * math.pi * u2
            block = out[lo : lo + n]
            block[0::2] = r * np.cos(angle)
            block[1::2] = (r * np.sin(angle))[: n // 2]
        return out

    def signs(self, count: int) -> np.ndarray:
        """count labels drawn uniformly from {-1.0, +1.0}."""
        out = np.empty(count)
        for lo in range(0, count, _BLOCK):
            z = self._u64_block(min(_BLOCK, count - lo))
            out[lo : lo + z.size] = np.where(z >> 63 == 0, 1.0, -1.0)
        return out

    def _normals_per_draw(self, count: int) -> np.ndarray:
        out = np.empty(count)
        pairs = (count + 1) // 2
        idx = 0
        for _ in range(pairs):
            u1 = ((self.u64() >> 11) + 1) * _INV_2_53  # (0, 1]
            u2 = (self.u64() >> 11) * _INV_2_53  # [0, 1)
            r = math.sqrt(-2.0 * math.log(u1))
            angle = 2.0 * math.pi * u2
            out[idx] = r * math.cos(angle)
            idx += 1
            if idx < count:
                out[idx] = r * math.sin(angle)
                idx += 1
        return out

    def _u64_block(self, n: int) -> np.ndarray:
        """The next n outputs of u64() as a uint64 array, in wrapping arithmetic."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = int(z[-1])
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        z ^= z >> 31
        return z
