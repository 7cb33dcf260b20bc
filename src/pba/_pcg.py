"""numpy's seeded uniforms in pure Python, bit for bit.

``streams(seed, count)`` stands for ``numpy.random.SeedSequence(seed).spawn(count)``
and ``random(stream, k)`` for ``numpy.random.Generator(PCG64(child)).random(k)``
on each child: NEP 19's seed sequence hashing, O'Neill's PCG64 (a 128-bit LCG
with the XSL-RR 128/64 output) seeded as numpy's ``pcg64_set_seed`` does, and
``(output >> 11) * 2**-53`` per uniform.  Only Python integers are used, so a
draw loads neither ``numpy.random`` nor the OpenSSL that its ``secrets``
import brings in.  As in numpy, a negative seed raises ``ValueError`` and a
seed that is not an integer ``TypeError``.
"""

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# generate_state's hash constants: state word i is pool[i % 4] ^ _B[i], times _B[i + 1].
_B = [0x8B51F9DD * 0x58F38DED**i & _M32 for i in range(9)]


def _words(n: int) -> list[int]:
    """``n``'s 32-bit words, least significant first; ``[0]`` for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``: the hashed value and the next hash constant."""
    value ^= const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    mixed = _MIX_L * x - _MIX_R * y & _M32
    return mixed ^ mixed >> 16


def _absorb(pool: list[int], const: int, word: int) -> int:
    """Mixes ``word`` into each pool word, as ``mix_entropy`` does past the pool's size."""
    for dst in range(4):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def streams(seed: int, count: int):
    """The PCG64 ``(state, increment)`` of each of ``count`` children of ``seed``.

    The seed's words fill and mix the 4-word pool once; each child then
    absorbs only its spawn key.  The seed is checked here, not on first use.
    """
    words = _words(operator.index(seed))
    pool, const = [], _INIT_A
    for word in (words + [0, 0, 0])[:4]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[4:]:
        const = _absorb(pool, const, word)
    return (_seeded(pool, const, key) for key in range(count))


def _seeded(pool: list[int], const: int, key: int) -> tuple[int, int]:
    pool = pool.copy()
    for word in _words(key):
        const = _absorb(pool, const, word)
    # generate_state(4, uint64) as eight 32-bit words, low word of each pair first.
    state = [(pool[i & 3] ^ _B[i]) * _B[i + 1] & _M32 for i in range(8)]
    state = [word ^ word >> 16 for word in state]
    start = (state[0] | state[1] << 32) << 64 | state[2] | state[3] << 32
    sequence = (state[4] | state[5] << 32) << 64 | state[6] | state[7] << 32
    increment = (sequence << 1 | 1) & _M128
    # pcg64_set_seed: from state 0, step, add ``start``, step again.
    return ((increment + start) * _PCG_MULT + increment) & _M128, increment


def random(stream: tuple[int, int], k: int) -> list[float]:
    """The first ``k`` doubles in [0, 1) of the PCG64 ``stream``."""
    state, increment = stream
    out = []
    for _ in range(k):
        state = (state * _PCG_MULT + increment) & _M128
        word = (state >> 64 ^ state) & _M64
        rotation = state >> 122
        out.append((((word >> rotation | word << (64 - rotation)) & _M64) >> 11) * 2.0**-53)
    return out
