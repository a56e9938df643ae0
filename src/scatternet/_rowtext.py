"""Points rows as text, computed in numpy arrays: the bytes that
``b"%r,%r,%d\\n"`` makes of each ``(x, y, sector)`` row.

A float's digits are the shortest that read back as the float and, among
those, the closest to it (ties to an even last digit): the digits of
CPython's ``repr``.  They are selected by Schubfach's interval tests
(R. Giulietti, "The Schubfach way to render doubles", 2020) in uint64
arithmetic, and laid out as ``repr`` lays them out.  Tags are printed as
``%d`` prints them.

A block of rows is built as a table of 4-byte quads, one column per quad
of a row, with a mask of the bytes that each row uses; one boolean
compaction of the table joins the block's rows.  The tables this needs are
built on first use, by :func:`tables`.
"""
from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFF_FFFF)
_LOW63 = _U64((1 << 63) - 1)
_SIGNIFICAND = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
_ONE, _TWO, _TEN = _U64(1), _U64(2), _U64(10)
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)

# Rows per block, whose temporaries stay in cache: on a 2-vCPU VM a whole
# 16,384-row chunk as one block took about a quarter longer.
_BLOCK = 4096


def _floor_log10_pow2(q):
    """floor(log10(2**q)) for int64 ``q``, |q| < 5e6."""
    return (q * 661_971_961_083) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)) for int64 ``e``, |e| < 1e5."""
    return (e * 913_124_641_741) >> 38


# floor(log10(3/4 * 2**q)) is (q * 661_971_961_083 - _THREE_QUARTERS) >> 41
_THREE_QUARTERS = 274_743_187_321


def _quads(*texts: str):
    """Each 4-character ASCII text as one uint32, in memory order; "_" is a
    byte no row uses."""
    return np.frombuffer("".join(texts).replace("_", "\0").encode(), dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def tables() -> SimpleNamespace:
    """The kernel's tables, built on the first call.

    ``k_min`` is the least decimal exponent ``k`` of a float's interval,
    and ``g[:, k - k_min]`` the 126-bit ``floor(10**-k / 2**r) + 1`` in
    ``[2**125, 2**126]``: its top 63 bits, their 32-bit limbs and the limbs
    of its bottom 63 bits.  ``digits[i]`` is the quad of the 4 digits of
    ``i``.  In a run of ``n`` places that starts at the first byte of a
    field of quads, ``left[j, n]`` is the mask of quad ``j``; in one that
    ends at the field's last byte, ``right[j, n]`` is the mask of quad
    ``j`` from the right.  ``head`` masks a slot's first quad, and
    ``point`` its point quad."""
    q = np.arange(-1074, 972)
    ks = np.concatenate([_floor_log10_pow2(q), (q * 661_971_961_083 - _THREE_QUARTERS) >> 41])
    k_min, k_max = int(ks.min()), int(ks.max())
    g = []
    for k in range(k_min, k_max + 1):
        r = int(_floor_log2_pow10(np.int64(-k))) - 125
        beta = (10**-k >> r if r >= 0 else 10**-k << -r) if k <= 0 else (1 << -r) // 10**k
        top, bottom = (beta + 1) >> 63, (beta + 1) & ((1 << 63) - 1)
        g.append((top, top >> 32, top & 0xFFFF_FFFF, bottom >> 32, bottom & 0xFFFF_FFFF))
    used = np.clip(np.arange(21) - 4 * np.arange(5)[:, None], 0, 4)  # bytes of quad j in a run of n
    masks = ["\1" * bytes + "\0" * (4 - bytes) for bytes in range(5)]
    return SimpleNamespace(
        k_min=k_min,
        g=np.array(g, dtype=_U64).T.copy(),
        digits=_quads(*(f"{i:04d}" for i in range(10_000))),
        left=_quads(*masks)[used],
        right=_quads(*(mask[::-1] for mask in masks))[used],
        # ",", if used, and the sign: used by index 2 * comma + sign
        head=_quads("\0\0\0\0", "\0\0\0\1", "\0\0\1\0", "\0\0\1\1"),
        # the point and the 0s after it: used by index point + 2 * zeros
        point=_quads(*(used + "\1" * zeros + "\0" * (3 - zeros) for zeros in range(4) for used in "\0\1")),
    )


def _mul_high(a1, a0, b1, b0):
    """The high 64 bits of ``a * b``, from 32-bit limbs: ``a = a1 2**32 + a0``."""
    low = a0 * b0
    mid = a1 * b0 + (low >> _U64(32))
    cross = (mid & _LOW32) + a0 * b1
    return a1 * b1 + (mid >> _U64(32)) + (cross >> _U64(32))


def _round_to_odd(g, cp):
    """``g * cp / 2**127`` rounded to odd as Schubfach computes it: the
    integer part, its lowest bit set if the fraction kept is not 0."""
    g1, g1h, g1l, g0h, g0l = g
    c1, c0 = cp >> _U64(32), cp & _LOW32
    z = ((g1 * cp) >> _ONE) + _mul_high(g0h, g0l, c1, c0)  # g1 * cp wraps: its low 64 bits
    return (_mul_high(g1h, g1l, c1, c0) + (z >> _U64(63))) | (((z & _LOW63) + _LOW63) >> _U64(63))


def _shortest(values):
    """``(negative, digits, exponent)`` of finite float64 ``values``: the
    shortest decimal ``digits * 10**exponent`` that reads back as each
    value, the closest to it if several are that short, with no trailing
    zero digit (``digits`` 0 and ``exponent`` 0 for a zero)."""
    table = tables()
    bits = values.view(_U64)
    negative = bits.view(np.int64) < 0
    biased = (bits >> _U64(52)).view(np.int64) & 0x7FF
    fraction = bits & _SIGNIFICAND
    c = fraction | _HIDDEN
    q = biased - 1075
    subnormal = biased == 0
    if subnormal.any():
        c[subnormal] = fraction[subnormal]
        q[subnormal] = -1074
    irregular = (fraction == 0) & (biased > 1)  # a power of 2: the spacing below is half the one above
    k = (q * 661_971_961_083 - irregular * _THREE_QUARTERS) >> 41
    h = (q + _floor_log2_pow10(-k) + 2).view(_U64)
    at = k - table.k_min
    g = [row.take(at) for row in table.g]
    cb = c << _TWO
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _TWO + irregular) << h) + (c & _ONE)  # an odd c's interval is open
    vbr = _round_to_odd(g, (cb + _TWO) << h) - (c & _ONE)
    s = vb >> _TWO
    # a multiple of 10**(k + 1) in the interval: at most one fits, and no shorter one does
    s10 = s // _TEN
    upin = vbl <= s10 * _U64(40)
    short = upin != (s10 * _U64(40) + _U64(40) <= vbr)
    # else s or s + 1 times 10**k: the one in the interval, else the closer, else the even
    s4 = s << _TWO
    above = (s4 + _U64(4) <= vbr) & ((s4 < vbl) | (vb > s4 + _TWO) | ((vb == s4 + _TWO) & (s & _ONE != 0)))
    digits = np.where(short, s10 + ~upin, s + above)
    exponent = k + short
    zero = (biased == 0) & (fraction == 0)
    if zero.any():
        digits[zero] = 0
        exponent[zero] = 0
    # the shortest digits end in no 0
    ends = np.flatnonzero((digits // _TEN * _TEN == digits) & (digits != 0))
    while ends.size:
        shorter = digits[ends] // _TEN
        digits[ends] = shorter
        exponent[ends] += 1
        ends = ends[shorter // _TEN * _TEN == shorter]
    return negative, digits, exponent


def _groups(values) -> int:
    """4-digit groups in the largest of ``values``, at least 1."""
    return int(np.searchsorted(_POW10[4::4], values.max(), side="right")) + 1


def _digit_quads(values, groups: int) -> list:
    """The lowest ``groups`` 4-digit groups of uint64 ``values`` as quads,
    the most significant first."""
    digits = tables().digits
    quads = []
    for _ in range(groups):
        higher = values // _U64(10_000)
        quads.append(digits.take((values - higher * _U64(10_000)).view(np.int64)))
        values = higher
    return quads[::-1]


def _right_runs(count, groups: int) -> list:
    """Masks of ``groups`` quads whose last ``count`` bytes are used."""
    right = tables().right
    return [right[group].take(count) for group in range(groups - 1, -1, -1)]


def _float_columns(values, separated) -> list:
    """``(quads, masks)`` of each column of the slots of float64 ``values``:
    its sign, after a "," where ``separated``; its integer digits; its
    point and the 0s after it; its fraction digits; its exponent."""
    table = tables()
    negative, digits, exponent = _shortest(values)
    count = np.searchsorted(_POW10[1:17], digits, side="right") + 1
    lead = exponent + count - 1  # the decimal exponent of the first digit
    scientific = (lead < -4) | (lead > 15)
    # digits before the point: ddd.ddd and ddd000.0 as they are, 0.000ddd as 0, d.ddde+XX as d
    point = np.where(scientific, 0, np.maximum(lead, -1))
    full = digits * _POW10[17 - count]  # 17 digits
    scale = _POW10[16 - point]
    integer = full // scale
    fraction = (full - integer * scale) * _POW10[point + 1]  # 17 places, left-aligned
    fraction_count = np.maximum(count - point - 1, ~scientific)  # repr's ".0" after an integral value
    zeros = np.where(scientific, 0, np.maximum(-lead - 1, 0))
    columns = [(_quads("__,-")[0], table.head.take(2 * separated + negative))]
    groups = _groups(integer)
    columns += zip(_digit_quads(integer, groups), _right_runs(np.maximum(point + 1, 1), groups))
    columns.append((_quads(".000")[0], table.point.take((~scientific | (count > 1)) + 2 * zeros)))
    for group in range(-(-int(fraction_count.max()) // 4)):
        scale = _POW10[13 - 4 * group] if group < 4 else _U64(1)
        quad = fraction // scale
        fraction = fraction - quad * scale
        if group == 4:
            quad = quad * _U64(1000)  # the 17th place, then 3 unused
        columns.append((table.digits.take(quad.view(np.int64)), table.left[group].take(fraction_count)))
    if scientific.any():
        columns.append((np.where(lead < 0, *_quads("__e-", "__e+")), table.right[0].take(2 * scientific)))
        columns.append((table.digits.take(np.abs(lead)), table.right[0].take(scientific * (2 + (np.abs(lead) >= 100)))))
    return columns


def _tag_columns(tags) -> list:
    """``(quads, masks)`` of each column of the slots of int64 ``tags``:
    "," and its sign; its digits; the newline."""
    table = tables()
    negative = tags < 0
    magnitude = tags.view(_U64)
    magnitude = np.where(negative, _U64(0) - magnitude, magnitude)  # 2**63 for -2**63
    count = np.searchsorted(_POW10[1:19], magnitude, side="right") + 1
    groups = _groups(magnitude)
    return [
        (_quads("__,-")[0], table.head.take(2 + negative)),
        *zip(_digit_quads(magnitude, groups), _right_runs(count, groups)),
        (_quads("\n___")[0], table.left[0, 1]),
    ]


def _block(x, y, tags) -> bytes:
    """The rows of one block, each ending in a newline."""
    rows = x.size
    halves = _float_columns(np.concatenate([x, y]), np.repeat(np.array([0, 1]), rows))
    columns = [(part if np.ndim(part) == 0 else part[half], used[half])
               for half in (slice(None, rows), slice(rows, None)) for part, used in halves]
    columns += _tag_columns(tags)
    quads = np.empty((rows, len(columns)), dtype=np.uint32)
    masks = np.empty((rows, len(columns)), dtype=np.uint32)
    for column, (part, used) in enumerate(columns):
        quads[:, column] = part
        masks[:, column] = used
    return quads.view(np.uint8)[masks.view(bool)].tobytes()


def format_rows(x, y, sector) -> bytes:
    """The ``x,y,sector`` rows of float64 ``x`` and ``y`` and integer
    ``sector`` joined by newlines: the bytes of
    ``(b"%r,%r,%d\\n" * n % values)[:-1]`` over the interleaved values."""
    sector = sector.astype(np.int64, copy=False)
    blocks = [_block(x[start:start + _BLOCK], y[start:start + _BLOCK], sector[start:start + _BLOCK])
              for start in range(0, x.size, _BLOCK)]
    return b"".join(blocks)[:-1]
