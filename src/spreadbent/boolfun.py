"""Boolean functions on n variables: truth tables, Walsh spectra, algebraic
normal form, and a hex file format.

A TruthTable stores f as 2^n bits indexed by the integer encoding of the
input vector.  The Walsh coefficient at w is

    W(w) = sum_x (-1)^(f(x) + <w, x>)

with <w, x> the XOR of the bits of w & x; walsh_spectrum computes all 2^n
coefficients with the fast butterfly transform, and walsh_at recomputes
single coefficients directly as an independent check.

f is bent when |W(w)| = 2^(n/2) for every w — only possible for even n, and
the flat spectrum is exactly Parseval's identity sum W^2 = 2^(2n) spread as
thin as it goes.

The same butterfly skeleton with XOR in place of +/- is the Mobius
transform, an involution between truth table and ANF coefficients; the
algebraic degree reads off the heaviest monomial index.

File format: the bits packed 8 per byte, bit b of byte j = f(8j + b), as one
line of lowercase hex; lines starting with `#` are comments (writers put
`m=.. family=..` provenance there) and are skipped on load.
"""

from functools import cache

import numpy as np

MAX_N = 26
# entries per block of the cache-blocked loops below (256 KB of int32)
BLOCK = 1 << 16


@cache
def _byte_tables():
    """The first three butterfly stages act within each group of 8 inputs,
    i.e. within one byte of the packed table, so they are one lookup per
    byte.  Returns, per byte value, the 8-point Walsh transform of its bits
    (256 x 8, int32) and their ANF packed as a byte."""
    e = np.arange(256)
    bits = (e[:, None] >> e[:8]) & 1  # LSB first, as packbits
    signs = 1 - 2 * (np.bitwise_count(e[:8, None] & e[:8]) & 1).astype(int)
    subsets = (e[:8, None] & ~e[:8]) == 0  # j below w in the bit order
    walsh = ((1 - 2 * bits) @ signs).astype(np.int32)
    anf = np.packbits((bits @ subsets) & 1, axis=1, bitorder="little").ravel()
    walsh.setflags(write=False)  # shared by every caller
    anf.setflags(write=False)
    return walsh, anf


class TruthTable:
    """An n-variable Boolean function as a read-only uint8 0/1 array."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}]")
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (1 << n,):
            raise ValueError(f"need exactly 2^{n} bits, got shape {bits.shape}")
        if bits.max(initial=0) > 1:
            raise ValueError("truth-table entries must be 0 or 1")
        bits = bits.copy()
        bits.setflags(write=False)
        self.n = n
        self.bits = bits

    def __repr__(self):
        return f"TruthTable(n={self.n}, weight={self.weight()})"

    def __eq__(self, other):
        return (isinstance(other, TruthTable) and self.n == other.n
                and np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash((self.n, self.bits.tobytes()))

    def __call__(self, x: int) -> int:
        return int(self.bits[x])

    def weight(self) -> int:
        return int(self.bits.sum())

    def is_balanced(self) -> bool:
        return self.weight() == 1 << (self.n - 1)

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ 1)


def walsh_spectrum(tt: TruthTable) -> np.ndarray:
    """All 2^n Walsh coefficients, int32, index = mask w."""
    if tt.n >= 3:
        v = _byte_tables()[0][np.packbits(tt.bits, bitorder="little")].ravel()
        h = 8
    else:
        v = 1 - 2 * tt.bits.astype(np.int32)
        h = 1
    scratch = np.empty(v.size // 2, dtype=np.int32)
    # the stages within a block run block by block while it is in cache
    block = min(v.size, BLOCK)
    for b0 in range(0, v.size, block):
        _walsh_stages(v[b0:b0 + block], scratch, h)
    _walsh_stages(v, scratch, block)
    return v


def _walsh_stages(v, scratch, h):
    """The butterfly stages h, 2h, .. < v.size, in place; scratch holds the
    differences of each stage."""
    while h < v.size:
        V = v.reshape(-1, 2 * h)
        a, b = V[:, :h], V[:, h:]
        diff = scratch[:v.size // 2].reshape(-1, h)
        np.subtract(a, b, out=diff)
        a += b
        b[...] = diff
        h *= 2


def walsh_at(tt: TruthTable, w: int) -> int:
    """One Walsh coefficient by direct summation (independent of the
    butterfly path)."""
    x = np.arange(1 << tt.n)
    inner = (np.bitwise_count(x & w) & 1).astype(np.uint8)
    return int((1 - 2 * (tt.bits ^ inner).astype(np.int64)).sum())


def is_bent(tt: TruthTable, spectrum=None) -> bool:
    """Flat absolute spectrum |W| = 2^(n/2) everywhere; even n only."""
    if tt.n % 2:
        raise ValueError("bent functions exist only for even n")
    s = walsh_spectrum(tt) if spectrum is None else np.asarray(spectrum)
    flat = 1 << (tt.n // 2)
    # block by block, so no temporary the size of the spectrum
    return all(bool((np.abs(s[i:i + BLOCK]) == flat).all())
               for i in range(0, s.size, BLOCK))


def mobius_transform(bits: np.ndarray) -> np.ndarray:
    """XOR-butterfly Mobius transform (an involution): truth table <-> ANF
    coefficient vector.

    Runs on the packed bits: one lookup per byte for the stages within a
    byte, then the XOR butterflies over whole bytes.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    v = _byte_tables()[1][np.packbits(bits, bitorder="little")]
    h = 1
    while h < v.size:
        V = v.reshape(-1, 2 * h)
        V[:, h:] ^= V[:, :h]
        h *= 2
    return np.unpackbits(v, count=bits.size, bitorder="little")


def anf(tt: TruthTable) -> np.ndarray:
    """ANF coefficients: entry S is 1 iff the monomial prod_{i in S} x_i
    appears in f."""
    return mobius_transform(tt.bits)


def degree(tt: TruthTable) -> int:
    """Algebraic degree: heaviest monomial in the ANF (0 for constants).

    The maximum of anf * popcount(index), a block of rows at a time, with
    the index split into high and low halves: popcount(index) is the outer
    sum of the two halves' popcounts.
    """
    low = tt.n // 2
    A = anf(tt).reshape(-1, 1 << low)
    pc = np.bitwise_count(np.arange(A.shape[0], dtype=np.uint32))
    pc_low = pc[:A.shape[1]]
    rows = max(1, BLOCK // A.shape[1])
    return max(int((A[r:r + rows] * (pc[r:r + rows, None] + pc_low)).max())
               for r in range(0, A.shape[0], rows))


def save_tt(tt: TruthTable, path, header: str | None = None):
    """Write the hex format; `header` (if any) goes first as a `#` line."""
    if tt.n < 3:
        raise ValueError("file format needs n >= 3 (whole bytes)")
    data = np.packbits(tt.bits, bitorder="little").tobytes().hex()
    with open(path, "w") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        fh.write(data + "\n")


def load_tt(path) -> TruthTable:
    """Read the hex format, skipping `#` comment lines."""
    with open(path) as fh:
        payload = "".join(line.strip() for line in fh
                          if line.strip() and not line.lstrip().startswith("#"))
    raw = bytes.fromhex(payload)
    size = len(raw) * 8
    n = size.bit_length() - 1
    if size == 0 or 1 << n != size:
        raise ValueError(f"file holds {size} bits; need a power of two")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return TruthTable(n, bits)
