"""Boolean functions on n variables: truth tables, Walsh spectra, algebraic
normal form, and a hex file format.

A TruthTable stores f as 2^n bits indexed by the integer encoding of the
input vector.  The Walsh coefficient at w is

    W(w) = sum_x (-1)^(f(x) + <w, x>)

with <w, x> the XOR of the bits of w & x, so the spectrum is the Sylvester
matrix H_{2^n}[w, x] = (-1)^<w, x> applied to the vector (-1)^f.  That matrix
is a Kronecker product of small ones, H_{2^n} = H_{2^k_r} (x) .. (x) H_{2^k_1},
one factor per run of index bits [lo, lo + k), and walsh_spectrum applies the
factors as dense matrix products (BLAS) of at most FACTOR_BITS bits each, in
two cache-blocked passes: every factor below bit log2(BLOCK) a block at a
time, then every factor above it a column chunk at a time.  walsh_at
recomputes single coefficients directly as an independent check.

The products are exact.  After the factors covering bits [0, b), each value
is a partial Walsh sum over 2^b inputs, an integer of magnitude <= 2^b, and
every partial sum a factor on bits [lo, lo + k) forms on the way, in any
order, is an integer of magnitude <= 2^(lo + k).  float32 holds every
integer of magnitude <= 2^24 (EXACT_BITS) exactly, so a factor ending at or
below bit 24 runs in float32; one ending above it (the last factor at
n = 25 and 26) runs in float64, exact to 2^53, and the result is written as
int32.  The values kept between the passes, after bits [0, log2(BLOCK)),
are likewise exact float32 integers.

f is bent when |W(w)| = 2^(n/2) for every w — only possible for even n, and
the flat spectrum is exactly Parseval's identity sum W^2 = 2^(2n) spread as
thin as it goes.

The Mobius transform, an involution between truth table and ANF
coefficients, is the butterfly with XOR in place of +/-.  It runs on the
table packed into 64-bit words, bit b of word j standing for input
64 j + b: the six stages on bits 0..5 of the input stay inside a word, where
stage h is w ^= (w & M_h) << h with M_h the positions whose bit h is clear;
the stages above are XORs of whole words, first within blocks of BLOCK / 8
words, then across them.  The algebraic degree reads off the heaviest
monomial on the same words, never unpacked: coefficient 64 j + b has weight
popcount(j) + popcount(b), so the degree is the largest popcount(j) + d over
words j that meet MASK_d, the positions b < 64 with popcount(b) = d.

File format: the bits packed 8 per byte, bit b of byte j = f(8j + b), as one
line of lowercase hex; lines starting with `#` are comments (writers put
`m=.. family=..` provenance there) and are skipped on load.
"""

from functools import cache

import numpy as np

MAX_N = 26
# entries per block of the cache-blocked loops below (256 KB of float32 or
# int32); the Walsh transform's first pass covers the index bits below
# log2(BLOCK) a block at a time, its second the bits above in chunks of BLOCK;
# the Mobius transform and the degree take BLOCK / 8 packed words (64 KB)
BLOCK = 1 << 16
# index bits per Hadamard factor of the Walsh transform (a 16 x 16 matrix)
FACTOR_BITS = 4
# float32 holds every integer of magnitude <= 2^EXACT_BITS exactly
EXACT_BITS = np.finfo(np.float32).nmant + 1
# the in-word Mobius stages (h, M_h): M_h holds the bit positions b < 64
# with bit h of b clear
_IN_WORD = tuple((h, np.uint64(sum(1 << b for b in range(64) if not b & h)))
                 for h in (1, 2, 4, 8, 16, 32))
# MASK_d for d = 0 .. 6: the bit positions b < 64 with popcount(b) = d
_WEIGHT_MASKS = tuple(
    np.uint64(sum(1 << b for b in range(64) if b.bit_count() == d))
    for d in range(7))


@cache
def _hadamard(k: int, dtype) -> np.ndarray:
    """The Sylvester matrix H[w, x] = (-1)^popcount(w & x) of order 2^k,
    read-only (shared by every caller)."""
    e = np.arange(1 << k)
    H = np.where(np.bitwise_count(e[:, None] & e) & 1, -1, 1).astype(dtype)
    H.setflags(write=False)
    return H


class TruthTable:
    """An n-variable Boolean function as a read-only uint8 0/1 array."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        """Validates and copies `bits`, so the caller keeps its array."""
        bits = np.array(bits, dtype=np.uint8)  # always a private copy
        if bits.max(initial=0) > 1:
            raise ValueError("truth-table entries must be 0 or 1")
        self._own(n, bits)

    @classmethod
    def _adopt(cls, n: int, bits: np.ndarray) -> "TruthTable":
        """Take over `bits`, a fresh uint8 array that no one else holds and
        that is 0/1 by construction, without the copy and the 0/1 scan of
        __init__ (for this package's own builders)."""
        tt = cls.__new__(cls)
        tt._own(n, bits)
        return tt

    def _own(self, n: int, bits: np.ndarray):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}]")
        if bits.shape != (1 << n,):
            raise ValueError(f"need exactly 2^{n} bits, got shape {bits.shape}")
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
        return TruthTable._adopt(self.n, self.bits ^ 1)


def walsh_spectrum(tt: TruthTable) -> np.ndarray:
    """All 2^n Walsh coefficients, int32, index = mask w (a fresh, writable
    array).

    First pass: each block of BLOCK inputs goes from its values (-1)^f
    through every factor below bit `low`, in two float32 block buffers, and
    is kept as float32 in the output's own memory (or, when that was every
    bit, written as int32).  Second pass: _high_factors.
    """
    n = tt.n
    out = np.empty(1 << n, dtype=np.int32)
    # BLOCK <= 2^EXACT_BITS, so the values kept between the passes are exact
    low = min(n, BLOCK.bit_length() - 1)
    factors = _factors(0, low)
    keep = out if low == n else out.view(np.float32)
    a = np.empty(1 << low, dtype=np.float32)
    b = np.empty_like(a)
    for b0 in range(0, out.size, a.size):
        np.copyto(a, tt.bits[b0:b0 + a.size])
        a *= -2
        a += 1  # (-1)^f = 1 - 2f
        keep[b0:b0 + a.size] = _run(factors, a, b)
    if low < n:
        _high_factors(out, low)
    return out


def _high_factors(out: np.ndarray, low: int):
    """Second pass of walsh_spectrum: the factors on bits [low, n), in place.

    Seen as a (2^(n - low), 2^low) matrix, a column chunk holds every index
    bit above `low` of its columns, so all those factors run on one chunk of
    about BLOCK entries while it is in cache; it is then written back as
    int32.  Factors ending above bit EXACT_BITS run in float64.
    """
    rows = out.size >> low
    cols = max(1, BLOCK // rows)
    # index bit p >= low is bit p - low + log2(cols) of the flat chunk
    shift = cols.bit_length() - 1 - low
    runs = _factors(low, out.size.bit_length() - 1)
    narrow = [(lo + shift, k) for lo, k in runs if lo + k <= EXACT_BITS]
    wide = [(lo + shift, k) for lo, k in runs if lo + k > EXACT_BITS]
    kept = out.view(np.float32).reshape(rows, -1)
    final = out.reshape(rows, -1)
    a = np.empty((rows, cols), dtype=np.float32)
    b = np.empty_like(a)
    if wide:
        a64 = np.empty((rows, cols), dtype=np.float64)
        b64 = np.empty_like(a64)
    for c0 in range(0, 1 << low, cols):
        np.copyto(a, kept[:, c0:c0 + cols])
        v = _run(narrow, a, b)
        if wide:
            np.copyto(a64, v)
            v = _run(wide, a64, b64)
        final[:, c0:c0 + cols] = v


def _factors(lo: int, hi: int) -> list:
    """Index bits [lo, hi) as consecutive (lo, k) runs of at most
    FACTOR_BITS bits, as even as possible, the longer ones first (so the
    last, which may run in float64, is the shortest)."""
    runs = []
    for left in range(-(-(hi - lo) // FACTOR_BITS), 0, -1):
        k = -(-(hi - lo) // left)
        runs.append((lo, k))
        lo += k
    return runs


def _run(factors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply each Hadamard factor (lo, k) to the flat index of buffer a,
    ping-ponging between a and b; returns the buffer holding the result.

    The factor on bits [lo, lo + k) is I (x) H_{2^k} (x) I_{2^lo}: one matmul
    over a reshaped view, with the symmetric H on the right when lo = 0.
    """
    for lo, k in factors:
        H = _hadamard(k, a.dtype)
        if lo == 0:
            np.matmul(a.reshape(-1, 1 << k), H, out=b.reshape(-1, 1 << k))
        else:
            shape = (-1, 1 << k, 1 << lo)
            np.matmul(H, a.reshape(shape), out=b.reshape(shape))
        a, b = b, a
    return a


def walsh_at(tt: TruthTable, w: int) -> int:
    """One Walsh coefficient by direct summation (independent of the
    factored transform)."""
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


def anf(tt: TruthTable) -> np.ndarray:
    """ANF coefficients, by the Mobius transform (an involution): entry S
    is 1 iff the monomial prod_{i in S} x_i appears in f."""
    return np.unpackbits(_anf_words(tt.bits).view(np.uint8),
                         count=tt.bits.size, bitorder="little")


def degree(tt: TruthTable) -> int:
    """Algebraic degree: heaviest monomial in the ANF (0 for constants)."""
    return _word_degree(_anf_words(tt.bits))


def _anf_words(bits: np.ndarray) -> np.ndarray:
    """The Mobius transform of 2^n table entries, packed: bit b of word j is
    the coefficient of monomial 64 j + b (a fresh array of max(1, 2^n / 64)
    little-endian uint64 words; for n < 6 the bits above 2^n are 0).

    A block of BLOCK / 8 words at a time goes through the six in-word
    stages and the word stages inside the block, with one reused temporary;
    then the word stages that cross blocks run over the whole array.
    """
    size = bits.size
    packed = np.packbits(bits, bitorder="little")
    if size < 64:
        packed = np.pad(packed, (0, 8 - packed.size))  # one whole word
    w = packed.view("<u8")
    step = min(w.size, BLOCK // 8)
    tmp = np.empty(step, dtype=w.dtype)
    for b0 in range(0, w.size, step):
        blk = w[b0:b0 + step]
        for h, mask in _IN_WORD:
            np.bitwise_and(blk, mask, out=tmp)
            np.left_shift(tmp, h, out=tmp)
            blk ^= tmp
        _word_stages(blk, 1)
    _word_stages(w, step)
    if size < 64:
        w &= np.uint64((1 << size) - 1)  # the stages above n moved bits there
    return w


def _word_stages(w: np.ndarray, h: int):
    """The Mobius stages on whole words h, 2h, .. < w.size, in place."""
    while h < w.size:
        V = w.reshape(-1, 2 * h)
        V[:, h:] ^= V[:, :h]
        h *= 2


def _word_degree(w: np.ndarray) -> int:
    """Algebraic degree from the words of _anf_words: the largest
    popcount(j) + d over words j with w[j] & MASK_d != 0 (0 if none).

    A block of words at a time: the words whose in-block offsets share a
    popcount are OR-ed together (one gather into popcount order, one
    reduceat), since an OR meets MASK_d iff one of its words does.  A block
    starts at a multiple of its power-of-two size, so popcount(j) is the
    start's popcount plus the offset's; acc[c] gathers the ORs over all
    words with popcount(j) = c.
    """
    step = min(w.size, BLOCK // 8)
    k = step.bit_length() - 1  # offset bits
    pc = np.bitwise_count(np.arange(step))
    order = np.argsort(pc, kind="stable")
    starts = np.searchsorted(pc[order], np.arange(k + 1))
    tmp = np.empty(step, dtype=w.dtype)
    acc = np.zeros(w.size.bit_length(), dtype=w.dtype)
    for b0 in range(0, w.size, step):
        np.take(w[b0:b0 + step], order, out=tmp)
        c = b0.bit_count()
        acc[c:c + k + 1] |= np.bitwise_or.reduceat(tmp, starts)
    return max((c + d for c, word in enumerate(acc)
                for d, mask in enumerate(_WEIGHT_MASKS) if word & mask),
               default=0)


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
    try:
        raw = bytes.fromhex(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: not a hex truth table ({exc})")
    size = len(raw) * 8
    n = size.bit_length() - 1
    if size == 0 or 1 << n != size:
        raise ValueError(f"{path}: file holds {size} bits; "
                         f"need a power of two")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return TruthTable._adopt(n, bits)
