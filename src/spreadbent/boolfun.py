"""Boolean functions on n variables: truth tables, Walsh spectra, algebraic
normal form, and a hex file format.

A TruthTable stores f as 2^n bits indexed by the integer encoding of the
input vector.  The Walsh coefficient at w is

    W(w) = sum_x (-1)^(f(x) + <w, x>)

with <w, x> the XOR of the bits of w & x, so the spectrum is the Sylvester
matrix H_{2^n}[w, x] = (-1)^<w, x> applied to the vector (-1)^f.  That matrix
is a Kronecker product of small ones, H_{2^n} = H_{2^k_r} (x) .. (x) H_{2^k_1},
one factor per run of index bits [lo, lo + k).  One engine, _walsh_chunks,
applies the factors as dense matrix products (BLAS) of at most FACTOR_BITS
bits each, in two cache-blocked passes: every factor on bits [0, low) a
block at a time, kept in an intermediate array, then every factor above
`low` a column chunk at a time, each chunk handed to the caller when it is
finished.  walsh_at recomputes single coefficients directly as an
independent check.

The products are exact.  After the factors covering bits [0, b), each value
is a partial Walsh sum over 2^b inputs, an integer of magnitude <= 2^b, and
every partial sum a factor on bits [lo, lo + k) forms on the way, in any
order, is an integer of magnitude <= 2^(lo + k).  float32 holds every
integer of magnitude <= 2^24 (EXACT_BITS) exactly, so a factor ending at or
below bit 24 runs in float32; one ending above it (the last factor at
n = 25 and 26) runs in float64, exact to 2^53.  The intermediate values,
after bits [0, low), are integers of magnitude <= 2^low, so they are kept
exactly as float32 for low <= 24 and as int16 for low <= 14 (INT16_BITS;
2^15 would overflow).

Two callers consume the chunks.  walsh_spectrum (for `bent spectrum`, and
`bent build`, which also certifies from it) writes them into its int32
output, with low = log2(BLOCK) and the intermediate kept as float32 in the
output's own memory.  is_bent (ps_minus's certificate, `bent verify`) only
checks them: low = min(n, 14), an int16 intermediate of 2 bytes a point
(none for n <= 14, where the first pass yields the coefficients), and the
first chunk with |W| != 2^(n/2) ends the check.

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
# log2(BLOCK) a block at a time, its second the bits above in chunks of
# about BLOCK; the Mobius transform and the degree take BLOCK / 8 packed
# words (64 KB)
BLOCK = 1 << 16
# index bits per Hadamard factor of the Walsh transform (a 16 x 16 matrix)
FACTOR_BITS = 4
# float32 holds every integer of magnitude <= 2^EXACT_BITS exactly
EXACT_BITS = np.finfo(np.float32).nmant + 1
# int16 holds every integer of magnitude <= 2^INT16_BITS (2^15 overflows)
INT16_BITS = np.iinfo(np.int16).bits - 2
# the least bytes of each row of a second-pass chunk of the Walsh transform
SEGMENT = 128
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

    The first pass covers the bits below log2(BLOCK) and keeps its values
    as float32 in the output's own memory; each finished piece of
    _walsh_chunks is then written over the columns it was read from.
    """
    n = tt.n
    out = np.empty(1 << n, dtype=np.int32)
    # BLOCK <= 2^EXACT_BITS, so the values kept between the passes are exact
    low = min(n, BLOCK.bit_length() - 1)
    for c0, v in _walsh_chunks(tt, low, out.view(np.float32)):
        out.reshape(len(v), -1)[:, c0:c0 + v.shape[1]] = v
    return out


def _walsh_chunks(tt: TruthTable, low: int, keep: np.ndarray | None):
    """The Walsh transform of tt, yielded as finished pieces (c0, v).

    Seen as a (2^(n - low), 2^low) matrix W[w >> low, w & (2^low - 1)], v is
    the block of columns c0 .. c0 + v.shape[1] - 1 of W, in float32 or
    float64; it is a scratch buffer of the transform, valid (and free to
    overwrite) until the next piece is asked for.

    First pass: each block of min(2^n, BLOCK) inputs goes from its values
    (-1)^f through every factor on bits [0, low) in two float32 buffers.
    When low = n these are the pieces, one block (a single row) each, and
    `keep` is not touched; otherwise the block is stored into the flat
    2^n-entry `keep` (whose dtype must hold integers up to 2^low) and
    _high_factors yields the pieces.
    """
    n = tt.n
    factors = _factors(0, low)
    a = np.empty(min(1 << n, BLOCK), dtype=np.float32)
    b = np.empty_like(a)
    for b0 in range(0, 1 << n, a.size):
        np.copyto(a, tt.bits[b0:b0 + a.size])
        a *= -2
        a += 1  # (-1)^f = 1 - 2f
        v = _run(factors, a, b)
        if low == n:
            yield b0, v.reshape(1, -1)
        else:
            keep[b0:b0 + a.size] = v
    if low < n:
        del a, b, v  # the second pass has buffers of its own
        yield from _high_factors(keep, low)


def _high_factors(keep: np.ndarray, low: int):
    """Second pass of _walsh_chunks: the factors on bits [low, n).

    Seen as a (2^(n - low), 2^low) matrix, a column chunk holds every index
    bit above `low` of its columns, so all those factors run on one chunk
    while it is in cache; nothing is written back to `keep`.  A chunk holds
    about BLOCK entries, but its rows are at least SEGMENT bytes of `keep`,
    since shorter strided reads cost more than the products.  Factors
    ending above bit EXACT_BITS run in float64.
    """
    rows = keep.size >> low
    cols = min(1 << low, max(BLOCK // rows, SEGMENT // keep.itemsize))
    # index bit p >= low is bit p - low + log2(cols) of the flat chunk
    shift = cols.bit_length() - 1 - low
    runs = _factors(low, keep.size.bit_length() - 1)
    narrow = [(lo + shift, k) for lo, k in runs if lo + k <= EXACT_BITS]
    wide = [(lo + shift, k) for lo, k in runs if lo + k > EXACT_BITS]
    kept = keep.reshape(rows, -1)
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
        yield c0, v


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


def is_bent(tt: TruthTable) -> bool:
    """Flat absolute spectrum |W| = 2^(n/2) everywhere; even n only.

    The transform streams through an int16 intermediate: no spectrum is
    stored, and the first chunk that fails ends the check."""
    if tt.n % 2:
        raise ValueError("bent functions exist only for even n")
    n, flat = tt.n, 1 << (tt.n // 2)
    low = min(n, BLOCK.bit_length() - 1, INT16_BITS)
    keep = np.empty(1 << n, dtype=np.int16) if low < n else None
    # |W| in the transform's own scratch buffers
    return all(bool((np.abs(v, out=v) == flat).all())
               for _, v in _walsh_chunks(tt, low, keep))


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
    """The Mobius stages on whole words h, 2h, .. < w.size, in place.

    A stage on fewer than 8 words runs as one strided 1-D XOR per column:
    numpy runs a 2-D XOR with rows of 2 or 4 words several times slower.
    """
    while h < w.size:
        V = w.reshape(-1, 2 * h)
        if h < 8:
            for j in range(h):
                V[:, h + j] ^= V[:, j]
        else:
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
