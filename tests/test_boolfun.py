"""Tests for truth tables, Walsh/Mobius transforms, bentness, and file I/O."""

import random

import numpy as np
import pytest

from spreadbent.boolfun import (
    MAX_N,
    TruthTable,
    anf,
    degree,
    is_bent,
    load_tt,
    save_tt,
    walsh_at,
    walsh_spectrum,
)


def random_tt(n, seed):
    rng = random.Random(seed)
    return TruthTable(n, [rng.randrange(2) for _ in range(1 << n)])


def inner_product_tt(m):
    """f(x, y) = <x, y> on n = 2m bits — the canonical bent function."""
    idx = np.arange(1 << (2 * m))
    x = idx & ((1 << m) - 1)
    y = idx >> m
    return TruthTable(2 * m, (np.bitwise_count(x & y) & 1).astype(np.uint8))


# ---------------------------------------------------------------------------
# TruthTable basics


def test_validation():
    with pytest.raises(ValueError):
        TruthTable(0, [])
    with pytest.raises(ValueError):
        TruthTable(MAX_N + 1, [0])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 0])  # wrong length
    with pytest.raises(ValueError):
        TruthTable(1, [0, 2])  # not a bit


def test_weight_balance_call():
    tt = TruthTable(2, [0, 1, 1, 0])
    assert tt.weight() == 2
    assert tt.is_balanced()
    assert tt(0) == 0 and tt(1) == 1
    assert not TruthTable(2, [0, 0, 0, 1]).is_balanced()


def test_equality_and_immutability():
    a = TruthTable(2, [0, 1, 0, 0])
    b = TruthTable(2, [0, 1, 0, 0])
    assert a == b and hash(a) == hash(b)
    assert a != TruthTable(2, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        a.bits[0] = 1


def test_outside_arrays_are_copied():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    tt = TruthTable(2, bits)
    bits[0] = 1  # the caller's array stays the caller's
    assert list(tt.bits) == [0, 1, 1, 0]
    assert not np.shares_memory(tt.bits, bits)
    assert bits.flags.writeable and not tt.bits.flags.writeable
    with pytest.raises(ValueError):
        tt.bits[0] = 1


def test_complement_allocates_one_table():
    import tracemalloc
    tt = random_tt(18, 5)
    tracemalloc.start()
    try:
        c = tt.complement()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 << 18 <= peak < 2 << 18  # the XOR's result, not a copy of it
    assert not c.bits.flags.writeable


def test_complement():
    tt = random_tt(5, 1)
    c = tt.complement()
    assert c.weight() == 32 - tt.weight()
    assert c.complement() == tt


# ---------------------------------------------------------------------------
# Walsh spectrum


def test_spectrum_of_constants():
    z = TruthTable(3, np.zeros(8, dtype=np.uint8))
    assert list(walsh_spectrum(z)) == [8, 0, 0, 0, 0, 0, 0, 0]
    assert list(walsh_spectrum(z.complement())) == [-8, 0, 0, 0, 0, 0, 0, 0]


def test_spectrum_of_linear_function():
    # f = <w, x> concentrates the whole mass at w
    n, w = 4, 0b1011
    idx = np.arange(16)
    tt = TruthTable(n, (np.bitwise_count(idx & w) & 1).astype(np.uint8))
    s = walsh_spectrum(tt)
    assert s[w] == 16
    assert np.count_nonzero(s) == 1


# a 16-entry block, 2-bit factors and float64 above bit 7: several blocks
# from n = 5 on, several second-pass factors from n = 7, float64 from n = 8;
# 4-byte row segments, so the second pass takes BLOCK // rows float32
# columns a chunk (at least one), as the default SEGMENT does at n <= 26
SMALL_FACTORS = {"BLOCK": 16, "FACTOR_BITS": 2, "EXACT_BITS": 7,
                 "SEGMENT": 4}


def set_constants(monkeypatch, constants):
    import spreadbent.boolfun as bf
    for name, value in constants.items():
        monkeypatch.setattr(bf, name, value)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_spectrum_matches_direct_sum(n, monkeypatch):
    tt = random_tt(n, n)
    for constants in ({}, SMALL_FACTORS):  # the defaults, then small ones
        set_constants(monkeypatch, constants)
        s = walsh_spectrum(tt)
        assert s.dtype == np.int32
        for w in range(1 << n):
            assert s[w] == walsh_at(tt, w)


@pytest.mark.parametrize("n", [4, 8, 11])
def test_parseval(n):
    s = walsh_spectrum(random_tt(n, n)).astype(np.int64)
    assert int((s * s).sum()) == 1 << (2 * n)


# ---------------------------------------------------------------------------
# bentness


def test_inner_product_is_bent():
    for m in (2, 3):
        tt = inner_product_tt(m)
        assert is_bent(tt)
        assert is_bent(tt.complement())
        s = walsh_spectrum(tt)
        assert set(map(int, s)) == {1 << m, -(1 << m)}


def test_constant_and_linear_are_not_bent():
    assert not is_bent(TruthTable(4, np.zeros(16, dtype=np.uint8)))
    idx = np.arange(16)
    lin = TruthTable(4, (idx & 1).astype(np.uint8))
    assert not is_bent(lin)


def test_bent_rejects_odd_arity():
    with pytest.raises(ValueError):
        is_bent(random_tt(5, 2))


def test_is_bent_accepts_precomputed_spectrum():
    # a spectrum computed once is certified from the values it takes, as
    # bent build does: every value is +-2^m exactly when is_bent holds
    from spreadbent.construct import _spectrum_counts
    tt = inner_product_tt(2)
    for f, bent in ((tt, True), (tt.complement(), True),
                    (random_tt(4, 1), False)):
        values, _ = _spectrum_counts(walsh_spectrum(f))
        assert bool((np.abs(values) == 4).all()) == is_bent(f) == bent


def test_is_bent_checks_every_block(monkeypatch):
    # the streamed check reads every chunk: one coefficient set to 0 in
    # any chunk of the n = 8 transform makes it fail
    import spreadbent.boolfun as bf
    set_constants(monkeypatch, SMALL_FACTORS)
    tt, chunks = inner_product_tt(4), bf._walsh_chunks
    corrupt, seen = [], []

    def spectrum(tt, low, keep):
        for c0, v in chunks(tt, low, keep):
            seen.append(c0)
            for w in corrupt:
                col = (w & ((1 << low) - 1)) - c0
                if 0 <= col < v.shape[1]:
                    v[w >> low, col] = 0
            yield c0, v

    monkeypatch.setattr(bf, "_walsh_chunks", spectrum)
    assert is_bent(tt)
    assert len(seen) > 2  # a first, middle and last chunk
    for w in range(1 << tt.n):
        corrupt[:] = [w]
        assert not is_bent(tt)


# ---------------------------------------------------------------------------
# ANF and degree


def test_mobius_is_involution():
    for seed in range(5):
        tt = random_tt(6, seed)
        assert TruthTable(6, anf(TruthTable(6, anf(tt)))) == tt


def test_anf_pinned_values():
    # f = x0 x1: single quadratic monomial
    tt = TruthTable(2, [0, 0, 0, 1])
    assert list(anf(tt)) == [0, 0, 0, 1]
    assert degree(tt) == 2
    # f = x0
    tt = TruthTable(2, [0, 1, 0, 1])
    assert list(anf(tt)) == [0, 1, 0, 0]
    assert degree(tt) == 1
    # constants
    assert degree(TruthTable(2, [1, 1, 1, 1])) == 0
    assert degree(TruthTable(2, [0, 0, 0, 0])) == 0


def test_anf_against_subset_sum_oracle():
    # coefficient of S is the XOR of f over all x below S in the bit order
    tt = random_tt(4, 7)
    a = anf(tt)
    for s in range(16):
        acc = 0
        for x in range(16):
            if x & ~s == 0:
                acc ^= tt(x)
        assert a[s] == acc


def test_anf_evaluates_back():
    tt = random_tt(5, 3)
    a = anf(tt)
    for x in range(32):
        val = 0
        for s in np.flatnonzero(a):
            if s & ~x == 0:
                val ^= 1
        assert val == tt(x)


def test_inner_product_degree():
    assert degree(inner_product_tt(2)) == 2
    assert degree(inner_product_tt(3)) == 2


# ---------------------------------------------------------------------------
# file format


def test_save_load_roundtrip(tmp_path):
    tt = random_tt(6, 11)
    p = tmp_path / "f.tt"
    save_tt(tt, p)
    assert load_tt(p) == tt


def test_header_written_and_skipped(tmp_path):
    tt = random_tt(3, 0)
    p = tmp_path / "f.tt"
    save_tt(tt, p, header="m=3 family=field params=")
    text = p.read_text()
    assert text.startswith("# m=3 family=field params=\n")
    assert load_tt(p) == tt


def test_bit_packing_is_lsb_first(tmp_path):
    bits = np.zeros(8, dtype=np.uint8)
    bits[0] = 1
    p = tmp_path / "a.tt"
    save_tt(TruthTable(3, bits), p)
    assert p.read_text().splitlines()[-1] == "01"
    bits = np.zeros(8, dtype=np.uint8)
    bits[7] = 1
    save_tt(TruthTable(3, bits), p)
    assert p.read_text().splitlines()[-1] == "80"
    bits = np.zeros(16, dtype=np.uint8)
    bits[9] = 1  # bit 1 of byte 1
    save_tt(TruthTable(4, bits), p)
    assert p.read_text().splitlines()[-1] == "0002"


def test_hex_is_lowercase(tmp_path):
    tt = random_tt(7, 13)
    p = tmp_path / "f.tt"
    save_tt(tt, p)
    payload = p.read_text().strip()
    assert payload == payload.lower()


def test_load_rejects_bad_sizes(tmp_path):
    p = tmp_path / "bad.tt"
    p.write_text("0102ff\n")  # 24 bits
    with pytest.raises(ValueError):
        load_tt(p)
    p.write_text("# only a comment\n")
    with pytest.raises(ValueError):
        load_tt(p)


def test_save_rejects_tiny_tables(tmp_path):
    with pytest.raises(ValueError):
        save_tt(TruthTable(2, [0, 1, 1, 0]), tmp_path / "x.tt")


# ---------------------------------------------------------------------------
# blocked transforms and degree


def direct_mobius(bits):
    """The XOR butterfly on unpacked bits, one stage at a time."""
    v = np.array(bits, dtype=np.uint8)
    h = 1
    while h < v.size:
        V = v.reshape(-1, 2 * h)
        V[:, h:] ^= V[:, :h]
        h *= 2
    return v


def direct_degree(tt):
    a = anf(tt)
    return max((bin(s).count("1") for s in np.flatnonzero(a)), default=0)


# a block of 8 words: n = 12 spans 8 blocks, with the word stages on 1, 2
# and 4 words inside a block and those on 8, 16 and 32 across blocks
SMALL_WORD_BLOCK = 64


def bounded_anf_tables(n, rng):
    """Random truth tables, then the tables of random ANFs with monomials
    of degree <= d only, for a random d."""
    pc = np.bitwise_count(np.arange(1 << n))
    for seed in range(3):
        yield random_tt(n, 100 * n + seed).bits
        d = int(rng.integers(0, n + 1))
        coeffs = (rng.integers(0, 2, 1 << n) * (pc <= d)).astype(np.uint8)
        yield direct_mobius(coeffs)


@pytest.mark.parametrize("n", range(1, 17))
def test_mobius_matches_direct_butterfly(n, monkeypatch):
    import spreadbent.boolfun as bf
    for block in (bf.BLOCK, SMALL_WORD_BLOCK):
        monkeypatch.setattr(bf, "BLOCK", block)
        for bits in bounded_anf_tables(n, np.random.default_rng(n)):
            assert np.array_equal(anf(TruthTable(n, bits)),
                                  direct_mobius(bits))


@pytest.mark.parametrize("n", range(1, 17))
def test_degree_matches_enumeration(n, monkeypatch):
    import spreadbent.boolfun as bf
    for block in (bf.BLOCK, SMALL_WORD_BLOCK):
        monkeypatch.setattr(bf, "BLOCK", block)
        for bits in bounded_anf_tables(n, np.random.default_rng(n)):
            tt = TruthTable(n, bits)
            assert degree(tt) == direct_degree(tt)


def test_degree_allocates_the_words_and_blocks():
    import tracemalloc
    import spreadbent.boolfun as bf
    bits = np.zeros(1 << 20, dtype=np.uint8)
    bits[-1] = 1  # the monomial x0 x1 .. x19
    tt = TruthTable._adopt(20, bits)
    tracemalloc.start()
    try:
        d = degree(tt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 20
    # the packed words, then nothing larger than a few blocks
    assert peak < (1 << 20) // 8 + 4 * bf.BLOCK


def test_degree_of_constants_and_monomials():
    for n in (1, 4, 11):
        size = 1 << n
        assert degree(TruthTable(n, np.zeros(size, dtype=np.uint8))) == 0
        assert degree(TruthTable(n, np.ones(size, dtype=np.uint8))) == 0
        x = np.arange(size)
        for mask in {1, size - 1, 0b101 & (size - 1), size >> 1}:
            # the monomial prod_{i in mask} x_i, alone and plus a constant
            bits = ((x & mask) == mask).astype(np.uint8)
            k = bin(mask).count("1")
            assert degree(TruthTable(n, bits)) == k
            assert degree(TruthTable(n, bits ^ 1)) == k


# ---------------------------------------------------------------------------
# the factored Walsh transform against the int32 butterfly it replaced


def direct_walsh(bits):
    """The +/- butterfly on int32, one stage at a time."""
    v = 1 - 2 * np.asarray(bits, dtype=np.int32)
    h = 1
    while h < v.size:
        V = v.reshape(-1, 2 * h)
        a, b = V[:, :h].copy(), V[:, h:].copy()
        V[:, :h] = a + b
        V[:, h:] = a - b
        h *= 2
    return v


def structured_tts(n):
    """Random, constant, delta, linear and (for even n) bent functions."""
    size = 1 << n
    x = np.arange(size)
    delta = np.zeros(size, dtype=np.uint8)
    delta[0] = 1
    yield random_tt(n, 1000 + n)
    yield TruthTable(n, np.zeros(size, dtype=np.uint8))
    yield TruthTable(n, np.ones(size, dtype=np.uint8))
    yield TruthTable(n, delta)
    yield TruthTable(n, delta ^ 1)
    for w in {1, size - 1, (0x5a5a5a5 & (size - 1)) | (size >> 1)}:
        yield TruthTable(n, (np.bitwise_count(x & w) & 1).astype(np.uint8))
    if n % 2 == 0:
        yield inner_product_tt(n // 2)


@pytest.mark.parametrize("n", range(1, 21))
def test_spectrum_matches_int32_butterfly(n):
    for tt in structured_tts(n):
        s = walsh_spectrum(tt)
        assert s.dtype == np.int32 and s.flags.writeable
        assert np.array_equal(s, direct_walsh(tt.bits))


@pytest.mark.parametrize("n", range(1, 13))
def test_spectrum_with_small_factors(n, monkeypatch):
    # many blocks, many second-pass factors and the float64 path, at small n
    import spreadbent.boolfun as bf
    set_constants(monkeypatch, SMALL_FACTORS)
    dtypes = set()
    run = bf._run

    def spy(factors, a, b):
        if factors:
            dtypes.add(a.dtype)
        return run(factors, a, b)

    monkeypatch.setattr(bf, "_run", spy)
    for tt in structured_tts(n):
        assert np.array_equal(walsh_spectrum(tt), direct_walsh(tt.bits))
    assert (np.dtype(np.float64) in dtypes) == (n >= 8)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_factor_plan(n):
    # the factors tile [0, n); only the last one at n = 25 and 26 ends above
    # the float32 bound, and the values kept after the first pass are below it
    import spreadbent.boolfun as bf
    low = min(n, bf.BLOCK.bit_length() - 1)
    runs = bf._factors(0, low) + bf._factors(low, n)
    assert [lo for lo, _ in runs] == [0] + [lo + k for lo, k in runs[:-1]]
    assert sum(k for _, k in runs) == n
    assert all(1 <= k <= bf.FACTOR_BITS for _, k in runs)
    assert bf.EXACT_BITS == 24 and bf.BLOCK <= 1 << bf.EXACT_BITS
    wide = [i for i, (lo, k) in enumerate(runs) if lo + k > 24]
    assert wide == ([len(runs) - 1] if n > 24 else [])


def test_hadamard_factors_are_frozen():
    import spreadbent.boolfun as bf
    H = bf._hadamard(3, np.dtype(np.float32))
    assert H is bf._hadamard(3, np.dtype(np.float32))
    assert np.array_equal(H @ H, 8 * np.eye(8))
    with pytest.raises(ValueError):
        H[0, 0] = 0


def test_spectrum_at_n26_is_exact():
    # W(0) of the delta function is 2^26 - 2, which float32 rounds to 2^26
    n = MAX_N
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[0] = 1
    s = walsh_spectrum(TruthTable(n, bits))
    assert s[0] == (1 << n) - 2
    assert np.all(s[1:] == -2)
    del s
    bits[0] = 0  # the constant 0
    s = walsh_spectrum(TruthTable(n, bits))
    assert s[0] == 1 << n and np.count_nonzero(s) == 1
    del s, bits
    # x0 + x12 + x25: the whole mass at w = 2^25 + 2^12 + 1
    p = np.arange(2, dtype=np.uint8)
    bits = np.empty((2, 1 << 12, 2, 1 << 11, 2), dtype=np.uint8)
    bits[...] = p[:, None, None, None, None] ^ p[:, None, None] ^ p
    s = walsh_spectrum(TruthTable(n, bits.ravel()))
    w = (1 << 25) | (1 << 12) | 1
    assert s[w] == 1 << n and np.count_nonzero(s) == 1


def test_degree_at_n26_is_exact():
    # the delta function's ANF is every monomial, the top one of weight 26
    n = MAX_N
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[0] = 1
    assert degree(TruthTable._adopt(n, bits)) == n
    bits = np.zeros(1 << n, dtype=np.uint8)  # the constant 0
    assert degree(TruthTable._adopt(n, bits)) == 0


def test_spectrum_is_independent_of_blas_threads(tmp_path):
    # every partial sum is an exact integer, so no summation order the
    # BLAS picks for its threads can change a bit of the spectrum
    import hashlib
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import hashlib, numpy as np\n"
             "from spreadbent.boolfun import TruthTable, walsh_spectrum\n"
             "rng = np.random.default_rng(22)\n"
             "bits = rng.integers(0, 2, 1 << 22, dtype=np.uint8)\n"
             "s = walsh_spectrum(TruthTable(22, bits))\n"
             "print(hashlib.sha256(s.tobytes()).hexdigest())\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(src)
    digests = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        r = subprocess.run([sys.executable, "-c", probe], env={**env, **threads},
                           capture_output=True, text=True, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        digests.append(r.stdout.strip())
    bits = np.random.default_rng(22).integers(0, 2, 1 << 22, dtype=np.uint8)
    ref = hashlib.sha256(direct_walsh(bits).tobytes()).hexdigest()
    assert digests == [ref, ref]


# ---------------------------------------------------------------------------
# the streamed certificate: is_bent


def flat_spectrum(tt):
    """The bentness verdict read off the whole written spectrum."""
    return bool((np.abs(walsh_spectrum(tt)) == 1 << (tt.n // 2)).all())


def streamed_spectrum(tt, low, keep):
    """The pieces of bf._walsh_chunks put back together, as int64."""
    import spreadbent.boolfun as bf
    s = np.empty(tt.bits.size, dtype=np.int64)
    for c0, v in bf._walsh_chunks(tt, low, keep):
        s.reshape(len(v), -1)[:, c0:c0 + v.shape[1]] = v
    return s


@pytest.mark.parametrize("n", range(1, 20, 2))
def test_streamed_certificate_rejects_odd_arity_before_any_transform(
        n, monkeypatch):
    import spreadbent.boolfun as bf

    def no_transform(*args):
        raise AssertionError("transform started")

    monkeypatch.setattr(bf, "_walsh_chunks", no_transform)
    with pytest.raises(ValueError):
        is_bent(random_tt(n, n))


@pytest.mark.parametrize("n", [16, 20])
def test_streamed_certificate_reaches_the_int16_edge(n):
    # after the first pass on 14 bits, a constant is +-2^14 at every w
    # with w & (2^14 - 1) = 0: the largest magnitude int16 must hold
    import spreadbent.boolfun as bf
    assert bf.INT16_BITS == 14 and 1 << 14 <= np.iinfo(np.int16).max
    for value in (0, 1):
        tt = TruthTable(n, np.full(1 << n, value, dtype=np.uint8))
        keep = np.empty(1 << n, dtype=np.int16)
        s = streamed_spectrum(tt, bf.INT16_BITS, keep)
        assert int(np.abs(keep).max()) == 1 << 14
        assert np.array_equal(s, walsh_spectrum(tt))
        assert is_bent(tt) == flat_spectrum(tt) is False


@pytest.mark.parametrize("n", range(2, 13))
def test_streamed_certificate_with_small_factors(n, monkeypatch):
    # many first-pass blocks, many chunks and the float64 path, at small n;
    # the int16 intermediate then covers the 4 bits of a BLOCK of 16
    import spreadbent.boolfun as bf
    set_constants(monkeypatch, SMALL_FACTORS)
    for tt in structured_tts(n):
        low = min(n, 4)
        keep = np.empty(1 << n, dtype=np.int16) if low < n else None
        assert np.array_equal(streamed_spectrum(tt, low, keep),
                              direct_walsh(tt.bits))
        if n % 2 == 0:
            assert is_bent(tt) == flat_spectrum(tt)


def test_streamed_certificate_holds_no_int32_spectrum():
    import tracemalloc
    n = 20
    tt = inner_product_tt(n // 2)
    tracemalloc.start()
    try:
        bent = is_bent(tt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bent
    # the int16 intermediate and chunk buffers: less than one array of
    # 4 bytes a point, which the int32 spectrum alone would be
    assert 2 << n <= peak < 4 << n


def count_chunks(monkeypatch):
    """Count the second-pass chunks, the calls of _run on 2-D buffers."""
    import spreadbent.boolfun as bf
    calls = []
    run = bf._run

    def spy(factors, a, b):
        if a.ndim == 2:
            calls.append(a.shape)
        return run(factors, a, b)

    monkeypatch.setattr(bf, "_run", spy)
    return calls


def test_streamed_certificate_stops_at_the_first_failing_chunk(monkeypatch):
    n = 20
    calls = count_chunks(monkeypatch)
    assert is_bent(inner_product_tt(n // 2))
    chunks = len(calls)
    # rows of 2^(n - 14) entries; every column is in exactly one chunk
    assert chunks > 1 and sum(cols for _, cols in calls) == 1 << 14
    calls.clear()
    # the constant's W(0) = 2^n sits in column 0, in the first chunk
    assert not is_bent(TruthTable(n, np.zeros(1 << n, dtype=np.uint8)))
    assert len(calls) == 1
    calls.clear()
    assert not is_bent(random_tt(n, 3))
    assert len(calls) == 1


def test_walsh_spectrum_keeps_its_chunks(monkeypatch):
    # the written spectrum's plan: bits [0, 16) first, then column chunks
    # of BLOCK // rows float32 entries
    import spreadbent.boolfun as bf
    n = 20
    calls = count_chunks(monkeypatch)
    tt = random_tt(n, 4)
    assert np.array_equal(walsh_spectrum(tt), direct_walsh(tt.bits))
    rows = 1 << (n - 16)
    assert calls == [(rows, bf.BLOCK // rows)] * rows
