"""Command-line front end.

Subcommands map one-to-one onto the library layers:

    qf verify | qf divide          families and their division
    spread verify                  the induced spread
    poly dickson-inv | poly invert-linearized
    bent build | verify | anf | spectrum

Reports are `key=value` lines, sorted by key, on standard output — identical
invocations produce byte-identical output.  Timing goes to standard error
only.  Field elements are written and read as lowercase hex; `--modulus HEX`
overrides the default field polynomial wherever a field is built.

Exit codes: 0 success; 1 a verification, certification, or consistency check
failed, or the command ran out of memory; 2 invalid parameters (diagnostic
names the offending flag or value) or a path that cannot be read or
written (diagnostic names the path).
"""

import argparse
import errno
import os
import sys
import time

from . import __version__
from .boolfun import (
    BLOCK,
    MAX_N,
    _anf_words,
    _word_degree,
    degree,
    is_bent,
    load_tt,
    save_tt,
    walsh_spectrum,
)
from .construct import (
    CertificationError,
    _certify,
    _format_counts,
    _label,
    _spectrum_counts,
    ps_minus,
    ps_plus,
    random_selector,
    selector_from_support,
    spectrum_summary,
)
from .field import field_ctx
from .polynomials import (
    LinearizedMap,
    NotBijectiveError,
    dickson_inverse_exponent,
    invert_linearized,
)
from .quasifield import (AXIOM_MAX_M, FAMILY_NAMES, ConsistencyError,
                         make_family, verify_axioms)
from .spread import build_spread, dump_spread, verify_spread

import numpy as np


def _hex_value(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a hex value")


def _hex_list(text: str, flag: str) -> list[int]:
    try:
        return [int(t, 16) for t in text.split(",") if t]
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated hex values, "
                         f"got {text!r}")


def _elem(v: int) -> str:
    return f"0x{v:x}"


def _emit(pairs: dict):
    for key in sorted(pairs):
        v = pairs[key]
        if isinstance(v, bool):
            v = "true" if v else "false"
        print(f"{key}={v}")


def _check_m(args, cap: int, what: str):
    """Refuse --m above a size cap before any table is built."""
    if args.m > cap:
        raise ValueError(f"--m {args.m} is above {cap}, the largest m {what}")


def _command(args) -> str:
    """The command and its --m, --k and --beta, as an error message names
    them."""
    out = f"{args.group} {args.action}"
    for flag, show in (("m", str), ("k", str), ("beta", _elem)):
        v = getattr(args, flag, None)
        if v is not None:
            out += f" --{flag} {show(v)}"
    return out


def _stopwatch():
    """lap(name) writes `elapsed_ms.<name>=` to stderr: the time since the
    previous lap, or since the stopwatch started."""
    last = time.perf_counter()

    def lap(name: str):
        nonlocal last
        now = time.perf_counter()
        print(f"elapsed_ms.{name}={(now - last) * 1000.0:.1f}",
              file=sys.stderr)
        last = now

    return lap


def _check_writable(path: str):
    """Refuse an output path that is a directory or lies in a missing one."""
    where = os.path.dirname(path) or "."
    code = (errno.EISDIR if os.path.isdir(path)
            else 0 if os.path.isdir(where) else errno.ENOENT)
    if code:
        raise OSError(code, os.strerror(code), path)


def _family(args):
    return make_family(args.family, args.m, k=args.k, beta=args.beta,
                       modulus=args.modulus)


def _family_pairs(Q) -> dict:
    pairs = {"family": Q.kind, "m": Q.ctx.m, "modulus": _elem(Q.ctx.modulus)}
    for key, v in Q.params.items():
        pairs[key] = _elem(v) if key == "beta" else v
    return pairs


def _selector(text: str, m: int):
    kind, sep, rest = text.partition(":")
    if sep and kind == "random":
        try:
            seed = int(rest)
        except ValueError:
            raise ValueError(f"--g random:SEED needs an integer, got {rest!r}")
        return random_selector(m, seed), f"random:{seed}"
    if sep and kind == "support":
        g = selector_from_support(m, _hex_list(rest, "--g"))
        return g, "support:" + ",".join(_elem(a) for a in g.support)
    raise ValueError("--g must be 'support:HEX,HEX,...' or 'random:SEED'")


# ---------------------------------------------------------------------------
# commands


def cmd_qf_verify(args) -> int:
    _check_m(args, AXIOM_MAX_M, "that the exhaustive axiom sweep covers")
    Q = _family(args)  # strict mode sweeps formula vs oracle for m <= 7
    report = verify_axioms(Q)
    # the family pairs override the report's own family, m and raw params
    pairs = {"command": "qf verify", **report.as_dict(), **_family_pairs(Q),
             # the strict sweep ran and passed, or was skipped (m > 7)
             "division_consistent": True if Q.strict else "skipped"}
    _emit(pairs)
    return 0 if report.passed else 1


def cmd_qf_divide(args) -> int:
    Q = _family(args)
    q = Q.ctx.order
    for flag in ("x", "y"):
        v = getattr(args, flag)
        if not 0 <= v < q:
            raise ValueError(f"--{flag} {v:#x} is not a field element: "
                             f"need 0 <= {flag} < {q:#x}")
    div = Q.qdiv_formula if args.method == "formula" else Q.qdiv_oracle
    result = div(args.y, args.x)
    _emit({"command": "qf divide", **_family_pairs(Q),
           "method": args.method, "x": _elem(args.x), "y": _elem(args.y),
           "result": _elem(result)})
    return 0


def cmd_spread_verify(args) -> int:
    _check_m(args, AXIOM_MAX_M, "that the exhaustive spread sweep covers")
    if args.dump:
        _check_writable(args.dump)
    Q = _family(args)
    S = build_spread(Q)
    report = verify_spread(S)
    pairs = {"command": "spread verify", **_family_pairs(Q),
             **{k: v for k, v in report.as_dict().items()
                if k not in ("family", "m")}}
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(dump_spread(S))
        pairs["dump"] = args.dump
    _emit(pairs)
    return 0 if report.passed else 1


def cmd_poly_dickson_inv(args) -> int:
    for flag, v, least in (("--m", args.m, 1), ("--k", args.k, 0)):
        if v < least:
            raise ValueError(f"{flag} {v} is below {least}")
    kprime = dickson_inverse_exponent(args.k, args.m)
    _emit({"command": "poly dickson-inv", "m": args.m, "k": args.k,
           "kprime": kprime, "order": (1 << (2 * args.m)) - 1})
    return 0


def cmd_poly_invert_linearized(args) -> int:
    ctx = field_ctx(args.m, args.modulus)
    L = LinearizedMap(ctx, _hex_list(args.coeffs, "--coeffs"))
    pairs = {"command": "poly invert-linearized", "m": args.m,
             "modulus": _elem(ctx.modulus),
             "input": ",".join(_elem(c) for c in L.coeffs)}
    try:
        inv = invert_linearized(L)
    except NotBijectiveError:
        _emit({**pairs, "bijective": False})
        return 1
    _emit({**pairs, "bijective": True,
           "inverse": ",".join(_elem(c) for c in inv.coeffs)})
    return 0


def cmd_bent_build(args) -> int:
    _check_m(args, MAX_N // 2,
             f"for a truth table on n = 2m <= {MAX_N} variables")
    _check_writable(args.out)
    lap = _stopwatch()
    Q = _family(args)
    g, g_echo = _selector(args.g, args.m)
    Q.div_table_formula()
    lap("table")  # the family and its division table
    f = ps_minus(Q, g, certify=False)
    lap("gather")  # the truth table, from the cached division table
    # take what the report needs and drop the family, and with it its
    # cached q x q division table, before the Walsh transform and the ANF
    label, family = _label(Q), _family_pairs(Q)
    header_params = [f"{k}={v}" for k, v in Q.params.items()]
    if args.modulus is not None:
        header_params.append(f"modulus={_elem(Q.ctx.modulus)}")
    del Q
    if args.no_certify:
        bent = spectrum = "skipped"
    else:
        # one Walsh transform, freed before the complement and the ANF are
        # allocated: f is bent iff every value it takes is +-2^m
        values, counts = _spectrum_counts(walsh_spectrum(f))
        _certify(label, g, bool((np.abs(values) == 1 << args.m).all()))
        if args.plus:  # the complement's spectrum is the negated one
            values, counts = -values[::-1], counts[::-1]
        bent, spectrum = True, _format_counts(values, counts)
        lap("walsh")  # the transform, the certificate and the summary
    if args.plus:
        f = ps_plus(f)
        header_params.append("plus")
    save_tt(f, args.out, header=(f"m={args.m} family={family['family']} "
                                 f"params={','.join(header_params)}"))
    lap("save")  # the complement, if any, and the file
    deg = degree(f)
    lap("degree")
    _emit({"command": "bent build", **family, "g": g_echo,
           "out": args.out, "plus": args.plus, "n": f.n,
           "weight": f.weight(), "degree": deg,
           "certified": not args.no_certify, "bent": bent,
           "spectrum": spectrum})
    return 0


def cmd_bent_verify(args) -> int:
    f = load_tt(args.tt)
    bent = f.n % 2 == 0 and is_bent(f)  # none exists for odd n
    _emit({"command": "bent verify", "tt": args.tt, "n": f.n,
           "weight": f.weight(), "balanced": f.is_balanced(), "bent": bent})
    return 0 if bent else 1


def cmd_bent_anf(args) -> int:
    f = load_tt(args.tt)
    words = _anf_words(f.bits)  # one Mobius transform for both counts
    _emit({"command": "bent anf", "tt": args.tt, "n": f.n,
           "weight": f.weight(), "degree": _word_degree(words),
           "monomials": int(np.bitwise_count(words).sum())})
    return 0


def cmd_bent_spectrum(args) -> int:
    f = load_tt(args.tt)
    s = walsh_spectrum(f)
    if args.summary:
        _emit({"command": "bent spectrum", "tt": args.tt, "n": f.n,
               "summary": spectrum_summary(s)})
        return 0
    line = f"0x%0{-(-f.n // 4)}x=%d\n"  # zero-padded keys sort numerically
    for w0 in range(0, s.size, BLOCK):  # one format and write a chunk
        v = s[w0:w0 + BLOCK]
        pairs = np.column_stack((np.arange(w0, w0 + v.size), v))
        sys.stdout.write(line * v.size % tuple(pairs.ravel().tolist()))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_family_flags(p):
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--k", type=int, help="dm only")
    p.add_argument("--beta", type=_hex_value, help="knuth only (hex)")
    p.add_argument("--modulus", type=_hex_value,
                   help="field polynomial override (hex)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spreadbent",
        description="partial-spread bent functions from pre-quasifield "
                    "division, with exhaustive verification")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)

    qf = groups.add_parser("qf", help="pre-quasifield families")
    qf_sub = qf.add_subparsers(dest="action", required=True)
    p = qf_sub.add_parser("verify", help="exhaustive axiom sweep")
    _add_family_flags(p)
    p.set_defaults(func=cmd_qf_verify)
    p = qf_sub.add_parser("divide", help="solve a from a <> x = y")
    _add_family_flags(p)
    p.add_argument("--x", required=True, type=_hex_value)
    p.add_argument("--y", required=True, type=_hex_value)
    p.add_argument("--method", choices=["formula", "oracle"],
                   default="formula")
    p.set_defaults(func=cmd_qf_divide)

    spread = groups.add_parser("spread", help="induced spreads")
    spread_sub = spread.add_subparsers(dest="action", required=True)
    p = spread_sub.add_parser("verify", help="check the spread axioms")
    _add_family_flags(p)
    p.add_argument("--dump", help="write components to this file")
    p.set_defaults(func=cmd_spread_verify)

    poly = groups.add_parser("poly", help="polynomial inverses")
    poly_sub = poly.add_subparsers(dest="action", required=True)
    p = poly_sub.add_parser("dickson-inv",
                            help="inverse Dickson exponent mod 2^(2m)-1")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(func=cmd_poly_dickson_inv)
    p = poly_sub.add_parser("invert-linearized",
                            help="invert sum c_i z^(2^i) over GF(2^m)")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--coeffs", required=True,
                   help="comma-separated hex, low Frobenius power first")
    p.add_argument("--modulus", type=_hex_value)
    p.set_defaults(func=cmd_poly_invert_linearized)

    bent = groups.add_parser("bent", help="bent-function construction")
    bent_sub = bent.add_subparsers(dest="action", required=True)
    p = bent_sub.add_parser("build", help="construct f(x,y) = g(y // x)")
    _add_family_flags(p)
    p.add_argument("--g", required=True,
                   help="'support:HEX,HEX,...' or 'random:SEED'")
    p.add_argument("--out", required=True, help="truth-table output file")
    p.add_argument("--plus", action="store_true",
                   help="write the complement variant")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the Walsh certification sweep")
    p.set_defaults(func=cmd_bent_build)
    for name, fn, hlp in [("verify", cmd_bent_verify, "certify bentness"),
                          ("anf", cmd_bent_anf, "algebraic normal form"),
                          ("spectrum", cmd_bent_spectrum, "Walsh spectrum")]:
        p = bent_sub.add_parser(name, help=hlp)
        p.add_argument("--tt", required=True, help="truth-table file")
        if name == "spectrum":
            p.add_argument("--summary", action="store_true",
                           help="value:count multiset instead of full dump")
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (ConsistencyError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except ValueError as exc:
        print(f"error: {_command(args)}: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        path = f": {exc.filename}" if exc.filename else ""
        print(f"error: {_command(args)}: {exc.strerror or exc}{path}",
              file=sys.stderr)
        code = 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {_command(args)}: out of memory{detail}",
              file=sys.stderr)
        code = 1
    finally:
        elapsed = (time.perf_counter() - t0) * 1000.0
        print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
