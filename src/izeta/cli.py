"""Command-line front end.

Verbs: expand, st, product, eval work on single elements; verify runs the
identity suites.  Exit status: 0 all checks passed, 1 at least one check
failed, 2 usage or domain error (malformed input, divergent index, a
request nested deeper than Python's recursion limit), 141 stdout closed
before all output was written (as in `izeta ... | head`; a shell reports
128 + SIGPIPE for a process that the signal ends).
Exact rationals on the command line are written p/q.

Output goes through `_write`, in slices of at most 512 bytes where stdout
writes straight to the file, and in whole pieces otherwise.  A verify
JSON document is written as it is made, one certificate record at a
time (`_document`): no string of the whole document is built, and each
generator list and coefficient list that records share is encoded once.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain

from .algebra import (
    FormalSum,
    harmonic_product,
    parse_index,
    parse_word,
    star_product,
    t_harmonic_product,
)
from .identities import alt_sum, formal_sides, two_one_lhs_index, two_one_rhs_word
from .interpolate import s_alpha, s_t, zeta_t_words
from .numeric import BOUND, METHOD, eval_element, kernel_name, verify_identity
from .reduction import (
    certificate_records,
    certify_relations,
    cyclic_relations,
    sum_formula_relations,
    verify_certificates,
)

_PRODUCTS = {
    "harmonic": harmonic_product,
    "star": star_product,
    "t": t_harmonic_product,
}


# the shapes `Fraction` reads, stripped and without underscores: p/q, or a
# decimal with an optional exponent, whose leading zeros are skipped
_RATIONAL = re.compile(r"[-+]?(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?)0*(\d+))?)")


def _fraction(text):
    """The exact rational written as p/q or as a decimal (1/2, -2/3, 0.5,
    1e-3); raises ValueError if it is malformed, has a zero denominator,
    or has a numerator or denominator, as written, with more digits than
    Python will print (`sys.get_int_max_str_digits()`).  The digits are
    counted on the text, so a huge exponent is refused without computing
    10**exp."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if m := _RATIONAL.fullmatch(text.strip().replace("_", "")):
        whole, den, decimals, sign, exp = m.groups(default="")
        # cut to one digit more than the limit has, the exponent keeps its
        # sign and whether it is over the limit
        x = int(sign + exp[: len(str(limit)) + 1] or 0)
        num = len(whole + decimals) + max(x, 0)
        if max(num, len(den), len(decimals) - min(x, 0) + 1) > limit:
            raise ValueError(f"rational too long: more than {limit} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {text!r} (write p/q)") from None


def _block_sizes(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed block sizes {text!r} (write j1,j2,...)") from None


# POSIX makes a pipe write of at most PIPE_BUF (>= 512) bytes atomic.
_ATOMIC_WRITE = 512


def _write(pieces):
    """Print the texts `pieces`, in turn, and a newline to stdout.

    A buffered binary layer finishes each write that a signal cuts short,
    so over one each piece is written whole.  With unbuffered stdout
    (`python -u`, PYTHONUNBUFFERED) the text layer writes straight to the
    file: a long write to a pipe that a signal interrupts returns a short
    count, and the text layer drops the rest without an error, while a
    write of at most PIPE_BUF bytes is never cut.  So there, and for a
    stdout of unknown kind, pieces are gathered up to a whole slice before
    each write, so every slice but the last is full, as if the whole text
    were sliced.  The output is ASCII, so characters are bytes.
    """
    if isinstance(getattr(sys.stdout, "buffer", None), io.BufferedIOBase):
        sys.stdout.writelines(chain(pieces, ["\n"]))
        return
    rest = ""
    for piece in chain(pieces, ["\n"]):
        rest += piece
        end = len(rest) - len(rest) % _ATOMIC_WRITE
        for i in range(0, end, _ATOMIC_WRITE):
            sys.stdout.write(rest[i : i + _ATOMIC_WRITE])
        rest = rest[end:]
    if rest:
        sys.stdout.write(rest)


def _emit(args, human, record):
    _write([json.dumps(record, sort_keys=True) if args.json else human])


def _cmd_expand(args):
    idx = parse_index(args.index)
    text = str(zeta_t_words(idx))
    _emit(args, text, {"index": str(idx), "expansion": text})
    return 0


def _cmd_st(args):
    w = parse_word(args.word)
    text = str(s_t(FormalSum.from_word(w)))
    _emit(args, text, {"word": str(w), "result": text})
    return 0


def _cmd_product(args):
    left = parse_word(args.left)
    right = parse_word(args.right)
    text = str(_PRODUCTS[args.mode](FormalSum.from_word(left), FormalSum.from_word(right)))
    _emit(args, text, {"mode": args.mode, "left": str(left), "right": str(right), "result": text})
    return 0


def _cmd_eval(args):
    idx = parse_index(args.index)
    t = _fraction(args.t)
    res = eval_element(zeta_t_words(idx), t, args.M)
    human = (
        f"zeta^t({idx}) at t={t}, M={args.M}: "
        f"value={res.value!r} err<={res.err:.3e} [{METHOD}]"
    )
    record = {
        "index": str(idx),
        "t": str(t),
        "M": args.M,
        "value": res.value,
        "err": res.err,
        "kernel": kernel_name(),
        "method": METHOD,
        "bound": BOUND,
    }
    _emit(args, human, record)
    return 0


def _cmd_verify_reduction(args):
    """Certify a suite and, under --numeric, evaluate both sides of each
    identity at t; exit 1 if a certificate or a numeric check fails."""
    # reject a bad --t or --k before any work, in that order
    t = _fraction(args.t)
    labelled, sides = args.relations(args.k)
    # Each identity's sides are built once, split by degree, from the one
    # run of S^t that every identity of the suite shares, and no side
    # outlives its Taylor shift, which uses it up.  Under --numeric each
    # key's sides are evaluated once as they pass and handed on
    # unchanged, and `map` keeps no entry once it is handed on;
    # `certify_relations` reads them all before it solves, so a bad --M
    # is rejected before any solve.
    numeric = {}  # key -> its report

    def evaluated(entry):
        key, pair = entry
        numeric[key] = verify_identity(*formal_sides(pair), [t], args.M)
        return entry

    if args.numeric:
        sides = map(evaluated, sides)
    certs = certify_relations(args.suite, (labelled, sides), 0)
    oks = verify_certificates(certs)
    ok = all(oks)
    reports = [(label, numeric[key]) for label, key in labelled] if args.numeric else []
    if args.json:
        doc = {"suite": args.suite, "ok": ok}
        if reports:
            doc["numeric"] = [
                {"label": label, "checks": [str(c) for c in rep.checks], "ok": rep.ok}
                for label, rep in reports
            ]
        _write(_document(certificate_records(certs), doc))
    else:
        lines = [("ok   " if v else "FAIL ") + c.label for c, v in zip(certs, oks)]
        verdict = "all ok" if ok else "FAILURES"
        lines.append(f"{args.suite}: {len(certs)} certificates, {verdict}")
        lines += [
            f"{'ok  ' if check.ok else 'FAIL'} {label}: {check}"
            for label, rep in reports
            for check in rep.checks
        ]
        _write(["\n".join(lines)])
    return 0 if ok and all(rep.ok for _, rep in reports) else 1


def _document(records, doc):
    """The text of `json.dumps(dict(doc, checks=records), sort_keys=True)`
    in pieces: one record at a time, each list a record holds encoded
    once per list object, then the keys of doc, which sort after
    "checks"."""
    encoded = {}  # id of a list the records hold -> its JSON text

    def dumped(value):
        if type(value) is list:
            return encoded.get(id(value)) or encoded.setdefault(id(value), json.dumps(value))
        return json.dumps(value)

    yield '{"checks": ['
    for i, record in enumerate(records):
        fields = ", ".join(f"{dumped(k)}: {dumped(v)}" for k, v in sorted(record.items()))
        yield (", {" if i else "{") + fields + "}"
    yield "], " + json.dumps(doc, sort_keys=True)[1:]


def _cmd_verify_alt_sum(args):
    w = parse_word(args.word)
    if not w:
        raise ValueError("alt-sum needs a nonempty letter sequence")
    e = alt_sum(w)
    ok = e.is_zero()
    human = f"alt-sum {w}: {'vanishes' if ok else f'NONZERO remainder {e}'}"
    _emit(args, human, {"word": str(w), "remainder": str(e), "ok": ok})
    return 0 if ok else 1


def _cmd_verify_two_one(args):
    """zeta*(idx) against scale * zeta^(1/2)(word), both sides t-free,
    compared by the same check as every other identity."""
    js = _block_sizes(args.j)
    idx = two_one_lhs_index(js)
    word, scale = two_one_rhs_word(js)
    half = Fraction(1, 2)
    lhs = s_alpha(idx.to_word(), 1)
    rhs = scale * s_alpha(word, half)
    (check,) = verify_identity(lhs, rhs, [half], args.M).checks
    human = (
        f"{'ok  ' if check.ok else 'FAIL'} zeta*({idx}) = {check.lhs.value!r} vs "
        f"{scale}*zeta^(1/2)({word}) = {check.rhs.value!r} "
        f"|diff|={check.residual:.3e} tol={check.tol:.3e}"
    )
    record = {
        "j": str(args.j),
        "star_index": str(idx),
        "half_word": str(word),
        "scale": str(scale),
        "lhs": check.lhs.value,
        "rhs": check.rhs.value,
        "residual": check.residual,
        "tol": check.tol,
        "M": args.M,
        "ok": check.ok,
    }
    _emit(args, human, record)
    return 0 if check.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="izeta",
        description="Exact interpolated multiple-zeta algebra and numerics.",
    )
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    truncation = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    truncation.add_argument("--M", type=int, default=100000)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", parents=[json_flag],
                       help="merge-pattern expansion of an index")
    p.add_argument("--index", required=True, help='index like "2,1"')
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("st", parents=[json_flag],
                       help="apply the interpolation operator to a word")
    p.add_argument("--word", required=True, help='word like "2,1,1"')
    p.set_defaults(func=_cmd_st)

    p = sub.add_parser("product", parents=[json_flag], help="product of two words")
    p.add_argument("--mode", required=True, choices=sorted(_PRODUCTS))
    p.add_argument("--left", required=True, help='word like "1"')
    p.add_argument("--right", required=True, help='word like "1,1"')
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("eval", parents=[truncation],
                       help="numerically evaluate an interpolated value")
    p.add_argument("--index", required=True)
    p.add_argument("--t", default="0", help="exact rational p/q")
    p.set_defaults(func=_cmd_eval)

    pv = sub.add_parser("verify", help="run an identity suite")
    vsub = pv.add_subparsers(dest="suite", required=True)

    for suite, about, relations in (
        ("sum-formula", "fixed-weight sum reductions", sum_formula_relations),
        ("cyclic", "cyclic sum reductions", cyclic_relations),
    ):
        p = vsub.add_parser(suite, parents=[truncation], help=about)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--numeric", action="store_true")
        p.add_argument("--t", default="1/2", help="exact rational p/q")
        p.set_defaults(func=_cmd_verify_reduction, relations=relations)

    p = vsub.add_parser("alt-sum", parents=[json_flag],
                        help="alternating-sum vanishing")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_verify_alt_sum)

    p = vsub.add_parser("two-one", parents=[truncation],
                        help="star values vs half-parameter values")
    p.add_argument("--j", required=True, help='block sizes like "1,1"')
    p.set_defaults(func=_cmd_verify_two_one)

    return parser


def _glue_negative_t(argv):
    """argv with each "--t" and a following negative number joined into
    one "--t=-p/q": argparse takes "-2/3" after "--t" for an option, but
    reads the value of "--t=-2/3"."""
    out = []
    for arg in argv:
        if out and out[-1] == "--t" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_t(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# the status a shell reports for a process that SIGPIPE ends, 128 + 13
_CLOSED_STDOUT = 141


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here at the latest
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at devnull, so that the flush at
        # exit does not fail again, and exit with a status of its own: 1
        # would read as a failed check.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = _CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main()
