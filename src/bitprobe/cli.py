"""Command-line front end: build scheme files, query them, verify the
error guarantees exhaustively, and emit benchmark tables.

Exit codes: 0 ok, 1 guarantee violated, 2 encode/input failure,
3 enumeration budget exceeded.  All randomness flows from --master-seed,
so every subcommand is deterministic given its flags.
"""

import argparse
import contextlib
import csv
import itertools
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from . import bmrv, scheme_one, scheme_two, storage
from .gf import FIELD_WIDTHS, FieldSpec
from .graph import derive_params, neighbor
from .oracle import BudgetExceeded, KernelMismatch, error_profile, positive_counts
from .scheme import DEFAULT_MAX_RETRIES, RetriesExhausted, draw_probes, query

EXIT_OK = 0
EXIT_GUARANTEE_VIOLATED = 1
EXIT_ENCODE_FAILURE = 2
EXIT_BUDGET_EXCEEDED = 3

BUDGET_ENV_VAR = "BITPROBE_BUDGET"

_ENCODERS = {"one": scheme_one.encode, "two": scheme_two.encode, "bmrv": bmrv.encode}


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError(f"eps must be in (0, 1), got {text}")
    return eps


def _is_decimal(text: str) -> bool:
    """Whether text is a nonempty run of the ASCII digits 0-9 alone."""
    return text.isascii() and text.isdigit()


def _parse_count(least: int, most: float = float("inf")):
    """An argparse type for decimal integers in [least, most]."""
    def parse(text: str) -> int:
        if not _is_decimal(text.strip()) or not least <= int(text) <= most:
            bound = f">= {least}" if most == float("inf") else f"in [{least}, {most}]"
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")
        return int(text)
    return parse


def _parse_seed(text: str) -> int:
    """An argparse type for decimal integers with an optional minus sign;
    the command checks the range."""
    if not _is_decimal(text.strip().removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


# u is at most the widest field's width: edge indices are field elements.
_parse_universe_bits = _parse_count(1, max(FIELD_WIDTHS))
# --indep-k's warning; see gf.draw_seed.
_AFFINE_K = ("k <= 3 makes the neighbor map affine over GF(2), and no such seed "
             "has been seen to pass acceptance")


def _parse_list(item):
    """An argparse type for comma-separated values, each parsed by item."""
    def parse_list(text: str) -> list:
        return [item(part) for part in text.split(",") if part.strip()]
    return parse_list


def _read_set_file(path: str, universe: int) -> list:
    elements = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if not _is_decimal(line):
                raise ValueError(f"{path}:{lineno}: not a decimal element: {line!r}")
            x = int(line)
            if x >= universe:
                raise ValueError(f"{path}:{lineno}: element {x} >= universe {universe}")
            elements.append(x)
    dup = sorted(x for x, count in Counter(elements).items() if count > 1)
    if dup:
        raise ValueError(f"{path}: duplicate elements {dup}")
    return sorted(elements)


def _env_budget():
    """The enumeration budget from the environment: None when unset."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return None
    if not _is_decimal(raw.strip()):
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer >= 0, got {raw!r}")
    return int(raw)


def _output(path):
    """The file at path, opened for CSV text, or stdout without one."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def cmd_build(args) -> int:
    if not 0 <= args.master_seed < 1 << 64:
        raise ValueError(f"--master-seed {args.master_seed} outside [0, 2^64)")
    A = _read_set_file(args.set_file, 1 << args.universe_bits)
    kwargs = dict(n_cap=args.n_cap, indep_k=args.indep_k,
                  master_seed=args.master_seed, max_retries=args.max_retries,
                  field=FieldSpec(args.field_width))
    t0 = time.perf_counter()
    scheme = _ENCODERS[args.kind](A, args.universe_bits, args.eps, **kwargs)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    data = storage.save(scheme)
    with open(args.output, "wb") as fh:
        fh.write(data)
    fields = (f"bitmap_bits={scheme.bitmap_bits} cache_bits={scheme.cache_bits} "
              f"retries_used={scheme.retries}")
    if len(scheme.stages) > 1:
        fields += f" w_size={scheme.w_size}"
    print(f"kind={args.kind} {fields} wall_ms={wall_ms:.1f}")
    return EXIT_OK


def _load_scheme(path: str):
    with open(path, "rb") as fh:
        return storage.load(fh.read())


def _format_rate(rate: Fraction) -> str:
    return f"{rate.numerator}/{rate.denominator}"


def cmd_query(args) -> int:
    x = args.element
    rng = random.Random(args.master_seed)
    scheme = _load_scheme(args.scheme_file)
    probes = draw_probes(rng, len(scheme.stages), scheme.params.d)
    positions = [neighbor(st.graph, x, i) for st, i in zip(scheme.stages, probes)]
    answer = all(st.bitmap.get(w) for st, w in zip(scheme.stages, positions))
    index, position = "probe_index", "bit_position"
    if len(probes) > 1:
        index, position = "probe_indices", "bit_positions"
    print(f"answer={str(answer).lower()} "
          f"{index}={','.join(map(str, probes))} {position}={','.join(map(str, positions))}")
    if args.exact:
        (answered,), denominator = positive_counts(scheme, [x])
        print(f"positive_rate={_format_rate(Fraction(int(answered), denominator))}")
    elif args.trials:
        hits = sum(query(scheme, x, rng) for _ in range(args.trials))
        print(f"positive_rate={hits / args.trials} trials={args.trials}")
    return EXIT_OK


# Profile rows per write: bounds the CSV text held at once.
_ROWS_PER_WRITE = 1 << 12


def _write_profile(profile, out) -> None:
    """Write the profile to out as the CSV text that csv.writer writes: one
    row per element with its membership flag and its error in lowest
    terms, 0 as 0/1.  Each distinct (flag, error) tail is formatted once."""
    errors, which = np.unique(profile.per_element, return_inverse=True)
    tails = [f",{flag},{rate.numerator},{rate.denominator}\r\n"
             for rate in (Fraction(e, profile.denominator) for e in errors.tolist())
             for flag in (0, 1)]
    keys = (2 * which + profile.member).tolist()
    out.write("element,membership,exact_error_num,exact_error_den\r\n")
    for lo in range(0, len(keys), _ROWS_PER_WRITE):
        out.write("".join([f"{x}{tails[key]}"
                           for x, key in enumerate(keys[lo:lo + _ROWS_PER_WRITE], lo)]))


def cmd_verify(args) -> int:
    budget = _env_budget()
    scheme = _load_scheme(args.scheme_file)
    A = _read_set_file(args.set_file, scheme.params.m)
    profile = error_profile(scheme, A, budget)
    with _output(args.output) as out:
        _write_profile(profile, out)
    ok = profile.holds
    print(f"false_negatives={profile.false_negative_count} "
          f"max_member_error={_format_rate(profile.max_member_error)} "
          f"max_nonmember_error={_format_rate(profile.max_nonmember_error)} "
          f"eps={_format_rate(scheme.params.eps)} "
          f"verdict={'pass' if ok else 'fail'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_GUARANTEE_VIOLATED


BENCH_COLUMNS = ["u", "n", "eps", "kind", "bitmap_bits", "cache_bits",
                 "retries_mean", "max_error_num", "max_error_den",
                 "encode_ms", "query_ns", "accept_rate", "status"]


def _bench_cell(u, n, eps, kind, args, budget):
    rng = random.Random(args.master_seed ^ (u << 20) ^ (n << 8))
    field = FieldSpec(args.field_width)
    derive_params(u, max(n, 1), eps, field)  # fail a cell too big to sample from
    encode = _ENCODERS[kind]
    encode_ms = []
    seeds_tried = 0
    max_error, holds = Fraction(0), True
    m = 1 << u
    for trial in range(args.trials):
        A = sorted(rng.sample(range(m), n))
        t0 = time.perf_counter()
        scheme = encode(A, u, eps, indep_k=args.indep_k,
                        master_seed=args.master_seed + trial, field=field)
        encode_ms.append((time.perf_counter() - t0) * 1000.0)
        seeds_tried += scheme.retries
        profile = error_profile(scheme, A, budget)
        max_error = max(max_error, profile.max_nonmember_error, profile.max_member_error)
        holds &= profile.holds
    qrng = random.Random(args.master_seed)
    queries = 512
    t0 = time.perf_counter_ns()
    for _ in range(queries):
        query(scheme, qrng.randrange(m), qrng)
    query_ns = (time.perf_counter_ns() - t0) / queries
    seeds_accepted = args.trials * len(scheme.stages)
    return [u, n, _format_rate(eps), kind, scheme.bitmap_bits, scheme.cache_bits,
            f"{seeds_tried / args.trials:.3f}",
            max_error.numerator, max_error.denominator,
            f"{sum(encode_ms) / len(encode_ms):.3f}", f"{query_ns:.0f}",
            f"{seeds_accepted / seeds_tried:.4f}",
            "ok" if holds else "violated"]


def cmd_bench(args) -> int:
    violated = False
    budget = _env_budget()
    with _output(args.output) as out:
        writer = csv.writer(out)
        writer.writerow(BENCH_COLUMNS)
        for u, n, eps in itertools.product(args.u_list, args.n_list, args.eps_list):
            try:
                row = _bench_cell(u, n, eps, args.kind, args, budget)
            except (ValueError, RetriesExhausted, BudgetExceeded, KernelMismatch,
                    MemoryError) as exc:
                row = [u, n, _format_rate(eps), args.kind] + [""] * 8
                row += [f"{type(exc).__name__}"]
            violated |= row[-1] in ("violated", KernelMismatch.__name__)
            writer.writerow(row)
    return EXIT_GUARANTEE_VIOLATED if violated else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitprobe",
        description="Bit-probe membership schemes with one-sided error.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="encode a set file into a scheme file")
    p_build.add_argument("set_file", help="text file, one decimal element per line")
    p_build.add_argument("-o", "--output", required=True, help="scheme file to write")
    p_build.add_argument("--kind", choices=tuple(_ENCODERS), default="one",
                         help="scheme kind (default: one)")
    p_build.add_argument("--universe-bits", type=_parse_universe_bits, required=True,
                         help="u with m = 2^u, in [1, 64]")
    p_build.add_argument("--eps", type=_parse_eps, required=True,
                         help="error bound as a rational, e.g. 1/4")
    p_build.add_argument("--n-cap", type=_parse_count(1), default=None,
                         help="set capacity (default: the set's size)")
    p_build.add_argument("--master-seed", type=_parse_seed, default=0,
                         help="seed for the candidate stream, in [0, 2^64) (default: 0)")
    p_build.add_argument("--max-retries", type=_parse_count(1), default=DEFAULT_MAX_RETRIES,
                         help=f"candidate seeds per stage (default: {DEFAULT_MAX_RETRIES})")
    p_build.add_argument("--indep-k", type=_parse_count(1), default=None,
                         help=f"hash independence order (default: u^2); {_AFFINE_K}")
    p_build.add_argument("--field-width", type=_parse_count(0), default=64,
                         choices=FIELD_WIDTHS, help="field width in bits (default: 64)")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="answer one membership query")
    p_query.add_argument("scheme_file")
    p_query.add_argument("element", type=_parse_count(0))
    rate = p_query.add_mutually_exclusive_group()
    rate.add_argument("--trials", type=_parse_count(0), default=0,
                      help="also report the empirical positive rate over N probes")
    rate.add_argument("--exact", action="store_true",
                      help="report the exact positive rate over all probe indices")
    p_query.add_argument("--master-seed", type=_parse_seed, default=0,
                         help="probe randomness seed (default: 0)")
    p_query.set_defaults(func=cmd_query)

    p_verify = sub.add_parser(
        "verify", help="exhaustively verify the guarantees; CSV error profile")
    p_verify.add_argument("scheme_file")
    p_verify.add_argument("set_file", help="the set the scheme was built from")
    p_verify.add_argument("-o", "--output", default=None,
                          help="CSV path (default: stdout)")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="space/error/time table over a grid")
    p_bench.add_argument("--u-list", type=_parse_list(_parse_universe_bits), default=[],
                         help="comma-separated universe_bits values, each in [1, 64]")
    p_bench.add_argument("--n-list", type=_parse_list(_parse_count(0)), default=[4],
                         help="comma-separated set sizes (default: 4)")
    p_bench.add_argument("--eps-list", type=_parse_list(_parse_eps), default=[],
                         help="comma-separated rationals, e.g. 1/2,1/4")
    p_bench.add_argument("--kind", choices=tuple(_ENCODERS), default="one")
    p_bench.add_argument("--trials", type=_parse_count(1), default=3,
                         help="builds per cell (default: 3)")
    p_bench.add_argument("--indep-k", type=_parse_count(1), default=None,
                         help=f"hash independence order (default: u^2); {_AFFINE_K}")
    p_bench.add_argument("--field-width", type=_parse_count(0), default=64,
                         choices=FIELD_WIDTHS)
    p_bench.add_argument("--master-seed", type=_parse_seed, default=0)
    p_bench.add_argument("-o", "--output", default=None,
                         help="CSV path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command; the one place that maps its exceptions to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except KernelMismatch as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE_VIOLATED
    except (ValueError, OSError, MemoryError, RetriesExhausted, storage.SchemeFileError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_ENCODE_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
