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
from fractions import Fraction

from . import bmrv, scheme_one, scheme_two, storage
from .gf import FIELDS_BY_WIDTH, field_for_width
from .graph import neighbor
from .oracle import BudgetExceeded, error_profile
from .scheme import RetriesExhausted, exact_error, query, resolve_probes

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


def _parse_positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_eps_list(text: str) -> list:
    return [_parse_eps(part) for part in text.split(",") if part.strip()]


def _read_set_file(path: str, universe: int) -> list:
    elements = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                x = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a decimal element: {line!r}")
            if x < 0:
                raise ValueError(f"{path}:{lineno}: negative element {x}")
            if x >= universe:
                raise ValueError(f"{path}:{lineno}: element {x} >= universe {universe}")
            elements.append(x)
    if len(set(elements)) != len(elements):
        dup = sorted({x for x in elements if elements.count(x) > 1})
        raise ValueError(f"{path}: duplicate elements {dup}")
    return sorted(elements)


def _env_budget():
    raw = os.environ.get(BUDGET_ENV_VAR)
    return int(raw) if raw else None


@contextlib.contextmanager
def _csv_output(path):
    """A CSV writer on the file at path, or on stdout without one."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
        yield csv.writer(out)


def cmd_build(args) -> int:
    try:
        A = _read_set_file(args.set_file, 1 << args.universe_bits)
        if args.n_cap is not None and len(A) > args.n_cap:
            raise ValueError(f"{len(A)} elements exceed --n-cap {args.n_cap}")
        kwargs = dict(n_cap=args.n_cap, indep_k=args.indep_k,
                      master_seed=args.master_seed, max_retries=args.max_retries,
                      field=field_for_width(args.field_width))
        t0 = time.perf_counter()
        scheme = _ENCODERS[args.kind](A, args.universe_bits, args.eps, **kwargs)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        data = storage.save(scheme)
    except (ValueError, OSError, RetriesExhausted) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return EXIT_ENCODE_FAILURE
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
    try:
        scheme = _load_scheme(args.scheme_file)
        probes = resolve_probes(rng, len(scheme.stages), scheme.params.d)
        answer = query(scheme, x, probes)
    except (ValueError, OSError, storage.SchemeFileError) as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return EXIT_ENCODE_FAILURE
    positions = [neighbor(st.graph, x, i) for st, i in zip(scheme.stages, probes)]
    index, position = "probe_index", "bit_position"
    if len(probes) > 1:
        index, position = "probe_indices", "bit_positions"
    print(f"answer={str(answer).lower()} "
          f"{index}={','.join(map(str, probes))} {position}={','.join(map(str, positions))}")
    if args.exact:
        print(f"positive_rate={_format_rate(exact_error(scheme, x))}")
    elif args.trials:
        hits = sum(query(scheme, x, rng) for _ in range(args.trials))
        print(f"positive_rate={hits / args.trials} trials={args.trials}")
    return EXIT_OK


def _guarantee_holds(scheme, profile) -> bool:
    """One-sided for one and two: no member errs and every non-member errs
    below eps.  Two-sided for bmrv: both sides err at most eps."""
    eps = scheme.params.eps
    if scheme.TWO_SIDED:
        return max(profile.max_member_error, profile.max_nonmember_error) <= eps
    return profile.false_negative_count == 0 and profile.max_nonmember_error < eps


def cmd_verify(args) -> int:
    try:
        scheme = _load_scheme(args.scheme_file)
        A = _read_set_file(args.set_file, scheme.params.m)
    except (ValueError, OSError, storage.SchemeFileError) as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return EXIT_ENCODE_FAILURE
    try:
        profile = error_profile(scheme, A, budget=_env_budget())
    except BudgetExceeded as exc:
        print(f"verify aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    members = set(A)
    with _csv_output(args.output) as writer:
        writer.writerow(["element", "membership", "exact_error_num", "exact_error_den"])
        for x, err in enumerate(profile.per_element):
            writer.writerow([x, int(x in members), err.numerator, err.denominator])
    ok = _guarantee_holds(scheme, profile)
    print(f"false_negatives={profile.false_negative_count} "
          f"max_member_error={_format_rate(profile.max_member_error)} "
          f"max_nonmember_error={_format_rate(profile.max_nonmember_error)} "
          f"eps={_format_rate(scheme.params.eps)} "
          f"verdict={'pass' if ok else 'fail'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_GUARANTEE_VIOLATED


BENCH_COLUMNS = ["u", "n", "eps", "kind", "bitmap_bits", "cache_bits",
                 "retries_mean", "max_error_num", "max_error_den",
                 "encode_ms", "query_ns", "accept_rate", "status"]


def _bench_cell(u, n, eps, kind, args):
    rng = random.Random(args.master_seed ^ (u << 20) ^ (n << 8))
    field = field_for_width(args.field_width)
    encode = _ENCODERS[kind]
    encode_ms = []
    seeds_tried = 0
    m = 1 << u
    for trial in range(args.trials):
        A = sorted(rng.sample(range(m), n))
        t0 = time.perf_counter()
        scheme = encode(A, u, eps, indep_k=args.indep_k,
                        master_seed=args.master_seed + trial, field=field)
        encode_ms.append((time.perf_counter() - t0) * 1000.0)
        seeds_tried += scheme.retries
    qrng = random.Random(args.master_seed)
    queries = 512
    t0 = time.perf_counter_ns()
    for _ in range(queries):
        query(scheme, qrng.randrange(m), qrng)
    query_ns = (time.perf_counter_ns() - t0) / queries
    profile = error_profile(scheme, A, budget=_env_budget())
    max_error = max(profile.max_nonmember_error, profile.max_member_error)
    seeds_accepted = args.trials * len(scheme.stages)
    return [u, n, _format_rate(eps), kind, scheme.bitmap_bits, scheme.cache_bits,
            f"{seeds_tried / args.trials:.3f}",
            max_error.numerator, max_error.denominator,
            f"{sum(encode_ms) / len(encode_ms):.3f}", f"{query_ns:.0f}",
            f"{seeds_accepted / seeds_tried:.4f}",
            "ok" if _guarantee_holds(scheme, profile) else "violated"]


def cmd_bench(args) -> int:
    violated = False
    with _csv_output(args.output) as writer:
        writer.writerow(BENCH_COLUMNS)
        for u, n, eps in itertools.product(args.u_list, args.n_list, args.eps_list):
            try:
                row = _bench_cell(u, n, eps, args.kind, args)
            except (ValueError, RetriesExhausted, BudgetExceeded) as exc:
                row = [u, n, _format_rate(eps), args.kind] + [""] * 8
                row += [f"{type(exc).__name__}"]
            violated |= row[-1] == "violated"
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
    p_build.add_argument("--kind", choices=("one", "two", "bmrv"), default="one",
                         help="scheme kind (default: one)")
    p_build.add_argument("--universe-bits", type=int, required=True,
                         help="u with m = 2^u")
    p_build.add_argument("--eps", type=_parse_eps, required=True,
                         help="error bound as a rational, e.g. 1/4")
    p_build.add_argument("--n-cap", type=int, default=None,
                         help="set capacity (default: the set's size)")
    p_build.add_argument("--master-seed", type=int, default=0,
                         help="seed for the candidate stream (default: 0)")
    p_build.add_argument("--max-retries", type=int, default=64,
                         help="candidate seeds per stage (default: 64)")
    p_build.add_argument("--indep-k", type=int, default=None,
                         help="hash independence order (default: u^2)")
    p_build.add_argument("--field-width", type=int, default=64,
                         choices=sorted(FIELDS_BY_WIDTH),
                         help="field width in bits (default: 64)")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="answer one membership query")
    p_query.add_argument("scheme_file")
    p_query.add_argument("element", type=int)
    p_query.add_argument("--trials", type=int, default=0,
                         help="also report the empirical positive rate over N probes")
    p_query.add_argument("--exact", action="store_true",
                         help="report the exact positive rate over all probe indices")
    p_query.add_argument("--master-seed", type=int, default=0,
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
    p_bench.add_argument("--u-list", type=_parse_int_list, default=[],
                         help="comma-separated universe_bits values")
    p_bench.add_argument("--n-list", type=_parse_int_list, default=[4],
                         help="comma-separated set sizes (default: 4)")
    p_bench.add_argument("--eps-list", type=_parse_eps_list, default=[],
                         help="comma-separated rationals, e.g. 1/2,1/4")
    p_bench.add_argument("--kind", choices=("one", "two", "bmrv"), default="one")
    p_bench.add_argument("--trials", type=_parse_positive_int, default=3,
                         help="builds per cell (default: 3)")
    p_bench.add_argument("--indep-k", type=int, default=None)
    p_bench.add_argument("--field-width", type=int, default=64,
                         choices=sorted(FIELDS_BY_WIDTH))
    p_bench.add_argument("--master-seed", type=int, default=0)
    p_bench.add_argument("-o", "--output", default=None,
                         help="CSV path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
