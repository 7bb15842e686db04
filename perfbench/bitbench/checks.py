"""Correctness checks the benchmark makes outside its timed regions.

Each function returns ``None`` when the check passes and a one-line reason
when it does not.  The verdict is computed here from the exact profile in
the ``verify`` CSV, per kind, rather than taken from the CLI: ``verify``
exits with the one-sided verdict for every kind, ``bmrv`` included, and
``bench`` reports ``status=ok`` without checking anything.

The library functions are bound at import time, so the checks call the
originals even while the traced run has rebound the package's names.
"""

import csv
import random

from bitprobe.bmrv import BmrvScheme
from bitprobe.graph import edge_targets, neighbor
from bitprobe.scheme_one import OneProbeScheme
from bitprobe.scheme_two import TwoProbeScheme
from bitprobe.storage import load, save

EDGE_SAMPLES = 256
_CSV_HEADER = ["element", "membership", "exact_error_num", "exact_error_den"]


def stage_graphs(scheme):
    if isinstance(scheme, TwoProbeScheme):
        return [scheme.g1, scheme.g2]
    if isinstance(scheme, (OneProbeScheme, BmrvScheme)):
        return [scheme.graph]
    raise TypeError(f"unknown scheme type {type(scheme).__name__}")


def edge_sample_problem(scheme, rng: random.Random):
    """``EDGE_SAMPLES`` random (v, i) pairs read through the scalar ``neighbor``
    must equal the rows of the bulk ``edge_targets`` kernel that the encoder
    and oracle use."""
    for stage, g in enumerate(stage_graphs(scheme), 1):
        p = g.params
        vs = [rng.randrange(p.m) for _ in range(EDGE_SAMPLES)]
        slots = [rng.randrange(p.d) for _ in range(EDGE_SAMPLES)]
        rows = edge_targets(g, vs)
        for row, v, i in zip(rows, vs, slots):
            scalar = neighbor(g, v, i)
            if scalar != int(row[i]):
                return (f"stage {stage}: neighbor({v}, {i}) = {scalar} but "
                        f"edge_targets gives {int(row[i])}")
    return None


def roundtrip_problem(data: bytes):
    """``save(load(b)) == b``; returns the loaded scheme alongside the verdict."""
    scheme = load(data)
    if save(scheme) != data:
        return scheme, "save(load(b)) differs from b"
    return scheme, None


def verdict_problem(kind: str, csv_path, elements, eps, m: int):
    """The guarantee of ``kind`` against the exact per-element profile.

    ``one`` and ``two`` are one-sided: no member error, and every non-member
    error below eps.  ``bmrv`` is two-sided: both sides at most eps.
    """
    members = set(elements)
    worst = {True: (0, 1), False: (0, 1)}  # membership -> largest error as (num, den)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _CSV_HEADER:
            return "profile CSV header missing or wrong"
        count = 0
        for row in reader:
            x, member, num, den = (int(field) for field in row)
            if x != count:
                return f"profile row {count} is for element {x}"
            if bool(member) != (x in members):
                return f"profile marks element {x} with membership {member}"
            if den <= 0 or not 0 <= num <= den:
                return f"profile error {num}/{den} of element {x} is not a probability"
            top_num, top_den = worst[bool(member)]
            if num * top_den > top_num * den:
                worst[bool(member)] = (num, den)
            count += 1
    if count != m:
        return f"profile has {count} rows for a universe of {m}"
    (mem_num, mem_den), (non_num, non_den) = worst[True], worst[False]
    p, q = eps.numerator, eps.denominator
    if kind == "bmrv":
        ok = mem_num * q <= p * mem_den and non_num * q <= p * non_den
    else:
        ok = mem_num == 0 and non_num * q < p * non_den
    if ok:
        return None
    return (f"{kind} verdict fails: member error {mem_num}/{mem_den}, "
            f"non-member error {non_num}/{non_den}, eps {p}/{q}")
