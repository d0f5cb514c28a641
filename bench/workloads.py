"""Seeded op lists, output checks and correctness digests for the four workloads.

Nothing here imports ellmult.  Inputs come from the golden table and the seed
alone, and every check recomputes what it compares against: the golden CSV
cut to N <= K, n^2 times a golden height, the identity h_n^2 = g_n D_n^2, and
the closed-form period of y^2 = x^3 - N^2 x.

A run times one block of ops, fixed by the seed, over several rounds.  The
block is an even sample of the workload's op mix: op j sits at the quantile
u_j = frac(u_0 + j * phi) of the mix, where phi is the golden-ratio conjugate
and u_0 comes from the seed, and the golden-ratio sequence spreads any run of
it evenly over [0, 1).  The seed moves u_0 (except in `sequences`) and makes
the draws inside each quantile band.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from mpmath.ctx_mp import MPContext

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CSV = ROOT / "src" / "ellmult" / "data" / "table_n75.csv"

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5) - 1) / 2

Point = Optional[Tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its kind, its argv, and what its output must show."""

    kind: str
    argv: Tuple[str, ...]
    expect: object = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of the output checks; digest is the text of the values they read."""

    ok: bool
    reason: str
    digest: str


def fail(reason: str) -> Verdict:
    return Verdict(False, reason, "")


@dataclass(frozen=True)
class GoldenPoint:
    N: int
    x: int
    y: int
    hhat: Fraction  # the golden CSV's 12-significant-digit height, read exactly


def load_golden(path: Path = GOLDEN_CSV) -> Tuple[str, Tuple[GoldenPoint, ...]]:
    """The golden CSV text and its rows."""
    text = path.read_text()
    points = []
    for line in text.strip().split("\n")[1:]:
        N, x, y, h = line.split(",")
        points.append(GoldenPoint(int(N), int(x), int(y), Fraction(h)))
    return text, tuple(points)


def square_free(n: int) -> bool:
    return n >= 1 and all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


# --- exact group law, independent of ellmult.curves ---------------------------


def chord_tangent_add(A: int, P: Point, Q: Point) -> Point:
    """P + Q on y^2 = x^3 + A x + B (B only enters through the points)."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        slope = (3 * x1 * x1 + A) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return x3, slope * (x1 - x3) - y1


def chord_tangent_multiple(A: int, n: int, P: Point) -> Point:
    """nP by n - 1 chord additions (n >= 1); a different route from double-and-add."""
    Q = P
    for _ in range(n - 1):
        Q = chord_tangent_add(A, Q, P)
    return Q


# --- parsing helpers ------------------------------------------------------------


@contextlib.contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift the int/str digit cap for the body of a `with` and restore it after.

    Sequence terms run to tens of thousands of digits.  Checks run inside it
    and ops outside, so the program keeps the limit it runs under.
    """
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


@lru_cache(maxsize=None)
def mp_context(bits: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = bits
    return ctx


# --- workloads -------------------------------------------------------------------


class Workload:
    """A named op mix: warm-up ops, a seeded op list and the output checks."""

    name = ""  # as listed in BENCHMARK.json, with the reason it was chosen
    block = 0  # ops in a block; a round of it took 5 s to 8 s when the benchmark was added

    def __init__(self, golden_text: str, golden: Sequence[GoldenPoint]):
        self.golden_text = golden_text
        self.golden = tuple(golden)

    def warmup(self) -> List[Op]:
        raise NotImplementedError

    def first(self) -> List[Op]:
        """Ops that open every list, whatever the seed."""
        return []

    def draw(self, u: float, rng: random.Random) -> Op:
        """The op at quantile u of the mix."""
        raise NotImplementedError

    def check(self, op: Op, rc: int, out: str) -> Verdict:
        """Runs inside unlimited_int_digits(); may raise on a malformed output."""
        raise NotImplementedError

    def ops(self, seed: int) -> List[Op]:
        """The seed's block of ops."""
        rng = random.Random(seed)
        u0 = rng.random()
        head = self.first()
        return head + [self.draw((u0 + j * GOLDEN_RATIO_CONJUGATE) % 1.0, rng) for j in range(self.block - len(head))]


def _check_json(rc: int, out: str, **kwargs) -> Tuple[Optional[dict], Optional[Verdict]]:
    if rc != 0:
        return None, fail(f"exit code {rc}")
    try:
        return json.loads(out, **kwargs), None
    except ValueError as exc:
        return None, fail(f"output is not JSON: {exc}")


class TableWorkload(Workload):
    name = "table"

    # Table ops cost 0.2 s to 2 s by K and a block holds only seven ops, so
    # the block follows a fixed pattern instead of the golden-ratio draw.  The
    # full table (K = 75) opens it; then come four threshold-N ops (fixed
    # cost), which put the median there, and two table ops whose K form an
    # antithetic pair, at quantiles w and 1 - w of the K list, whose costs sum
    # to about the same whatever the seed.  With seven ops the tail is the
    # slowest op, the full table.
    THRESHOLD = {"branch1": 75, "branch2": 54}

    def __init__(self, golden_text, golden):
        super().__init__(golden_text, golden)
        self.k_values = [n for n in range(5, 76) if square_free(n)]

    def table_op(self, K: int) -> Op:
        return Op("congruent-table", ("congruent-table", "--N-max", str(K), "--format", "csv"), self.expected_csv(K))

    def threshold_op(self) -> Op:
        return Op("bounds-threshold-N", ("bounds", "threshold-N"), self.THRESHOLD)

    def expected_csv(self, K: int) -> str:
        lines = self.golden_text.strip().split("\n")
        return "\n".join([lines[0]] + [row for row in lines[1:] if int(row.split(",")[0]) <= K]) + "\n"

    def warmup(self):
        return [self.table_op(5), self.threshold_op()]

    def first(self):
        return [self.table_op(75)]

    def ops(self, seed):
        w = random.Random(seed).random()
        k1, k2 = (self.k_values[min(int(q * len(self.k_values)), len(self.k_values) - 1)] for q in (w, 1.0 - w))
        threshold = self.threshold_op()
        return self.first() + [threshold, threshold, self.table_op(k1), threshold, threshold, self.table_op(k2)]

    def check(self, op, rc, out):
        if op.kind == "congruent-table":
            if rc != 0:
                return fail(f"exit code {rc}")
            if out != op.expect:
                return fail("CSV differs from the golden table cut to N <= K")
            return Verdict(True, "", out)
        doc, bad = _check_json(rc, out)
        if bad:
            return bad
        try:
            inputs = doc["bound"]["inputs"]
            got = {"branch1": inputs["branch1"], "branch2": inputs["branch2"]}
        except (KeyError, TypeError):
            return fail("threshold report lacks its branches")
        if got != op.expect:
            return fail(f"threshold branches {got} != {op.expect}")
        return Verdict(True, "", f"{got['branch1']},{got['branch2']}")


class MultiplesWorkload(Workload):
    name = "multiples"

    block = 40
    HEIGHT_LIMIT = 40  # keep n^2 hhat(P) at or below this
    HEIGHT_TOLERANCE = 1e-6

    def __init__(self, golden_text, golden):
        super().__init__(golden_text, golden)
        pool = []
        for P in self.golden:
            for n in range(1, 7):
                if n * n * P.hhat <= self.HEIGHT_LIMIT:
                    pool.append((n * n * P.hhat, P.N, P.x, n, P))
        pool.sort(key=lambda entry: entry[:4])
        self.pool = [(P, n) for *_, n, P in pool]
        self._ops: Dict[Tuple[GoldenPoint, int], Op] = {}

    def multiple(self, P: GoldenPoint, n: int) -> Tuple[Fraction, Fraction]:
        return chord_tangent_multiple(-P.N * P.N, n, (Fraction(P.x), Fraction(P.y)))

    def op_for(self, P: GoldenPoint, n: int) -> Op:
        key = (P, n)
        if key not in self._ops:
            x, y = self.multiple(P, n)
            argv = ("analyze", f"--A={-P.N * P.N}", "--B=0", f"--x={x}", f"--y={y}", "--n-max", "30")
            self._ops[key] = Op("analyze", argv, (P, n))
        return self._ops[key]

    def cross_check(self, curves) -> int:
        """Compare every nP in use with ellmult.curves.multiply; returns how many were compared."""
        for (P, n), op in self._ops.items():
            Q = curves.multiply(curves.make_curve(-P.N * P.N, 0), n, curves.rational_point(P.x, P.y))
            if (Q.x, Q.y) != self.multiple(P, n):
                raise RuntimeError(f"chord-tangent {n}P disagrees with curves.multiply for {P}")
        return len(self._ops)

    def warmup(self):
        return [self.op_for(self.golden[0], 1)]

    def draw(self, u, rng):
        return self.op_for(*self.pool[min(int(u * len(self.pool)), len(self.pool) - 1)])

    def check(self, op, rc, out):
        doc, bad = _check_json(rc, out)
        if bad:
            return bad
        P, n = op.expect
        try:
            canonical = doc["heights"]["canonical"]
            value, tolerance = canonical["value"], canonical["tolerance"]
            torsion = doc["heights"]["torsion_order"]
            holds = [(report["holds"], report["applicable"]) for report in doc["reports"]]
        except (KeyError, TypeError):
            return fail("analyze report lacks heights or reports")
        expected = float(n * n * P.hhat)
        if not abs(value - expected) <= self.HEIGHT_TOLERANCE:
            return fail(f"hhat {value} is not n^2 hhat(P) = {expected}")
        if torsion is not None:
            return fail(f"torsion_order {torsion} for a non-torsion point")
        for verdict, applicable in holds:
            if not (verdict is True or (verdict is None and applicable is False)):
                return fail(f"a report has holds={verdict}, applicable={applicable}")
        return Verdict(True, "", f"{round(value / tolerance)};{torsion};{holds}")


class SequencesWorkload(Workload):
    name = "sequences"

    block = 30
    TARGET = (1e3, 1e4)  # K^2 hhat(P) stays in this window
    # K^5 hhat^2 tracks the cost of the group-law route (sum of n^4 hhat^2 over n <= K);
    # ops are spread log-evenly over this cost window
    COST = (2.5e7, 6e9)

    def eds_op(self, P: GoldenPoint, K: int) -> Op:
        argv = ("eds", f"--A={-P.N * P.N}", "--B=0", f"--x={P.x}", f"--y={P.y}", "--n-max", str(K))
        return Op("eds", argv, K)

    def warmup(self):
        return [self.eds_op(self.golden[0], 20)]

    def first(self):
        # ROADMAP's reference point (-4, 6) on N = 5
        start = next(P for P in self.golden if (P.N, P.x, P.y) == (5, -4, 6))
        return [self.eds_op(start, 50), self.eds_op(start, 100)]

    def ops(self, seed):
        # Every third op is the reference op, (-4, 6) at K = 50.  Its fixed
        # cost sits at the median of the mix, so op_p50_s reads that op's
        # latency rather than whichever drawn points land at the median.
        # The drawn ops' cost quantiles start at u_0 = 0 whatever the seed, and
        # the seed picks the point at each cost: drawn costs span a factor of
        # 240, so a seeded u_0 would move the op at the tail's rank by a third.
        rng = random.Random(seed)
        reference = self.first()[0]
        drawn = (self.draw(j * GOLDEN_RATIO_CONJUGATE % 1.0, rng) for j in range(self.block))
        head = self.first()
        return head + [reference if j % 3 == 2 else next(drawn) for j in range(len(head), self.block)]

    def draw(self, u, rng):
        lo, hi = self.COST
        cost = lo * (hi / lo) ** u
        choices = []
        for P in self.golden:
            K = round((cost / float(P.hhat) ** 2) ** 0.2)
            if self.TARGET[0] <= K * K * P.hhat <= self.TARGET[1]:
                choices.append((P, K))
        return self.eds_op(*rng.choice(choices))

    def check(self, op, rc, out):
        doc, bad = _check_json(rc, out, parse_int=str)
        if bad:
            return bad
        try:
            rows = doc["rows"]
            table = [(row["n"], row["h"], row["k"], row["D"], row["g"]) for row in rows]
        except (KeyError, TypeError):
            return fail("eds document lacks its rows")
        K = op.expect
        if [entry[0] for entry in table] != [str(n) for n in range(K + 1)]:
            return fail(f"rows are not n = 0..{K}")
        if table[0][1] != "0" or table[1][1] != "1":
            return fail("h_0 = 0 and h_1 = 1 do not hold")
        for n, h, _, D, g in table[1:]:
            if h is None or D is None or g is None:
                return fail(f"row {n} has a null term")
            h, D, g = int(h), int(D), int(g)
            if h * h != g * D * D:
                return fail(f"h_n^2 != g_n D_n^2 at n = {n}")
            if not 1 <= D <= abs(h):
                return fail(f"D_n <= |h_n| fails at n = {n}")
        return Verdict(True, "", ";".join(":".join(map(str, entry)) for entry in table))


class PeriodsWorkload(Workload):
    name = "periods"

    block = 30
    # share of drawn ops at each precision
    PRECISIONS = ((128, 0.42), (256, 0.32), (512, 0.26))
    # A 1024-bit op costs 0.5 s to 3 s by curve.  Drawn, a block's one or two
    # of them would swing its throughput by a fifth, so each block instead
    # opens with one on each kind of curve.
    OPENING_BITS = 1024
    # share of each precision's ops on a curve with negative discriminant
    NEGATIVE_SHARE = 0.25
    NEGATIVE = ((1, 1), (-7, 10), (-1, 1), (0, 1), (2, 3), (1, 2), (3, 5))
    GUARD = 64

    def __init__(self, golden_text, golden):
        super().__init__(golden_text, golden)
        self.congruent = [n for n in range(1, 76) if square_free(n)]

    @staticmethod
    @lru_cache(maxsize=None)
    def closed_form(N: int, bits: int):
        """Gamma(1/4)^2 / (2 sqrt(2 pi N)), the real period of y^2 = x^3 - N^2 x."""
        ctx = mp_context(bits + PeriodsWorkload.GUARD)
        return ctx.gamma(ctx.mpf(1) / 4) ** 2 / (2 * ctx.sqrt(2 * ctx.pi * N))

    def periods_op(self, A: int, B: int, bits: int, N: Optional[int]) -> Op:
        if N is not None:
            self.closed_form(N, bits)  # computed now, before timing starts
        argv = ("periods", f"--A={A}", f"--B={B}", "--precision-bits", str(bits))
        return Op(f"periods-{bits}", argv, (bits, N))

    def warmup(self):
        return [self.periods_op(-1, 0, bits, 1) for bits, _ in self.PRECISIONS + ((self.OPENING_BITS, 0),)]

    def first(self):
        return [self.periods_op(-25, 0, self.OPENING_BITS, 5), self.periods_op(1, 1, self.OPENING_BITS, None)]

    def ops(self, seed):
        # Every third op is the reference op, N = 5 at 256 bits.  A block's
        # median and tail fall among its 256-bit ops, whose cost depends on
        # the curve, so without it they would move with the seed's draws.
        reference = self.periods_op(-25, 0, 256, 5)
        drawn = iter(super().ops(seed))
        head = [next(drawn) for _ in self.first()]
        return head + [reference if j % 3 == 2 else next(drawn) for j in range(len(head), self.block)]

    def draw(self, u, rng):
        # the precision by u's band, then the curve by where u sits inside the
        # band, so the block spreads its ops evenly over the curves too
        for bits, share in self.PRECISIONS:
            if u < share:
                break
            u -= share
        v = min(u / share, 1.0 - 1e-12)
        if v < self.NEGATIVE_SHARE:
            A, B = self.NEGATIVE[int(v / self.NEGATIVE_SHARE * len(self.NEGATIVE))]
            return self.periods_op(A, B, bits, None)
        N = self.congruent[int((v - self.NEGATIVE_SHARE) / (1 - self.NEGATIVE_SHARE) * len(self.congruent))]
        return self.periods_op(-N * N, 0, bits, N)

    def check(self, op, rc, out):
        doc, bad = _check_json(rc, out)
        if bad:
            return bad
        bits, N = op.expect
        ctx = mp_context(bits + self.GUARD)
        try:
            omega = ctx.mpf(doc["omega_str"])
            delta = doc["route_delta"]
        except (KeyError, TypeError, ValueError):
            return fail("periods document lacks omega_str or route_delta")
        if not delta <= omega * ctx.mpf(2) ** -(bits - 16):
            return fail(f"route_delta {delta} exceeds omega 2^-(b-16)")
        if N is not None and not abs(omega - self.closed_form(N, bits)) <= omega * ctx.mpf(2) ** -(bits - 20):
            return fail(f"omega differs from Gamma(1/4)^2 / (2 sqrt(2 pi N)) beyond 2^-(b-20)")
        rounded = mp_context(bits - 20).mpf(omega)
        return Verdict(True, "", f"{bits}:{rounded.man_exp}")


WORKLOADS = {cls.name: cls for cls in (TableWorkload, MultiplesWorkload, SequencesWorkload, PeriodsWorkload)}


def build(name: str) -> Workload:
    text, golden = load_golden()
    return WORKLOADS[name](text, golden)
