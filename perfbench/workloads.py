"""Workload definitions and seeded input generation.

Each workload is a stream of `stabctx` CLI invocations (items).  The stream
is a pure function of the workload name and the seed: the program only ever
receives the generated `--phi` strings.  Item classes follow a fixed
repeating pattern and the seed draws the concrete states inside each class,
so every seed runs the same mix of cheap and expensive items and a run's
median and tail measure the program, not the luck of the draw.

Why each workload exists (the rationale printed with every result):

analyze-strong-d11
    `analyze` on strong normal-form states phi1*j^2*k + phi2*j*k^2 plus a
    random quadratic at d = 11: the per-state work of `verify-theorem1
    --d 11` plus certificate emission.  All 14,641 hidden variables are
    refuted in the proof stage, so the per-lambda Python loop and the
    5.6 MB JSON certificate dominate.
analyze-cubic-d7
    `analyze` on random cubics over Z_7 with every coefficient up to degree
    3 drawn, the strategy alternating between table1_first and full_scan.  These states
    are outside the normal form, so the scan reaches the table1 and full
    stages; most end in a witness whose 400-row table is made of possible
    outcomes (which exit the kernel early), the opposite kernel use from
    analyze-strong-d11.  d = 7 is used only through `analyze`:
    `verify-theorem1` refuses d = 1 mod 3 with exit 1, and at d = 7 some
    strong normal-form states (e.g. 2*j^2*k + j*k^2) are not strongly
    contextual.
model-cf-d5
    `model --contexts full --format csv` and `cf --contexts full --format
    json` over all 156 contexts at d = 5 on strong normal-form, random
    non-normal-form cubic and quadratic-only states (cf = 0, so the LP keeps
    nonzero weights).  It never calls the lambda scan or the kernel: it
    isolates born, dense and the LP and is the bypass case for any scan
    optimisation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

QUADRATIC_EXPS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
CUBIC_EXPS = ((3, 0), (2, 1), (1, 2), (0, 3))
STRATEGIES = ("table1_first", "full_scan")

# Items generated per run.  Far more than a run completes, so a run never
# wraps around and repeats an input.
STREAM_LENGTH = 4096
WARMUP_ITEMS = 1


@dataclass(frozen=True)
class Item:
    """One CLI invocation and what its artifact is checked against."""

    command: str          # "analyze" | "model" | "cf"
    d: int
    phi: str              # canonical text form, as the program prints it
    ref_key: str          # key into the workload's reference data
    strategy: Optional[str] = None
    state_class: str = ""  # "strong" | "witness" | "cubic" | "quadratic"

    def argv(self) -> list[str]:
        args = [self.command, "--d", str(self.d), "--phi", self.phi]
        if self.command == "analyze":
            args += ["--strategy", self.strategy]
        elif self.command == "model":
            args += ["--contexts", "full", "--format", "csv"]
        else:
            args += ["--contexts", "full", "--format", "json"]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Reference times of the yardstick (see speed.py) on the 2-core VM the
    # benchmark was written on, its core at the faster speed: one run of
    # the yardstick's fixed input, and one yardstick set-up.
    yardstick_s: float
    yardstick_setup_s: float


WORKLOADS = {
    w.name: w for w in (
        Workload("analyze-strong-d11",
                 "per-state work of verify-theorem1 --d 11 plus emission: "
                 "every lambda refuted in the proof stage, so the per-lambda "
                 "loop and the 5.6 MB certificate dominate",
                 yardstick_s=0.90, yardstick_setup_s=0.50),
        Workload("analyze-cubic-d7",
                 "non-normal-form cubics reach the table1 and full stages and "
                 "mostly end in witnesses of possible outcomes; d=7 only via "
                 "analyze, since verify-theorem1 refuses d = 1 mod 3",
                 yardstick_s=0.16, yardstick_setup_s=0.50),
        Workload("model-cf-d5",
                 "model and cf over all 156 contexts at d=5: isolates born, "
                 "dense and the LP, never calls the lambda scan or kernel; the "
                 "bypass case for scan optimisations",
                 yardstick_s=1.20, yardstick_setup_s=0.50),
    )
}


def format_phi(coeffs: dict, d: int) -> str:
    """The canonical text form of a polynomial in j, k over Z_d: terms by
    total degree, then exponents, descending; coefficients in 1..d-1."""
    terms = sorted(((e, c % d) for e, c in coeffs.items() if c % d),
                   key=lambda t: (-sum(t[0]), -t[0][0], -t[0][1]))
    if not terms:
        return "0"
    parts = []
    for (e1, e2), c in terms:
        factors = [str(c)] if c != 1 or e1 == e2 == 0 else []
        for name, e in (("j", e1), ("k", e2)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _draw(rng: random.Random, exps, d: int) -> dict:
    return {e: rng.randrange(d) for e in exps}


class _Strata:
    """Draws members of groups so that every len(groups) draws visit each
    group once: a run's mix then does not depend on the luck of the draw,
    and every group is represented equally.  Each round visits the groups
    in seeded random order or, with `balanced` (groups sorted by cost, a
    power of two of them), in the same bit-reversed order for every seed,
    so that the draws of an unfinished round also spread evenly over the
    cost range and the seed only picks the members."""

    def __init__(self, rng: random.Random, groups: list[list],
                 balanced: bool = False):
        self.rng = rng
        self.groups = groups
        self.balanced = balanced
        self.order: list[int] = []

    def draw(self):
        if not self.order:
            n = len(self.groups)
            if self.balanced:
                self.order = _bit_reversed(n)[::-1]
            else:
                self.order = self.rng.sample(range(n), n)
        return self.rng.choice(self.groups[self.order.pop()])


def _bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix spreads over the range."""
    bits = n.bit_length() - 1
    if 1 << bits != n:
        raise ValueError(f"{n} is not a power of two")
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
            for i in range(n)]


# -- analyze-strong-d11 --------------------------------------------------------

def _strong_d11(rng: random.Random) -> Item:
    d = 11
    phi1, phi2 = 0, 0
    while phi1 == phi2 == 0:
        phi1, phi2 = rng.randrange(d), rng.randrange(d)
    coeffs = _draw(rng, QUADRATIC_EXPS, d)
    coeffs[(2, 1)] = phi1
    coeffs[(1, 2)] = phi2
    return Item("analyze", d, format_phi(coeffs, d), f"{phi1},{phi2}",
                strategy="table1_first", state_class="strong")


# -- analyze-cubic-d7 ------------------------------------------------------------

# One period of the item pattern: (expected verdict, strategy).  One item in
# three is strongly contextual, against about one in seven among uniformly
# drawn cubics, so both the witness mode (the median) and the strongly
# contextual mode (the tail) hold enough items in every run.
CUBIC_D7_PATTERN = (
    ("witness", "table1_first"), ("witness", "full_scan"),
    ("strong", "table1_first"),
    ("witness", "full_scan"), ("witness", "table1_first"),
    ("strong", "full_scan"),
)
# Strongly contextual items cost 0.4 to 1.8 s and witnesses 0.07 to 0.17 s,
# depending on the cubic.  Each (verdict, strategy) class is cut into strata
# of similar recorded cost and every run of CUBIC_D7_STRATA items of a class
# visits each stratum once, in an order that spreads any part of a round
# over the cost range, so a run's item mix depends neither on the luck of
# the draw nor on how many items the run completes.  A run completes 8 to
# 11 items of each strongly contextual class, which sets item_tail_s.
CUBIC_D7_STRATA = 16


def _cubic_d7_stream(rng: random.Random, reference, count: int) -> list[Item]:
    d = 7
    strata = {(verdict, strategy): _Strata(rng, reference.strata(
                  strategy, 0 if verdict == "strong" else 2, CUBIC_D7_STRATA),
                  balanced=True)
              for verdict, strategy in dict.fromkeys(CUBIC_D7_PATTERN)}
    items = []
    for i in range(count):
        cls = CUBIC_D7_PATTERN[i % len(CUBIC_D7_PATTERN)]
        index = strata[cls].draw()
        coeffs = _draw(rng, QUADRATIC_EXPS, d)
        coeffs.update((e, (index // d ** (3 - k)) % d)
                      for k, e in enumerate(CUBIC_EXPS))
        verdict, strategy = cls
        items.append(Item("analyze", d, format_phi(coeffs, d),
                          f"{strategy}:{index}", strategy=strategy,
                          state_class=verdict))
    return items


# -- model-cf-d5 -------------------------------------------------------------------

MODEL_CF_POOL_SEED = "model-cf-d5-pool"
MODEL_CF_POOL_PER_CLASS = 6
MODEL_CF_CLASSES = ("strong", "cubic", "quadratic")

# One period: per state class, two cf items and one model item.  cf items
# are the slow mode and hold two thirds of the items, so the median sits
# inside the cf mode instead of on the boundary between the two modes.
# Every MODEL_CF_POOL_PER_CLASS items of one (class, command) slot use each
# pool state of the class once.
MODEL_CF_PATTERN = tuple((cls, cmd) for cls in MODEL_CF_CLASSES
                         for cmd in ("cf", "model", "cf"))


def model_cf_pool() -> list[tuple[str, dict]]:
    """The fixed pool of d = 5 states (class, coefficients) whose models and
    contextual fractions are recorded as references.  The seed draws items
    from this pool and adds a constant term (a global phase)."""
    d = 5
    rng = random.Random(MODEL_CF_POOL_SEED)
    pool = []
    for cls in MODEL_CF_CLASSES:
        made = 0
        while made < MODEL_CF_POOL_PER_CLASS:
            coeffs = _draw(rng, QUADRATIC_EXPS[:-1], d)
            if cls == "strong":
                phi1, phi2 = rng.randrange(d), rng.randrange(d)
                if phi1 == phi2 == 0:
                    continue
                coeffs[(2, 1)], coeffs[(1, 2)] = phi1, phi2
            elif cls == "cubic":
                coeffs.update(_draw(rng, CUBIC_EXPS, d))
                if coeffs[(3, 0)] == coeffs[(0, 3)] == 0:
                    continue
            coeffs = {e: c for e, c in coeffs.items() if c}
            pool.append((cls, coeffs))
            made += 1
    return pool


def _model_cf_d5_stream(rng: random.Random, count: int) -> list[Item]:
    d = 5
    pool = model_cf_pool()
    slots = {slot: _Strata(rng, [[i] for i, (c, _) in enumerate(pool)
                                 if c == slot[0]])
             for slot in dict.fromkeys(MODEL_CF_PATTERN)}
    items = []
    for i in range(count):
        cls, command = slot = MODEL_CF_PATTERN[i % len(MODEL_CF_PATTERN)]
        idx = slots[slot].draw()
        coeffs = dict(pool[idx][1])
        coeffs[(0, 0)] = rng.randrange(d)
        items.append(Item(command, d, format_phi(coeffs, d), str(idx),
                          state_class=cls))
    return items


# -- yardstick -----------------------------------------------------------------------

# The yardstick's fixed input (see speed.py): items of the workload's own
# kind, by index into its seed-independent "yardstick" stream.  d11: one
# strong item; d7: a table1_first and a full_scan witness, which are cheap,
# so the yardstick can run often between items that mostly take 0.1 s (a
# strongly contextual item in it as well took 40% of each run rather than
# 16%, and left too few items for item_tail_s); d5: a cf item, which builds
# the model and solves the LP.
YARDSTICK_ITEMS = {
    "analyze-strong-d11": (0,),
    "analyze-cubic-d7": (0, 1),
    "model-cf-d5": (0,),
}


def yardstick_items(workload: str, reference) -> list[Item]:
    indices = YARDSTICK_ITEMS[workload]
    stream = generate(workload, 0, reference, count=max(indices) + 1,
                      stream="yardstick")
    return [stream[i] for i in indices]


# -- streams -------------------------------------------------------------------------

def generate(workload: str, seed: int, reference, count: int = STREAM_LENGTH,
             stream: str = "timed") -> list[Item]:
    """The first `count` items of a workload's stream for `seed`.

    `stream` names an independent sub-stream ("timed", "warmup" or
    "yardstick"), so the timed items do not depend on how many warm-up
    items ran before them.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{stream}")
    if workload == "analyze-strong-d11":
        return [_strong_d11(rng) for _ in range(count)]
    if workload == "analyze-cubic-d7":
        return _cubic_d7_stream(rng, reference, count)
    return _model_cf_d5_stream(rng, count)
