"""Command-line frontend.

Subcommands: analyze, verify-theorem1, model, contexts, cf, dickson,
selftest.  Exit codes are a stable contract:

    0   success (analyze: strongly contextual)
    2   analyze: not strongly contextual
    1   usage, parse, or scale error
    3   verification failure (verify-theorem1 / selftest)

Artifacts are UTF-8; JSON artifacts carry "schema": "1" and are
byte-identical for identical configuration (including the seed).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import random
import sys
import time

from . import kernel
from .born import EmpiricalModel, build_empirical_model
from .hidden_vars import contextual_fraction, decide_strong_contextuality, \
    write_certificate
from .phase_space import context_rows, enumerate_contexts, table1_contexts
from .states import PhaseFunctionState
from .zmod import Modulus, StabctxError, ZdPoly, dickson_classify, \
    is_permutation_polynomial, parse_poly

MAX_DESK_D = 13


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _modulus(args) -> Modulus:
    d = args.d
    if d > MAX_DESK_D and not args.unsafe_scale:
        raise StabctxError(
            f"d={d} exceeds the desk-scale guard ({MAX_DESK_D}); "
            "pass --unsafe-scale to override")
    return Modulus(d)


def _state(args, m: Modulus) -> PhaseFunctionState:
    phi = parse_poly(args.phi, m, variables=("j", "k"))
    return PhaseFunctionState(m, 2, phi)


def _output(path):
    """The artifact's text stream: the file at `path`, else stdout."""
    return open(path, "w", encoding="utf-8") if path \
        else contextlib.nullcontext(sys.stdout)


def _emit(text: str, path):
    with _output(path) as out:
        out.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _model(args) -> EmpiricalModel:
    m = _modulus(args)
    contexts = table1_contexts(m) if args.contexts == "table1" \
        else enumerate_contexts(m, 2)
    return build_empirical_model(_state(args, m), contexts)


def cmd_analyze(args) -> int:
    m = _modulus(args)
    state = _state(args, m)
    cert = decide_strong_contextuality(state, strategy=args.strategy)
    with _output(args.output) as out:
        write_certificate(cert, out)
    return 0 if cert.strongly_contextual else 2


def cmd_verify_theorem1(args) -> int:
    m = _modulus(args)
    d = m.d
    if d % 3 == 1:
        raise StabctxError(f"d={d} is 1 mod 3; strong-state certification "
                           "requires d != 1 mod 3")
    rng = random.Random(args.seed)
    start = time.perf_counter()
    cubics, dressings = [], []
    for phi1, phi2 in itertools.product(range(d), repeat=2):
        cubic = ZdPoly(m, 2, {(2, 1): phi1, (1, 2): phi2})
        if cubic.is_zero():
            continue
        cubics.append(cubic)
        dressings.append([ZdPoly.zero(m, 2)] + [
            ZdPoly(m, 2, {exps: rng.randrange(d) for exps in (
                (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))})
            for _ in range(args.include_quadratics * args.quadratics_per_state)])

    def verdict(cubic):
        # a quadratic dressing is a diagonal Clifford: one decide per cubic
        # serves all its dressings; the certificate (d^4 columns) is dropped
        cert = decide_strong_contextuality(PhaseFunctionState(m, 2, cubic))
        return cert.strongly_contextual, sorted(cert.stages_used)

    from concurrent.futures import ThreadPoolExecutor  # loads logging
    with ThreadPoolExecutor(args.jobs) as pool:  # cubics are independent
        verdicts = list(pool.map(verdict, cubics))
    runs = [{"phi": str(cubic + q), "phi1": cubic.coeff((2, 1)),
             "phi2": cubic.coeff((1, 2)), "quadratic": not q.is_zero(),
             "strongly_contextual": contextual, "stages": stages}
            for cubic, qs, (contextual, stages) in zip(cubics, dressings, verdicts)
            for q in qs]
    failures = [r for r in runs if not r["strongly_contextual"]]
    passed = len(runs) - len(failures)
    _emit(_json_text({
        "schema": "1",
        "modulus": d,
        "seed": args.seed,
        "include_quadratics": bool(args.include_quadratics),
        "total": len(runs),
        "strongly_contextual": passed,
        "failures": failures,
        "runs": runs,
    }), args.output)
    print(f"{passed}/{len(runs)} states strongly contextual "
          f"({time.perf_counter() - start:.1f}s)", file=sys.stderr)
    return 3 if failures else 0


def cmd_model(args) -> int:
    model = _model(args)
    with _output(args.output) as out:
        if args.format == "csv":
            model.to_csv(out)
        else:
            out.write(_json_text(model.to_json_obj()))
    return 0


def cmd_contexts(args) -> int:
    m = _modulus(args)
    if args.table1 and args.n != 2:
        raise StabctxError("--table1 lists the two-qudit families; "
                           "it needs --n 2")
    if args.count:  # no records; all subspaces counted from their rows
        n = len(table1_contexts(m) if args.table1 else context_rows(m, args.n))
        _emit(f"{n}\n", args.output)
        return 0
    records = [ctx.record() for ctx in (
        table1_contexts(m) if args.table1 else enumerate_contexts(m, args.n))]
    _emit(_json_text({"schema": "1", "modulus": m.d, "n": args.n,
                      "contexts": records}), args.output)
    return 0


def cmd_cf(args) -> int:
    model = _model(args)
    result = contextual_fraction(model)
    if args.format == "json":
        weights = {",".join(map(str, lam)): round(w, 9)
                   for lam, w in sorted(result.weights.items())}
        doc = {"schema": "1", "modulus": model.state.modulus.d,
               "phi": str(model.state.phi), "contexts": args.contexts,
               "cf": round(result.cf, 9), "weights": weights}
        _emit(_json_text(doc), args.output)
    else:
        _emit(f"{result.cf:.6f}\n", args.output)
    return 0


def cmd_dickson(args) -> int:
    m = _modulus(args)
    poly = parse_poly(args.poly, m, variables=("x",))
    lines = []
    try:
        result = dickson_classify(poly)
        verdict = result.is_permutation
        if result.normal_form:
            a, g, b, c = result.normal_form
            lines.append(f"normal form: {a}*g(x + {b}) + {c} with g(x) = {g}")
    except StabctxError as exc:
        # d = 1 mod 3: the classifier refuses; fall back to the histogram.
        lines.append(f"classifier refused ({exc}); exhaustive test used")
        verdict = is_permutation_polynomial(poly)
    lines.insert(0, "permutation" if verdict else "not a permutation")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_selftest(args) -> int:
    """Condensed cross-check battery; exit 3 on any failure."""
    import numpy as np

    from .born import JointOutcome, impossibility_by_psi, outcome_possibility
    from . import dense

    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    m = Modulus(3)
    check("context count d=3", len(enumerate_contexts(m, 2)) == 40)
    state = PhaseFunctionState(m, 2, parse_poly("j*k^2", m))
    cert = decide_strong_contextuality(state)
    check("controlled-phase state strongly contextual", cert.strongly_contextual)
    flat = PhaseFunctionState(m, 2, ZdPoly.zero(m, 2))
    cert0 = decide_strong_contextuality(flat)
    check("flat state not strongly contextual", not cert0.strongly_contextual)

    rng = random.Random(args.seed)
    agree = probs_agree = True
    contexts = enumerate_contexts(m, 2)
    for _ in range(40):
        coeffs = {(e1, e2): rng.randrange(3)
                  for e1 in range(3) for e2 in range(3) if e1 + e2 <= 3}
        st = PhaseFunctionState(m, 2, ZdPoly(m, 2, coeffs))
        ctx = contexts[rng.randrange(len(contexts))]
        outcome = JointOutcome(ctx, (rng.randrange(3), rng.randrange(3)))
        enumerated = outcome_possibility(st, outcome)
        cell = not kernel.PointCounts(3, st.phi_table()).impossible(
            [ctx.canonical_key], [outcome.values])[0]
        psi = not impossibility_by_psi(st, outcome)
        proj = dense.outcome_projector(ctx, outcome.values)
        vec = dense.phase_state_vector(m, st.phi)
        dense_prob = float(np.linalg.norm(proj @ vec) ** 2)
        a, b = outcome.values  # the model's column a * d + b
        counted = build_empirical_model(st, [ctx]).probability[0, a * 3 + b]
        agree &= enumerated == cell == psi == (dense_prob > 1e-18)
        probs_agree &= abs(counted - dense_prob) <= 1e-12
    check("possibility routes agree (40 random cases)", agree)
    check("counted and dense probabilities agree (40 random cases)",
          probs_agree)
    m5 = Modulus(5)
    st5 = PhaseFunctionState(m5, 2, parse_poly("j^2*k", m5))
    cert5 = decide_strong_contextuality(st5)
    check("j^2*k at d=5 strongly contextual", cert5.strongly_contextual)
    return 3 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no per-call state, and
    `main` finds each subcommand's `cmd_` function when it runs."""
    parser = argparse.ArgumentParser(
        prog="stabctx",
        description="Exact strong-contextuality certificates for two-qudit "
                    "phase-function magic states under stabilizer measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, phi=True):
        p.add_argument("--d", type=int, required=True, help="odd prime dimension")
        if phi:
            p.add_argument("--phi", required=True,
                           help="phase polynomial in j,k, e.g. 'j^2*k + 2*j*k^2'")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="threads for verify-theorem1, which pay off only "
                            "at large d; other subcommands run on one thread")
        p.add_argument("--output", help="write the artifact to this path")
        p.add_argument("--unsafe-scale", action="store_true",
                       help=f"allow d beyond the desk guard ({MAX_DESK_D})")

    p = sub.add_parser("analyze", help="decide strong contextuality")
    common(p)
    p.add_argument("--strategy", choices=("table1_first", "full_scan"),
                   default="table1_first")

    p = sub.add_parser("verify-theorem1",
                       help="certify every strong normal-form state at one d")
    common(p, phi=False)
    p.add_argument("--include-quadratics", action="store_true",
                   help="also certify random quadratic variants of each state")
    p.add_argument("--quadratics-per-state", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("model", help="tabulate an empirical model")
    common(p)
    p.add_argument("--contexts", choices=("table1", "full"), default="table1")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("contexts", help="enumerate measurement contexts")
    common(p, phi=False)
    p.add_argument("--n", type=int, choices=(1, 2), default=2)
    p.add_argument("--table1", action="store_true",
                   help="restrict to the labelled two-qudit families")
    p.add_argument("--count", action="store_true", help="print only the count")

    p = sub.add_parser("cf", help="contextual fraction by linear programming")
    common(p)
    p.add_argument("--contexts", choices=("table1", "full"), default="table1")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("dickson",
                       help="classify a degree-<=3 single-variable polynomial")
    common(p, phi=False)
    p.add_argument("--poly", required=True, help="polynomial in x, e.g. 'x^3+1'")

    p = sub.add_parser("selftest", help="run the condensed cross-check battery")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        return 1 if exc.code else 0
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (StabctxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
