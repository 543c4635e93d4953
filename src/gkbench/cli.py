"""Command-line front end.

Each subcommand imports the modules it runs, when it runs, and yields
untimed Records, which `main` stamps with `reports.timed` and emits (human or
machine format); `verify` returns the records `run_campaign` has already
timed.  Exit status: 0 if every emitted record passes, 1 if any fails, 2 on
bad input.
"""

from __future__ import annotations

import argparse
import sys

from . import budget
from .reports import all_passed, emit, record, timed


def _algebra(n: int, p: int, t: int):
    from .cyclo import CycField
    from .qaffine import QAlgebra

    return QAlgebra(n, CycField(p, t))


def _write_series(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for r, d in pairs:
            handle.write(f"{r},{d}\n")


# --- handlers ---------------------------------------------------------------


def _cmd_gamma_coeff(args):
    from .gammalab import gamma_coeff
    from .parser import parse, to_group

    target = to_group(parse(args.target, "group"))
    value = gamma_coeff(args.power, target)
    yield record(
        "gamma.coeff",
        {"power": args.power, "target": str(target)},
        {"coefficient": value},
        True,
    )


def _cmd_gamma_witness(args):
    from .gammalab import independence_witness

    witness = independence_witness(args.degree)
    yield record(
        "gamma.witness",
        {"degree": args.degree},
        {
            "diagonal": list(witness.diagonal),
            "independent": witness.independent,
            "trace": list(witness.trace),
        },
        witness.independent,
    )


def _cmd_gamma_growth(args):
    from .claims import affine_claims
    from .gammalab import rn_basis_size, rn_dim_series, rn_window
    from .growth import GrowthSeries

    n = args.n
    r_lo, rmax = rn_window(n, args.rmax)
    pairs = rn_dim_series(n, rmax, r_lo)
    if args.series_out:
        _write_series(args.series_out, pairs)
    _, records = affine_claims(
        ("gamma.growth.slope", "gamma.growth.degree"),
        {"pairs": n, "rmax": rmax},
        GrowthSeries(pairs),
        rn_basis_size(n),
    )
    yield from records


def _cmd_quantum_nf(args):
    from .parser import parse, to_quantum

    alg = _algebra(args.n, args.p, args.t)
    poly = to_quantum(parse(args.expr, "quantum"), alg)
    yield record(
        "quantum.normal_form",
        {"n": args.n, "p": args.p, "t": args.t, "expr": args.expr},
        {"normal_form": str(poly)},
        True,
    )


def _cmd_quantum_mul(args):
    from .parser import parse, to_quantum

    alg = _algebra(args.n, args.p, args.t)
    lhs = to_quantum(parse(args.lhs, "quantum"), alg)
    rhs = to_quantum(parse(args.rhs, "quantum"), alg)
    yield record(
        "quantum.product",
        {"n": args.n, "p": args.p, "t": args.t, "lhs": args.lhs, "rhs": args.rhs},
        {"product": str(lhs * rhs)},
        True,
    )


def _cmd_quantum_growth(args):
    from .claims import degree_claim
    from .growth import GrowthSeries
    from .qaffine import gk_profile

    alg = _algebra(args.n, args.p, args.t)
    pairs = gk_profile(alg, args.rmax)
    if args.series_out:
        _write_series(args.series_out, pairs)
    yield degree_claim(
        "quantum.growth.degree",
        {"n": args.n, "p": args.p, "t": args.t, "rmax": args.rmax},
        GrowthSeries(pairs),
        args.n,
    )[1]


def _cmd_quantum_hom_check(args):
    from .claims import hom_claim
    from .qaffine import hom_check, power_map_images

    dst = _algebra(args.n, args.p, args.t)
    src_t = args.src_t if args.src_t is not None else args.t - 1
    if src_t < 0:
        raise ValueError("source level must be nonnegative")
    src = _algebra(args.n, args.p, src_t)
    if args.images is not None:
        from .parser import parse, to_quantum  # imported here: the power map parses nothing

        images = [
            to_quantum(parse(piece.strip(), "quantum"), dst)
            for piece in args.images.split(";")
        ]
        label = args.images
    else:
        images = power_map_images(src, dst, args.p)
        label = f"x_i -> x_i^{args.p}"
    yield hom_claim(
        "quantum.hom_check",
        {"n": args.n, "p": args.p, "src_t": src_t, "dst_t": args.t, "map": label},
        hom_check(src, dst, images),
    )


def _cmd_growth_estimate(args):
    from .claims import line_outputs
    from .growth import GrowthSeries, certified_line, degree_estimate

    if args.series == "-":
        series = GrowthSeries.from_text(sys.stdin.read())
    else:
        series = GrowthSeries.from_file(args.series)
    est = degree_estimate(series)
    yield record(
        "growth.degree",
        {"series": args.series, "points": len(series)},
        {"degree": est.label, "exact": est.exact, "from_r": est.start},
        est.exact,
    )
    if series.consecutive:
        line = certified_line(series, est)
        yield record("growth.slope", {"series": args.series}, line_outputs(line), True)


# The options each `eval` context reads; any other one given is bad input.
_EVAL_OPTIONS = {
    "field": ("primes",), "twisted": ("primes",), "quantum": ("n", "p", "t"), "group": (),
}


def _cmd_eval(args):
    from .parser import max_symbol_index, parse, to_field, to_group, to_quantum, to_twisted

    for option in ("primes", "n", "p", "t"):
        if getattr(args, option) is not None and option not in _EVAL_OPTIONS[args.context]:
            raise ValueError(f"context {args.context!r} takes no option '--{option}'")
    node = parse(args.expr, args.context)
    # an explicit --primes or --n wins, zero included; otherwise the
    # largest index the expression uses (at least 1)
    gens = max_symbol_index(node, "xgen")
    if args.context == "group":
        value = to_group(node)
    elif args.context == "quantum":
        n = max(1, gens) if args.n is None else args.n
        p = 2 if args.p is None else args.p
        t = 1 if args.t is None else args.t
        value = to_quantum(node, _algebra(n, p, t))
    else:
        twisted = args.context == "twisted"
        size = max(1, max_symbol_index(node, "radical"), gens if twisted else 0)
        from .mqfield import PrimeBasis
        basis = PrimeBasis.first(size if args.primes is None else args.primes)
        value = (to_twisted if twisted else to_field)(node, basis)
    yield record(
        "parse.eval",
        {"context": args.context, "expr": args.expr},
        {"canonical": str(value)},
        True,
    )


def _cmd_verify(args):
    from .campaigns import run_campaign

    params = {k: getattr(args, k) for k in ("n", "p", "t", "rmax") if getattr(args, k) is not None}
    return run_campaign(args.campaign, params, seed=args.seed)


# --- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "machine"), default="human",
        help="report format (default: human)",
    )
    common.add_argument("--out", metavar="FILE", help="write the report to FILE")

    top = argparse.ArgumentParser(
        prog="gkbench",
        description="Exact-arithmetic workbench: twisted group rings, quantum "
        "affine spaces, and growth-degree statistics.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gamma = sub.add_parser("gamma", help="gamma-series coefficient tools")
    gsub = gamma.add_subparsers(dest="subcommand", required=True)

    g_coeff = gsub.add_parser("coeff", parents=[common], help="coefficient of a group word in gamma^n")
    g_coeff.add_argument("--power", type=int, required=True)
    g_coeff.add_argument("target", help="group word, e.g. 'x1^-1*x2^-1'")
    g_coeff.set_defaults(handler=_cmd_gamma_coeff)

    g_wit = gsub.add_parser("witness", parents=[common], help="triangular independence witness")
    g_wit.add_argument("--degree", type=int, required=True)
    g_wit.set_defaults(handler=_cmd_gamma_witness)

    g_growth = gsub.add_parser("growth", parents=[common], help="affine growth of the gamma model")
    g_growth.add_argument("--n", type=int, required=True, help="number of prime/generator pairs")
    g_growth.add_argument("--rmax", type=int)
    g_growth.add_argument("--series-out", metavar="FILE", help="also write r,dim lines to FILE")
    g_growth.set_defaults(handler=_cmd_gamma_growth)

    quantum = sub.add_parser("quantum", help="quantum affine space tools")
    qsub = quantum.add_subparsers(dest="subcommand", required=True)

    def _q(parser_name, help_text):
        p = qsub.add_parser(parser_name, parents=[common], help=help_text)
        p.add_argument("--n", type=int, required=True, help="number of generators")
        p.add_argument("--p", type=int, default=2, help="base prime (default 2)")
        p.add_argument("--t", type=int, default=1, help="tower level (default 1)")
        return p

    q_nf = _q("nf", "normal form of a word or polynomial")
    q_nf.add_argument("expr")
    q_nf.set_defaults(handler=_cmd_quantum_nf)

    q_mul = _q("mul", "product of two polynomials")
    q_mul.add_argument("lhs")
    q_mul.add_argument("rhs")
    q_mul.set_defaults(handler=_cmd_quantum_mul)

    q_growth = _q("growth", "dimension growth and degree estimate")
    q_growth.add_argument("--rmax", type=int, default=12)
    q_growth.add_argument("--series-out", metavar="FILE")
    q_growth.set_defaults(handler=_cmd_quantum_growth)

    q_hom = _q("hom-check", "does x_i -> image extend to a ring map?")
    q_hom.add_argument("--src-t", type=int, help="source tower level (default t-1)")
    q_hom.add_argument(
        "--images", help="semicolon-separated generator images (default x_i -> x_i^p)"
    )
    q_hom.set_defaults(handler=_cmd_quantum_hom_check)

    growth = sub.add_parser("growth", help="degree statistics of dimension series")
    grsub = growth.add_subparsers(dest="subcommand", required=True)
    gr_est = grsub.add_parser(
        "estimate", parents=[common], help="estimate the growth degree of an r,dim file"
    )
    gr_est.add_argument("series", help="file of 'r,dim' lines, or - for stdin")
    gr_est.set_defaults(handler=_cmd_growth_estimate)

    ev = sub.add_parser("eval", parents=[common], help="parse and canonicalize an expression")
    ev.add_argument("--context", choices=("field", "group", "twisted", "quantum"), required=True)
    ev.add_argument("--primes", type=int, help="basis size for field/twisted contexts")
    ev.add_argument("--n", type=int, help="generator count for quantum context")
    ev.add_argument("--p", type=int, help="base prime for quantum context (default 2)")
    ev.add_argument("--t", type=int, help="tower level for quantum context (default 1)")
    ev.add_argument("expr")
    ev.set_defaults(handler=_cmd_eval)

    ver = sub.add_parser("verify", parents=[common], help="run a verification campaign")
    ver.add_argument("campaign", help="a campaign name, or all; an unknown name lists them")
    ver.add_argument("--n", type=int)
    ver.add_argument("--p", type=int)
    ver.add_argument("--t", type=int)
    ver.add_argument("--rmax", type=int)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(handler=_cmd_verify)

    return top


def main(argv=None) -> int:
    budget.reset()
    args = build_parser().parse_args(argv)
    try:
        budget.cap()  # a malformed WORKBENCH_MAX_OPS is bad input, not a crash
        records = list(timed(args.handler(args)))
        text = emit(records, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (budget.WorkBudgetExceeded, ValueError, IndexError,
            ZeroDivisionError, OSError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0 if all_passed(records) else 1


if __name__ == "__main__":
    sys.exit(main())
