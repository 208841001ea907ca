"""Command line entry point: verify, search, signature and cg subcommands.

Exit codes: 0 when the requested certification (or query) succeeded, 1
when a verification ran but did not certify, 2 on usage or input errors,
3 when an internal check failed or any other exception escaped (a bug).
Machine formats (json, csv) print exact fractions; decimals are advisory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .casson_gordon import Character, eta_knot, sigma_knot
from .knots import GAKnot, build_family, fox_milnor_check, parse_knot
from .obstruction import genus_lower_bound
from .search import SETTINGS, config_from_settings, parse_config_file, search
from .signatures import (
    RootOfUnity,
    lt_nullity,
    lt_signature,
    signature_at_minus_one,
    signature_function_samples,
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    """The parser of all four subcommands.

    `main` builds it at every call, so a subcommand runs whatever cmd_*
    function the module attribute holds at that moment.
    """
    parser = argparse.ArgumentParser(
        prog="cgobstruct",
        description="Casson-Gordon signature obstructions for cabled torus knot sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in (
        ("verify", "certify a four-genus lower bound for a knot", _verify_arguments),
        ("search", "sweep prime tuples for verified family knots", _search_arguments),
        ("signature", "table of T(2,q) signatures at order-m roots", _signature_arguments),
        ("cg", "sigma and eta of a knot at one character", _cg_arguments),
    ):
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _verify_arguments(pv: argparse.ArgumentParser) -> None:
    _add_knot_args(pv)
    pv.add_argument("--genus", type=int, default=1, help="genus hypothesis to refute (default 1)")
    pv.add_argument("--format", choices=("human", "json", "csv"), default="human")
    pv.add_argument("--threads", type=int, default=1, help="accepted, changes nothing (>= 1)")
    pv.add_argument("--witnesses", type=int, default=3, help="sample witnesses recorded per prime")
    pv.set_defaults(func=cmd_verify)


def _search_arguments(ps: argparse.ArgumentParser) -> None:
    ps.add_argument("--config", help="key = value config file (see README)")
    algebraic = ps.add_argument(
        "--no-require-algebraic",
        dest="require_algebraic",
        action="store_const",
        const="false",
        help="also sweep candidates whose cable pieces fail p > 4q",
    )
    for key, (_, expected) in SETTINGS.items():  # one flag per setting, read by its rules
        if key != algebraic.dest:
            ps.add_argument("--" + key.replace("_", "-"), help=expected)
    ps.add_argument("--threads", type=int, default=1, help="accepted, changes nothing (>= 1)")
    ps.add_argument("--checkpoint", help="JSON-lines progress file, resumable")
    ps.add_argument("--format", choices=("human", "json", "csv"), default="json")
    ps.set_defaults(func=cmd_search)


def _signature_arguments(pg: argparse.ArgumentParser) -> None:
    pg.add_argument("--q", type=int, required=True)
    pg.add_argument("--m", type=int, required=True)
    pg.add_argument("--format", choices=("human", "json", "csv"), default="csv")
    pg.set_defaults(func=cmd_signature)


def _cg_arguments(pc: argparse.ArgumentParser) -> None:
    _add_knot_args(pc)
    pc.add_argument("--character", required=True, help="comma list, one residue per piece")
    pc.add_argument("--format", choices=("human", "json", "csv"), default="human")
    pc.set_defaults(func=cmd_cg)


def _add_knot_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--family", help="p1,p2,q1,q2,q3 for the built-in 8-piece family")
    grp.add_argument("--knot", help="knot string, e.g. 'T(2,5;2,7) # -T(2,5;2,7)'")


def _knot_from_args(args) -> GAKnot:
    if args.family:
        params = [int(x) for x in args.family.split(",") if x.strip()]
        if len(params) != 5:
            raise ValueError(f"--family takes 5 primes, got {len(params)}")
        return build_family(*params)
    return parse_knot(args.knot)


def cmd_verify(args) -> int:
    if args.genus < 0:
        raise ValueError(f"--genus must be >= 0, got {args.genus}")
    K = _knot_from_args(args)
    report = genus_lower_bound(
        K, g_max=max(args.genus, 1), threads=args.threads, max_witnesses=args.witnesses
    )
    fm = fox_milnor_check(K)
    samples = signature_function_samples(K)
    diagnostics = {
        "sigma_minus_one": signature_at_minus_one(K),
        "signature_function_zero": all(v == 0 for _, v in samples),
        "signature_arcs": len(samples),
        "fox_milnor_ok": fm.ok,
        "fox_milnor_pairs": [list(p) for p in fm.pairs],
        "fox_milnor_unpaired": [list(u) for u in fm.unpaired],
    }
    certified = report.genus.lower_bound >= args.genus + 1
    if args.format == "json":
        d = report.to_dict()
        d["diagnostics"] = diagnostics
        print(json.dumps(d, indent=2, ensure_ascii=False))
    elif args.format == "csv":
        print(report.csv())
    else:
        print(report.human())
        print(f"sigma(-1) = {diagnostics['sigma_minus_one']}, "
              f"signature function zero on all {diagnostics['signature_arcs']} arcs: "
              f"{diagnostics['signature_function_zero']}, "
              f"factor pairing: {'complete' if fm.ok else 'incomplete'}")
    return 0 if certified else 1


def cmd_search(args) -> int:
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    settings = parse_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in SETTINGS and v is not None}
    # a pool given by flags replaces the file's pool; other flags override their own key
    replaced = {k[:2] for k in flags} & {"p_", "q_"}
    settings = {k: v for k, v in settings.items() if k[:2] not in replaced}
    cfg = config_from_settings({**settings, **flags})
    kept = search(cfg, checkpoint=args.checkpoint)
    if args.format == "json":
        for rec in kept:
            print(json.dumps(rec, ensure_ascii=False))
    elif args.format == "csv":
        print("p1,p2,q1,q2,q3,lower_bound")
        for rec in kept:
            t = rec["tuple"]
            lb = rec["report"]["genus"]["lower_bound"]
            print(f"{t[0]},{t[1]},{t[2]},{t[3]},{t[4]},{lb}")
    else:
        print(f"ranking: {cfg.ranking}; candidates kept: {len(kept)}")
        for rec in kept:
            t = rec["tuple"]
            lb = rec["report"]["genus"]["lower_bound"]
            print(f"  ({t[0]},{t[1]},{t[2]},{t[3]},{t[4]}): lower bound {lb}")
    return 0


def cmd_signature(args) -> int:
    q, m = args.q, args.m
    if q < 1 or q % 2 == 0:
        raise ValueError(f"--q must be odd and >= 1, got {q}")
    if m < 1:
        raise ValueError(f"--m must be >= 1, got {m}")
    rows = []
    for a in range(m):
        w = RootOfUnity(a, m)
        rows.append((a, lt_signature(q, w), lt_nullity(q, w)))
    if args.format == "json":
        print(json.dumps([{"a": a, "sigma": s, "eta": e} for a, s, e in rows]))
    elif args.format == "human":
        print(f"T(2,{q}) at order-{m} roots:")
        for a, s, e in rows:
            print(f"  a={a:>4}  sigma={s:>5}  eta={e}")
    else:
        print("a,sigma,eta")
        for a, s, e in rows:
            print(f"{a},{s},{e}")
    return 0


def cmd_cg(args) -> int:
    K = _knot_from_args(args)
    residues = [int(x) for x in args.character.split(",") if x.strip()]
    chi = Character.for_knot(K, residues)
    sigma = sigma_knot(K, chi)
    eta = eta_knot(K, chi)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "knot": str(K),
                    "character": list(chi.residues),
                    "sigma": f"{sigma.numerator}/{sigma.denominator}",
                    "sigma_decimal": float(sigma),
                    "eta": eta,
                }
            )
        )
    elif args.format == "csv":
        print("sigma,eta")
        print(f"{sigma.numerator}/{sigma.denominator},{eta}")
    else:
        print(f"knot: {K}")
        print(f"character: {','.join(str(r) for r in chi.residues)}")
        print(f"sigma = {sigma.numerator}/{sigma.denominator} ({float(sigma):.6f})")
        print(f"eta = {eta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
