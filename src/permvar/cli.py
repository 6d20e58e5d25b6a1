"""Command-line surface: permanents, ranks, ideals, Groebner data, torus
types, slices and the reproduction suite.

Exit codes: 0 all checks passed, 1 a check or case failed, 2 usage error or
refused input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import fields

from . import experiments
from .budget import Budget
from .config import CliConfig, load_config
from .errors import CapacityError, GroebnerTimeout, PreconditionError, StructuralError
from .groebner import (
    buchberger,
    hilbert_degree,
    ideal_dimension,
    independent_set,
    load_ideal_file,
    saturate,
)
from .permanent import (
    GenericMatrixSpec,
    derivative_matrices,
    kirkup_matrix,
    matrix_from_json,
    maximal_permanents_vanish,
    perm_numeric,
    permanental_ideal,
    prk,
)
from .ring import GF, QQ, MonomialOrder, poly_from_text
from .torus import classify_type


# One definition per shared flag; each command adds the ones its handler reads.
_FLAGS = {
    "prime": dict(type=int),
    "prime2": dict(type=int),
    "order": dict(choices=["degrevlex", "lex"]),
    "seed": dict(type=int),
    "timeout": dict(type=float, dest="timeout_s"),
    "tier": dict(
        choices=["default", "extended"],
        help="extended unlocks the long-running reproduction cases",
    ),
    "json": dict(action="store_true"),
}


def _flags(sub, *names):
    for name in names:
        sub.add_argument(f"--{name}", **_FLAGS[name])


def _matrix_arg(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--matrix", help="inline JSON grid, e.g. '[[1,1],[1,-1]]'")
    grp.add_argument("--matrix-file", help="path to a JSON grid file")


def _read_matrix(args):
    if args.matrix:
        return matrix_from_json(args.matrix)
    with open(args.matrix_file) as fh:
        return matrix_from_json(fh.read())


def _read_ideal(path: str, prime: int | None, order_tag: str):
    order = MonomialOrder(order_tag)
    domain = QQ if prime is None else GF(prime)
    return load_ideal_file(path, domain, order)


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for ln in text_lines:
            print(ln)


def _cfg(args) -> CliConfig:
    return load_config(**{f.name: getattr(args, f.name, None) for f in fields(CliConfig)})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permvar",
        description="Exact computations on permanental ideals and their strata.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("perm", help="permanent of a constant matrix")
    _matrix_arg(p)
    p.add_argument("--method", choices=["ryser", "glynn"], default="ryser")
    p.set_defaults(run=_run_perm)
    _flags(p, "json")

    p = sp.add_parser("prk", help="permanental rank of a constant matrix")
    _matrix_arg(p)
    p.set_defaults(run=_run_prk)
    _flags(p, "json")

    p = sp.add_parser("ideal", help="ideal constructions")
    isub = p.add_subparsers(dest="ideal_command", required=True)
    pg = isub.add_parser("gen", help="print permanental-ideal generators")
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--h", type=int, default=None)
    pg.add_argument(
        "--pattern", choices=["generic", "hankel2xn", "circulant"], default="generic"
    )
    pg.add_argument("--period", type=int, default=None)
    pg.set_defaults(run=_run_ideal_gen)
    _flags(pg, "json")

    for name, help_, run in (
        ("gb", "reduced Groebner basis of an ideal file", _run_gb),
        ("dim", "dimension/codimension report of an ideal file", _run_dim),
        ("degree", "Hilbert-series degree of a homogeneous ideal file", _run_degree),
    ):
        p = sp.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("--ideal-file", required=True)
        field = p.add_mutually_exclusive_group()
        field.add_argument(
            "--rational", action="store_true",
            help="compute over QQ instead of F_p (records coefficient-size telemetry)",
        )
        _flags(field, "prime")
        _flags(p, "order", "seed", "timeout", "json")

    p = sp.add_parser("saturate", help="saturate an ideal file by a polynomial")
    p.add_argument("--ideal-file", required=True)
    by = p.add_mutually_exclusive_group(required=True)
    by.add_argument("--by", help="polynomial in canonical text form")
    by.add_argument(
        "--by-all-vars", action="store_true", help="saturate by the product of all variables"
    )
    p.set_defaults(run=_run_saturate)
    _flags(p, "prime", "order", "timeout", "json")

    p = sp.add_parser("kirkup", help="print a Kirkup matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_run_kirkup)
    _flags(p, "json")

    p = sp.add_parser("b1", aliases=["lp"], help="symmetric sub-permanent matrix (mode B1 or L)")
    _matrix_arg(p)
    p.set_defaults(run=_run_derived)
    _flags(p, "json")

    p = sp.add_parser("type", help="corank type report at a probe point")
    _matrix_arg(p)
    p.add_argument("--mode", choices=["B1", "L"], required=True)
    p.set_defaults(run=_run_type)
    _flags(p, "seed", "json")

    p = sp.add_parser("slice", help="print a slice matrix; optionally its height bound")
    p.add_argument(
        "--kind",
        choices=["hankel2xn", "circulant3", "circulant4", "circulant2xn"],
        required=True,
    )
    p.add_argument("--param", type=int, default=None, help="n or k where applicable")
    p.add_argument("--bound", action="store_true", help="compute the codimension bound")
    p.set_defaults(run=_run_slice)
    _flags(p, "prime", "timeout", "json")

    p = sp.add_parser(
        "reproduce",
        help="run registered reproduction cases",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Registered case ids:\n"
        + "\n".join(f"  {cid}" for cid in experiments.case_ids()),
    )
    p.add_argument("case", help="case id or 'all'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", help="append JSON-lines reports to this file")
    p.set_defaults(run=_run_reproduce)
    _flags(p, "prime", "prime2", "seed", "tier", "json")

    return ap


def _run_perm(args, cfg) -> int:
    mat = _read_matrix(args)
    val = perm_numeric(mat, args.method)
    _emit(args, {"permanent": str(val), "method": args.method}, [str(val)])
    return 0


def _run_prk(args, cfg) -> int:
    mat = _read_matrix(args)
    val = prk(mat)
    _emit(args, {"prk": val}, [str(val)])
    return 0


def _run_ideal_gen(args, cfg) -> int:
    spec = GenericMatrixSpec(args.k, args.n, h=args.h, pattern=args.pattern, period=args.period)
    gens = permanental_ideal(spec)
    _emit(
        args,
        {"generators": [g.text() for g in gens]},
        [g.text() for g in gens],
    )
    return 0


def _gb_of_file(args, cfg):
    """The Groebner basis of ``--ideal-file`` (its reduced basis is built
    when ``.gens`` is read) and the prime it was computed over, None with
    ``--rational``."""
    prime = None if args.rational else cfg.prime
    return buchberger(_read_ideal(args.ideal_file, prime, cfg.order)), prime


def _run_gb(args, cfg) -> int:
    G, prime = _gb_of_file(args, cfg)
    payload = {
        "basis": [g.text() for g in G.gens],
        "basis_size": len(G.gens),
        "order": G.order.tag(),
        "field": G.ring.domain.tag(),
        "prime": prime,
        "seed": cfg.seed,
        "stats": G.stats,
    }
    _emit(args, payload, [g.text() for g in G.gens] + [f"# size {len(G.gens)}"])
    return 0


def _dim_payload(G, prime, cfg) -> dict:
    rep = ideal_dimension(G)
    out = {
        "dim": rep.dim,
        "codim": rep.codim,
        "prime": prime,
        "order": G.order.tag(),
        "seed": cfg.seed,
        "wall_ms": G.stats.get("wall_ms"),
        "basis_size": len(G),
        "independent_set": list(independent_set(G)),
    }
    if rep.degree is not None:
        out["degree"] = rep.degree
    return out


def _run_dim(args, cfg) -> int:
    payload = _dim_payload(*_gb_of_file(args, cfg), cfg)
    _emit(args, payload, [f"dim {payload['dim']}  codim {payload['codim']}"])
    return 0


def _run_degree(args, cfg) -> int:
    G, prime = _gb_of_file(args, cfg)
    deg = hilbert_degree(G)
    payload = _dim_payload(G, prime, cfg)
    payload["degree"] = deg
    _emit(args, payload, [f"degree {deg}"])
    return 0


def _run_saturate(args, cfg) -> int:
    gens = _read_ideal(args.ideal_file, cfg.prime, cfg.order)
    if not gens:
        raise StructuralError("empty generator list")
    ring = gens[0].ring
    if args.by_all_vars:
        f = math.prod(ring.gens(), start=ring.one)
    else:
        f = poly_from_text(args.by, ring)
    sat = saturate(gens, f)
    if sat:
        sat = buchberger(sat).gens  # saturate gives generators; print the reduced basis
    _emit(args, {"generators": [g.text() for g in sat]}, [g.text() for g in sat])
    return 0


def _run_kirkup(args, cfg) -> int:
    rows = kirkup_matrix(args.k)
    lines = [" ".join(f"{x:6d}" for x in r) for r in rows]
    payload = {"k": args.k, "matrix": rows}
    if args.verify:
        vanish = maximal_permanents_vanish(rows)
        payload["all_maximal_permanents_vanish"] = vanish
        lines.append(f"all {args.k}x{args.k} permanents vanish: {str(vanish).lower()}")
        _emit(args, payload, lines)
        return 0 if vanish else 1
    _emit(args, payload, lines)
    return 0


def _run_derived(args, cfg) -> int:
    mat = _read_matrix(args)
    (B,) = derivative_matrices([mat])
    mode = {"b1": "B1", "lp": "L"}[args.command]  # the name it was invoked under
    _emit(
        args,
        {"mode": mode, "matrix": [[str(x) for x in r] for r in B]},
        [" ".join(str(x) for x in r) for r in B],
    )
    return 0


def _run_type(args, cfg) -> int:
    mat = _read_matrix(args)
    rep = classify_type(mat, args.mode, seed=cfg.seed)
    payload = rep.to_json()
    _emit(
        args,
        payload,
        [f"rank {rep.rank}  corank {rep.corank}  type {rep.type}",
         f"kernel basis: {[list(v) for v in rep.kernel_basis]}"],
    )
    return 0


def _run_slice(args, cfg) -> int:
    if not args.bound:
        if args.prime is not None:
            raise StructuralError("--prime is the field of --bound; it needs --bound")
        if args.timeout_s is not None:
            raise StructuralError("--timeout limits the --bound computation; it needs --bound")
    M = experiments.build_slice(args.kind, args.param)
    lines = [" ".join(e.text() for e in row) for row in M.rows]
    payload = {"kind": args.kind, "entries": [[e.text() for e in row] for row in M.rows]}
    if args.bound:
        ht = experiments.slice_height(M, cfg.prime)
        payload["ht"] = ht
        payload["codim_lower_bound"] = ht
        lines.append(f"ht {ht} (codimension lower bound {ht})")
    _emit(args, payload, lines)
    return 0


def _run_reproduce(args, cfg) -> int:
    if args.case == "all":
        if args.n is not None or args.k is not None:
            raise StructuralError("--n and --k narrow one case, not 'all'")
        reports = experiments.reproduce_all(cfg)
    else:
        spec = experiments.registry().get(args.case)
        if spec and spec.tier == "extended" and cfg.tier != "extended":
            print(
                f"case {args.case} is extended tier; pass --tier extended", file=sys.stderr
            )
            return 2
        reports = [experiments.reproduce(args.case, cfg, n=args.n, k=args.k)]
    ok = True
    for rep in reports:
        ok &= rep.passed
        if args.out:
            experiments.append_report(rep, args.out)
        if args.json:
            print(json.dumps(rep.to_json(), sort_keys=True))
        else:
            print(f"[{'PASS' if rep.passed else 'FAIL'}] {rep.id} ({rep.wall_ms} ms)")
            if not rep.passed:
                print(f"  measured: {rep.measured}")
                print(f"  expected: {rep.expected}")
        sys.stdout.flush()  # each case shows as it finishes, also in a pipe
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _cfg(args)
        # only a command that takes --timeout reads a budget; reproduce opens
        # each case's registered one
        with Budget(cfg.timeout_s) if "timeout_s" in args else nullcontext():
            return args.run(args, cfg)
    except GroebnerTimeout as e:
        print(f"timeout: {e} (partial stats: {e.stats})", file=sys.stderr)
        return 1
    except (
        StructuralError, PreconditionError, CapacityError, OSError, json.JSONDecodeError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
