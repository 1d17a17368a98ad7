"""Command-line front end.

Subcommands: ``check``, ``identities``, ``cosets``, ``metric``,
``microassoc``, ``hull``, ``intersect``.  Each command returns an
``AxiomReport``; ``main`` adds the ``_config`` record, echoes the report
as a human-readable table on stdout, and writes its
``AxiomReport.to_json_lines()`` (one record per line, sorted; check
records in name order) to ``--out``.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
Runs with identical seed and configuration produce byte-identical
reports on finite models.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .core import (AxiomReport, ChainError, CheckResult, SampleSpec,
                   TableError, check_axioms, check_identities)
from .cosets import (homogeneity_check, is_L_subgyrogroup, is_subgyrogroup,
                     left_cosets)
from .models import EinsteinModel, MobiusModel, table_load
from .prenorm import (admissible_hull, admissible_intersection,
                      admissible_quotient_inclusion_check, build_dyadic_family,
                      chain_load, coset_invariant_N_check, micro_assoc_check,
                      prenorm_laws_check, quotient_metric, rho_N,
                      validate_chain)
from .sets import parse_subset


class InputError(Exception):
    pass


def _build_model(args, validate: bool = True):
    sel = args.model
    if sel == "einstein":
        return EinsteinModel(dim=args.dim, c=args.c, eps=args.eps)
    if sel == "mobius":
        return MobiusModel(eps=args.eps)
    if sel.startswith("table:"):
        path = Path(sel[6:])
        if not path.exists():
            raise InputError(f"no such table file: {path}")
        try:
            return table_load(path.read_text(), name=path.stem,
                              validate=validate)
        except TableError as e:
            raise InputError(f"table rejected: {e}") from None
    raise InputError(f"unknown model selector {sel!r} "
                     "(einstein | mobius | table:<path>)")


def _parse_element(model, text: str):
    text = text.strip()
    if model.is_finite:
        return int(text)
    parts = [float(t) for t in text.split(",")]
    if np.iscomplexobj(np.asarray(model.zero)):
        if len(parts) == 1:
            return complex(parts[0], 0.0)
        if len(parts) == 2:
            return complex(parts[0], parts[1])
        raise InputError(f"disk elements take 1 or 2 coordinates: {text!r}")
    if len(parts) == 1 and parts[0] == 0.0:
        return model.zero
    if len(parts) != model.dim:
        raise InputError(f"expected {model.dim} coordinates: {text!r}")
    return np.array(parts)


def _parse_pairs(model, text: str):
    """Pairs are 'a:b' joined by ',' (finite) or ';' (continuous)."""
    sep = "," if model.is_finite else ";"
    pairs = []
    for chunk in text.split(sep):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, _, right = chunk.partition(":")
        if not _:
            raise InputError(f"pair {chunk!r} must look like a:b")
        pairs.append((_parse_element(model, left), _parse_element(model, right)))
    return pairs


def _config_record(args) -> dict:
    rec = {"check": "_config", "model": args.model, "seed": args.seed,
           "samples": args.samples, "eps": args.eps, "depth": args.depth}
    if getattr(args, "subset", None):
        rec["subset"] = args.subset
    if getattr(args, "chain", None):
        rec["chain"] = args.chain
    if getattr(args, "chain_files", None):
        rec["chain"] = list(args.chain_files)
    return rec


def cmd_sweep(args, sweep) -> AxiomReport:
    """``check`` and ``identities``: one sampled sweep."""
    # loaded unvalidated: the sweep itself is the verdict (exit 1)
    return sweep(_build_model(args, validate=False),
                 SampleSpec(args.samples, args.seed))


def cmd_cosets(args) -> AxiomReport:
    model = _build_model(args)
    if not model.is_finite:
        raise InputError("cosets are materialized for finite models only")
    if not args.subset:
        raise InputError("--subset is required")
    H = parse_subset(model, args.subset)
    ok, witness = is_subgyrogroup(model, H)
    rep = AxiomReport(
        [CheckResult.exact("subgyrogroup", len(H) ** 2, witness)])
    if ok:
        ok, wl = is_L_subgyrogroup(model, H)
        rep.results.append(
            CheckResult.exact("l-subgyrogroup", model.n * len(H), wl))
    if ok:
        part = left_cosets(model, H)
        rep.records.append({"check": "partition", "verdict": "pass",
                            "samples": model.n, "residual": 0.0,
                            "cosets": [list(c) for c in part.cosets]})
        rep.results.append(homogeneity_check(part))
    return rep


def _load_chain(model, path: str):
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such chain file: {p}")
    try:
        return chain_load(model, p.read_text())
    except ChainError as e:
        raise InputError(f"chain rejected: {e}") from None


def cmd_metric(args) -> AxiomReport:
    model = _build_model(args)
    if not args.chain:
        raise InputError("--chain is required")
    chain = _load_chain(model, args.chain)
    spec = SampleSpec(args.samples, args.seed)
    family = build_dyadic_family(model, chain, args.depth, spec)
    rep = AxiomReport(family.report.results
                      + prenorm_laws_check(model, family, spec))

    if model.is_finite:
        grid = family.value_grid()
        rep.records.append({"check": "prenorm-values", "value": {
            str(i): str(v) for i, v in enumerate(grid)}})
    if args.pairs:
        for i, (x, y) in enumerate(_parse_pairs(model, args.pairs)):
            rep.records.append({"check": f"distance[{i}]",
                                "value": str(rho_N(family, x, y)),
                                "x": str(model.to_payload(x)),
                                "y": str(model.to_payload(y))})

    if args.quotient:
        if not args.subset:
            raise InputError("--quotient requires --subset")
        if not model.is_finite:
            raise InputError("quotient tables exist for finite models only")
        H = parse_subset(model, args.subset)
        part = left_cosets(model, H)
        rep.results.append(coset_invariant_N_check(model, family, H))
        matrix = [list(map(str, row))
                  for row in quotient_metric(model, family, part)]
        rep.records.append({"check": "quotient-distances", "value": matrix,
                            "cosets": [list(c) for c in part.cosets]})
    return rep


def cmd_microassoc(args) -> AxiomReport:
    model = _build_model(args)
    if not args.vset:
        raise InputError("--vset is required")
    V = parse_subset(model, args.vset)
    W = parse_subset(model, args.wset) if args.wset else V
    return AxiomReport([micro_assoc_check(
        model, W, V, SampleSpec(args.samples, args.seed))])


def cmd_hull(args) -> AxiomReport:
    model = _build_model(args)
    if not args.subset:
        raise InputError("--subset is required")
    U = parse_subset(model, args.subset)
    chain, tail = admissible_hull(model, U, depth=args.depth)
    spec = SampleSpec(args.samples, args.seed)
    rep = validate_chain(model, chain, spec)
    _, wl = is_L_subgyrogroup(model, tail, spec)
    # the finite test is exhaustive: gyr[a, h] for every a and h in H
    samples = model.n * len(tail) if model.is_finite else args.samples
    rep.results += [CheckResult.exact("tail-l-subgyrogroup", samples, wl),
                    admissible_quotient_inclusion_check(model, chain, tail)]
    rep.records.append({"check": "hull-chain", "value": chain.to_dict()})
    return rep


def cmd_intersect(args) -> AxiomReport:
    model = _build_model(args)
    if not args.chain_files:
        raise InputError("at least one --chain is required")
    chains = [_load_chain(model, p) for p in args.chain_files]
    try:
        chain, tail = admissible_intersection(model, chains)
    except ChainError as e:
        raise InputError(str(e)) from None
    rep = validate_chain(model, chain, SampleSpec(args.samples, args.seed))
    rep.results.append(admissible_quotient_inclusion_check(model, chain, tail))
    rep.records.append({"check": "intersection-chain",
                        "value": chain.to_dict()})
    return rep


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so every ``main`` call reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True,
                        help="einstein | mobius | table:<path>")
    common.add_argument("--subset", help="subset spec (indices, axis:*, ball:r)")
    common.add_argument("--depth", type=int, default=10)
    common.add_argument("--samples", type=int, default=10_000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--eps", type=float, default=1e-9)
    common.add_argument("--out", help="write JSON-lines report here")
    common.add_argument("--dim", type=int, default=3,
                        help="dimension for the einstein model")
    common.add_argument("--c", type=float, default=1.0,
                        help="speed bound for the einstein model")

    p = argparse.ArgumentParser(prog="gyrokit",
                                description="gyrogroup computation toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    # the sweeps are looked up when the command runs, so that a rebound
    # cli.check_axioms (as bench/tracing.py installs) is the one called
    sub.add_parser("check", parents=[common],
                   help="verify the gyrogroup axioms").set_defaults(
        fn=lambda args: cmd_sweep(args, check_axioms))
    sub.add_parser("identities", parents=[common],
                   help="verify the classical identities").set_defaults(
        fn=lambda args: cmd_sweep(args, check_identities))
    sub.add_parser("cosets", parents=[common],
                   help="left-coset partition for --subset").set_defaults(
        fn=cmd_cosets)
    mp = sub.add_parser("metric", parents=[common],
                        help="prenorm values and metrics from --chain")
    mp.add_argument("--chain", help="chain-spec JSON path")
    mp.add_argument("--pairs", help="distance queries a:b,... (';' separated "
                                    "for continuous models)")
    mp.add_argument("--quotient", action="store_true",
                    help="quotient-metric table over --subset cosets")
    mp.set_defaults(fn=cmd_metric)
    ma = sub.add_parser("microassoc", parents=[common],
                        help="set equality a+(b+V) = (a+b)+V over W")
    ma.add_argument("--vset", help="the set V (subset spec)")
    ma.add_argument("--wset", help="the window W (defaults to V)")
    ma.set_defaults(fn=cmd_microassoc)
    sub.add_parser("hull", parents=[common],
                   help="admissible chain inside --subset").set_defaults(
        fn=cmd_hull)
    ip = sub.add_parser("intersect", parents=[common],
                        help="diagonal intersection of admissible chains")
    ip.add_argument("--chain", dest="chain_files", action="append",
                    help="chain-spec path (repeatable)")
    ip.set_defaults(fn=cmd_intersect)
    return p


def _check_args(args):
    """Reject numeric flags outside their domain, and an ``--out`` that
    names a directory or lies in none, as input errors before any work."""
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise InputError(f"--eps must be finite and >= 0, got {args.eps}")
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > np.iinfo(np.intp).max:  # numpy's array-size limit
        raise InputError(f"--samples must be <= {np.iinfo(np.intp).max}, "
                         f"got {args.samples}")
    if not 0 <= args.depth <= 62:  # 2^depth and its numerators fit int64
        bound = ">= 0" if args.depth < 0 else "in 0..62"
        raise InputError(f"--depth must be {bound}, got {args.depth}")
    out = Path(args.out) if args.out else None
    if out and out.is_dir():
        raise InputError(f"--out is a directory: {out}")
    if out and not out.absolute().parent.is_dir():
        raise InputError(f"no such directory for --out: {out.parent}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        report = args.fn(args)
        report.records.append(_config_record(args))
        for r in sorted(report.all_records(), key=lambda r: r["check"]):
            if "verdict" in r:
                mark = "pass" if r["verdict"] == "pass" else "FAIL"
                print(f"[{mark}] {r['check']} residual={r['residual']:.3g}")
            elif "value" in r:
                print(f"       {r['check']} = {r['value']}")
        if args.out:
            Path(args.out).write_text("\n".join(report.to_json_lines()) + "\n")
    # OSError: unreadable input, unwritable --out; MemoryError: huge counts
    except (InputError, ValueError, OSError, MemoryError) as e:
        vrep = getattr(e, "report", None)  # set on an invalid --chain
        if vrep is None:
            print(f"error: {e}", file=sys.stderr)
        else:
            bad = vrep.failures()[0]
            print(f"invalid chain: {bad.name} witness={bad.witness}",
                  file=sys.stderr)
            if vrep.failing_index is not None:
                print(f"containment fails at index {vrep.failing_index}",
                      file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
