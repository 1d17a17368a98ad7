"""Command-line front end.

Subcommands: ``check``, ``identities``, ``cosets``, ``metric``,
``microassoc``, ``hull``, ``intersect``.  Reports are JSON-lines (one
check per line, sorted by check name) written to ``--out`` and echoed
as a human-readable table on stdout.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
Runs with identical seed and configuration produce byte-identical
reports on finite models.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import (CarrierError, ChainError, CheckResult, CosetError,
                   SampleSpec, TableError, check_axioms, check_identities)
from .cosets import homogeneity_translate, is_L_subgyrogroup, is_subgyrogroup, left_cosets
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


class Report:
    """Accumulates check records and writes deterministic JSON lines."""

    def __init__(self):
        self.records: list[dict] = []

    def add_result(self, *results):
        self.records.extend(r.record() for r in results)

    def add(self, **rec):
        self.records.append(rec)

    @property
    def failed(self) -> bool:
        return any(r.get("verdict") == "fail" for r in self.records)

    def emit(self, out_path: str | None):
        lines = sorted(json.dumps(r, sort_keys=True, default=str)
                       for r in self.records)
        for r in sorted(self.records, key=lambda r: r["check"]):
            if "verdict" in r:
                mark = "pass" if r["verdict"] == "pass" else "FAIL"
                extra = f" residual={r['residual']:.3g}" if "residual" in r else ""
                print(f"[{mark}] {r['check']}{extra}")
            elif "value" in r:
                print(f"       {r['check']} = {r['value']}")
        if out_path:
            Path(out_path).write_text("\n".join(lines) + "\n")


def _config_record(args, model) -> dict:
    rec = {"check": "_config", "model": args.model, "seed": args.seed,
           "samples": args.samples, "eps": args.eps, "depth": args.depth}
    if getattr(args, "subset", None):
        rec["subset"] = args.subset
    if getattr(args, "chain", None):
        rec["chain"] = args.chain
    if getattr(args, "chain_files", None):
        rec["chain"] = list(args.chain_files)
    return rec


def cmd_sweep(args, sweep) -> int:
    """``check`` and ``identities``: one sampled sweep, reported."""
    # loaded unvalidated: the sweep itself is the verdict (exit 1)
    model = _build_model(args, validate=False)
    rep = Report()
    rep.add(**_config_record(args, model))
    rep.add_result(*sweep(model, SampleSpec(args.samples, args.seed)).results)
    rep.emit(args.out)
    return 1 if rep.failed else 0


def cmd_cosets(args) -> int:
    model = _build_model(args)
    if not model.is_finite:
        raise InputError("cosets are materialized for finite models only")
    if not args.subset:
        raise InputError("--subset is required")
    H = parse_subset(model, args.subset)
    rep = Report()
    rep.add(**_config_record(args, model))

    ok, witness = is_subgyrogroup(model, H)
    rep.add_result(CheckResult.exact("subgyrogroup", len(H) ** 2, witness))
    if ok:
        okl, wl = is_L_subgyrogroup(model, H)
        rep.add_result(CheckResult.exact("l-subgyrogroup", model.n * len(H), wl))
    else:
        okl = False
    if okl:
        part = left_cosets(model, H)
        rep.add(check="partition", verdict="pass", samples=model.n,
                residual=0.0, cosets=[list(c) for c in part.cosets])
        # at[a, x] is the coset of a + x; h_a is read off each coset's
        # least member, and is split where another member disagrees
        at = part.index_of[model.table]
        img = at[:, part.representatives]
        split = np.any(at != img[:, part.index_of], axis=1)
        img.sort(axis=1)
        first = np.flatnonzero(
            split | np.any(img != np.arange(len(part.cosets)), axis=1))
        bad = None
        if first.size:
            a = int(first[0])
            for i in range(len(part.cosets)):
                homogeneity_translate(part, a, i)  # raises where h_a is split
            bad = {"elements": [a], "images": img[a].tolist()}
        rep.add_result(CheckResult.exact(
            "homogeneity-bijection", model.n * len(part.cosets), bad))
    rep.emit(args.out)
    return 1 if rep.failed else 0


def _load_chain(model, path: str):
    p = Path(path)
    if not p.exists():
        raise InputError(f"no such chain file: {p}")
    try:
        return chain_load(model, p.read_text())
    except ChainError as e:
        raise InputError(f"chain rejected: {e}") from None


def cmd_metric(args) -> int:
    model = _build_model(args)
    if not args.chain:
        raise InputError("--chain is required")
    chain = _load_chain(model, args.chain)
    try:
        family = build_dyadic_family(model, chain, args.depth,
                                     SampleSpec(args.samples, args.seed))
    except ChainError as err:
        vrep = getattr(err, "report", None)
        if vrep is None:
            raise
        bad = vrep.failures()[0]
        print(f"invalid chain: {bad.name} witness={bad.witness}",
              file=sys.stderr)
        if vrep.failing_index is not None:
            print(f"containment fails at index {vrep.failing_index}",
                  file=sys.stderr)
        return 2

    rep = Report()
    rep.add(**_config_record(args, model))
    rep.add_result(*family.report.results)
    rep.add_result(*prenorm_laws_check(model, family,
                                       SampleSpec(args.samples, args.seed)))

    if model.is_finite:
        grid = family.value_grid()
        rep.add(check="prenorm-values", value={str(i): str(v)
                                               for i, v in enumerate(grid)})
    if args.pairs:
        for i, (x, y) in enumerate(_parse_pairs(model, args.pairs)):
            val = rho_N(family, x, y)
            rep.add(check=f"distance[{i}]", value=str(val),
                    x=str(model.to_payload(x)), y=str(model.to_payload(y)))

    if args.quotient:
        if not args.subset:
            raise InputError("--quotient requires --subset")
        if not model.is_finite:
            raise InputError("quotient tables exist for finite models only")
        H = parse_subset(model, args.subset)
        part = left_cosets(model, H)
        rep.add_result(coset_invariant_N_check(model, family, H))
        k = len(part.cosets)
        matrix = [[str(quotient_metric(model, family, part, i, j))
                   for j in range(k)] for i in range(k)]
        rep.add(check="quotient-distances", value=matrix,
                cosets=[list(c) for c in part.cosets])
    rep.emit(args.out)
    return 1 if rep.failed else 0


def cmd_microassoc(args) -> int:
    model = _build_model(args)
    if not args.vset:
        raise InputError("--vset is required")
    V = parse_subset(model, args.vset)
    W = parse_subset(model, args.wset) if args.wset else V
    rep = Report()
    rep.add(**_config_record(args, model))
    rep.add_result(micro_assoc_check(model, W, V,
                                     SampleSpec(args.samples, args.seed)))
    rep.emit(args.out)
    return 1 if rep.failed else 0


def cmd_hull(args) -> int:
    model = _build_model(args)
    if not args.subset:
        raise InputError("--subset is required")
    U = parse_subset(model, args.subset)
    chain, tail = admissible_hull(model, U, depth=args.depth)
    rep = Report()
    rep.add(**_config_record(args, model))
    rep.add_result(*validate_chain(model, chain,
                                   SampleSpec(args.samples, args.seed)).results)
    _, wl = is_L_subgyrogroup(model, tail)
    rep.add_result(CheckResult.exact("tail-l-subgyrogroup", 1, wl))
    rep.add_result(admissible_quotient_inclusion_check(model, chain, tail))
    rep.add(check="hull-chain", value=chain.to_dict())
    rep.emit(args.out)
    return 1 if rep.failed else 0


def cmd_intersect(args) -> int:
    model = _build_model(args)
    if not args.chain_files:
        raise InputError("at least one --chain is required")
    chains = [_load_chain(model, p) for p in args.chain_files]
    try:
        chain, tail = admissible_intersection(model, chains)
    except ChainError as e:
        raise InputError(str(e)) from None
    rep = Report()
    rep.add(**_config_record(args, model))
    rep.add_result(*validate_chain(model, chain,
                                   SampleSpec(args.samples, args.seed)).results)
    rep.add_result(admissible_quotient_inclusion_check(model, chain, tail))
    rep.add(check="intersection-chain", value=chain.to_dict())
    rep.emit(args.out)
    return 1 if rep.failed else 0


def build_parser() -> argparse.ArgumentParser:
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


def _check_numbers(args):
    """Reject numeric flags outside their domain, as input errors."""
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise InputError(f"--eps must be finite and >= 0, got {args.eps}")
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    if args.depth < 0:
        raise InputError(f"--depth must be >= 0, got {args.depth}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return args.fn(args)
    except (InputError, CarrierError, TableError, ChainError, CosetError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
