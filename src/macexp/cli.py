"""Command line front end.

Subcommands: ``exponent`` (lattice exponent sweep over a rate grid),
``verify-packing`` (tally checks for a codebook pair), ``expurgate``
(halve the higher-rate book four times and audit), ``simulate`` (exact or
Monte Carlo decoding error), ``region`` (achievable-region membership).

Exit codes: 0 on success, 2 on bad input or usage, 3 when a scale guard
refuses the request or a verification or membership check comes back
negative.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .codebooks import (
    check_channel,
    expurgate,
    packing_reports,
    single_user_packing_check,
)
from .errors import ConstructionError, ScaleGuardError, ValidationError
from .exponents import (
    RatePair,
    SolverSpec,
    baseline_exponent,
    branch_exponent,
    check_delta,
    expurgated_exponent,
    region_contains,
)
from .fileio import (
    codebook_to_dict,
    file_sha256,
    law_to_dict,
    load_channel,
    load_codebook,
    load_law,
    run_manifest,
    save_json,
    write_csv,
)
from .simulate import MAX_EXACT_OUTPUTS, error_prob_exact, error_prob_mc
from .typeclasses import SymbolSequence


def _float_list(text: str) -> list[float]:
    vals = [float(t) for t in text.split(",") if t.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma separated float list")
    return vals


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _full(x: float) -> str:
    # CSV cells keep the shortest exact round-trip form, never shortened.
    return repr(float(x))


def cmd_exponent(args) -> int:
    w = load_channel(args.channel)
    p = load_law(args.law)
    solver = SolverSpec(lattice_denominator=args.denominator,
                        refine_steps=args.refine,
                        divergence_weighting=args.weighting)
    results = []
    for rates in [RatePair(rx, ry) for rx in args.rx for ry in args.ry]:
        rx, ry = rates.rx, rates.ry
        if args.branch == "all":
            res = expurgated_exponent(rates, w, p, args.delta, solver)
        else:
            res = branch_exponent(args.branch, rates, w, p, args.delta, solver)
        entry = {
            "rx": rx, "ry": ry, "value": res.value, "branch": res.branch,
            "source": res.source, "feasible_empty": res.feasible_empty,
        }
        if args.baseline:
            base = baseline_exponent(rates, w, p, args.delta, solver)
            entry["baseline_value"] = base.value
            entry["baseline_branch"] = base.branch
        results.append(entry)
        line = (f"rx={_fmt(rx)} ry={_fmt(ry)} exponent={_fmt(res.value)} "
                f"branch={res.branch} source={res.source}")
        if args.baseline:
            line += f" baseline={_fmt(entry['baseline_value'])}"
        print(line)
    config = {
        "channel_sha256": file_sha256(args.channel),
        "law_sha256": file_sha256(args.law),
        "rx": args.rx, "ry": args.ry, "denominator": args.denominator,
        "delta": args.delta, "branch": args.branch, "baseline": args.baseline,
        "refine": args.refine, "weighting": args.weighting,
    }
    if args.out:
        save_json(args.out, {
            "kind": "exponent_sweep",
            "results": results,
            "manifest": run_manifest("exponent", config),
        })
    if args.csv:
        # every field of an entry but feasible_empty, floats in full
        header = [k for k in results[0] if k != "feasible_empty"]
        write_csv(args.csv, header, [
            [_full(e[k]) if isinstance(e[k], float) else e[k] for k in header]
            for e in results])
    return 0


def cmd_verify_packing(args) -> int:
    check_delta(args.delta)
    pair = load_codebook(args.codebook)
    if args.channel:
        check_channel(pair, load_channel(args.channel))
    avg, peak = packing_reports(pair)
    u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
    su_x = single_user_packing_check(u_seq, pair.x_book, pair.x_alphabet)
    su_y = single_user_packing_check(u_seq, pair.y_book, pair.y_alphabet)
    ok = (avg.satisfied(args.delta) and peak.satisfied(args.delta)
          and su_x.satisfied(args.delta) and su_y.satisfied(args.delta))
    report = {
        "kind": "packing_report",
        "delta": args.delta,
        "satisfied": ok,
        "average_need_delta": {f: rep.worst_need_delta
                               for f, rep in avg.families.items()},
        "per_pair_need_delta": {f: rep.worst_need_delta
                                for f, rep in peak.families.items()},
        "single_user_x": {"avg": su_x.avg_worst_need_delta,
                          "per_word": su_x.per_word_worst_need_delta},
        "single_user_y": {"avg": su_y.avg_worst_need_delta,
                          "per_word": su_y.per_word_worst_need_delta},
    }
    config = {"codebook_sha256": file_sha256(args.codebook),
              "delta": args.delta}
    if args.channel:
        config["channel_sha256"] = file_sha256(args.channel)
    if args.out:
        report["manifest"] = run_manifest("verify-packing", config)
        save_json(args.out, report)
    for family, need in sorted(report["average_need_delta"].items()):
        print(f"average {family}: need delta {_fmt(need)}")
    for family, need in sorted(report["per_pair_need_delta"].items()):
        print(f"per-pair {family}: need delta {_fmt(need)}")
    for book in ("x", "y"):
        for kind, need in report[f"single_user_{book}"].items():
            print(f"single-user {book} {kind}: need delta {_fmt(need)}")
    print(f"packing {'satisfied' if ok else 'NOT satisfied'} at "
          f"delta={_fmt(args.delta)}")
    return 0 if ok else 3


def cmd_expurgate(args) -> int:
    pair = load_codebook(args.codebook)
    result = expurgate(pair, args.delta)
    save_json(args.out, codebook_to_dict(result.final))
    audit = result.audit
    report = {
        "kind": "expurgation_report",
        "target_delta": args.delta,
        "expurgated_book": result.expurgated_book,
        "original_sizes": list(result.original_sizes),
        "final_sizes": [result.final.m_x, result.final.m_y],
        "kept_x": list(result.kept_x),
        "kept_y": list(result.kept_y),
        "achieved_delta": result.achieved_delta,
        "product_ok": result.product_ok,
        "stages": [{"family": s.family, "book": s.book,
                    "kept": list(s.kept), "threshold": s.threshold_score}
                   for s in result.stages],
        "audit_ok": audit.ok,
        "audit_violations": [
            {"pattern": v.pattern, "example": list(v.example),
             "constraint": v.constraint, "lhs": v.lhs, "rhs": v.rhs}
            for v in audit.violations],
    }
    config = {"codebook_sha256": file_sha256(args.codebook),
              "delta": args.delta}
    if args.report:
        report["manifest"] = run_manifest("expurgate", config)
        save_json(args.report, report)
    worst = max(result.achieved_delta.values())
    print(f"kept {result.final.m_x} x {result.final.m_y} of "
          f"{result.original_sizes[0]} x {result.original_sizes[1]} words "
          f"(book {result.expurgated_book})")
    print(f"achieved delta {_fmt(worst)}; audit "
          f"{'clean' if audit.ok else 'FAILED'} at delta={_fmt(args.delta)}")
    return 0 if audit.ok else 3


def cmd_simulate(args) -> int:
    pair = load_codebook(args.codebook)
    w = load_channel(args.channel)
    if args.exact:
        est = error_prob_exact(pair, w, max_outputs=args.max_outputs)
        print(f"exact error probability {_fmt(est.p)}")
    else:
        if args.seed is None:
            print("simulate: --seed is required for Monte Carlo",
                  file=sys.stderr)
            return 2
        est = error_prob_mc(pair, w, args.trials, args.seed)
        print(f"mc error probability {_fmt(est.p)} "
              f"(stderr {_fmt(est.stderr)}, {est.trials} trials)")
    if args.out:
        config = {
            "codebook_sha256": file_sha256(args.codebook),
            "channel_sha256": file_sha256(args.channel),
            "method": est.method, "trials": est.trials,
            "seed": args.seed,
        }
        save_json(args.out, {
            "kind": "simulation",
            "method": est.method,
            "p_error": est.p,
            "stderr": est.stderr,
            "trials": est.trials,
            "manifest": run_manifest("simulate", config),
        })
    if args.csv:
        rates = pair.rates
        write_csv(args.csv,
                  ["n", "m_x", "m_y", "rate_x", "rate_y", "trials", "error",
                   "stderr"],
                  [[str(pair.n), str(pair.m_x), str(pair.m_y),
                    _full(rates.rx), _full(rates.ry), str(est.trials),
                    _full(est.p), _full(est.stderr)]])
    return 0


def cmd_region(args) -> int:
    w = load_channel(args.channel)
    witness = region_contains(RatePair(args.rx, args.ry), w, u_grid=args.u_grid)
    if witness.found:
        pent = witness.pentagon
        print(f"inside: pentagon i_x={_fmt(pent.i_x)} i_y={_fmt(pent.i_y)} "
              f"i_xy={_fmt(pent.i_xy)}")
    else:
        print("no witness found on the search grid")
    if args.out:
        config = {"channel_sha256": file_sha256(args.channel),
                  "rx": args.rx, "ry": args.ry, "u_grid": args.u_grid}
        payload = {
            "kind": "region_witness",
            "found": witness.found,
            "manifest": run_manifest("region", config),
        }
        if witness.found:
            payload["pentagon"] = {"i_x": witness.pentagon.i_x,
                                   "i_y": witness.pentagon.i_y,
                                   "i_xy": witness.pentagon.i_xy}
            payload["input_law"] = law_to_dict(witness.input_law)
        save_json(args.out, payload)
    return 0 if witness.found else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macexp",
        description="Expurgated error exponents for two-sender channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponent", help="lattice exponent sweep")
    p_exp.add_argument("--channel", required=True)
    p_exp.add_argument("--law", required=True)
    p_exp.add_argument("--rx", type=_float_list, required=True,
                       help="comma separated X rates")
    p_exp.add_argument("--ry", type=_float_list, required=True,
                       help="comma separated Y rates")
    p_exp.add_argument("--denominator", type=int, default=4)
    p_exp.add_argument("--delta", type=float, default=0.0)
    p_exp.add_argument("--branch", choices=["X", "Y", "XY", "all"],
                       default="all")
    p_exp.add_argument("--baseline", action="store_true",
                       help="also report the relaxed baseline exponent")
    p_exp.add_argument("--refine", type=int, default=0, metavar="STEPS")
    p_exp.add_argument("--weighting", choices=["V", "P"], default="V")
    p_exp.add_argument("--out", help="JSON results path")
    p_exp.add_argument("--csv", help="CSV results path")
    p_exp.set_defaults(func=cmd_exponent)

    p_ver = sub.add_parser("verify-packing", help="codebook tally checks")
    p_ver.add_argument("--codebook", required=True)
    p_ver.add_argument("--delta", type=float, required=True)
    p_ver.add_argument("--channel",
                       help="checked against the books' alphabets and "
                       "hashed into the manifest")
    p_ver.add_argument("--out", help="JSON report path")
    p_ver.set_defaults(func=cmd_verify_packing)

    p_xp = sub.add_parser("expurgate", help="halve the higher-rate book")
    p_xp.add_argument("--codebook", required=True)
    p_xp.add_argument("--delta", type=float, required=True)
    p_xp.add_argument("--out", required=True, help="output codebook path")
    p_xp.add_argument("--report", help="JSON report path")
    p_xp.set_defaults(func=cmd_expurgate)

    p_sim = sub.add_parser("simulate", help="decoding error probability")
    p_sim.add_argument("--codebook", required=True)
    p_sim.add_argument("--channel", required=True)
    p_sim.add_argument("--exact", action="store_true")
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--max-outputs", type=int, default=MAX_EXACT_OUTPUTS)
    p_sim.add_argument("--out", help="JSON results path")
    p_sim.add_argument("--csv", help="CSV results path")
    p_sim.set_defaults(func=cmd_simulate)

    p_reg = sub.add_parser("region", help="achievable-region membership")
    p_reg.add_argument("--channel", required=True)
    p_reg.add_argument("--rx", type=float, required=True)
    p_reg.add_argument("--ry", type=float, required=True)
    p_reg.add_argument("--u-grid", type=int, default=8)
    p_reg.add_argument("--out", help="JSON witness path")
    p_reg.set_defaults(func=cmd_region)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScaleGuardError as exc:
        print(f"macexp: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ConstructionError, OSError) as exc:
        print(f"macexp: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"macexp: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"macexp: missing field {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
