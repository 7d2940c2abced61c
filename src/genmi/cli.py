"""Command-line front end.

Subcommands: mi, capacity, leakage, oracle, random-channel.  Results are
printed to stdout as a deterministic key-value document (12 significant
digits, nats unless --bits); wall-clock time goes to stderr so stdout is
byte-identical across reruns of the same inputs.

Exit codes: 0 on success, 2 on input-parse errors, 3 on domain errors,
4 when the capacity solver hits its iteration budget without converging
(the result is still printed, flagged `converged: false`).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time

from . import __version__
from .capacity import SolverConfig, brute_force_search, solve
from .entropy import mutual_information
from .errors import DomainError, GenmiError, ParseError
from .io import (
    format_float,
    format_vector,
    parse_channel_file,
    parse_gain_file,
    random_channel_text,
    render_document,
)
from .leakage import evsi, evsi_scoring, mevsi_matrix, mevsi_scoring
from .scoring import (
    alpha_loss_rule,
    alpha_score_rule,
    log_loss_rule,
    log_score_rule,
    power_rule,
    pseudo_spherical_rule,
)
from .simplex import Pmf, make_pmf, uniform
from .variational import (
    FunctionalSpec,
    arimoto_a1_spec,
    arimoto_a2_spec,
    fb_spec,
    generic_spec,
    hayashi_spec,
    shannon_spec,
)

#: --measure name -> (spec constructor, the name `--algorithm auto` records);
#: `mi` uses the spec's pair, `capacity` its default algorithm (`--algorithm`
#: may swap the arimoto form).
SPECS = {
    "shannon": (shannon_spec, "closed"),
    "arimoto": (arimoto_a2_spec, "a2"),
    "hayashi": (hayashi_spec, "exact"),
    "fehr-berens": (fb_spec, "exact"),
}

RULES = {
    "log": log_score_rule,
    "log-loss": log_loss_rule,
    "pseudo-spherical": pseudo_spherical_rule,
    "power": power_rule,
    "alpha-loss": alpha_loss_rule,
    "alpha-score": alpha_score_rule,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except GenmiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed_seconds: {elapsed:.3f}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genmi",
        description="Generalized mutual information, leakage, and capacity on finite channels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_mi = sub.add_parser("mi", help="entropy, conditional entropy, and mutual information")
    _add_channel_args(p_mi)
    _add_measure_args(p_mi)
    p_mi.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    p_mi.set_defaults(func=_cmd_mi)

    p_cap = sub.add_parser("capacity", help="maximize mutual information over priors")
    _add_channel_args(p_cap, prior=False)
    _add_measure_args(p_cap)
    p_cap.add_argument("--eps", type=float, default=1e-10,
                       help="absolute stopping threshold on the objective gain")
    p_cap.add_argument("--relative-eps", action="store_true",
                       help="interpret --eps relative to the objective magnitude")
    p_cap.add_argument("--max-iter", type=int, default=10000)
    p_cap.add_argument("--algorithm", choices=("auto", "a1", "a2", "numeric"), default="auto",
                       help="prior step: auto takes the exact one of the measure (recorded as "
                            "closed, a2 or exact); a1/a2 pick the arimoto form; numeric "
                            "solves the measure's generic functional by up to 200 "
                            "gradient-ascent rounds per prior step instead, an independent "
                            "cross-check that can stop short below order 1")
    p_cap.add_argument("--trace", metavar="PATH", help="write per-iteration objective values")
    p_cap.add_argument("--bits", action="store_true")
    p_cap.set_defaults(func=_cmd_capacity)

    p_leak = sub.add_parser("leakage", help="additive and multiplicative leakage")
    _add_channel_args(p_leak)
    src = p_leak.add_mutually_exclusive_group(required=True)
    src.add_argument("--rule", choices=sorted(RULES))
    src.add_argument("--gain-matrix", metavar="FILE")
    p_leak.add_argument("--alpha", type=float, default=None)
    p_leak.add_argument("--multiplicative", action="store_true")
    p_leak.set_defaults(func=_cmd_leakage)

    p_oracle = sub.add_parser("oracle", help="brute-force capacity over a simplex grid")
    _add_channel_args(p_oracle, prior=False)
    _add_measure_args(p_oracle)
    p_oracle.add_argument("--resolution", type=float, default=1e-2)
    p_oracle.add_argument("--bits", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_rand = sub.add_parser("random-channel", help="emit a deterministic fixture channel")
    p_rand.add_argument("--nx", type=int, required=True)
    p_rand.add_argument("--ny", type=int, required=True)
    p_rand.add_argument("--seed", type=int, required=True, help="64-bit seed")
    p_rand.set_defaults(func=_cmd_random_channel)

    return parser


def _add_channel_args(p: argparse.ArgumentParser, prior: bool = True) -> None:
    p.add_argument("channel", help="channel file (keyed or delimited form)")
    if prior:
        p.add_argument("--prior", default=None,
                       help="'uniform' or a comma/space separated vector; "
                            "defaults to the file prior, else uniform")


def _add_measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", choices=tuple(SPECS), required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="order for arimoto/hayashi/fehr-berens")


def _resolve_prior(args, nx: int, file_prior: Pmf | None) -> tuple[Pmf, str]:
    spec = getattr(args, "prior", None)
    if spec is None:
        if file_prior is not None:
            return file_prior, format_vector(file_prior.probs)
        return uniform(nx), "uniform"
    if spec == "uniform":
        return uniform(nx), "uniform"
    tokens = spec.replace(",", " ").split()
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"--prior: expected numbers, got {spec!r}") from exc
    p = make_pmf(values)
    if len(p) != nx:
        raise DomainError(f"--prior has {len(p)} entries, channel has {nx} inputs")
    return p, format_vector(p.probs)


def _construct(make, alpha: float | None, what: str):
    """make(alpha) for a constructor that takes an order, make() for one
    that does not; DomainError for a missing or an extra --alpha."""
    takes_order = bool(inspect.signature(make).parameters)
    if takes_order != (alpha is not None):
        raise DomainError(f"--alpha is {'required' if takes_order else 'not accepted'} for {what}")
    return make(alpha) if takes_order else make()


def _measure_spec(measure: str, alpha: float | None) -> FunctionalSpec:
    return _construct(SPECS[measure][0], alpha, f"the {measure} measure")


def _unit_scale(bits: bool) -> tuple[float, str]:
    return (1.0 / math.log(2.0), "bits") if bits else (1.0, "nats")


def _emit(tree: dict) -> None:
    sys.stdout.write(render_document(tree))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mi(args) -> int:
    chan, file_prior = parse_channel_file(args.channel)
    prior, prior_echo = _resolve_prior(args, chan.nx, file_prior)
    pair = _measure_spec(args.measure, args.alpha).pair
    scale, units = _unit_scale(args.bits)
    report = mutual_information(pair, prior, chan)
    _emit({
        "command": "mi",
        "config": {
            "channel": args.channel,
            "measure": args.measure,
            "alpha": "none" if args.alpha is None else format_float(args.alpha),
            "prior": prior_echo,
            "units": units,
        },
        "result": {
            "h_x": report.h_x * scale,
            "h_x_given_y": report.h_x_given_y * scale,
            "mi": report.mi * scale,
        },
        "version": __version__,
    })
    return 0


def _capacity_plan(measure: str, alpha: float | None, algorithm: str):
    """Resolve --algorithm into (spec, recorded name).  `numeric` solves the
    generic functional of the measure's pair, whose prior step is the
    numeric ascent."""
    make, auto_name = SPECS[measure]
    if algorithm in ("a1", "a2") and measure != "arimoto":
        raise DomainError(f"algorithm {algorithm!r} applies only to the arimoto measure")
    if algorithm == "a1":
        make = arimoto_a1_spec
    spec = _construct(make, alpha, f"the {measure} measure")
    if algorithm == "numeric":
        spec = generic_spec(spec.pair)
    return spec, auto_name if algorithm == "auto" else algorithm


def _cmd_capacity(args) -> int:
    chan, _ = parse_channel_file(args.channel)
    spec, algo_name = _capacity_plan(args.measure, args.alpha, args.algorithm)
    cfg = SolverConfig(
        spec=spec,
        epsilon=args.eps,
        max_iter=args.max_iter,
        relative=args.relative_eps,
    )
    result = solve(cfg, chan)
    scale, units = _unit_scale(args.bits)

    if args.trace:
        rows = ["k\tF\tdeltaF"]
        for k, value in enumerate(result.trace):  # the first gain is undefined: left empty
            tail = format_float((value - result.trace[k - 1]) * scale) if k else ""
            rows.append(f"{k}\t{format_float(value * scale)}\t{tail}")
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")

    _emit({
        "command": "capacity",
        "config": {
            "channel": args.channel,
            "measure": args.measure,
            "alpha": "none" if args.alpha is None else format_float(args.alpha),
            "algorithm": algo_name,
            "eps": format_float(args.eps),
            "eps-mode": "relative" if args.relative_eps else "absolute",
            "max-iter": args.max_iter,
            "units": units,
        },
        "result": {
            "capacity": result.capacity * scale,
            "argmax_p": result.argmax_p.probs,
            "iterations": result.iterations,
            "converged": result.converged,
        },
        "version": __version__,
    })
    return 0 if result.converged else 4


def _cmd_leakage(args) -> int:
    chan, file_prior = parse_channel_file(args.channel)
    prior, prior_echo = _resolve_prior(args, chan.nx, file_prior)

    if args.rule is not None:
        rule = _construct(RULES[args.rule], args.alpha, f"rule {args.rule!r}")
        report = evsi_scoring(rule, prior, chan)
        multiplicative = mevsi_scoring(rule, prior, chan) if args.multiplicative else None
        source = {"rule": args.rule,
                  "alpha": "none" if args.alpha is None else format_float(args.alpha)}
    else:
        if args.alpha is not None:
            raise DomainError("--alpha is not accepted with --gain-matrix")
        matrix, c_declared = parse_gain_file(args.gain_matrix)
        report = evsi(matrix, prior, chan)
        multiplicative = (
            mevsi_matrix(matrix, prior, chan, c_declared) if args.multiplicative else None
        )
        source = {"gain-matrix": args.gain_matrix, "kind": matrix.kind}

    result = {
        "prior_value": report.prior_value,
        "posterior_value": report.posterior_value,
        "additive": report.additive,
    }
    if args.multiplicative:
        result["multiplicative"] = multiplicative
    _emit({
        "command": "leakage",
        "config": {"channel": args.channel, **source, "prior": prior_echo, "units": "nats"},
        "result": result,
        "version": __version__,
    })
    return 0


def _cmd_oracle(args) -> int:
    chan, _ = parse_channel_file(args.channel)
    spec = _measure_spec(args.measure, args.alpha)
    scale, units = _unit_scale(args.bits)
    value, best = brute_force_search(spec, chan, args.resolution)
    _emit({
        "command": "oracle",
        "config": {
            "channel": args.channel,
            "measure": args.measure,
            "alpha": "none" if args.alpha is None else format_float(args.alpha),
            "resolution": format_float(args.resolution),
            "units": units,
        },
        "result": {
            "capacity": value * scale,
            "best_p": best.probs,
        },
        "version": __version__,
    })
    return 0


def _cmd_random_channel(args) -> int:
    if args.nx < 1 or args.ny < 1:
        raise DomainError("--nx and --ny must be at least 1")
    sys.stdout.write(random_channel_text(args.nx, args.ny, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
