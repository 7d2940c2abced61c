"""Command-line front end.

Subcommands: mi, capacity, leakage, oracle, random-channel.  Results are
printed to stdout as a deterministic key-value document (12 significant
digits, nats unless --bits); wall-clock time goes to stderr so stdout is
byte-identical across reruns of the same inputs.

Exit codes: 0 on success, 2 on input-parse errors (including an input file
that cannot be read or decoded as UTF-8 and a --trace path that cannot be
written, found before the solve), 3 on domain errors, 4 when the capacity
solver hits its iteration budget without converging (the result is still
printed, flagged `converged: false`).
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import time
from dataclasses import asdict
from functools import partial

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
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args)
    except GenmiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed_seconds: {elapsed:.3f}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genmi",
        description="Generalized mutual information, leakage, and capacity on finite channels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, prior=True, measure=True):
        """Subcommand `name` on a channel file, with --prior if `prior`, and
        --measure, --alpha and --bits if it is a measure command."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("channel", help="channel file (keyed or delimited form)")
        if prior:
            p.add_argument("--prior", help="'uniform' or a comma/space separated vector; "
                                           "defaults to the file prior, else uniform")
        if measure:
            p.add_argument("--measure", choices=tuple(SPECS), required=True)
            p.add_argument("--alpha", type=float, help="order for arimoto/hayashi/fehr-berens")
            p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
        return p

    command("mi", _cmd_mi, "entropy, conditional entropy, and mutual information")

    p_cap = command("capacity", _cmd_capacity, "maximize mutual information over priors",
                    prior=False)
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

    p_leak = command("leakage", _cmd_leakage, "additive and multiplicative leakage", measure=False)
    src = p_leak.add_mutually_exclusive_group(required=True)
    src.add_argument("--rule", choices=sorted(RULES))
    src.add_argument("--gain-matrix", metavar="FILE")
    p_leak.add_argument("--alpha", type=float)
    p_leak.add_argument("--multiplicative", action="store_true")

    p_oracle = command("oracle", _cmd_oracle, "brute-force capacity over a simplex grid",
                       prior=False)
    p_oracle.add_argument("--resolution", type=float, default=1e-2)

    p_rand = sub.add_parser("random-channel", help="emit a deterministic fixture channel")
    p_rand.add_argument("--nx", type=int, required=True)
    p_rand.add_argument("--ny", type=int, required=True)
    p_rand.add_argument("--seed", type=int, required=True, help="64-bit seed")
    p_rand.set_defaults(func=_cmd_random_channel)

    return parser


def _resolve_prior(text: str | None, nx: int, file_prior: Pmf | None) -> tuple[Pmf, str]:
    """The prior --prior names (`text`) and its echo: the file prior, else
    uniform, when it is absent."""
    if text is None and file_prior is not None:
        return file_prior, format_vector(file_prior.probs)
    if text in (None, "uniform"):
        return uniform(nx), "uniform"
    try:
        values = [float(t) for t in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:  # a token that is not a number, or no token at all
        raise ParseError(f"--prior: expected numbers, got {text!r}")
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


def _alpha_echo(alpha: float | None) -> str:
    return "none" if alpha is None else format_float(alpha)


def _measure_config(args, rest: dict) -> tuple[dict, float]:
    """The config echo of a measure command (mi, capacity, oracle) and the
    factor its results are scaled by: the channel, measure and alpha, then
    `rest`, then the units that --bits picks."""
    scale, units = (1.0 / math.log(2.0), "bits") if args.bits else (1.0, "nats")
    return {
        "channel": args.channel,
        "measure": args.measure,
        "alpha": _alpha_echo(args.alpha),
        **rest,
        "units": units,
    }, scale


def _emit(command: str, config: dict, result: dict) -> None:
    sys.stdout.write(render_document({
        "command": command,
        "config": config,
        "result": result,
        "version": __version__,
    }))


def _probe_trace(path: str) -> None:
    """ParseError now, before the solve, if the --trace path cannot be
    opened for writing.  It appends nothing and removes a file it created,
    so a solve that raises leaves no trace file behind."""
    existed = os.path.lexists(path)
    _write_trace(path, "a", "")
    if not existed:
        os.remove(path)


def _write_trace(path: str, mode: str, text: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mi(args) -> int:
    chan, file_prior = parse_channel_file(args.channel)
    prior, prior_echo = _resolve_prior(args.prior, chan.nx, file_prior)
    spec, _ = _capacity_plan(args.measure, args.alpha, "auto")
    report = mutual_information(spec.pair, prior, chan)
    config, scale = _measure_config(args, {"prior": prior_echo})
    _emit("mi", config, {
        "h_x": report.h_x * scale,
        "h_x_given_y": report.h_x_given_y * scale,
        "mi": report.mi * scale,
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
    if args.trace:
        _probe_trace(args.trace)
    result = solve(cfg, chan)
    config, scale = _measure_config(args, {
        "algorithm": algo_name,
        "eps": format_float(args.eps),
        "eps-mode": "relative" if args.relative_eps else "absolute",
        "max-iter": args.max_iter,
    })
    if args.trace:
        rows = ["k\tF\tdeltaF"]
        for k, value in enumerate(result.trace):  # the first gain is undefined: left empty
            tail = format_float((value - result.trace[k - 1]) * scale) if k else ""
            rows.append(f"{k}\t{format_float(value * scale)}\t{tail}")
        _write_trace(args.trace, "w", "\n".join(rows) + "\n")
    _emit("capacity", config, {
        "capacity": result.capacity * scale,
        "argmax_p": result.argmax_p.probs,
        "iterations": result.iterations,
        "converged": result.converged,
    })
    return 0 if result.converged else 4


def _cmd_leakage(args) -> int:
    chan, file_prior = parse_channel_file(args.channel)
    prior, prior_echo = _resolve_prior(args.prior, chan.nx, file_prior)

    if args.rule is not None:
        rule = _construct(RULES[args.rule], args.alpha, f"rule {args.rule!r}")
        report = evsi_scoring(rule, prior, chan)
        multiplicative = partial(mevsi_scoring, rule, prior, chan)
        source = {"rule": args.rule, "alpha": _alpha_echo(args.alpha)}
    else:
        if args.alpha is not None:
            raise DomainError("--alpha is not accepted with --gain-matrix")
        matrix, c_declared = parse_gain_file(args.gain_matrix)
        report = evsi(matrix, prior, chan)
        multiplicative = partial(mevsi_matrix, matrix, prior, chan, c_declared)
        source = {"gain-matrix": args.gain_matrix, "kind": matrix.kind}

    result = asdict(report)  # prior_value, posterior_value, additive
    if args.multiplicative:
        result["multiplicative"] = multiplicative()
    _emit("leakage", {"channel": args.channel, **source, "prior": prior_echo, "units": "nats"},
          result)
    return 0


def _cmd_oracle(args) -> int:
    chan, _ = parse_channel_file(args.channel)
    spec, _ = _capacity_plan(args.measure, args.alpha, "auto")
    value, best = brute_force_search(spec, chan, args.resolution)
    config, scale = _measure_config(args, {"resolution": format_float(args.resolution)})
    _emit("oracle", config, {
        "capacity": value * scale,
        "best_p": best.probs,
    })
    return 0


def _cmd_random_channel(args) -> int:
    sys.stdout.write(random_channel_text(args.nx, args.ny, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
