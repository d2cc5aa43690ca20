"""Command-line experiment runner.

Exit codes: 0 for success (attack leaked, channel ran clean, matrix diff
empty), 1 for an experiment that ran but failed, 2 for usage or
configuration errors.  Any other error is a bug and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .attacks import (
    DEFAULT_SECRET,
    MATRIX_PROFILES,
    run_matrix,
    run_meltdown_v3,
    run_meltdown_v3a,
    run_spectre_rsb,
    run_spectre_v1,
    run_spectre_v4,
)
from .config import (
    ConfigError,
    OUTPUT_FORMATS,
    SCENARIOS,
    SECRET_LOCS,
    VARIANTS,
    experiment_config,
    mitigation_set,
)
from .covert import latency_trace_to_csv, run_channel, sweep_bits
from .mitigations import demo_refill_bypass, pmu_noise_effect
from .profiles import PROFILES
from .reporting import SuiteReport, emit_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transient-sim",
        description="Run speculative-execution attack and covert-channel experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profiles = sub.add_parser("profiles", help="list the bundled CPU profiles")
    p_profiles.add_argument("action", nargs="?", default="list", choices=["list"])

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config file")
    common.add_argument("--profile", choices=sorted(PROFILES))
    common.add_argument("--seed", type=int)
    common.add_argument("--format", dest="output", choices=OUTPUT_FORMATS)

    p_attack = sub.add_parser("attack", parents=[common], help="run one attack variant")
    p_attack.add_argument("--variant", choices=VARIANTS)
    p_attack.add_argument("--scenario", choices=SCENARIOS)
    p_attack.add_argument("--secret-loc", dest="secret_loc", choices=SECRET_LOCS)
    p_attack.add_argument("--secret", dest="secret_hex", help="secret bytes as hex")

    p_covert = sub.add_parser("covert", parents=[common], help="run the covert channel once")
    p_covert.add_argument("--bits", type=int)
    p_covert.add_argument("--message", dest="message_hex", help="payload as hex")
    p_covert.add_argument("--noise", type=float)
    p_covert.add_argument("--cs-cost", dest="context_switch_cost", type=int)
    p_covert.add_argument("--probe-cost", dest="probe_cost_per_line", type=int)
    p_covert.add_argument("--fill-depth", dest="rsb_fill_depth", type=int)
    p_covert.add_argument(
        "--emit-latency-trace",
        metavar="PATH",
        help="write the per-probe latency grid as CSV",
    )

    p_sweep = sub.add_parser(
        "sweep-bits", parents=[common], help="run the channel at every symbol width"
    )
    p_sweep.add_argument("--message", dest="message_hex")
    p_sweep.add_argument("--noise", type=float)

    p_matrix = sub.add_parser(
        "matrix", parents=[common], help="reproduce the full susceptibility matrix"
    )
    p_matrix.add_argument("--secret", dest="secret_hex")

    p_mit = sub.add_parser(
        "mitigate", parents=[common], help="show what a set of countermeasures changes"
    )
    p_mit.add_argument(
        "--flags",
        required=True,
        help="comma-separated mitigation flags; pmu noise as pmu_noise_amplitude=N",
    )

    return parser


def _split_flags(spec: str) -> dict:
    """`a,b=3` -> {"a": True, "b": "3"}; config.mitigation_set does the rest."""
    values: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, _, raw = part.partition("=")
            values[key.strip()] = raw
        else:
            values[part] = True
    return values


def _cmd_profiles(_args) -> int:
    width = max(len(n) for n in PROFILES)
    for name, prof in PROFILES.items():
        print(
            f"{name.ljust(width)}  {prof.pipeline.value:<12}  rsb={prof.rsb_size:<2} "
            f"underflow={prof.rsb_underflow.value:<15} squash={prof.squash_policy.value}"
        )
    return 0


def _cmd_attack(args) -> int:
    cfg = experiment_config("attack", args.config, vars(args))
    profile = cfg.resolved_profile()
    secret = cfg.secret_bytes() or DEFAULT_SECRET
    scenario = cfg.attack_scenario()
    if cfg.variant == "v1":
        outcome = run_spectre_v1(profile, scenario, secret, cfg.seed)
    elif cfg.variant == "rsb":
        outcome = run_spectre_rsb(profile, scenario, secret, cfg.seed)
    elif cfg.variant == "v3":
        outcome = run_meltdown_v3(profile, secret, cfg.seed)
    elif cfg.variant == "v3a":
        outcome = run_meltdown_v3a(profile, cfg.seed)
    else:
        outcome = run_spectre_v4(profile, secret, cfg.seed)
    sys.stdout.write(emit_report(outcome, cfg.output))
    return 0 if outcome.success else 1


def _cmd_covert(args) -> int:
    cfg = experiment_config("covert", args.config, vars(args))
    profile = cfg.resolved_profile()
    channel, message = cfg.channel_config(), cfg.message_bytes()
    path = args.emit_latency_trace
    latency_file = contextlib.nullcontext()
    if path:
        try:  # before the transfer, so a bad path costs no run
            latency_file = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    with latency_file as fh:
        report = run_channel(
            profile, channel, message, seed=cfg.seed, record_latencies=fh is not None
        )
        if fh is not None:
            fh.write(latency_trace_to_csv(report))
    sys.stdout.write(emit_report(report, cfg.output))
    return 1 if report.aborted else 0


def _cmd_sweep(args) -> int:
    cfg = experiment_config("sweep", args.config, vars(args))
    profile = cfg.resolved_profile()
    reports = sweep_bits(profile, cfg.message_bytes(), seed=cfg.seed, config=cfg.channel_config())
    sys.stdout.write(emit_report(reports, cfg.output))
    return 1 if any(report.aborted for report in reports) else 0


def _cmd_matrix(args) -> int:
    if args.profile is not None:
        raise ConfigError("matrix always covers every bundled core; --profile does not apply")
    cfg = experiment_config("matrix", args.config, vars(args))
    secret = cfg.secret_bytes() or DEFAULT_SECRET
    results = run_matrix(profiles=MATRIX_PROFILES, secret=secret, seed=cfg.seed)
    report = SuiteReport(results=results, seed=cfg.seed)
    sys.stdout.write(emit_report(report, cfg.output))
    return 0 if report.passed else 1


def _cmd_mitigate(args) -> int:
    cfg = experiment_config("mitigation-demo", args.config, vars(args))
    # --flags adds to the config's own mitigations
    flags = mitigation_set(cfg.mitigations, _split_flags(args.flags))
    base_profile = cfg.resolved_profile()
    profile = base_profile.with_overrides(mitigations=flags)

    baseline = SuiteReport(run_matrix(profiles=[base_profile], seed=cfg.seed), cfg.seed)
    mitigated = SuiteReport(run_matrix(profiles=[profile], seed=cfg.seed), cfg.seed)
    flipped = []
    base_sus = baseline.susceptibility
    mit_sus = mitigated.susceptibility
    for cell in base_sus:
        before = base_sus[cell][base_profile.name]
        after = mit_sus[cell][profile.name]
        if before != after:
            flipped.append({"cell": cell, "before": before, "after": after})

    channel = run_channel(profile, seed=cfg.seed)
    summary = {
        "profile": profile.name,
        "flags": {k: v for k, v in vars(flags).items() if v},
        "cells_before": {c: base_sus[c][base_profile.name] for c in base_sus},
        "cells_after": {c: mit_sus[c][profile.name] for c in mit_sus},
        "flipped_cells": flipped,
        "channel_bandwidth_bits_per_kcycle": channel.bandwidth_bits_per_kcycle,
        "channel_erasures": channel.erasures,
        "channel_symbols": channel.symbols_sent,
        "channel_aborted": channel.aborted,
    }
    if flags.rsb_refill_on_cs or flags.rsb_flush_on_cs or flags.btb_fallback_disabled:
        summary["refill_bypass_success"] = demo_refill_bypass(profile, cfg.seed).success
    if flags.pmu_noise_amplitude:
        summary["classifier_accuracy"] = pmu_noise_effect(
            base_profile, flags.pmu_noise_amplitude, trials=1000, seed=cfg.seed
        )

    # the summary nests dicts and lists, so it has no CSV form: csv prints JSON
    sys.stdout.write(emit_report(summary, "table" if cfg.output == "table" else "json"))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "profiles": _cmd_profiles,
        "attack": _cmd_attack,
        "covert": _cmd_covert,
        "sweep-bits": _cmd_sweep,
        "matrix": _cmd_matrix,
        "mitigate": _cmd_mitigate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
