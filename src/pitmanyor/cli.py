"""Command-line surface: simulate, fit, posterior, lr, verify, experiment.

Exit codes: 0 success (possibly with warnings), 1 runtime/I-O errors,
2 usage errors.  Every JSON output embeds the tool version, the resolved
configuration, the seed, and sha256 digests of the inputs, so any run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments, inference, partition
from .estimators import INTERIOR, mle_sigma, profile_mle
from .numerics import IntegrationError
from .population import population_from_json
from .sampler import RngStream, sample_iid_labels, sample_py_partition, \
    write_sample_csv


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Pair(str):
    """An A,B flag value (an argparse `type`): the text as given, which the
    provenance records, and its two numbers in `values`."""

    def __new__(cls, text):
        try:
            a, b = map(float, text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected two comma-separated numbers, got {text!r}") from None
        self = super().__new__(cls, text)
        self.values = (a, b)
        return self


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _guard_output(path, force):
    if Path(path).exists() and not force:
        raise CliError(f"refusing to overwrite {path} (use --force)", 1)


def _write_json(path, payload, force):
    _guard_output(path, force)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit(args, payload):
    """payload as indented JSON: to --out if given, else to stdout."""
    if args.out:
        _write_json(args.out, payload, args.force)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _provenance(args, inputs=()):
    return {
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k != "func" and v is not None},
        "input_digests": {str(p): _digest(p) for p in inputs},
    }


def _load_stats(args):
    if args.stats is not None:
        text = Path(args.stats).read_text()
        payload = partition.json_object(json.loads(text), "stats JSON")
        if "stats" in payload:  # wrapped output of `simulate`
            text = json.dumps(payload["stats"])
        return partition.PartitionStats.from_json(text), [args.stats]
    if args.sample is not None:
        return partition.read_sample_csv(args.sample), [args.sample]
    raise CliError("provide --stats or --sample", 2)


def _parse_prior(args):
    kwargs = {}
    if args.prior == "beta":
        a, b = args.beta.values
        kwargs.update(sigma_kind="beta", beta_a=a, beta_b=b)
    if getattr(args, "m", None) is not None:
        kwargs.update(M_kind="fixed", M_value=args.m)
    elif getattr(args, "m_uniform_max", None) is not None:
        kwargs.update(M_kind="uniform", M_max=args.m_uniform_max)
    return inference.PriorSpec(**kwargs)


# ---------------------------------------------------------------------------


def cmd_simulate(args):
    if args.n < 1:
        raise CliError("--n must be a positive integer", 2)
    rng = RngStream(args.seed)
    if args.py is not None:
        sigma, M = args.py.values
        stats = sample_py_partition(sigma, M, args.n, rng)
        labels = stats.expand()
    else:
        pop = population_from_json(Path(args.population).read_text())
        labels = sample_iid_labels(pop, args.n, rng)
        # block sizes by sorting, not np.bincount: a power-law label is an
        # atom index that can reach 2^62, so memory must not follow its size
        stats = partition.from_sizes(np.unique(labels, return_counts=True)[1])
    _guard_output(args.out, args.force)
    write_sample_csv(args.out, labels)
    stats_path = args.stats_out or str(Path(args.out).with_suffix(".json"))
    payload = {"stats": json.loads(stats.to_json()),
               "provenance": _provenance(args)}
    _write_json(stats_path, payload, args.force)
    top = ", ".join(str(x) for x in stats.N[:5])
    print(f"n={stats.n} K={stats.K} largest blocks: {top}")
    return 0


def cmd_fit(args):
    stats, inputs = _load_stats(args)
    if args.profile:
        res = profile_mle(stats, M_max=args.m_max, se=args.se)
    else:
        res = mle_sigma(stats, args.m, se=args.se)
    warnings = []
    if res.boundary != INTERIOR:
        warnings.append(f"estimate at boundary: {res.boundary}")
    for key, root in (("converged", "sigma"), ("M_converged", "M")):
        if res.diagnostics.get(key) is False:
            warnings.append(f"the {root} root did not converge")
    payload = json.loads(res.to_json(stats))
    payload["warnings"] = warnings
    payload["provenance"] = _provenance(args, inputs)
    _emit(args, payload)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_posterior(args):
    stats, inputs = _load_stats(args)
    prior = _parse_prior(args)
    post = inference.posterior_sigma(stats, prior)
    mean, sd, interval = inference.posterior_mean_and_interval(
        post, level=args.level)
    if args.csv_out:
        _guard_output(args.csv_out, args.force)
        post.write_csv(args.csv_out)
    payload = {
        "mean": mean, "sd": sd, "interval": list(interval),
        "level": args.level, "degenerate": post.degenerate,
        "prior_spec": prior.to_dict(),
        "provenance": _provenance(args, inputs),
    }
    _emit(args, payload)
    return 0


def cmd_lr(args):
    counts = partition.read_sample_counts(args.db)
    if args.crime_profile in counts:
        raise CliError("crime profile must be a new, unseen species", 1)
    counts[args.crime_profile] = 1
    stats = partition.from_occupancy(counts)
    prior = _parse_prior(args)
    report = inference.forensic_report(stats, prior)
    report["provenance"] = _provenance(args, [args.db])
    _emit(args, report)
    return 0


def cmd_verify(args):
    rows = experiments.verify_suite(fast=args.fast)
    width = max(len(name) for name, _, _ in rows)
    failed = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        failed += not ok
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


def cmd_experiment(args):
    spec = partition.json_object(json.loads(Path(args.config).read_text()),
                                 "experiment config")
    check = spec.get("check")
    if check not in experiments.CHECKS:
        raise CliError(f"unknown check {check!r}; choose from "
                       f"{', '.join(experiments.CHECKS)}", 2)
    spec["threads"] = args.threads
    config = experiments.ExperimentConfig.from_dict(spec, check)
    # looked up at call time, so a wrapper rebound on the module is honoured
    report = getattr(experiments, f"run_{check}")(config)
    payload = json.loads(report.to_json())
    payload["provenance"] = _provenance(args, [args.config])
    _write_json(args.out, payload, args.force)
    print(f"{check}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.wall_clock:.1f}s) -> {args.out}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pitmanyor",
        description="Pitman-Yor type-parameter estimation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="draw a sample and write CSV + stats")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--py", metavar="SIGMA,M", type=_Pair,
                     help="sample a Pitman-Yor partition directly")
    src.add_argument("--population", metavar="JSON_PATH",
                     help="i.i.d. sample from a population spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sample CSV path")
    p.add_argument("--stats-out", help="stats JSON path (default: out.json)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="maximum marginal likelihood estimate")
    p.add_argument("--stats", help="stats JSON input")
    p.add_argument("--sample", help="sample CSV input")
    p.add_argument("--m", type=float, default=1.0,
                   help="fixed precision M (default 1)")
    p.add_argument("--profile", action="store_true",
                   help="profile over M instead of fixing it")
    p.add_argument("--m-max", type=float, default=50.0)
    p.add_argument("--se", action="store_true", help="attach standard errors")
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("posterior", help="grid posterior for sigma")
    p.add_argument("--stats")
    p.add_argument("--sample")
    p.add_argument("--prior", choices=("uniform", "beta"), default="uniform")
    p.add_argument("--beta", metavar="A,B", type=_Pair, default="1,1")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--m", type=float, help="fixed M (default 1)")
    g.add_argument("--m-uniform-max", type=float,
                   help="uniform M prior on [0, MAX]")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--csv-out", help="full grid CSV")
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("lr", help="forensic likelihood ratio")
    p.add_argument("--db", required=True, help="database sample CSV")
    p.add_argument("--crime-profile", required=True,
                   help="label of the new profile")
    p.add_argument("--prior", choices=("uniform", "beta"), default="uniform")
    p.add_argument("--beta", metavar="A,B", type=_Pair, default="1,1")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--m", type=float)
    g.add_argument("--m-uniform-max", type=float)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("verify", help="run the deterministic invariant suite")
    p.add_argument("--fast", action="store_true",
                   help="trim expensive enumerations (< 60 s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a Monte Carlo check")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the replications (forked; "
                   "replication 0 runs in this process; default 1)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
