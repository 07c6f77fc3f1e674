"""Command-line front end.

Commands: score, cov-ref, test, region, simulate.  Data goes to --out (or
stdout; score needs --out, the prefix of its two files); diagnostics go to
stderr; every run emits a JSON manifest recording inputs, seed, versions,
wall time and all warnings raised in the pipeline.
Exit codes: 0 success, 2 usage or parse failure or an unwritable output,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy

from . import __version__, crossing, exceedance, fileio, omnibus, scores, setstats, simlab
from .errors import DomainError, GBJError, ModelError


@dataclass
class RunManifest:
    command: str
    inputs: dict
    seed: int | None
    methods: list
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    warnings: list = field(default_factory=list)

    def write(self, path: str | None) -> None:
        payload = json.dumps(asdict(self), indent=2, sort_keys=True)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _manifest_path(args) -> str | None:
    return args.manifest or (args.out + ".manifest.json" if args.out else None)


def _parse_methods(spec: str) -> list[str]:
    lookup = {m.lower(): m for m in simlab.DEFAULT_METHODS}
    out = []
    for tok in spec.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        if tok not in lookup:
            raise DomainError(f"unknown method {tok!r}; choose from "
                              f"{','.join(lookup)}")
        if lookup[tok] in out:
            raise DomainError(f"method {tok!r} is listed twice")
        out.append(lookup[tok])
    if not out:
        raise DomainError("no methods requested")
    return out


def cmd_score(args, manifest: RunManifest) -> None:
    G = fileio.read_genotypes(args.genotypes)
    y = fileio.read_phenotype(args.phenotype)
    if y.size != G.n:
        raise fileio.ParseError(f"{G.n} genotype rows but {y.size} phenotype values")
    if args.covariates:
        X = fileio.read_covariates(args.covariates)
        if X.shape[0] != G.n:
            raise fileio.ParseError(f"{G.n} genotype rows but {X.shape[0]} covariate rows")
        X = np.column_stack([np.ones(G.n), X])
    else:
        X = np.ones((G.n, 1))
    if G.imputed:
        manifest.warnings.append(f"mean_imputed_columns={','.join(G.imputed)}")
    fit = scores.fit_null(y, X, args.family)
    if not fit.converged:
        manifest.warnings.append("null_fit_not_converged")
    Z, Sigma, kept, dropped = scores.score_stats(G, fit, X)
    if dropped:
        manifest.warnings.append(f"dropped_columns={','.join(dropped)}")
    fileio.write_zstats(args.out + ".zstats.tsv", kept, Z.z)
    _emit(fileio.format_correlation(Sigma), args.out + ".cor.tsv")


def cmd_cov_ref(args, manifest: RunManifest) -> None:
    panel = fileio.read_genotypes(args.panel)
    if panel.imputed:
        manifest.warnings.append(f"mean_imputed_columns={','.join(panel.imputed)}")
    Sigma = scores.ref_panel_cov(panel, m=args.num_pcs)
    _emit(fileio.format_correlation(Sigma), args.out)


def cmd_test(args, manifest: RunManifest) -> None:
    methods = manifest.methods = _parse_methods(args.methods)
    ids, z = fileio.read_zstats(args.zstats)
    model = exceedance.correlation_model(fileio.read_correlation(args.correlation))
    if model.d != z.size:
        raise fileio.ParseError(f"{z.size} statistics but {model.d}x{model.d} correlation")
    Z = setstats.ZVector(z)
    outcomes = crossing._pvalues([m for m in methods if m in setstats.ALL_METHODS], [Z], model)
    lines = ["method\tstatistic\tpvalue\tachieving_index\tflags"]
    for method in methods:
        idx = None
        if method == "SKAT":
            stat, p, flags = omnibus.skat_statistic(Z), omnibus.skat_lite(Z, model), []
        elif method == "OMNI":
            manifest.seed = args.seed or 0      # the seed drawn with, so a rerun can match
            res = omnibus.omnibus_test(Z, model, B=args.bootstrap_reps, seed=manifest.seed)
            stat, p = res.omni_stat, res.p_omni
            flags = [*res.diagnostics, f"bootstrap_reps={res.bootstrap_reps}"]
            if res.dropped_replicates:
                flags.append(f"bootstrap_dropped={res.dropped_replicates}")
            manifest.warnings.extend(res.diagnostics)
        else:
            [out] = outcomes[method]
            if isinstance(out, GBJError):
                raise out
            stat, p, idx = out.statistic, out.pvalue, out.achieving_index
            flags = sorted(out.diagnostics)
            manifest.warnings.extend(out.diagnostics)
        lines.append(f"{method}\t{stat:.10g}\t{p:.6g}\t{'NA' if idx is None else idx}\t"
                     f"{';'.join(flags) or '-'}")
    _emit("\n".join(lines) + "\n", args.out)


def cmd_region(args, manifest: RunManifest) -> None:
    methods = _parse_methods(args.method)
    if len(methods) > 1:
        raise DomainError(f"region takes one method, got {','.join(methods)}")
    method = methods[0]
    if method in ("SKAT", "OMNI"):
        raise DomainError("region applies to the boundary methods "
                          "(gbj, bj, hc, ghc, minp)")
    manifest.methods = [method]
    model = exceedance.correlation_model(fileio.read_correlation(args.correlation))
    bounds = crossing.rejection_region(method, args.alpha, model.d, model)
    manifest.warnings.extend(bounds.diagnostics)
    _emit(crossing.region_to_tsv(bounds, method, args.alpha), args.out)


# Each simulate setting once: (config-file key, flag, type).  A setting given
# neither as a flag nor in the config file takes its BlockStructure or
# SimConfig default; d and k, which have none there, default to 20 and 0.
SIM_SETTINGS = (
    ("d", "--d", int),
    ("k", "--k", int),
    ("rho1", "--rho1", float),
    ("rho2", "--rho2", float),
    ("rho3", "--rho3", float),
    ("noise_corr_fraction", "--noise-frac", float),
    ("n", "--n", int),
    ("maf", "--maf", float),
    ("beta", "--beta", float),
    ("alpha", "--alpha", float),
    ("reps", "--reps", int),
    ("methods", "--methods", str),
    ("bootstrap_reps", "--bootstrap-reps", int),
    ("seed", "--seed", int),
)


def _load_sim_config(args) -> simlab.SimConfig:
    cfg: dict[str, tuple[str, int]] = {}    # key -> (value, line number)
    known = {key for key, _, _ in SIM_SETTINGS}
    if args.config:
        for i, ln in fileio._read_lines(args.config):
            ln = ln.strip()
            if ln.startswith("#"):
                continue
            if "=" not in ln:
                raise fileio.ParseError(f"{args.config}:{i}: expected key=value")
            key, val = (part.strip() for part in ln.split("=", 1))
            if key not in known:
                raise fileio.ParseError(f"{args.config}:{i}: unknown setting {key!r}")
            cfg[key] = (val, i)
    given = {"d": 20, "k": 0}
    for key, flag, cast in SIM_SETTINGS:
        val = getattr(args, flag[2:].replace("-", "_"))
        if val is None and key in cfg:
            text, line = cfg[key]
            try:
                val = cast(text)
            except ValueError as exc:
                raise fileio.ParseError(f"{args.config}:{line}: {key}: not a valid "
                                        f"{cast.__name__}: {text!r}") from exc
        if val is not None:
            given[key] = val
    if "methods" in given:
        given["methods"] = tuple(_parse_methods(given["methods"]))
    block_keys = {f.name for f in fields(simlab.BlockStructure)}
    structure = simlab.BlockStructure(**{k: v for k, v in given.items() if k in block_keys})
    return simlab.SimConfig(structure,
                            **{k: v for k, v in given.items() if k not in block_keys})


def cmd_simulate(args, manifest: RunManifest) -> None:
    config = _load_sim_config(args)
    manifest.seed, manifest.methods = config.seed, list(config.methods)
    result = simlab.run_study(config, args.mode)
    manifest.warnings.extend(result.diagnostics)
    _emit(simlab.result_to_tsv(result), args.out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gbjtest",
                                description="Set-based association tests for "
                                            "correlated statistics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_prefix=False):
        if out_prefix:
            sp.add_argument("--out", required=True, help="output prefix: writes "
                            "<out>.zstats.tsv and <out>.cor.tsv")
        else:
            sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--manifest", default=None,
                        help="manifest path (default <out>.manifest.json, "
                             "stderr when writing to stdout)")

    sp = sub.add_parser("score", help="score statistics from individual-level data")
    sp.add_argument("--genotypes", required=True)
    sp.add_argument("--phenotype", required=True)
    sp.add_argument("--covariates", default=None)
    sp.add_argument("--family", choices=(scores.GAUSSIAN, scores.BINOMIAL),
                    default=scores.GAUSSIAN)
    common(sp, out_prefix=True)
    sp.set_defaults(func=cmd_score, inputs=("genotypes", "phenotype", "covariates"))

    sp = sub.add_parser("cov-ref", help="correlation from a reference panel")
    sp.add_argument("--panel", required=True)
    sp.add_argument("--num-pcs", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_cov_ref, inputs=("panel",))

    sp = sub.add_parser("test", help="set-based tests from summary statistics")
    sp.add_argument("--zstats", required=True)
    sp.add_argument("--correlation", required=True)
    sp.add_argument("--methods", default=",".join(simlab.DEFAULT_METHODS).lower())
    sp.add_argument("--bootstrap-reps", type=int, default=omnibus.DEFAULT_BOOTSTRAP_REPS)
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the omnibus bootstrap (default 0)")
    common(sp)
    sp.set_defaults(func=cmd_test, inputs=("zstats", "correlation"))

    sp = sub.add_parser("region", help="rejection boundaries at a target level")
    sp.add_argument("--method", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--correlation", required=True)
    common(sp)
    sp.set_defaults(func=cmd_region, inputs=("correlation",))

    sp = sub.add_parser("simulate", help="size or power study")
    sp.add_argument("--mode", choices=(simlab.SIZE, simlab.POWER), required=True)
    sp.add_argument("--config", default=None, help="flat key=value file")
    for key, flag, cast in SIM_SETTINGS:
        sp.add_argument(flag, type=cast)
    common(sp)
    sp.set_defaults(func=cmd_simulate, inputs=("config",))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    manifest = RunManifest(command=args.command,
                           inputs={name: getattr(args, name) for name in args.inputs},
                           seed=getattr(args, "seed", None), methods=[],
                           versions={"gbjtest": __version__, "numpy": np.__version__,
                                     "scipy": scipy.__version__})
    try:
        t0 = time.perf_counter()
        args.func(args, manifest)
        manifest.wall_time_s = time.perf_counter() - t0
        manifest.write(_manifest_path(args))
    except (OSError, DomainError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GBJError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
