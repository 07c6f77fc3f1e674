"""Command-line front end.

Commands: score, cov-ref, test, region, simulate.  Data goes to --out (or
stdout; score needs --out, the prefix of its two files); diagnostics go to
stderr; every run emits a JSON manifest recording inputs, seed, versions,
wall time and all warnings raised in the pipeline.
Exit codes: 0 success, 2 usage or parse failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field

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


def _versions() -> dict:
    return {"gbjtest": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _manifest_path(args) -> str | None:
    if args.manifest:
        return args.manifest
    if getattr(args, "out", None):
        return args.out + ".manifest.json"
    return None


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
        out.append(lookup[tok])
    if not out:
        raise DomainError("no methods requested")
    return out


def cmd_score(args) -> int:
    manifest = RunManifest(command="score",
                           inputs={"genotypes": args.genotypes,
                                   "phenotype": args.phenotype,
                                   "covariates": args.covariates},
                           seed=args.seed, methods=[], versions=_versions())
    t0 = time.perf_counter()
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
    manifest.wall_time_s = time.perf_counter() - t0
    manifest.write(_manifest_path(args))
    return 0


def cmd_cov_ref(args) -> int:
    manifest = RunManifest(command="cov-ref", inputs={"panel": args.panel},
                           seed=args.seed, methods=[], versions=_versions())
    t0 = time.perf_counter()
    panel = fileio.read_genotypes(args.panel)
    if panel.imputed:
        manifest.warnings.append(f"mean_imputed_columns={','.join(panel.imputed)}")
    Sigma = scores.ref_panel_cov(panel, m=args.num_pcs)
    _emit(fileio.format_correlation(Sigma), args.out)
    manifest.wall_time_s = time.perf_counter() - t0
    manifest.write(_manifest_path(args))
    return 0


def cmd_test(args) -> int:
    methods = _parse_methods(args.methods)
    manifest = RunManifest(command="test",
                           inputs={"zstats": args.zstats,
                                   "correlation": args.correlation},
                           seed=args.seed, methods=methods, versions=_versions())
    t0 = time.perf_counter()
    ids, z = fileio.read_zstats(args.zstats)
    model = exceedance.correlation_model(fileio.read_correlation(args.correlation))
    if model.d != z.size:
        raise fileio.ParseError(f"{z.size} statistics but {model.d}x{model.d} correlation")
    Z = setstats.ZVector(z)
    lines = ["method\tstatistic\tpvalue\tachieving_index\tflags"]
    for method in methods:
        if method == "SKAT":
            q = omnibus.skat_statistic(Z)
            p = omnibus.skat_lite(Z, model)
            lines.append(f"SKAT\t{q:.10g}\t{p:.6g}\tNA\t-")
        elif method == "OMNI":
            res = omnibus.omnibus_test(Z, model, B=args.bootstrap_reps,
                                       seed=args.seed or 0)
            flags = list(res.diagnostics)
            flags.append(f"bootstrap_reps={res.bootstrap_reps}")
            if res.dropped_replicates:
                flags.append(f"bootstrap_dropped={res.dropped_replicates}")
            manifest.warnings.extend(f for f in res.diagnostics)
            lines.append(f"OMNI\t{res.omni_stat:.10g}\t{res.p_omni:.6g}\tNA\t"
                         + ";".join(flags))
        else:
            out = crossing.pvalue(method, Z, model)
            idx = "NA" if out.achieving_index is None else str(out.achieving_index)
            flags = ";".join(sorted(out.diagnostics)) if out.diagnostics else "-"
            manifest.warnings.extend(out.diagnostics)
            lines.append(f"{method}\t{out.statistic:.10g}\t{out.pvalue:.6g}\t{idx}\t{flags}")
    _emit("\n".join(lines) + "\n", args.out)
    manifest.wall_time_s = time.perf_counter() - t0
    manifest.write(_manifest_path(args))
    return 0


def cmd_region(args) -> int:
    method = _parse_methods(args.method)[0]
    if method in ("SKAT", "OMNI"):
        raise DomainError("region applies to the boundary methods "
                          "(gbj, bj, hc, ghc, minp)")
    manifest = RunManifest(command="region",
                           inputs={"correlation": args.correlation},
                           seed=args.seed, methods=[method], versions=_versions())
    t0 = time.perf_counter()
    model = exceedance.correlation_model(fileio.read_correlation(args.correlation))
    bounds = crossing.rejection_region(method, args.alpha, model.d, model)
    manifest.warnings.extend(bounds.diagnostics)
    _emit(crossing.region_to_tsv(bounds, method, args.alpha), args.out)
    manifest.wall_time_s = time.perf_counter() - t0
    manifest.write(_manifest_path(args))
    return 0


def _load_sim_config(args) -> simlab.SimConfig:
    cfg: dict[str, tuple[str, int]] = {}    # key -> (value, line number)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise fileio.ParseError(f"{args.config}: cannot read ({exc})") from exc
        for i, ln in enumerate(lines, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise fileio.ParseError(f"{args.config}:{i}: expected key=value")
            key, val = ln.split("=", 1)
            cfg[key.strip()] = (val.strip(), i)

    def pick(name, flag_val, cast, default):
        if flag_val is not None:
            return flag_val
        if name not in cfg:
            return default
        val, line = cfg[name]
        try:
            return cast(val)
        except ValueError as exc:
            raise fileio.ParseError(f"{args.config}:{line}: {name}: not a valid "
                                    f"{cast.__name__}: {val!r}") from exc

    structure = simlab.BlockStructure(
        d=pick("d", args.d, int, 20),
        k=pick("k", args.k, int, 0),
        rho1=pick("rho1", args.rho1, float, 0.0),
        rho2=pick("rho2", args.rho2, float, 0.0),
        rho3=pick("rho3", args.rho3, float, 0.0),
        noise_corr_fraction=pick("noise_corr_fraction", args.noise_frac, float, 0.5),
    )
    methods = pick("methods", args.methods, str, "gbj,bj,hc,ghc,minp,skat,omni")
    return simlab.SimConfig(
        structure=structure,
        n=pick("n", args.n, int, 1000),
        maf=pick("maf", args.maf, float, 0.3),
        beta=pick("beta", args.beta, float, 0.0),
        alpha=pick("alpha", args.alpha, float, 0.01),
        reps=pick("reps", args.reps, int, 1000),
        seed=pick("seed", args.seed, int, 0),
        methods=tuple(_parse_methods(methods)),
        bootstrap_reps=pick("bootstrap_reps", args.bootstrap_reps, int, 100),
    )


def cmd_simulate(args) -> int:
    config = _load_sim_config(args)
    manifest = RunManifest(command="simulate",
                           inputs={"config": args.config},
                           seed=config.seed, methods=list(config.methods),
                           versions=_versions())
    t0 = time.perf_counter()
    result = simlab.run_study(config, args.mode)
    manifest.warnings.extend(result.diagnostics)
    _emit(simlab.result_to_tsv(result), args.out)
    manifest.wall_time_s = time.perf_counter() - t0
    manifest.write(_manifest_path(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gbjtest",
                                description="Set-based association tests for "
                                            "correlated statistics")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_prefix=False):
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed for all randomized components "
                             "(default 0 where one is needed)")
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
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("cov-ref", help="correlation from a reference panel")
    sp.add_argument("--panel", required=True)
    sp.add_argument("--num-pcs", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_cov_ref)

    sp = sub.add_parser("test", help="set-based tests from summary statistics")
    sp.add_argument("--zstats", required=True)
    sp.add_argument("--correlation", required=True)
    sp.add_argument("--methods", default="gbj,bj,hc,ghc,minp,skat,omni")
    sp.add_argument("--bootstrap-reps", type=int, default=100)
    common(sp)
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("region", help="rejection boundaries at a target level")
    sp.add_argument("--method", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--correlation", required=True)
    common(sp)
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("simulate", help="size or power study")
    sp.add_argument("--mode", choices=(simlab.SIZE, simlab.POWER), required=True)
    sp.add_argument("--config", default=None, help="flat key=value file")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--rho1", type=float, default=None)
    sp.add_argument("--rho2", type=float, default=None)
    sp.add_argument("--rho3", type=float, default=None)
    sp.add_argument("--noise-frac", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--maf", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--reps", type=int, default=None)
    sp.add_argument("--methods", default=None)
    sp.add_argument("--bootstrap-reps", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (fileio.ParseError, DomainError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GBJError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
